"""Held-out quality at the paper grid: SIRM and NBOW over five seeds.

perfbench/gen.py's documents (generator seed 0, 3072 documents) are split in
order into 2048 train, 512 dev and 512 test documents, and the vocabulary is
built from train. Each model kind trains with the default SIRMConfig (m=8,
n=32) and TrainConfig at model seeds 0-4, for 15 epochs with no early stop;
`train` keeps the epoch with the best dev macro-F1. For each run the script
prints the dev macro-F1 curve, the number of dev passes that predicted one
class for every document, and the kept epoch's test macro-F1 and ROC AUC;
then each kind's mean and spread (min-max, population standard deviation).
About 3 minutes on 2 cores.

    python3 scripts/quality.py
"""

import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import gen  # noqa: E402
from sirm import model, text, training  # noqa: E402
from sirm.evaluation import evaluate  # noqa: E402

DOCS, TRAIN_DOCS, DEV_DOCS = 3072, 2048, 512
EPOCHS = 15
KINDS = ("sirm", "nbow")
SEEDS = (0, 1, 2, 3, 4)


def roc_auc(probs, labels):
    """Area under the ROC curve: the Mann-Whitney statistic, ties at half."""
    probs, labels = np.asarray(probs), np.asarray(labels) == 1
    _, inverse, counts = np.unique(probs, return_inverse=True, return_counts=True)
    # the average 1-based rank of each distinct value
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    n_pos, n_neg = labels.sum(), (~labels).sum()
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def splits():
    docs = gen.generate(0, DOCS)
    train_docs = docs[:TRAIN_DOCS]
    dev_docs = docs[TRAIN_DOCS:TRAIN_DOCS + DEV_DOCS]
    test_docs = docs[TRAIN_DOCS + DEV_DOCS:]
    vocab = text.build_vocab(train_docs)
    config = model.SIRMConfig(vocab_size=len(vocab))
    encoded = [text.encode_split(d, vocab, config.m, config.n)
               for d in (train_docs, dev_docs, test_docs)]
    return config, encoded


def run(kind, seed, config, train_grids, dev_grids, test_grids):
    """One training run: its dev curve, single-class dev passes and test scores."""
    single_class = []

    def recorded(*args, **kwargs):      # train's dev pass, unchanged
        report, rows = evaluate(*args, **kwargs)
        single_class.append(len({pred for _, _, pred, _ in rows}) == 1)
        return report, rows

    tc = training.TrainConfig(max_epochs=EPOCHS, early_stop_patience=EPOCHS, seed=seed)
    start = time.perf_counter()
    training.evaluate = recorded
    try:
        params, history = training.train(train_grids, dev_grids, kind, config, tc)
    finally:
        training.evaluate = evaluate
    report, rows = evaluate(kind, params, config, test_grids)
    return {
        "kind": kind, "seed": seed,
        "dev_macro_f1": [round(r["dev_macro_f1"], 3) for r in history],
        "kept_epoch": training.best_epoch(history),
        "single_class_dev_epochs": sum(single_class),
        "test_macro_f1": report["macro_f1"],
        "test_auc": roc_auc([r[1] for r in rows], [r[3] for r in rows]),
        "seconds": time.perf_counter() - start,
    }


def spread(values):
    return (f"{np.mean(values):.3f} ({min(values):.3f}-{max(values):.3f}, "
            f"sd {np.std(values):.3f})")


def main():
    config, grids = splits()
    results = []
    for kind in KINDS:
        for seed in SEEDS:
            results.append(run(kind, seed, config, *grids))
            r = results[-1]
            print(f"{kind} seed {seed}: test macro-F1 {r['test_macro_f1']:.3f} "
                  f"AUC {r['test_auc']:.3f}, kept epoch {r['kept_epoch']}, "
                  f"{r['single_class_dev_epochs']} single-class dev epochs, "
                  f"{r['seconds']:.0f} s; dev macro-F1 {r['dev_macro_f1']}", flush=True)
    print("\n| kind | test macro-F1 mean (range, sd) | test AUC mean (range, sd) "
          "| single-class dev epochs |")
    print("|---|---|---|---|")
    for kind in KINDS:
        runs = [r for r in results if r["kind"] == kind]
        print(f"| {kind} | {spread([r['test_macro_f1'] for r in runs])} "
              f"| {spread([r['test_auc'] for r in runs])} "
              f"| {sum(r['single_class_dev_epochs'] for r in runs)} of {EPOCHS * len(runs)} |")


if __name__ == "__main__":
    main()
