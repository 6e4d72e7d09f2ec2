"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s, or in the
captured output on failure) before asserting, so a run of this file doubles
as a release checklist.
"""

import itertools
import os
import statistics
import time
from pathlib import Path

import numpy as np
import pytest

from sirm import tensor as T
from sirm.cli import run_grad_check, toy_grad_check_config
from sirm.evaluation import evaluate, metrics
from sirm.model import (SIRMConfig, dense_connect_pool, init_sirm_params,
                        near_neighbor_encode, param_count,
                        positional_encoding, sirm_forward, sirm_loss,
                        skim_forward)
from sirm.synthetic import GRID_M, GRID_N
from sirm.text import ParagraphGrid, build_vocab, encode_split, load_dataset
from sirm.training import TrainConfig, train

from test_model import dense_pool_oracle, neighbor_oracle, skim_oracle

DATA = Path(__file__).resolve().parent.parent / "data" / "synthetic_64.jsonl"


def check(ok, line):
    print(("PASS " if ok else "FAIL ") + line)
    assert ok, line


def toy_config(**overrides):
    defaults = dict(vocab_size=12, d_e=4, d_c=4, src_windows=(1, 2), k=1,
                    d_ns=4, d_np=4, d_as=4, d_ap=4, m=2, n=3)
    defaults.update(overrides)
    return SIRMConfig(**defaults)


def random_grid(config, rng, label=1):
    ids = rng.integers(2, config.vocab_size, size=(config.m, config.n))
    return ParagraphGrid(ids, label=label)


@pytest.fixture(scope="module")
def synthetic_grids():
    split = load_dataset(DATA)
    vocab = build_vocab(split, min_frequency=1)
    return encode_split(split, vocab, GRID_M, GRID_N), len(vocab)


@pytest.fixture(scope="module")
def trained_runs(synthetic_grids):
    """One SIRM and one NBOW training run per seed on the bundled set.

    The dev split is the full set itself: all template combinations are
    enumerated, so held-out generalization is not the question here; the
    question is whether each architecture can represent the labeling at all.
    """
    grids, vocab_size = synthetic_grids
    config = SIRMConfig(vocab_size=vocab_size, m=GRID_M, n=GRID_N)
    runs = {}
    for model_kind in ("sirm", "nbow"):
        for seed in (0, 1, 2):
            tc = TrainConfig(learning_rate=1e-3, batch_size=64,
                             max_epochs=200, early_stop_patience=20, seed=seed)
            start = time.perf_counter()
            params, history = train(grids, grids, model_kind, config, tc)
            runs[(model_kind, seed)] = {
                "params": params,
                "history": history,
                "wall": time.perf_counter() - start,
                "config": config,
            }
    return runs


def test_gradient_suite():
    start = time.perf_counter()
    max_err, per_tensor = run_grad_check(toy_grad_check_config(), seed=7)
    elapsed = time.perf_counter() - start
    check(max_err < 1e-4 and elapsed < 60,
          f"gradient suite: max relative error {max_err:.3e} < 1e-4 "
          f"across {len(per_tensor)} tensors in {elapsed:.1f}s")


def test_position_encoding_properties():
    d = 64
    table = positional_encoding(300, d).data
    row_zero_ok = np.array_equal(table[0], np.tile([0.0, 1.0], d // 2))
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        pos = int(rng.integers(0, 150))
        kappa = int(rng.integers(0, 150))
        i = int(rng.integers(0, d // 2))
        theta = kappa / 10000 ** (2 * i / d)
        rot = np.array([[np.cos(theta), np.sin(theta)],
                        [-np.sin(theta), np.cos(theta)]])
        got = table[pos + kappa, 2 * i:2 * i + 2]
        worst = max(worst, np.abs(got - rot @ table[pos, 2 * i:2 * i + 2]).max())
    check(row_zero_ok and worst < 1e-9,
          f"position encoding: row 0 exact, rotation identity error {worst:.2e} "
          "< 1e-9 over 100 triples")


def _src_gradients(config, params, grid, label, loss_kind):
    """Gradients of one loss branch w.r.t. the shared (SRC-side) tensors."""
    T.zero_grads(params.tensors())
    if loss_kind == "total":
        T.backward(sirm_loss(sirm_forward(grid, params, config), label))
    elif loss_kind == "bce":
        trace = sirm_forward(grid, params, config)
        T.backward(T.bce_loss(trace.y_prime, label))
    else:
        trace = sirm_forward(grid, params, config, reverse_gradients=False)
        T.backward(T.nll_loss(trace.y_dprime, label))
    out = {}
    for name, t in params.named_tensors():
        if name == "embedding" or name.startswith("src_filters."):
            out[name] = (t.grad.copy() if t.grad is not None
                         else np.zeros_like(t.data))
    return out


def test_adversarial_decomposition():
    lam = 1e-6
    worst = 0.0
    rng = np.random.default_rng(11)
    for trial in range(20):
        config = toy_config(lambda_adv=lam)
        params = init_sirm_params(config, seed=100 + trial, dtype=np.float64)
        grid = random_grid(config, rng, label=trial % 2)
        total = _src_gradients(config, params, grid, trial % 2, "total")
        bce = _src_gradients(config, params, grid, trial % 2, "bce")
        ce = _src_gradients(config, params, grid, trial % 2, "ce")
        for name in total:
            expected = bce[name] - lam * ce[name]
            denom = np.maximum(np.maximum(np.abs(total[name]),
                                          np.abs(expected)), 1e-8)
            worst = max(worst, (np.abs(total[name] - expected) / denom).max())

    config = toy_config(lambda_adv=0.0)
    params = init_sirm_params(config, seed=99, dtype=np.float64)
    grid = random_grid(config, np.random.default_rng(99))
    total = _src_gradients(config, params, grid, 1, "total")
    bce = _src_gradients(config, params, grid, 1, "bce")
    exact_at_zero = all(np.array_equal(total[n], bce[n]) for n in total)
    check(worst < 1e-6 and exact_at_zero,
          f"adversarial decomposition: max relative error {worst:.2e} < 1e-6 "
          "over 20 instances; lambda=0 branch bit-exact")


def test_oracle_equivalence():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng(trial)
        config = toy_config(m=int(rng.integers(1, 4)), n=int(rng.integers(2, 6)))
        params = init_sirm_params(config, seed=trial, dtype=np.float64)
        x = rng.normal(size=(config.m * config.n, config.d_e))

        got = skim_forward(T.Tensor(x), params, config).data
        worst = max(worst, np.abs(got - skim_oracle(x, params, config)).max())

        w, b = params.sent_neighbor
        got = near_neighbor_encode(T.Tensor(x), w, b, config.k).data
        worst = max(worst, np.abs(got - neighbor_oracle(x, w.data, b.data,
                                                        config.k)).max())

        dw, db = params.sent_dense
        g = rng.normal(size=config.g_width)
        u = rng.normal(size=(config.n, config.d_ns))
        xs = x[:config.n]
        got = dense_connect_pool(T.Tensor(xs), T.Tensor(u), T.Tensor(g),
                                 dw, db).data
        worst = max(worst, np.abs(got - dense_pool_oracle(xs, u, g, dw.data,
                                                          db.data)).max())
    check(worst < 1e-6,
          f"oracle equivalence: max absolute error {worst:.2e} < 1e-6 "
          "over 50 instances of each component")


def test_overfit_sanity(trained_runs, synthetic_grids):
    run = trained_runs[("sirm", 0)]
    best_acc = max(h["dev_acc"] for h in run["history"])
    epochs = len(run["history"])
    ok = best_acc >= 0.95 and epochs <= 200 and run["wall"] < 300
    check(ok, f"overfit sanity: train accuracy {best_acc:.3f} >= 0.95 "
              f"within {epochs} epochs in {run['wall']:.0f}s")
    grids, _ = synthetic_grids
    report, _ = evaluate("sirm", run["params"], run["config"], grids)
    check(report["accuracy"] == 1.0,
          "overfit sanity: best checkpoint scores accuracy 1.0 on its own "
          "training set")


def test_baseline_ordering(trained_runs, synthetic_grids):
    grids, _ = synthetic_grids
    scores = {}
    for model_kind in ("sirm", "nbow"):
        per_seed = []
        for seed in (0, 1, 2):
            run = trained_runs[(model_kind, seed)]
            report, _ = evaluate(model_kind, run["params"], run["config"], grids)
            per_seed.append(report["macro_f1"])
        scores[model_kind] = statistics.median(per_seed)
    check(scores["sirm"] >= scores["nbow"],
          f"baseline ordering: median macro-F1 sirm {scores['sirm']:.3f} >= "
          f"nbow {scores['nbow']:.3f} over seeds 0-2")


def test_parameter_count():
    params = init_sirm_params(SIRMConfig(vocab_size=30000), seed=0)
    count = param_count(params)
    check(count == 59971 and 57330 <= count <= 70070,
          f"parameter count: {count} == 59971 analytic, inside the "
          "[57330, 70070] band")


def test_metric_oracle():
    def brute_force(preds, labels):
        def f1_for(positive):
            tp = sum(p == positive and l == positive
                     for p, l in zip(preds, labels))
            fp = sum(p == positive and l != positive
                     for p, l in zip(preds, labels))
            fn = sum(p != positive and l == positive
                     for p, l in zip(preds, labels))
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            if precision + recall == 0.0:
                return 0.0
            return 2 * precision * recall / (precision + recall)

        accuracy = sum(p == l for p, l in zip(preds, labels)) / len(preds)
        return {"accuracy": accuracy, "f1": f1_for(1),
                "macro_f1": (f1_for(1) + f1_for(0)) / 2}

    mismatches = 0
    for bits in itertools.product((0, 1), repeat=8):
        preds, labels = list(bits[:4]), list(bits[4:])
        got = metrics(preds, labels)
        want = brute_force(preds, labels)
        if any(got[k] != pytest.approx(want[k], abs=1e-12) for k in want):
            mismatches += 1
    check(mismatches == 0,
          "metric oracle: metrics() matches brute-force confusion counts on "
          "all 256 prediction/label pairs")


@pytest.mark.parametrize("env_var,target", [
    ("SIRM_TWEETS_PATH", 0.775),
    ("SIRM_REDDIT_PATH", 0.650),
])
def test_stretch_full_training(env_var, target, tmp_path):
    """Full-corpus stretch run; needs user-supplied data, never fails the build."""
    root = os.environ.get(env_var)
    if not root:
        pytest.skip(f"{env_var} not set; stretch corpus not supplied")
    root = Path(root)
    train_split = load_dataset(root / "train.jsonl", name="train")
    test_split = load_dataset(root / "test.jsonl", name="test")
    vocab = build_vocab(train_split, min_frequency=2)
    config = SIRMConfig(vocab_size=len(vocab))
    train_grids = encode_split(train_split, vocab, config.m, config.n)
    test_grids = encode_split(test_split, vocab, config.m, config.n)
    history_path = tmp_path / "history.jsonl"
    params, history = train(train_grids, test_grids, "sirm", config,
                            TrainConfig(seed=0),
                            history_path=str(history_path))
    report, _ = evaluate("sirm", params, config, test_grids)
    line = (f"stretch {env_var}: test macro-F1 {report['macro_f1']:.4f} "
            f"(target {target}); history at {history_path}")
    print(("PASS " if report["macro_f1"] >= target else "BELOW TARGET ") + line)
    print(history[-1])
