"""Command-line surface: vocab building, training, evaluation, prediction,
and self-verification (gradient check, parameter count).

Exit codes: 0 success, 1 usage/config error, 2 data or format error,
3 numeric failure (divergence, non-finite probabilities or gradient-check
failure).
"""

import argparse
import dataclasses
import json
import logging
import math
import os
import sys

import numpy as np

from . import tensor as T
from .evaluation import evaluate, write_predictions
from .model import (MODELS, ConfigError, SIRMConfig, init_sirm_params,
                    param_count, sirm_forward, sirm_loss)
from .text import (PAD_ID, DataFormatError, ParagraphGrid, Vocabulary, atomic_write_bytes,
                   build_vocab, encode_split, load_dataset, tokenize)
from .training import (CheckpointError, TrainConfig, TrainingError, best_epoch,
                       load_checkpoint, save_checkpoint, split_dev, train)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

SIRM_FIELDS = {f.name for f in dataclasses.fields(SIRMConfig)}
TRAIN_FIELDS = {f.name for f in dataclasses.fields(TrainConfig)}
GRAD_CHECK_TOLERANCE = 1e-4   # largest passing relative error per tensor


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load_config_file(path):
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8-sig") as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise DataFormatError(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise DataFormatError(f"config {path} is not a JSON object")
    unknown = set(cfg) - SIRM_FIELDS - TRAIN_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _assemble(args, vocab_size):
    """Merge config-file values, CLI flag overrides and SIRM_SEED, in rising
    precedence, then validate them together.

    Each train flag's argparse dest is the config field it sets. The
    vocabulary fixes vocab_size; a config file may only repeat it.
    """
    cfg = _load_config_file(args.config)
    if cfg.get("vocab_size", vocab_size) != vocab_size:
        raise ConfigError(f"config vocab_size {cfg['vocab_size']} does not match "
                          f"the vocabulary's size {vocab_size}")
    cfg.update({key: val for key, val in vars(args).items()
                if key in SIRM_FIELDS | TRAIN_FIELDS and val is not None})
    cfg["vocab_size"] = vocab_size
    env_seed = os.environ.get("SIRM_SEED")
    if env_seed:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigError(f"SIRM_SEED must be an integer, got {env_seed!r}") from None
    sirm_cfg = SIRMConfig(**{k: v for k, v in cfg.items() if k in SIRM_FIELDS})
    train_cfg = TrainConfig(**{k: v for k, v in cfg.items() if k in TRAIN_FIELDS})
    return sirm_cfg, train_cfg


def cmd_build_vocab(args):
    split = load_dataset(args.train, fmt=args.format)
    vocab = build_vocab(split, min_frequency=args.min_freq, max_size=args.max_size)
    if len(vocab) <= 2:
        print("warning: vocabulary holds only the reserved tokens", file=sys.stderr)
    vocab.save(args.out)
    total = known = 0
    for text, _ in split:
        for tok in tokenize(text):
            total += 1
            known += int(tok in vocab.token_to_id)
    coverage = known / total if total else 0.0
    print(f"vocabulary size: {len(vocab)}")
    print(f"token coverage on train: {coverage:.4f}")
    return EXIT_OK


def cmd_train(args):
    vocab = Vocabulary.load(args.vocab)
    sirm_cfg, train_cfg = _assemble(args, len(vocab))
    train_split = load_dataset(args.train, fmt=args.format)
    train_grids = encode_split(train_split, vocab, sirm_cfg.m, sirm_cfg.n)
    if args.dev:
        dev_grids = encode_split(load_dataset(args.dev, fmt=args.format, name="dev"),
                                 vocab, sirm_cfg.m, sirm_cfg.n)
    else:
        train_grids, dev_grids = split_dev(train_grids, seed=train_cfg.seed)

    made_out_dir = not os.path.isdir(args.out_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    history_path = os.path.join(args.out_dir, "history.jsonl")
    # moved into place after the checkpoint and report, so the three files
    # in an --out-dir always come from one run
    partial_history = history_path + ".partial"
    ckpt_path = os.path.join(args.out_dir, "best.ckpt")
    try:
        params, history = train(train_grids, dev_grids, args.model, sirm_cfg,
                                train_cfg, history_path=partial_history)
        report, _ = evaluate(args.model, params, sirm_cfg, dev_grids)
        save_checkpoint(ckpt_path, args.model, sirm_cfg, params)
        atomic_write_bytes(os.path.join(args.out_dir, "dev_metrics.json"),
                           (json.dumps(report, indent=2) + "\n").encode("utf-8"))
    except BaseException:
        # a failed or interrupted run leaves the --out-dir as it found it
        if os.path.exists(partial_history):
            os.remove(partial_history)
        if made_out_dir and not os.listdir(args.out_dir):
            os.rmdir(args.out_dir)
        raise
    os.replace(partial_history, history_path)
    print(f"checkpoint: {ckpt_path}")
    print(f"epochs run: {len(history)}")
    best = history[best_epoch(history)]
    print(f"best epoch: {best['epoch']} (dev macro-F1 {best['dev_macro_f1']:.4f})")
    p = max(dev_grids.label.mean(), 1 - dev_grids.label.mean())      # majority-class rate
    chance = p + math.sqrt(p * (1 - p) / len(dev_grids))
    if best["dev_acc"] < chance:
        print(f"warning: best dev accuracy {best['dev_acc']:.4f} is below the majority-class "
              f"rate plus one standard error ({chance:.4f}): no better than chance",
              file=sys.stderr)
    print(json.dumps(report))
    return EXIT_OK


def _load_for_inference(args):
    model_kind, config, params = load_checkpoint(args.checkpoint)
    vocab = Vocabulary.load(args.vocab)
    if len(vocab) != config.vocab_size:
        raise CheckpointError(
            f"vocabulary size {len(vocab)} does not match checkpoint "
            f"config ({config.vocab_size})")
    split = load_dataset(args.data, fmt=args.format, name="eval")
    grids = encode_split(split, vocab, config.m, config.n)
    return model_kind, config, params, grids


def cmd_eval(args):
    model_kind, config, params, grids = _load_for_inference(args)
    report, _ = evaluate(model_kind, params, config, grids, threshold=args.threshold)
    print(json.dumps(report))
    return EXIT_OK


def cmd_predict(args):
    model_kind, config, params, grids = _load_for_inference(args)
    _, rows = evaluate(model_kind, params, config, grids, threshold=args.threshold)
    write_predictions(rows, args.out)
    print(f"wrote {len(rows)} predictions to {args.out}")
    return EXIT_OK


def toy_grad_check_config():
    return SIRMConfig(vocab_size=12, d_e=4, d_c=4, src_windows=(1, 2),
                      k=1, d_ns=4, d_np=4, d_as=4, d_ap=4, m=2, n=3)


def run_grad_check(config, seed=7):
    """Finite-difference the full model loss against every parameter tensor.

    Runs with the gradient-reversal node bypassed: reversal makes analytic
    gradients upstream of the skim features differ from the loss derivative
    on purpose, so its backward rule is verified separately and exactly.
    The grid holds two documents. In the first, with m >= 2, the last
    sentence repeats the first, so the sum over a sentence's copies is
    checked too. The second is one word and then <pad>: when the widest skim
    window spans at most half a document, the skim drops a quarter of the
    rows or more and reads their windows from a stretch of the grid's own
    <pad> rows, so that path is checked as well. Returns (max error, {name:
    error}); 64-bit throughout.
    """
    rng = np.random.default_rng(seed)
    params = init_sirm_params(config, seed=seed, dtype=np.float64)
    ids = rng.integers(2, config.vocab_size, size=(2, config.m, config.n))
    ids[0, -1] = ids[0, 0]
    ids[1].reshape(-1)[1:] = PAD_ID
    grid = ParagraphGrid(ids, np.array([1, 0]))

    def loss(_t):
        T.zero_grads(params.tensors())
        trace = sirm_forward(grid, params, config, reverse_gradients=False)
        return sirm_loss(trace, grid.label)

    errors = {name: T.finite_diff_check(loss, t)
              for name, t in params.named_tensors()}
    return max(errors.values()), errors


def _architecture(path, default):
    """`default` with the architecture fields a config file sets, if any."""
    cfg = _load_config_file(path)
    return dataclasses.replace(
        default, **{k: v for k, v in cfg.items() if k in SIRM_FIELDS})


def cmd_grad_check(args):
    config = _architecture(args.config, toy_grad_check_config())
    max_err, errors = run_grad_check(config)
    print(f"max relative gradient error: {max_err:.3e}")
    failing = sorted(n for n, e in errors.items() if e >= GRAD_CHECK_TOLERANCE)
    if failing:
        for name in failing:
            print(f"FAIL {name}: {errors[name]:.3e}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def cmd_param_count(args):
    config = _architecture(args.config, SIRMConfig(vocab_size=30000))
    params = init_sirm_params(config, seed=0)
    without = param_count(params, include_embeddings=False)
    with_emb = param_count(params, include_embeddings=True)
    print(f"parameters (excluding embeddings): {without}")
    print(f"parameters (including embeddings): {with_emb}")
    return EXIT_OK


def build_parser():
    parser = _Parser(prog="sirm", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["jsonl", "tsv"], default="jsonl",
                       help="dataset file format (default jsonl)")

    p = sub.add_parser("build-vocab", help="build a vocabulary from training data")
    p.add_argument("--train", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-freq", type=int, default=2)
    p.add_argument("--max-size", type=int, default=30000)
    add_format(p)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("train", help="train a model (defaults: d_c 16, windows 1-4, "
                       "k 1, widths 64, lambda 1e-6, lr 1e-3, batch 64)")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", help="dev file; default is a seeded 10%% train split")
    p.add_argument("--vocab", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--model", choices=sorted(MODELS), default="sirm")
    p.add_argument("--config", help="flat JSON config; flags override file values")
    p.add_argument("--lambda", dest="lambda_adv", type=float,
                   help="adversarial scale factor (default 1e-6)")
    p.add_argument("--lr", dest="learning_rate", type=float,
                   help="learning rate (default 1e-3)")
    p.add_argument("--batch-size", type=int, help="batch size (default 64)")
    p.add_argument("--max-epochs", type=int)
    p.add_argument("--patience", dest="early_stop_patience", type=int,
                   help="early-stop patience in epochs")
    p.add_argument("--seed", type=int)
    p.add_argument("--m", type=int, help="sentences per paragraph grid")
    p.add_argument("--n", type=int, help="tokens per sentence")
    p.add_argument("--d-e", dest="d_e", type=int)
    p.add_argument("--d-c", dest="d_c", type=int)
    add_format(p)
    p.set_defaults(func=cmd_train)

    for name, func in (("eval", cmd_eval), ("predict", cmd_predict)):
        p = sub.add_parser(name, help=f"{name} a checkpoint on a dataset")
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--data", required=True)
        p.add_argument("--vocab", required=True)
        p.add_argument("--threshold", type=float, default=0.5)
        add_format(p)
        if name == "predict":
            p.add_argument("--out", required=True)
        p.set_defaults(func=func)

    p = sub.add_parser("grad-check", help="finite-difference the full model at 64-bit")
    p.add_argument("--config",
                   help="JSON config; its architecture fields override a toy config")
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("param-count", help="count trainable parameters")
    p.add_argument("--config")
    p.set_defaults(func=cmd_param_count)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        log_level = os.environ.get("SIRM_LOG", "WARNING")
        if not isinstance(logging.getLevelName(log_level), int):    # not a level name
            raise ConfigError(f"SIRM_LOG must be a logging level name, got {log_level!r}")
        logging.basicConfig()   # a no-op once a host has configured logging
        logging.getLogger("sirm").setLevel(log_level)
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_OK
    except (DataFormatError, CheckpointError, OSError) as e:
        code, error = EXIT_DATA, e
    except ValueError as e:     # ConfigError and other bad settings
        code, error = EXIT_USAGE, e
    except (TrainingError, FloatingPointError) as e:
        code, error = EXIT_NUMERIC, e
    print(f"error: {error}", file=sys.stderr)
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
