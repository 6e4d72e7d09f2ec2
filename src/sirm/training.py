"""Mini-batch Adam training loop with checkpointing and early stopping."""

import json
import logging
import struct
import time
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .evaluation import evaluate, init_nbow_params, nbow_forward
from .model import SIRMConfig, init_sirm_params, sirm_forward, sirm_loss
from .text import DataFormatError, atomic_write_bytes, stack_grids

logger = logging.getLogger(__name__)


class TrainingError(RuntimeError):
    pass


class CheckpointError(ValueError):
    pass


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 50
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    early_stop_patience: int = 5

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name, low in (("batch_size", 1), ("max_epochs", 1),
                          ("early_stop_patience", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        for beta in (self.adam_beta1, self.adam_beta2):
            if not 0.0 < beta < 1.0:
                raise ValueError("Adam betas must lie in (0, 1)")


class Adam:
    """Standard Adam with bias correction over a named parameter list."""

    def __init__(self, named_params, config):
        self.named_params = list(named_params)
        self.config = config
        self.step_count = 0
        self.m = [np.zeros_like(t.data) for _, t in self.named_params]
        self.v = [np.zeros_like(t.data) for _, t in self.named_params]

    def step(self):
        """m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, c = 1 - b**t and
        p -= lr*(m/c1) / (sqrt(v/c2) + eps), in that operation order, with m
        and v updated in place and the step built in two scratch arrays."""
        cfg = self.config
        b1, b2 = cfg.adam_beta1, cfg.adam_beta2
        self.step_count += 1
        c1 = 1 - b1 ** self.step_count
        c2 = 1 - b2 ** self.step_count
        for (name, p), m, v in zip(self.named_params, self.m, self.v):
            if p.grad is None:
                raise TrainingError(f"parameter {name!r} has no gradient")
            g = p.grad
            step, denom = np.empty_like(m), np.empty_like(v)
            m *= b1
            m += np.multiply(g, 1 - b1, out=step)
            v *= b2
            np.multiply(g, 1 - b2, out=denom)
            v += np.multiply(denom, g, out=denom)
            np.sqrt(np.divide(v, c2, out=denom), out=denom)
            denom += cfg.adam_eps
            np.divide(m, c1, out=step)
            step *= cfg.learning_rate
            p.data -= np.divide(step, denom, out=step)
            p.grad = None


def _batch_loss(model_kind, grid, params, config):
    """Mean loss over a stacked grid, and the value of its main-head BCE."""
    if model_kind == "sirm":
        trace = sirm_forward(grid, params, config)
        loss, prob = sirm_loss(trace, grid.label), trace.y_prime
    else:
        prob = nbow_forward(grid, params)
        loss = T.bce_loss(prob, grid.label)
    with T.no_grad():
        return loss, T.bce_loss(prob, grid.label).item()


def snapshot(params):
    return {name: t.data.copy() for name, t in params.named_tensors()}


def restore(params, snap):
    for name, t in params.named_tensors():
        t.data = snap[name].copy()


def train(train_grids, dev_grids, model_kind, model_config, train_config,
          history_path=None):
    """Train a model, returning (params at the best dev epoch, history).

    The best epoch is the one with the highest dev macro-F1. Early stopping:
    training stops once the number of epochs since the last dev improvement
    reaches the patience (patience 0 stops after one epoch).
    """
    if not train_grids:
        raise TrainingError("training split is empty")
    if model_kind == "sirm":
        params = init_sirm_params(model_config, seed=train_config.seed)
    elif model_kind == "nbow":
        params = init_nbow_params(model_config.vocab_size, model_config.d_e,
                                  seed=train_config.seed)
    else:
        raise ValueError(f"unknown model kind {model_kind!r}")

    optimizer = Adam(params.named_tensors(), train_config)
    rng = np.random.default_rng(train_config.seed)
    order = np.arange(len(train_grids))
    history = []
    best_metric = -1.0
    best_snap = snapshot(params)
    epochs_since_improve = 0

    hist_file = open(history_path, "w", encoding="utf-8") if history_path else None
    try:
        for epoch in range(train_config.max_epochs):
            start = time.time()
            rng.shuffle(order)
            losses = []
            bce_losses = []
            for b_idx, b_start in enumerate(range(0, len(order), train_config.batch_size)):
                T.zero_grads(params.tensors())
                batch = stack_grids([train_grids[i]
                                     for i in order[b_start:b_start + train_config.batch_size]])
                loss, bce = _batch_loss(model_kind, batch, params, model_config)
                if not np.isfinite(loss.item()):
                    raise TrainingError(
                        f"non-finite loss in epoch {epoch}, batch {b_idx}")
                T.backward(loss)
                optimizer.step()
                losses.append(loss.item())
                bce_losses.append(bce)

            dev_report, _ = evaluate(model_kind, params, model_config, dev_grids)
            record = {
                "epoch": epoch,
                "train_loss": float(np.mean(losses)),
                "train_bce": float(np.mean(bce_losses)),
                "dev_acc": dev_report["accuracy"],
                "dev_f1": dev_report["f1"],
                "dev_macro_f1": dev_report["macro_f1"],
                "wall_seconds": time.time() - start,
            }
            history.append(record)
            if hist_file:
                hist_file.write(json.dumps(record) + "\n")
                hist_file.flush()
            logger.info("epoch %d: loss %.4f dev macro-F1 %.4f",
                        epoch, record["train_loss"], record["dev_macro_f1"])

            if dev_report["macro_f1"] > best_metric:
                best_metric = dev_report["macro_f1"]
                best_snap = snapshot(params)
                epochs_since_improve = 0
            else:
                epochs_since_improve += 1
            if epochs_since_improve >= train_config.early_stop_patience:
                break
    finally:
        if hist_file:
            hist_file.close()

    restore(params, best_snap)
    return params, history


def split_dev(grids, seed=0):
    """Seeded train/dev split; dev gets a tenth (at least one), train the rest."""
    if len(grids) < 2:
        raise DataFormatError(
            f"need at least 2 examples to split off a dev set, got {len(grids)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(grids))
    n_dev = max(1, int(round(0.1 * len(grids))))
    dev_idx = set(order[:n_dev].tolist())
    train = [g for i, g in enumerate(grids) if i not in dev_idx]
    dev = [g for i, g in enumerate(grids) if i in dev_idx]
    return train, dev


# ---------------------------------------------------------------------------
# checkpoint format: magic "SIRM1", u32-length-prefixed UTF-8 JSON header
# {"model": kind, "config": {...}}, then per-tensor records
# [u32 name length, name, u32 rank, u32 dims x rank, f32 data], little-endian.

MAGIC = b"SIRM1"


def serialize_checkpoint(model_kind, config, params):
    header = json.dumps({"model": model_kind, "config": config.to_dict()},
                        sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", len(header)), header]
    for name, t in params.named_tensors():
        name_b = name.encode("utf-8")
        data = np.ascontiguousarray(t.data, dtype="<f4")
        chunks.append(struct.pack("<I", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    return b"".join(chunks)


def save_checkpoint(path, model_kind, config, params):
    atomic_write_bytes(path, serialize_checkpoint(model_kind, config, params))


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.off = 0

    def take(self, n):
        if self.off + n > len(self.blob):
            raise CheckpointError("truncated checkpoint file")
        out = self.blob[self.off:self.off + n]
        self.off += n
        return out

    def u32(self):
        return struct.unpack("<I", self.take(4))[0]

    @property
    def exhausted(self):
        return self.off == len(self.blob)


def load_checkpoint(path):
    """Read a checkpoint, validating magic and shapes against the config.

    Returns (model_kind, SIRMConfig, params object).
    """
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    r = _Reader(blob)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    try:
        header = json.loads(r.take(r.u32()).decode("utf-8"))
        model_kind = header["model"]
        config = SIRMConfig.from_dict(header["config"])
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: corrupt checkpoint header: {e}") from e

    loaded = {}
    while not r.exhausted:
        name = r.take(r.u32()).decode("utf-8")
        rank = r.u32()
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
        size = int(np.prod(dims)) if rank else 1
        data = np.frombuffer(r.take(4 * size), dtype="<f4").reshape(dims).copy()
        if name in loaded:
            raise CheckpointError(f"{path}: tensor {name!r} appears twice")
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
        loaded[name] = data

    if model_kind == "sirm":
        params = init_sirm_params(config, seed=0)
    elif model_kind == "nbow":
        params = init_nbow_params(config.vocab_size, config.d_e, seed=0)
    else:
        raise CheckpointError(f"{path}: unknown model kind {model_kind!r}")
    expected = dict(params.named_tensors())
    if set(loaded) != set(expected):
        raise CheckpointError(f"{path}: tensor names do not match the config")
    for name, t in expected.items():
        if loaded[name].shape != t.data.shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {loaded[name].shape}, "
                f"config expects {t.data.shape}")
        t.data = loaded[name]
    return model_kind, config, params
