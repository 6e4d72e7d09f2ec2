"""Mini-batch Adam training loop with checkpointing and early stopping."""

import json
import logging
import math
import struct
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .evaluation import evaluate
from .model import SIRMConfig, check_field_types, heads_loss, lookup_model, seeded_make
from .text import DataFormatError, atomic_write_bytes

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
    seed: int = 0
    early_stop_patience: int = 5

    def __post_init__(self):
        check_field_types(self)
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        for name, low in (("batch_size", 1), ("max_epochs", 1),
                          ("early_stop_patience", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")


# the defaults of Kingma & Ba 2015, "Adam: A Method for Stochastic Optimization"
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def _adam_update(p, g, m, v, c1, c2, lr):
    """m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and p -= lr*(m/c1) /
    (sqrt(v/c2) + eps), in that operation order, in place on p, m and v, with
    the step built in two scratch arrays of m's shape."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    step, denom = np.empty_like(m), np.empty_like(m)
    m *= b1
    m += np.multiply(g, 1 - b1, out=step)
    v *= b2
    np.multiply(g, 1 - b2, out=denom)
    v += np.multiply(denom, g, out=denom)
    np.sqrt(np.divide(v, c2, out=denom), out=denom)
    denom += ADAM_EPS
    np.divide(m, c1, out=step)
    step *= lr
    p -= np.divide(step, denom, out=step)


class Adam:
    """Adam with bias correction over a named parameter list, at
    config.learning_rate with the fixed ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.

    Lazy on an embedding, as TensorFlow Addons' LazyAdam and PyTorch's
    SparseAdam are: when a parameter's gradient this step came from one
    embedding_lookup (p.grad_rows is set), only the rows it read are
    updated; every other row keeps its p, m and v, and the bias
    correction still counts every step. Any other gradient makes the step
    dense, in place on the whole tensor. This is dense Adam to the byte
    whenever every row with a nonzero m or v is read at every step, as when
    each epoch is one batch: dense Adam leaves a row with zero moments and
    gradient as it is too.
    """

    def __init__(self, named_params, config):
        self.named_params = list(named_params)
        self.config = config
        self.step_count = 0
        self.m = [np.zeros(t.data.shape, t.data.dtype) for _, t in self.named_params]
        self.v = [np.zeros(t.data.shape, t.data.dtype) for _, t in self.named_params]

    def step(self):
        """One _adam_update per parameter, then its gradient is cleared. Every
        parameter must hold a gradient of its own shape, checked before any is
        touched. A dense update runs on the whole arrays; a lazy one gathers
        the read rows of p, g, m and v, updates them and scatters p, m and v
        back."""
        for name, p in self.named_params:
            if p.grad is None:
                raise TrainingError(f"parameter {name!r} has no gradient")
            if p.grad.shape != p.data.shape:
                raise TrainingError(f"parameter {name!r} has shape {p.data.shape}, "
                                    f"its gradient {p.grad.shape}")
        self.step_count += 1
        c1 = 1 - ADAM_BETA1 ** self.step_count
        c2 = 1 - ADAM_BETA2 ** self.step_count
        lr = self.config.learning_rate
        for (_, p), m, v in zip(self.named_params, self.m, self.v):
            rows = p.grad_rows
            if rows is None:
                _adam_update(p.data, p.grad, m, v, c1, c2, lr)
            else:
                p_r, g_r, m_r, v_r = (np.take(a, rows, axis=0) for a in (p.data, p.grad, m, v))
                _adam_update(p_r, g_r, m_r, v_r, c1, c2, lr)
                p.data[rows], m[rows], v[rows] = p_r, m_r, v_r
            p.grad = p.grad_rows = None


def snapshot(params):
    return {name: t.data.copy() for name, t in params.named_tensors()}


def best_epoch(history):
    """Index of the kept epoch: the first record with the highest dev macro-F1."""
    return max(range(len(history)), key=lambda epoch: history[epoch]["dev_macro_f1"])


def train(train_grids, dev_grids, model_kind, model_config, train_config,
          history_path=None):
    """Train a model, returning (params at the best dev epoch, history).

    The best epoch is best_epoch(history). Early stopping: training stops
    once the number of epochs since the best one reaches the patience
    (patience 0 stops after one epoch).
    """
    for split, grids in (("training", train_grids), ("dev", dev_grids)):
        if not grids:
            raise DataFormatError(f"{split} split is empty")
    build, heads = lookup_model(model_kind)
    params = build(model_config, seeded_make(train_config.seed))

    optimizer = Adam(params.named_tensors(), train_config)
    rng = np.random.default_rng(train_config.seed)
    order = np.arange(len(train_grids))
    history = []

    for epoch in range(train_config.max_epochs):
        start = time.perf_counter()
        rng.shuffle(order)
        losses, bce_losses = [], []
        for b_idx, b_start in enumerate(range(0, len(order), train_config.batch_size)):
            # Adam.step already cleared the grads; perfbench times each step from here
            T.zero_grads(params.tensors())
            batch = train_grids[order[b_start:b_start + train_config.batch_size]]
            # a diverging step's overflow surfaces as the loss or dev-pass error
            with np.errstate(over="ignore", invalid="ignore"):
                loss, bce = heads_loss(*heads(batch, params, model_config), batch.label)
                losses.append(loss.item())
                bce_losses.append(bce.item())
                if not np.isfinite(losses[-1]):
                    raise TrainingError(f"non-finite loss in epoch {epoch}, batch {b_idx}")
                T.backward(loss)
                del loss, bce   # frees this step's graph now, not once the next forward is built
                optimizer.step()

        dev_start = time.perf_counter()
        try:
            dev_report, _ = evaluate(model_kind, params, model_config, dev_grids)
        except FloatingPointError as e:
            raise TrainingError(f"epoch {epoch} dev pass: {e}") from e
        end = time.perf_counter()
        record = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "train_bce": float(np.mean(bce_losses)),
            "dev_acc": dev_report["accuracy"],
            "dev_f1": dev_report["f1"],
            "dev_macro_f1": dev_report["macro_f1"],
            "train_seconds": dev_start - start,
            "dev_seconds": end - dev_start,
            "wall_seconds": end - start,
        }
        history.append(record)
        if history_path:
            # opened per record: a run that fails in its first epoch leaves no file
            with open(history_path, "a" if epoch else "w", encoding="utf-8") as f:
                f.write(json.dumps(record) + "\n")
        logger.info("epoch %d: loss %.4f dev macro-F1 %.4f",
                    epoch, record["train_loss"], record["dev_macro_f1"])

        best = best_epoch(history)
        if best == epoch:
            best_snap = snapshot(params)
        if epoch - best >= train_config.early_stop_patience:
            break

    for name, t in params.named_tensors():
        t.data = best_snap[name]
    return params, history


def split_dev(grids, seed=0):
    """Seeded train/dev split in file order; dev gets a tenth (at least one), train the rest."""
    if len(grids) < 2:
        raise DataFormatError(
            f"need at least 2 examples to split off a dev set, got {len(grids)}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(grids))
    n_dev = max(1, int(round(0.1 * len(grids))))
    is_dev = np.isin(np.arange(len(grids)), order[:n_dev])
    return grids[~is_dev], grids[is_dev]


# ---------------------------------------------------------------------------
# checkpoint format: magic "SIRM1", u32-length-prefixed UTF-8 JSON header
# {"model": kind, "config": {...}}, then per-tensor records
# [u32 name length, name, u32 rank, u32 dims x rank, f32 data], little-endian,
# in named_tensors() order, the order the loader's one pass reads them in.

MAGIC = b"SIRM1"


def serialize_checkpoint(model_kind, config, params):
    lookup_model(model_kind)    # an unknown kind fails here, not at load
    header = json.dumps({"model": model_kind, "config": asdict(config)},
                        sort_keys=True).encode("utf-8")
    chunks = [MAGIC, struct.pack("<I", len(header)), header]
    for name, t in params.named_tensors():
        name_b = name.encode("utf-8")
        data = np.ascontiguousarray(t.data, dtype="<f4")
        chunks.append(struct.pack("<I", len(name_b)))
        chunks.append(name_b)
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data)     # joined from its buffer, not a bytes copy
    return b"".join(chunks)


def save_checkpoint(path, model_kind, config, params):
    atomic_write_bytes(path, serialize_checkpoint(model_kind, config, params))


def load_checkpoint(path):
    """Read a checkpoint in one pass, checking it against its header's config.

    The kind's builder asks for tensors in named_tensors() order and each ask
    reads the next record, which must have that name, so records in another
    order do not load. Returns (model_kind, SIRMConfig, params object).
    """
    try:
        with open(path, "rb") as f:
            view = memoryview(f.read())
    except OSError as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    off = 0
    seen = set()

    def take(n):
        nonlocal off
        if off + n > len(view):
            raise CheckpointError(f"{path}: truncated checkpoint file")
        off += n
        return view[off - n:off]

    def u32():
        return struct.unpack("<I", take(4))[0]

    def next_name():
        try:
            name = str(take(u32()), "utf-8")
        except UnicodeDecodeError as e:
            raise CheckpointError(f"{path}: corrupt tensor record name: {e}") from e
        if name in seen:
            raise CheckpointError(f"{path}: tensor {name!r} appears twice")
        seen.add(name)
        return name

    def make(name, shape):
        if off == len(view) or next_name() != name:
            raise CheckpointError(f"{path}: tensor names do not match the config")
        rank = u32()
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        # Python ints: a product of u32 dims cannot wrap, and an empty one is 1
        raw = take(4 * math.prod(dims))
        if dims != shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {dims}, config expects {shape}")
        data = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds non-finite values")
        return T.Tensor(data, requires_grad=True)

    if take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    try:
        header = json.loads(str(take(u32()), "utf-8"))
        model_kind = header["model"]
        build, _ = lookup_model(model_kind)
        config = SIRMConfig.from_dict(header["config"])
    except (ValueError, KeyError, TypeError) as e:
        raise CheckpointError(f"{path}: corrupt checkpoint header: {e}") from e
    params = build(config, make)
    if off < len(view):
        next_name()     # a repeated name says so; any other is left over
        raise CheckpointError(f"{path}: tensor names do not match the config")
    return model_kind, config, params
