"""Classification metrics and the bag-of-words baseline."""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import sirm_forward
from .text import atomic_write_bytes


class EvaluationError(ValueError):
    pass


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self):
        return self.tp + self.fp + self.tn + self.fn


def confusion(predictions, labels, positive=1):
    c = ConfusionCounts()
    for p, y in zip(predictions, labels):
        if p == positive:
            if y == positive:
                c.tp += 1
            else:
                c.fp += 1
        else:
            if y == positive:
                c.fn += 1
            else:
                c.tn += 1
    return c


def _f1(c):
    precision = c.tp / (c.tp + c.fp) if c.tp + c.fp else 0.0
    recall = c.tp / (c.tp + c.fn) if c.tp + c.fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def metrics(predictions, labels):
    """Accuracy, positive-class F1, and macro F1 over the two classes.

    Precision or recall of a class never predicted or never present counts as 0.
    """
    if len(predictions) != len(labels):
        raise EvaluationError(
            f"length mismatch: {len(predictions)} predictions vs {len(labels)} labels")
    if not labels:
        raise EvaluationError("cannot compute metrics on an empty split")
    correct = sum(int(p == y) for p, y in zip(predictions, labels))
    f1_pos = _f1(confusion(predictions, labels, positive=1))
    f1_neg = _f1(confusion(predictions, labels, positive=0))
    return {
        "accuracy": correct / len(labels),
        "f1": f1_pos,
        "macro_f1": (f1_pos + f1_neg) / 2.0,
    }


@dataclass
class NBOWParams:
    """Mean word embedding plus a linear sigmoid head."""

    embedding: T.Tensor  # (V, d_e)
    head_w: T.Tensor     # (d_e, 1)
    head_b: T.Tensor     # (1,)

    def named_tensors(self):
        return [("embedding", self.embedding), ("head_w", self.head_w),
                ("head_b", self.head_b)]

    def tensors(self):
        return [t for _, t in self.named_tensors()]


def init_nbow_params(vocab_size, d_e, seed=0, dtype=np.float32):
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / (d_e + 1))
    return NBOWParams(
        embedding=T.Tensor(rng.normal(0.0, 1.0, size=(vocab_size, d_e)).astype(dtype),
                           requires_grad=True),
        head_w=T.Tensor(rng.uniform(-bound, bound, size=(d_e, 1)).astype(dtype),
                        requires_grad=True),
        head_b=T.Tensor(np.zeros(1, dtype=dtype), requires_grad=True),
    )


def nbow_forward(grid, params):
    """Mask-aware mean of word embeddings through a sigmoid head."""
    ids = grid.token_ids[grid.word_mask]
    emb = T.embedding_lookup(params.embedding, ids)
    pooled = T.mean_pool(emb)
    logit = T.add_bias(T.matmul(T.reshape(pooled, (1, -1)), params.head_w),
                       params.head_b)
    return T.reshape(T.sigmoid(logit), ())


def predict_proba(model_kind, grid, params, config=None):
    if model_kind == "sirm":
        return sirm_forward(grid, params, config).y_prime.item()
    if model_kind == "nbow":
        return nbow_forward(grid, params).item()
    raise ValueError(f"unknown model kind {model_kind!r}")


def evaluate(model_kind, params, config, grids, threshold=0.5):
    """Deterministic pass over encoded examples in order.

    Returns (metrics dict with example count, rows) where each row is
    (index, probability, predicted label, gold label).
    """
    if not grids:
        raise EvaluationError("cannot evaluate an empty split")
    rows = []
    preds = []
    labels = []
    for idx, grid in enumerate(grids):
        prob = predict_proba(model_kind, grid, params, config)
        pred = int(prob >= threshold)
        rows.append((idx, prob, pred, grid.label))
        preds.append(pred)
        labels.append(grid.label)
    report = metrics(preds, labels)
    report["n"] = len(grids)
    return report, rows


def write_predictions(rows, path):
    """One `index<TAB>probability<TAB>prediction<TAB>gold` line per row, atomically."""
    lines = [f"{idx}\t{prob:.6f}\t{pred}\t{gold}\n" for idx, prob, pred, gold in rows]
    atomic_write_bytes(path, "".join(lines).encode("utf-8"))
