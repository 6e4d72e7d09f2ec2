"""Classification metrics and the bag-of-words baseline."""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .model import sirm_forward
from .text import atomic_write_bytes, stack_grids


class EvaluationError(ValueError):
    pass


def _f1(predictions, labels, positive):
    tp = sum(p == y == positive for p, y in zip(predictions, labels))
    predicted = sum(p == positive for p in predictions)
    present = sum(y == positive for y in labels)
    precision = tp / predicted if predicted else 0.0
    recall = tp / present if present else 0.0
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
    f1_pos = _f1(predictions, labels, positive=1)
    f1_neg = _f1(predictions, labels, positive=0)
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
    """Mask-aware mean of word embeddings through a sigmoid head.

    Every document's mean is its row of a constant (documents, real words)
    matrix of 1/count weights times the real words' embeddings.
    """
    counts = grid.word_mask.sum(axis=(-2, -1)).reshape(-1)
    doc = np.repeat(np.arange(counts.size), counts)
    pool = np.zeros((counts.size, doc.size), dtype=params.embedding.dtype)
    pool[doc, np.arange(doc.size)] = 1.0 / counts[doc]
    emb = T.embedding_lookup(params.embedding, grid.token_ids[grid.word_mask])
    pooled = T.matmul(T.Tensor(pool), emb)
    logit = T.add_bias(T.matmul(pooled, params.head_w), params.head_b)
    return T.reshape(T.sigmoid(logit), grid.word_mask.shape[:-2])


# Documents per evaluation forward. Peak memory grows with the batch's live
# activations: at the paper grid 64 documents cost a third more than one at a
# time, 16 under 5%, and 16 also ran faster than 8 or 64.
EVAL_BATCH = 16


def evaluate(model_kind, params, config, grids, threshold=0.5):
    """Deterministic pass over encoded examples in order, EVAL_BATCH per graph-free forward.

    Returns (metrics dict with example count, rows) where each row is (index,
    probability, predicted label, gold label); non-finite probabilities raise
    FloatingPointError.
    """
    if not grids:
        raise EvaluationError("cannot evaluate an empty split")
    if model_kind not in ("sirm", "nbow"):
        raise ValueError(f"unknown model kind {model_kind!r}")
    probs = []
    # huge finite weights may overflow on the way; the finiteness check
    # below turns that into one error instead of a stream of numpy warnings
    with T.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(grids), EVAL_BATCH):
            batch = stack_grids(grids[start:start + EVAL_BATCH])
            y = (sirm_forward(batch, params, config).y_prime if model_kind == "sirm"
                 else nbow_forward(batch, params))
            if not np.isfinite(y.data).all():
                raise FloatingPointError(
                    f"non-finite probability in the batch from document {start}")
            probs.extend(y.data.tolist())
    labels = [grid.label for grid in grids]
    preds = [int(prob >= threshold) for prob in probs]
    rows = list(zip(range(len(grids)), probs, preds, labels))
    report = metrics(preds, labels)
    report["n"] = len(grids)
    return report, rows


def write_predictions(rows, path):
    """One `index<TAB>probability<TAB>prediction<TAB>gold` line per row, atomically."""
    lines = [f"{idx}\t{prob:.6f}\t{pred}\t{gold}\n" for idx, prob, pred, gold in rows]
    atomic_write_bytes(path, "".join(lines).encode("utf-8"))
