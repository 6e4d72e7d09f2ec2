"""Classification metrics, batched evaluation and prediction output."""

import math
from fractions import Fraction

import numpy as np

from . import tensor as T
from .model import lookup_model
from .text import DataFormatError, atomic_write_bytes


def _check_gold_labels(labels):
    if not np.isin(labels, (0, 1)).all():
        raise ValueError(f"gold labels must be 0 or 1, got {np.setdiff1d(labels, (0, 1)).tolist()}")


def metrics(predictions, labels):
    """Accuracy, positive-class F1, and macro F1 over the two 0/1 classes.

    F1 of class c is 2 TP_c / (predicted_c + present_c) from integer counts, 0
    for a class never predicted nor present; each score is rounded once.
    """
    if len(predictions) != len(labels):
        raise ValueError(
            f"length mismatch: {len(predictions)} predictions vs {len(labels)} labels")
    if len(labels) == 0:
        raise DataFormatError("cannot compute metrics on an empty split")
    p, y = np.asarray(predictions), np.asarray(labels)
    _check_gold_labels(y)
    f1 = []
    for c in (0, 1):
        predicted, present = p == c, y == c
        tp, n_predicted, n_present = (int(np.count_nonzero(mask))
                                      for mask in (predicted & present, predicted, present))
        f1.append(Fraction(2 * tp, n_predicted + n_present or 1))   # 0 / 1 if neither
    return {
        "accuracy": int(np.count_nonzero(p == y)) / len(y),
        "f1": float(f1[1]),
        "macro_f1": float((f1[0] + f1[1]) / 2),
    }


# Grid cells per evaluation forward; a batch holds this many cells' worth of
# documents, at least one. Peak memory grows with the batch's live
# activations: at the paper grid (m=8, n=32) 64 documents cost a third more
# than one at a time, 16 under 5%, and 16 also ran faster than 8 or 64. On
# small grids the same budget takes in more documents, so fewer forwards pay
# the per-op dispatch cost.
EVAL_CELLS = 16 * 8 * 32


def evaluate(model_kind, params, config, grids, threshold=0.5):
    """Deterministic pass over encoded examples in order, EVAL_CELLS // (m * n)
    documents (at least one) per graph-free forward.

    Returns (metrics dict with example count, rows) where each row is (index,
    probability, predicted label, gold label); non-finite probabilities raise
    FloatingPointError. The threshold must be a probability, in [0, 1], and
    every gold label 0 or 1, both checked before the first forward.
    """
    if not math.isfinite(threshold):    # nan would predict 0 for every document
        raise ValueError(f"threshold must be a finite number, got {threshold!r}")
    if not 0 <= threshold <= 1:
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
    if not grids:
        raise DataFormatError("cannot evaluate an empty split")
    _check_gold_labels(grids.label)
    _, heads = lookup_model(model_kind)
    batch_size = max(1, EVAL_CELLS // (config.m * config.n))
    probs = []
    # huge finite weights may overflow on the way; the finiteness check
    # below turns that into one error instead of a stream of numpy warnings
    with T.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, len(grids), batch_size):
            batch = grids[start:start + batch_size]
            y, _ = heads(batch, params, config)
            if not np.isfinite(y.data).all():
                raise FloatingPointError(
                    f"non-finite probability in the batch from document {start}")
            probs.extend(y.data.tolist())
    preds = [int(prob >= threshold) for prob in probs]
    rows = list(zip(range(len(grids)), probs, preds, grids.label.tolist()))
    return {**metrics(preds, grids.label), "n": len(grids)}, rows


def write_predictions(rows, path):
    """One `index<TAB>probability<TAB>prediction<TAB>gold` line per row, atomically."""
    lines = [f"{idx}\t{prob:.6f}\t{pred}\t{gold}\n" for idx, prob, pred, gold in rows]
    atomic_write_bytes(path, "".join(lines).encode("utf-8"))
