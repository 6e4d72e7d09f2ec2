"""Minimal reverse-mode autodiff engine over dense numpy arrays.

Only the primitives the SIRM forward pass needs: matmul, 1-D convolution,
elementwise nonlinearities, pooling, concatenation, gradient reversal, and
the two loss heads. Every op accepts leading batch axes (features on axis
-1, the sequence on axis -2; add_bias broadcasts over them) and the losses
return batch means. Graphs are
built through parent links, except inside `no_grad()`; backward() walks a
fresh topological order and frees the graph as it goes, so it runs once.
A tensor's first gradient is copied into a new buffer of the tensor's own
dtype and layout, never aliasing the upstream array; later ones are added
to it in place.
"""

import contextlib

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


class SequenceTooShortError(ShapeError):
    """Input sequence shorter than the convolution window under valid padding."""


_FLOAT_TYPES = (np.float32, np.float64)


class Tensor:
    """Dense n-dimensional real array with an optional gradient slot.

    data is stored flat-compatible (row-major numpy array). Tensors created
    by ops carry parent links and a backward rule; leaves carry neither.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in _FLOAT_TYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Ops inside the block keep no parents and no backward rule."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _from_op(data, parents, backward):
    out = Tensor.__new__(Tensor)
    out.data = data
    out.requires_grad = _grad_enabled and any(p.requires_grad for p in parents)
    out.grad = None
    out._parents = tuple(parents) if _grad_enabled else ()
    out._backward = backward if out.requires_grad else None
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.empty_like(t.data)
        t.grad[...] = g
    else:
        t.grad += g


class Graph:
    """Topologically ordered list of tensors reachable from a root."""

    def __init__(self, nodes):
        self.nodes = nodes

    @classmethod
    def trace(cls, root):
        order = []
        seen = set()
        stack = [(root, iter(root._parents))]
        seen.add(id(root))
        while stack:
            node, parents = stack[-1]
            advanced = False
            for p in parents:
                if id(p) not in seen:
                    seen.add(id(p))
                    stack.append((p, iter(p._parents)))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                order.append(node)
        return cls(order)


def backward(loss):
    """Populate .grad on every requires_grad leaf reachable from loss.

    Op nodes drop their grad and backward rule once it has run.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss.requires_grad and loss._parents and loss._backward is None:
        raise RuntimeError("this graph has already been back-propagated")
    graph = Graph.trace(loss)
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad += np.ones_like(loss.data)
    for node in reversed(graph.nodes):
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = node._backward = None


def zero_grads(tensors):
    for t in tensors:
        t.zero_grad()


# ---------------------------------------------------------------------------
# primitive ops


def matmul(a, b):
    """(..., k) @ (k, d) -> (..., d), as one 2-D product over all rows."""
    if (a.data.ndim < 1 or b.data.ndim != 2
            or a.data.shape[-1] != b.data.shape[0]):
        raise ShapeError(f"matmul shape mismatch: {a.data.shape} x {b.data.shape}")
    a2 = a.data.reshape(-1, a.data.shape[-1])
    out_data = (a2 @ b.data).reshape(a.data.shape[:-1] + b.data.shape[1:])

    def bwd(g):
        g2 = g.reshape(-1, b.data.shape[1])
        _accum(a, (g2 @ b.data.T).reshape(a.data.shape))
        _accum(b, a2.T @ g2)

    return _from_op(out_data, (a, b), bwd)


def conv1d(x, w, b, padding="valid"):
    """1-D convolution over the sequence axis, full width over features.

    x: (..., L, d_in); w: (h, d_in, d_out); b: (d_out,). Each leading index
    is its own sequence: padding never mixes rows of different sequences.
    valid: output length L-h+1. same_zero: zero-padded so output length is L.
    """
    if w.data.ndim != 3:
        raise ShapeError(f"conv1d weight must be rank 3, got {w.data.shape}")
    h, d_in, d_out = w.data.shape
    if x.data.ndim < 2 or x.data.shape[-1] != d_in:
        raise ShapeError(f"conv1d input {x.data.shape} incompatible with weight {w.data.shape}")
    L = x.data.shape[-2]
    if padding == "valid":
        if L < h:
            raise SequenceTooShortError(f"sequence length {L} shorter than window {h}")
        pad_l = pad_r = 0
        xp = x.data
    elif padding == "same_zero":
        pad_l = h // 2
        pad_r = h - 1 - pad_l
        xp = np.pad(x.data, [(0, 0)] * (x.data.ndim - 2) + [(pad_l, pad_r), (0, 0)])
    else:
        raise ValueError(f"unknown padding mode {padding!r}")
    l_out = xp.shape[-2] - h + 1
    cols = np.concatenate([xp[..., j:j + l_out, :] for j in range(h)], axis=-1)
    cols2 = cols.reshape(-1, h * d_in)
    w2 = w.data.reshape(h * d_in, d_out)
    out_data = (cols2 @ w2 + b.data).reshape(cols.shape[:-1] + (d_out,))

    def bwd(g):
        g2 = g.reshape(-1, d_out)
        if x.requires_grad:
            dcols = (g2 @ w2.T).reshape(cols.shape)
            dx = np.zeros_like(x.data)
            for j in range(h):
                # output row i read input row i + j - pad_l; skip padding rows,
                # and taps that see only padding (a sequence shorter than pad)
                lo, hi = max(0, pad_l - j), min(l_out, L + pad_l - j)
                if lo < hi:
                    dx[..., lo + j - pad_l:hi + j - pad_l, :] += \
                        dcols[..., lo:hi, j * d_in:(j + 1) * d_in]
            _accum(x, dx)
        if w.requires_grad:
            _accum(w, (cols2.T @ g2).reshape(h, d_in, d_out))
        if b.requires_grad:
            _accum(b, g2.sum(axis=0))

    return _from_op(out_data, (x, w, b), bwd)


def relu(x):
    out_data = np.maximum(x.data, 0)

    def bwd(g):
        _accum(x, g * (x.data > 0))

    return _from_op(out_data, (x,), bwd)


def sigmoid(x):
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def bwd(g):
        _accum(x, g * out_data * (1.0 - out_data))

    return _from_op(out_data, (x,), bwd)


def softmax_lastaxis(x):
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out_data).sum(axis=-1, keepdims=True)
        _accum(x, (g - dot) * out_data)

    return _from_op(out_data, (x,), bwd)


def mean_pool(x):
    """Per-feature mean over the sequence axis: (..., L, d) -> (..., d)."""
    if x.data.ndim < 2:
        raise ShapeError(f"mean_pool expects rank >= 2, got {x.data.shape}")
    L = x.data.shape[-2]
    out_data = x.data.sum(axis=-2) / float(L)

    def bwd(g):
        _accum(x, np.broadcast_to(g[..., None, :] / float(L), x.data.shape))

    return _from_op(out_data, (x,), bwd)


def concat_lastaxis(parts):
    parts = list(parts)
    lead = parts[0].data.shape[:-1]
    for p in parts[1:]:
        if p.data.shape[:-1] != lead:
            raise ShapeError(
                f"concat leading-shape mismatch: {parts[0].data.shape} vs {p.data.shape}")
    out_data = np.concatenate([p.data for p in parts], axis=-1)
    widths = [p.data.shape[-1] for p in parts]

    def bwd(g):
        off = 0
        for p, w in zip(parts, widths):
            _accum(p, g[..., off:off + w])
            off += w

    return _from_op(out_data, parts, bwd)


def grad_reverse(x, scale_factor):
    """Identity forward; backward multiplies the incoming gradient by -scale."""
    if scale_factor < 0:
        raise ValueError(f"grad_reverse scale must be >= 0, got {scale_factor}")
    out_data = x.data.copy()

    def bwd(g):
        _accum(x, -scale_factor * g)

    return _from_op(out_data, (x,), bwd)


def add(a, b):
    if a.data.shape != b.data.shape and a.data.size != 1 and b.data.size != 1:
        raise ShapeError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")
    out_data = a.data + b.data

    def _reduce(g, target):
        if target.data.size == 1 and g.size != 1:
            return g.sum().reshape(target.data.shape)
        return g

    def bwd(g):
        _accum(a, _reduce(g, a))
        _accum(b, _reduce(g, b))

    return _from_op(out_data, (a, b), bwd)


def add_bias(x, b):
    """Add b to x at every leading index: (..., *b.shape) + b.

    b is a (d,) bias row or, for position tables, any trailing block of x.
    """
    if b.data.ndim < 1 or x.data.shape[x.data.ndim - b.data.ndim:] != b.data.shape:
        raise ShapeError(f"add_bias shapes: {x.data.shape} + {b.data.shape}")
    out_data = x.data + b.data

    def bwd(g):
        _accum(x, g)
        _accum(b, g.reshape((-1,) + b.data.shape).sum(axis=0))

    return _from_op(out_data, (x, b), bwd)


def sum_all(x):
    out_data = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def bwd(g):
        _accum(x, np.full_like(x.data, g.item()))

    return _from_op(out_data, (x,), bwd)


def reshape(x, shape):
    out_data = x.data.reshape(shape)

    def bwd(g):
        _accum(x, g.reshape(x.data.shape))

    return _from_op(out_data, (x,), bwd)


def repeat_row(v, rows):
    """Broadcast v (..., d) to (..., *rows, d); backward sums over the new axes.

    rows is a tuple of sizes, inserted before the feature axis.
    """
    rows = tuple(rows)
    lead = v.data.shape[:-1]
    out_data = np.broadcast_to(v.data.reshape(lead + (1,) * len(rows) + v.data.shape[-1:]),
                               lead + rows + v.data.shape[-1:])
    new_axes = tuple(range(len(lead), len(lead) + len(rows)))

    def bwd(g):
        _accum(v, g.sum(axis=new_axes))

    return _from_op(out_data, (v,), bwd)


def embedding_lookup(table, ids):
    """Rows of table for an id array of any shape: ids (...) -> (..., d)."""
    ids = np.asarray(ids, dtype=np.int64)
    V = table.data.shape[0]
    if ids.size and (ids.max() >= V or ids.min() < 0):
        raise IndexError(f"token id out of range for vocabulary of size {V}")
    out_data = table.data[ids]

    def bwd(g):
        if table.requires_grad:
            d = table.data.shape[1]
            # a 1-D scatter on the flat table takes numpy's fast path and adds
            # to each element in the same order; C order makes reshape a view
            table.grad = (np.zeros(table.data.shape, dtype=table.data.dtype)
                          if table.grad is None else np.ascontiguousarray(table.grad))
            flat = (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
            np.add.at(table.grad.reshape(-1), flat, g.reshape(-1))

    return _from_op(out_data, (table,), bwd)


_EPS_PROB = 1e-7


def bce_loss(p, y):
    """Mean binary cross entropy of probabilities p against 0/1 labels y of p's shape.

    p is clamped to [1e-7, 1-1e-7] before the log so exact 0/1 stay finite.
    """
    y = np.asarray(y)
    if p.data.shape != y.shape:
        raise ShapeError(f"bce_loss: probabilities {p.data.shape} vs labels {y.shape}")
    pc = np.clip(p.data, _EPS_PROB, 1.0 - _EPS_PROB).astype(np.float64)
    val = -(y * np.log(pc) + (1 - y) * np.log(1.0 - pc)).mean()
    out_data = np.asarray(val, dtype=p.data.dtype)

    def bwd(g):
        _accum(p, (g * ((pc - y) / (pc * (1.0 - pc))) / y.size).astype(p.data.dtype))

    return _from_op(out_data, (p,), bwd)


def nll_loss(probs, y):
    """Mean negative log likelihood of classes y (...) under probabilities (..., C)."""
    y = np.asarray(y, dtype=np.int64)
    if probs.data.ndim < 1 or probs.data.shape[:-1] != y.shape:
        raise ShapeError(f"nll_loss: probabilities {probs.data.shape} vs labels {y.shape}")
    picked = np.take_along_axis(probs.data, y[..., None], axis=-1)
    py = np.clip(picked, _EPS_PROB, None).astype(np.float64)
    out_data = np.asarray(-np.log(py).mean(), dtype=probs.data.dtype)

    def bwd(g):
        dp = np.zeros_like(probs.data)
        np.put_along_axis(dp, y[..., None], -g / (py * y.size), axis=-1)
        _accum(probs, dp)

    return _from_op(out_data, (probs,), bwd)


def finite_diff_check(f, x, eps=1e-5):
    """Max relative error between f's analytic gradient at x and central differences.

    f must be a deterministic scalar-valued function of x rebuilding its
    graph on every call. x's data is perturbed in place and restored.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x.zero_grad()
    out = f(x)
    backward(out)
    analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()
    flat = x.data.reshape(-1)
    numeric = np.zeros(flat.size, dtype=np.float64)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x).data.item()
        flat[i] = orig - eps
        fm = f(x).data.item()
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * eps)
    a = analytic.reshape(-1).astype(np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(a - numeric) / denom))
