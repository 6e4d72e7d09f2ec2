"""Minimal reverse-mode autodiff engine over dense numpy arrays.

Only the primitives the models in model.py need: embedding lookup, a gather
of distinct rows, matmul, rectified 1-D convolution, conv_relu_mean (the
skim in one node: several rectified valid convolutions, each mean-pooled,
reading only the rows near a word if asked), affine_relu_mean (a dense
connection in one node: relu([g; u_j; x_j] @ W + b) mean-pooled over
positions j, with g's product once per document, and x's and u's once per
distinct row if asked, gathered to every copy), sigmoid and softmax,
concatenation, reshape, broadcasting addition, gradient reversal, and the
two loss heads. The convolution is in tap form: one product per tap
projects every input row through it, and each output row sums the tap
products of the input rows it covers, so boundary padding is skipped, never
built; its ReLU is applied in place, inside the same node. Every op accepts
leading batch axes (features on axis -1, the sequence on axis -2; add
broadcasts its second operand over them) and the losses return batch means.
Graphs are built through parent links, except inside `no_grad()`; backward()
walks a fresh topological order and drops each op node's gradient and rule
once the rule has run, so it runs once. Parent links and data stay until the
caller drops the loss. A leaf's first gradient is copied into a new buffer
of the leaf's own dtype and layout, never aliasing the upstream array; later
ones are added to it in place. An op node's gradient is read only by its own
backward rule, so it borrows the first upstream array of its dtype and shape
as a read-only view, and a second contribution makes a fresh sum the node
owns. A rule that writes a gradient in place (affine_relu_mean's weight,
embedding_lookup, the loss seed) first takes ownership of it.
embedding_lookup's backward splits its scatter: the rows of the batch's most
frequent id (<pad> at the paper grid, 62-71% of the rows) are one sum down
the rows, seeded with that table row's gradient so far, and the other rows
go through np.add.at; each element gets the sums of one flat scatter, in the
same order. While one lookup alone has written a table's gradient, the
table's grad_rows lists the rows it read, and training.Adam updates only
those.
"""

import contextlib
import ctypes
import itertools
import os
import sys

import numpy as np

# glibc's mallopt parameters, from <malloc.h>
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def _keep_freed_heap_mapped():
    """On Linux with glibc, keep freed memory mapped for the next allocation.

    A training step frees and reallocates arrays of the same sizes each step.
    glibc's defaults hand large blocks back to the kernel (mmap, and heap
    trimming), so every step would fault the same pages in again. Here blocks
    under 32 MiB (the cap older glibc accepts) come from the heap, and the
    heap is trimmed only past 256 MiB of free top. A no-op elsewhere.
    Returns whether the policy was set.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
    except ValueError:      # a libc without the name
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, 32 << 20), mallopt(_M_TRIM_THRESHOLD, 256 << 20)])


_HEAP_KEPT_MAPPED = _keep_freed_heap_mapped()


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


_FLOAT_TYPES = (np.float32, np.float64)


class Tensor:
    """Dense n-dimensional real array with an optional gradient slot.

    data is stored flat-compatible (row-major numpy array). Tensors created
    by ops carry parent links and a backward rule; leaves carry neither.
    grad_rows, while one embedding_lookup alone has written grad, holds the
    sorted rows of the first axis that it read (the others are zero), and
    None once anything else adds to grad; it is cleared along with grad.
    """

    __slots__ = ("data", "requires_grad", "grad", "grad_rows", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in _FLOAT_TYPES:
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = self.grad_rows = None
        self._parents = ()
        self._backward = None

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

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
    out.grad = out.grad_rows = None
    out._parents = tuple(parents) if _grad_enabled else ()
    out._backward = backward if out.requires_grad else None
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    t.grad_rows = None
    if t.grad is None:
        if t._backward is not None and g.dtype == t.data.dtype and g.shape == t.data.shape:
            t.grad = np.asarray(g).view()
            t.grad.flags.writeable = False      # borrowed
        else:
            t.grad = np.empty_like(t.data)
            t.grad[...] = g
    elif t.grad.flags.writeable:
        t.grad += g
    else:
        t.grad = np.add(t.grad, g, out=np.empty_like(t.data))


def _own_grad(t):
    """t.grad as a writable C-order buffer that t owns, zero if t had none;
    the caller may write any row of it, so grad_rows is cleared."""
    t.grad_rows = None
    if t.grad is None:
        t.grad = np.zeros(t.data.shape, t.data.dtype)
    elif not (t.grad.flags.writeable and t.grad.flags.c_contiguous):
        t.grad = np.array(t.grad, order="C")
    return t.grad


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
    _own_grad(loss)[...] += 1
    for node in reversed(graph.nodes):
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = node._backward = None


def zero_grads(tensors):
    for t in tensors:
        t.grad = t.grad_rows = None


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


def _conv_taps(x, w, b, pad_l, l_out):
    """conv1d's arithmetic on arrays: (out, grads) for x (..., L, d_in), w (h,
    d_in, d_out) and b (d_out,), output rows i = relu(b + sum_j x[i + j - pad_l]
    @ w[j]) for i < l_out, taps that read past a sequence's end skipped.
    grads(g, put_x, put_w, put_b) hands dx, dw and db, for upstream gradient
    g of out's shape, to those that are not None, in that order."""
    h, d_in, d_out = w.shape
    L = x.shape[-2]
    rows_shape = x.shape[:-1]
    # tap j reads input rows [lo, hi) into output rows [lo - s, hi - s), s = j - pad_l;
    # a tap that sees only padding (a sequence shorter than pad_l) has lo == hi
    spans = [(j, s, max(0, s), max(0, s, min(L, l_out + s)))
             for j, s in enumerate(range(-pad_l, h - pad_l))]
    x2 = x.reshape(-1, d_in)
    rows = x2.shape[0]
    # one tap at a time: a batched x2 @ w would hold all h products at once
    P = np.empty((rows, d_out), np.result_type(x, w))
    P_seq = P.reshape(rows_shape + (d_out,))
    out = np.empty((rows, d_out), np.result_type(P, b))
    out[...] = b
    for j, s, lo, hi in spans:
        if lo < hi:
            np.matmul(x2, w[j], out=P)
            P_seq[..., :lo, :] = 0
            P_seq[..., hi:, :] = 0
            out[max(0, -s):rows - max(0, s)] += P[max(0, s):rows + min(0, s)]
    np.maximum(out, 0, out=out)
    out_data = out.reshape(rows_shape + (d_out,))[..., :l_out, :]

    def grads(g, put_x, put_w, put_b):
        g = g * (out_data > 0)
        if put_x or put_w:
            # row-major taps make the two products below the unrolled rule's;
            # every row of a tap outside its span is zero
            dP = np.empty(rows_shape + (h, d_out), g.dtype)
            for j, s, lo, hi in spans:
                dP[..., :lo, j, :] = 0
                dP[..., hi:, j, :] = 0
                if lo < hi:
                    dP[..., lo:hi, j, :] = g[..., lo - s:hi - s, :]
            dP2 = dP.reshape(-1, h * d_out)
            if put_x:
                put_x((dP2 @ w.transpose(1, 0, 2).reshape(d_in, h * d_out).T).reshape(x.shape))
            if put_w:
                put_w((x2.T @ dP2).reshape(d_in, h, d_out).transpose(1, 0, 2))
        if put_b:
            put_b(g.reshape(-1, d_out).sum(axis=0))

    return out_data, grads


def _accumulators(*tensors):
    """For each tensor, a function adding a gradient to it, or None if it
    takes none."""
    return [(lambda g, t=t: _accum(t, g)) if t.requires_grad else None for t in tensors]


def _check_conv_operands(x, w, b, op):
    if w.data.ndim != 3:
        raise ShapeError(f"{op} weight must be rank 3, got {w.data.shape}")
    if x.data.ndim < 2 or x.data.shape[-1] != w.data.shape[1]:
        raise ShapeError(f"{op} input {x.data.shape} incompatible with weight {w.data.shape}")
    if b.data.shape != w.data.shape[2:]:
        raise ShapeError(f"{op} bias {b.data.shape} does not match weight {w.data.shape}")


def conv1d(x, w, b):
    """Rectified 1-D convolution over the sequence axis, full width over
    features, with the sequence's length kept.

    x: (..., L, d_in); w: (h, d_in, d_out); b: (d_out,). Each leading index
    is its own sequence: padding never mixes rows of different sequences.
    Output length L, as if h // 2 zero rows were padded on before each
    sequence and h - 1 - h // 2 after; they are never built. Tap form: P = x
    @ w[j] projects every input row through tap j, and output row i is b plus
    P at input row i + j - h // 2, for each tap whose row exists. The taps
    take turns in one product buffer: each is added to every sequence in one
    shifted pass over the flat rows, after zeroing the rows of P outside the
    span it reads, so no sequence reads its neighbour's rows. The sum is then
    rectified in place, max(., 0). The backward rule first masks g with out >
    0 (an exact zero gets a zero gradient) and keeps shapes, spans and the
    output, never P. The skim's conv_relu_mean runs the same arithmetic over
    the valid windows only.
    """
    _check_conv_operands(x, w, b, "conv1d")
    out_data, grads = _conv_taps(x.data, w.data, b.data, w.data.shape[0] // 2, x.data.shape[-2])

    def bwd(g):
        grads(g, *_accumulators(x, w, b))

    return _from_op(out_data, (x, w, b), bwd)


# kept_rows lets conv_relu_mean drop rows only when they are at least this
# share of a batch's rows: below it, the index work costs more than the
# products it saves. Measured shares: 1.9% on the bundled set (m=2, n=10),
# 49-68% of a 64-document paper-grid training batch (m=8, n=32) and 44-74% of
# a 16-document paper-grid evaluation forward.
MIN_DROPPED_SHARE = 0.25


def kept_rows(words, H):
    """The rows within H - 1 rows of a word of their own sequence, as a bool
    mask of the shape of words (..., L), which marks each sequence's words.
    Every window of width at most H over a row outside the mask reads no
    word. None when fewer than MIN_DROPPED_SHARE of the rows are outside."""
    kept = words.copy()
    for s in range(1, H):
        kept[..., s:] |= words[..., :-s]
        kept[..., :-s] |= words[..., s:]
    dropped = kept.size - np.count_nonzero(kept)
    return kept if dropped and dropped >= MIN_DROPPED_SHARE * kept.size else None


def conv_relu_mean(x, filters, words=None):
    """A skim read as one node: for each (w, b) of filters, the mean over the
    valid windows of the rectified convolution of x; the means are
    concatenated in filter order: (..., L, d_in) -> (..., sum of d_out).

    words, a bool mask (..., m, n) with m * n = L, marks each sequence's
    words; without it every row is a word. Unless kept_rows drops rows
    farther than H - 1 rows from every word, H the widest window, the forward
    and backward make, in order, the numpy calls of the convolution,
    mean_pool and concat chain this node replaced. The caller promises that x's rows that
    are not words are equal wherever they have the same position, row p of a
    sequence having position p mod n; <pad> plus a position encoding is. A
    window over a dropped row reads only such rows, so its rectified sum
    depends only on its start modulo n. So the node convolves the kept rows
    of all sequences, in order, then a stretch of n + H - 1 non-word rows of
    x at positions 0, 1, ... mod n, as one sequence; it pools each
    sequence's windows whose rows are all kept with one segment sum, and
    adds, for each start q < n, the count of its other windows starting at q
    modulo n times the stretch's window at q. Dropped rows get a zero
    gradient, except the stretch's at most n source rows, which get its
    windows' gradient.
    """
    filters = list(filters)
    if not filters:
        raise ShapeError("conv_relu_mean needs at least one filter")
    for w, b in filters:
        _check_conv_operands(x, w, b, "conv_relu_mean")
    widths = [w.data.shape[0] for w, _ in filters]
    d_outs = [w.data.shape[2] for w, _ in filters]
    lead, L = x.data.shape[:-2], x.data.shape[-2]
    H = max(widths)
    if L < H:
        raise ShapeError(f"sequence length {L} shorter than window {H}")
    kept = None
    if words is not None:
        words = np.asarray(words)
        if (words.dtype != np.bool_ or words.ndim != len(lead) + 2
                or words.shape[:-2] != lead or words.shape[-2] * words.shape[-1] != L):
            raise ShapeError(f"conv_relu_mean words {words.shape} of {words.dtype} do not "
                             f"fit x {x.data.shape}")
        kept = kept_rows(words.reshape(lead + (L,)), H)
    if kept is None:
        out_data, rule = _conv_relu_mean_all(x, filters, widths, d_outs)
    else:
        out_data, rule = _conv_relu_mean_kept(x, filters, widths, d_outs, words, kept)

    def bwd(grad):     # a rule named after the op, whichever path built it
        rule(grad)

    return _from_op(out_data, (x,) + tuple(t for f in filters for t in f), bwd)


def _conv_relu_mean_all(x, filters, widths, d_outs):
    """conv_relu_mean over every row: (out, backward rule)."""
    L = x.data.shape[-2]
    convs, pooled = [], []
    for h, (w, b) in zip(widths, filters):
        convs.append(_conv_taps(x.data, w.data, b.data, 0, L - h + 1))
        pooled.append(convs[-1][0].sum(axis=-2) / float(L - h + 1))
    out_data = np.concatenate(pooled, axis=-1)
    offsets = list(itertools.accumulate(d_outs, initial=0))

    def bwd(grad):
        # the chain's backward ran its last filter first
        for i in reversed(range(len(filters))):
            (w, b), (c, grads), l_out = filters[i], convs[i], L - widths[i] + 1
            g = np.broadcast_to(grad[..., None, offsets[i]:offsets[i + 1]] / float(l_out),
                                c.shape)
            grads(g, *_accumulators(x, w, b))

    return out_data, bwd


def _conv_relu_mean_kept(x, filters, widths, d_outs, words, kept):
    """conv_relu_mean over the kept rows and the stretch: (out, backward rule)."""
    lead, (L, d_in) = x.data.shape[:-2], x.data.shape[-2:]
    D, n = kept.size // L, words.shape[-1]
    idx = np.flatnonzero(kept)              # kept rows, in sequence order
    K = idx.size
    seq, p = np.divmod(idx, L)
    # the first non-word row at each position; a position with none is read
    # by no window counted below, so any row may stand there
    blank = np.argmax(~words.reshape(-1, n), axis=0) * n + np.arange(n)
    stretch = blank[np.arange(n + max(widths) - 1) % n]
    xc = np.take(x.data.reshape(-1, d_in), np.concatenate([idx, stretch]), axis=0)
    # a run is a span of consecutive kept rows of one sequence; left counts
    # the rows from each kept row to the end of its run
    first = np.flatnonzero((np.diff(idx, prepend=-2) != 1) | (p == 0))
    ends = np.append(first[1:], K)[:first.size]
    left = np.repeat(ends, ends - first) - np.arange(K)
    per_seq = np.bincount(seq, minlength=D)
    some = per_seq > 0
    seg = (np.cumsum(per_seq) - per_seq)[some]
    phase = seq * n + p % n
    parts, saved = [], []
    for h, (w, b) in zip(widths, filters):
        l_out = L - h + 1
        conv, grads = _conv_taps(xc, w.data, b.data, 0, len(xc) - h + 1)
        # a window inside a run keeps its rectified sum; the others read only
        # non-word rows and are zeroed, which also zeroes their gradient
        inside = left >= h
        conv[:K][~inside] = 0
        # each sequence's windows outside its runs, counted by start modulo n
        others = (np.bincount(np.arange(l_out) % n, minlength=n)
                  - np.bincount(phase[inside], minlength=D * n).reshape(D, n))
        others = others.astype(conv.dtype)
        sums = others @ conv[K:K + n]
        if K:
            sums[some] += np.add.reduceat(conv[:K], seg)
        parts.append(sums / float(l_out))
        saved.append((conv, grads, others, l_out))
    out_data = np.concatenate(parts, axis=-1).reshape(lead + (-1,))
    offsets = list(itertools.accumulate(d_outs, initial=0))

    def bwd(grad):
        grad = grad.reshape(D, -1)
        dxc = None

        def put_xc(d):
            nonlocal dxc
            dxc = d if dxc is None else np.add(dxc, d, out=dxc)

        for i, ((w, b), (conv, grads, others, l_out)) in enumerate(zip(filters, saved)):
            g = grad[:, offsets[i]:offsets[i + 1]] / float(l_out)
            dconv = np.empty(conv.shape, g.dtype)
            dconv[:K] = np.repeat(g, per_seq, axis=0)
            dconv[K:K + n] = others.T @ g
            dconv[K + n:] = 0
            grads(dconv, put_xc if x.requires_grad else None, *_accumulators(w, b))
        if dxc is not None:
            dx = np.zeros(x.data.shape, dxc.dtype)
            dx2 = dx.reshape(-1, d_in)
            dx2[idx] = dxc[:K]
            np.add.at(dx2, stretch, dxc[K:])     # stretch rows repeat once H > 1
            _accum(x, dx)

    return out_data, bwd


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


def _sum_copies(g, rows, copies):
    """Row u of the result is the sum of g's rows i with rows[i] == u, where
    every u has copies[u] >= 1 of them: a gather of each row's first copy, then
    one sum for each row with more."""
    order = np.argsort(rows, kind="stable")
    starts = np.cumsum(copies) - copies
    out = g[order[starts]]
    for u in np.flatnonzero(copies > 1):
        out[u] = g[order[starts[u]:starts[u] + copies[u]]].sum(axis=0)
    return out


def affine_relu_mean(x, u, g, weight, bias, rows=None):
    """A dense connection as one node: the mean over the sequence axis of
    relu([g; u_j; x_j] @ weight + bias).

    x: (..., L, d_x) and u: (..., L, d_u) with one leading shape; g: (P...,
    d_g) with P a prefix of the axes before L; weight: (d_g + d_u + d_x, d),
    the row blocks [W_g; W_u; W_x]; bias: (d,). g @ W_g + bias is one row per
    g row, broadcast over the positions it leads. Forward and backward make,
    in order, the numpy calls of the matmul, add, reshape, relu and mean_pool
    chain they replace, on slices of the weight, so in float32 the output and
    every gradient are the chain's bytes; the node keeps a bool mask of the
    pre-activation instead of the products, their sums and the activation.

    rows: an optional int array that maps onto every row of x's and u's first
    axis. They then stand for x[rows] and u[rows], of shape rows.shape +
    x.shape[1:]: their products run once per row and are gathered to every
    copy before the g row is added, and backward sums each row's copies
    before the products.
    """
    if (min(x.data.ndim, u.data.ndim, g.data.ndim) < 1 or weight.data.ndim != 2
            or u.data.shape[:-1] != x.data.shape[:-1]
            or weight.data.shape[0] != g.data.shape[-1] + u.data.shape[-1] + x.data.shape[-1]
            or bias.data.shape != weight.data.shape[1:]):
        raise ShapeError(f"affine_relu_mean x {x.data.shape}, u {u.data.shape}, "
                         f"g {g.data.shape}, weight {weight.data.shape}, bias {bias.data.shape}")
    term_shape, d = x.data.shape[:-1], weight.data.shape[1]
    d_g, d_u = g.data.shape[-1], u.data.shape[-1]
    seq_shape, copies = term_shape, None
    if rows is not None:
        rows = np.asarray(rows)
        valid = bool(term_shape) and rows.dtype.kind == "i" and not (rows < 0).any()
        copies = np.bincount(rows.reshape(-1)) if valid else None
        if copies is None or copies.size != term_shape[0] or not copies.all():
            raise ShapeError(f"affine_relu_mean rows {rows.shape} do not map onto "
                             f"every row of the inputs {term_shape}")
        seq_shape = rows.shape + term_shape[1:]
    lead = g.data.shape[:-1]
    if len(lead) >= len(seq_shape) or seq_shape[:len(lead)] != lead:
        raise ShapeError(f"affine_relu_mean g {g.data.shape} does not lead the inputs {seq_shape}")
    pre_shape = seq_shape + (d,)
    shared_shape = lead + (1,) * (len(seq_shape) - len(lead)) + (d,)
    ones = tuple(i for i, (dp, ds) in enumerate(zip(pre_shape, shared_shape)) if ds != dp)
    w_g, w_u, w_x = weight.data[:d_g], weight.data[d_g:d_g + d_u], weight.data[d_g + d_u:]
    g2 = g.data.reshape(-1, d_g)
    shared = (g2 @ w_g).reshape(lead + (d,)) + bias.data
    x2, u2 = x.data.reshape(-1, x.data.shape[-1]), u.data.reshape(-1, d_u)
    pre = (x2 @ w_x).reshape(term_shape + (d,))
    pre += (u2 @ w_u).reshape(term_shape + (d,))
    if rows is not None:
        pre = pre[rows]
    pre += shared.reshape(shared_shape)
    mask = pre > 0
    L = seq_shape[-1]
    out_data = np.maximum(pre, 0, out=pre).sum(axis=-2) / float(L)

    def bwd(grad):
        dpre = np.broadcast_to(grad[..., None, :] / float(L), pre_shape) * mask
        dp2 = (dpre if rows is None else
               _sum_copies(dpre.reshape(rows.size, -1), rows.reshape(-1), copies))
        dp2 = dp2.reshape(-1, d)
        ds2 = dpre.sum(axis=ones, keepdims=True).reshape(-1, d)
        _accum(x, (dp2 @ w_x.T).reshape(x.data.shape))
        _accum(u, (dp2 @ w_u.T).reshape(u.data.shape))
        _accum(bias, ds2.sum(axis=0))
        _accum(g, (ds2 @ w_g.T).reshape(g.data.shape))
        if weight.requires_grad:
            dw = _own_grad(weight)
            dw[d_g + d_u:] += x2.T @ dp2
            dw[d_g:d_g + d_u] += u2.T @ dp2
            dw[:d_g] += g2.T @ ds2

    # x's and u's subgraphs come before g's, as in the chain: the parent order
    # sets the topological order, and so the order in which backward sums the
    # gradients that reach a node with several consumers
    return _from_op(out_data, (x, u, weight, g, bias), bwd)


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
    """Identity forward, sharing x's array; backward multiplies the incoming
    gradient by -scale."""
    if scale_factor < 0:
        raise ValueError(f"grad_reverse scale must be >= 0, got {scale_factor}")

    def bwd(g):
        _accum(x, -scale_factor * g)

    return _from_op(x.data, (x,), bwd)


def add(a, b):
    """a + b with b broadcast onto a's shape under numpy rules; out has a's shape.

    Backward sums g over a's leading axes, then over b's size-1 axes.
    """
    a_shape, b_shape = a.data.shape, b.data.shape
    lead = a.data.ndim - b.data.ndim
    if lead < 0 or any(db not in (1, da) for da, db in zip(a_shape[lead:], b_shape)):
        raise ShapeError(f"add shapes: {a_shape} + {b_shape}")
    ones = tuple(i for i, (da, db) in enumerate(zip(a_shape[lead:], b_shape)) if db != da)
    out_data = a.data + b.data

    def bwd(g):
        _accum(a, g)
        if b.requires_grad:
            if lead:
                g = g.reshape((-1,) + a_shape[lead:]).sum(axis=0)
            if ones:
                g = g.sum(axis=ones, keepdims=True)
            _accum(b, g)

    return _from_op(out_data, (a, b), bwd)


def reshape(x, shape):
    out_data = x.data.reshape(shape)

    def bwd(g):
        _accum(x, g.reshape(x.data.shape))

    return _from_op(out_data, (x,), bwd)


def gather_rows(x, index):
    """Rows x[index] of x's first axis for distinct indices; backward assigns g
    into those rows of a zero gradient."""
    index = np.asarray(index)
    valid = (x.data.ndim >= 1 and index.ndim == 1 and index.dtype.kind == "i"
             and not (index < 0).any())
    copies = np.bincount(index, minlength=len(x.data)) if valid else None
    if copies is None or copies.size != len(x.data) or copies.max(initial=0) > 1:
        raise ShapeError(f"gather_rows needs distinct row indices of shape {x.data.shape}")
    out_data = x.data[index]

    def bwd(g):
        grad = np.zeros(x.data.shape, g.dtype)
        grad[index] = g
        _accum(x, grad)

    return _from_op(out_data, (x,), bwd)


def embedding_lookup(table, ids):
    """Rows of table for an id array of any shape: ids (...) -> (..., d).
    Backward splits its scatter by the most frequent id (module docstring)
    and, if table had no gradient before it, sets table.grad_rows to the
    rows it read."""
    ids = np.asarray(ids, dtype=np.int64)
    V = table.data.shape[0]
    if ids.size and (ids.max() >= V or ids.min() < 0):
        raise IndexError(f"token id out of range for vocabulary of size {V}")
    out_data = table.data[ids]

    def bwd(g):
        d = table.data.shape[1]
        flat_ids, g2 = ids.reshape(-1), g.reshape(ids.size, d)
        counts = np.bincount(flat_ids, minlength=V)
        sparse = table.grad is None
        grad = _own_grad(table)
        rest = np.ones(ids.size, bool)
        # a sum down a one-column array would be pairwise, not in row order
        if d > 1 and ids.size:
            top = counts.argmax()
            at_top = flat_ids == top
            rows = np.empty((counts[top] + 1, d), grad.dtype)
            rows[0] = grad[top]
            np.compress(at_top, g2, axis=0, out=rows[1:])
            grad[top] = rows.sum(axis=0)
            rest = ~at_top
        # a 1-D scatter on the flat table takes numpy's fast path and adds
        # to each element in the same order; C order makes reshape a view
        flat = (np.compress(rest, flat_ids)[:, None] * d + np.arange(d)).reshape(-1)
        np.add.at(grad.reshape(-1), flat, np.compress(rest, g2, axis=0).reshape(-1))
        if sparse:
            table.grad_rows = np.flatnonzero(counts)

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


def finite_diff_check(f, x):
    """Max relative error between f's analytic gradient at x and central
    differences with a fixed step of 1e-5.

    f must be a deterministic scalar-valued function of x rebuilding its
    graph on every call. x's data is perturbed in place and restored.
    """
    eps = 1e-5
    x.grad = None
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
