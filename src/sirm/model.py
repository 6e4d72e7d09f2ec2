"""The skim/intensive reading classifier.

Skim path: parallel multi-width valid convolutions with ReLU and
average-over-time pooling whose concatenated output g summarizes the whole
paragraph. Intensive path: two levels (sentence, then paragraph) where every
position is re-encoded from its own embedding, a zero-padded near-neighbor
convolution, and g, through one ReLU affine layer followed by mean pooling.
That layer is one node, tensor.affine_relu_mean: W_x x'_j + W_u u_j per
position plus W_g g + b once per document and broadcast over its positions,
with W_g, W_u and W_x the row blocks [g; u; x'] of one stored weight. Both
levels use the same two functions. A sentence's encoding depends only on its
own token ids until the W_g g + b term, so the sentence level runs them once
on the distinct sentences of the batch, (U, n, d_e), and gathers the
products to every copy before that term; the paragraph level runs them once
on the (m, d_as) sentence vectors. An auxiliary two-class head reads g
through a gradient-reversal node so that training-set-specific skim features
are suppressed. Every function takes leading batch axes: a document, a batch
and a split are one ParagraphGrid of (..., m, n) ids, and a training step
indexes its minibatch out of the split and reads it in one graph.

The bag-of-words baseline (NBOW) sits next to SIRM; MODELS maps each model
kind to its builder and its heads function; heads_loss builds the loss. A
model's tensors are one Params, named and shaped only in its builder, whose
order of make calls is the checkpoint's order of records.
"""

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T


class ConfigError(ValueError):
    """Architecture hyperparameters are inconsistent."""


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_field_types(config):
    """Raise ConfigError unless every int field of a config dataclass holds an
    integer and every float field a finite real number; a bool is neither."""
    for field in fields(config):
        value = getattr(config, field.name)
        if field.type is int and not _is_int(value):
            raise ConfigError(f"{field.name} must be an integer, got {value!r}")
        if field.type is float and (isinstance(value, bool) or not isinstance(
                value, numbers.Real) or not math.isfinite(value)):
            raise ConfigError(f"{field.name} must be a finite number, got {value!r}")


@dataclass
class SIRMConfig:
    vocab_size: int
    d_e: int = 64
    d_c: int = 16
    src_windows: tuple = (1, 2, 3, 4)
    k: int = 1
    d_ns: int = 64
    d_np: int = 64
    d_as: int = 64
    d_ap: int = 64
    lambda_adv: float = 1e-6
    m: int = 8
    n: int = 32

    def __post_init__(self):
        check_field_types(self)
        if (not isinstance(self.src_windows, (list, tuple))
                or not all(_is_int(h) for h in self.src_windows)):
            raise ConfigError(f"src_windows must be a list of integers, got {self.src_windows!r}")
        dims = (self.vocab_size, self.d_e, self.d_c, self.k, self.d_ns,
                self.d_np, self.d_as, self.d_ap, self.m, self.n, *self.src_windows)
        if any(d < 1 for d in dims):
            raise ConfigError("all dimensions and skim windows must be >= 1")
        if self.lambda_adv < 0:
            raise ConfigError("lambda_adv must be >= 0")
        if not self.src_windows:
            raise ConfigError("src_windows must be non-empty")
        if len(set(self.src_windows)) != len(self.src_windows):
            raise ConfigError(f"src_windows must be distinct, got {self.src_windows!r}")
        if max(self.src_windows) > self.m * self.n:
            raise ConfigError("largest skim window exceeds grid size m*n")
        if self.d_e % 2 or self.d_as % 2:
            raise ConfigError("d_e and d_as must be even (position encoding parity)")
        self.src_windows = tuple(sorted(self.src_windows))

    @property
    def g_width(self):
        return len(self.src_windows) * self.d_c

    @classmethod
    def from_dict(cls, d):
        d = dict(d)
        # retired field: older checkpoints always store it, as false
        if d.pop("mask_aware_pooling", False):
            raise ConfigError("mask_aware_pooling is no longer supported")
        return cls(**d)


class Params:
    """A model's trainable tensors: each layer an attribute, and every tensor
    under its checkpoint name in the order its builder made it."""

    def __init__(self, named, **layers):
        self._named = named
        self.__dict__.update(layers)

    def named_tensors(self):
        return list(self._named)

    def tensors(self):
        return [t for _, t in self._named]


def _recorded(make):
    """(record, named): make wrapped so that named lists every (name, tensor)
    record has returned, in call order."""
    named = []

    def record(name, shape):
        named.append((name, make(name, shape)))
        return named[-1][1]
    return record, named


def seeded_make(seed=0, dtype=np.float32):
    """A builder's make(name, shape) for a fresh model, drawing from one
    default_rng(seed) in call order: N(0, 1) for the embedding, zeros for a
    1-D shape and Glorot-uniform for every other weight. Unit-scale embeddings
    keep word content comparable to the unit-amplitude position encodings;
    smaller scales bury the content signal and stall training at the default
    learning rate."""
    rng = np.random.default_rng(seed)

    def make(name, shape):
        if name == "embedding":
            data = rng.normal(0.0, 1.0, size=shape)
        elif len(shape) == 1:
            data = np.zeros(shape)
        else:
            bound = math.sqrt(6.0 / (math.prod(shape[:-1]) + shape[-1]))
            data = rng.uniform(-bound, bound, size=shape)
        return T.Tensor(data, requires_grad=True, dtype=dtype)
    return make


def build_sirm_params(config, make):
    """The SIRM model's Params, every tensor make(name, shape) under its
    checkpoint name; the order of the calls is the checkpoint's order."""
    make, named = _recorded(make)

    def layer(name, shape):
        return make(f"{name}.weight", shape), make(f"{name}.bias", shape[-1:])

    gw, win = config.g_width, 2 * config.k + 1
    return Params(
        named,
        embedding=make("embedding", (config.vocab_size, config.d_e)),
        # window size -> (weight, bias), in increasing window order
        src_filters={h: layer(f"src_filters.{h}", (h, config.d_e, config.d_c))
                     for h in config.src_windows},
        sent_neighbor=layer("sent_neighbor", (win, config.d_e, config.d_ns)),
        # a dense layer's weight stacks the row blocks [W_g; W_u; W_x]
        sent_dense=layer("sent_dense", (gw + config.d_ns + config.d_e, config.d_as)),
        para_neighbor=layer("para_neighbor", (win, config.d_as, config.d_np)),
        para_dense=layer("para_dense", (gw + config.d_np + config.d_as, config.d_ap)),
        out_head=layer("out_head", (config.d_ap + gw, 1)),
        adv_head=layer("adv_head", (gw, 2)),
    )


def init_sirm_params(config, seed=0, dtype=np.float32):
    """A fresh SIRM model: build_sirm_params drawing through seeded_make."""
    return build_sirm_params(config, seeded_make(seed, dtype))


@dataclass
class ForwardTrace:
    """Intermediate activations of one forward pass; each tensor is a node of
    its graph. The sentence level holds distinct sentences: grid sentence i of
    a document is row sentence_rows[..., i] of s_prime and u_sent."""

    s_prime: T.Tensor    # (U, n, d_e), the U distinct sentences of the grid
    sentence_rows: np.ndarray   # (..., m), each sentence's row of s_prime
    g: T.Tensor          # (..., |g|)
    u_sent: T.Tensor     # (U, n, d_ns)
    o_sent: T.Tensor     # (..., m, d_as)
    o_prime: T.Tensor    # (..., m, d_as)
    u_para: T.Tensor     # (..., m, d_np)
    o_para: T.Tensor     # (..., d_ap)
    y_prime: T.Tensor    # (...), in (0, 1)
    y_dprime: T.Tensor   # (..., 2), sums to 1


def positional_encoding(length, d, dtype=np.float64):
    """Sinusoidal position table: out[p, 2i]=sin(p/10000^{2i/d}), 2i+1=cos."""
    if d % 2:
        raise ConfigError(f"position encoding width must be even, got {d}")
    if length < 1:
        raise ConfigError("position encoding length must be >= 1")
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(0, d, 2, dtype=np.float64)
    angles = pos / np.power(10000.0, idx / d)
    out = np.empty((length, d), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return T.Tensor(out.astype(dtype))


def embed_paragraph(grid, params, config):
    """Word embedding lookup plus per-sentence position encoding.

    Returns the position-augmented embeddings of each document flattened to
    (..., m*n, d_e); PAD positions embed like any other token.
    """
    dtype = params.embedding.dtype
    ids = grid.token_ids.reshape(grid.token_ids.shape[:-2] + (config.m * config.n,))
    emb = T.embedding_lookup(params.embedding, ids)
    pos = positional_encoding(config.n, config.d_e, dtype)
    tiled = T.Tensor(np.tile(pos.data, (config.m, 1)))
    return T.add(emb, tiled)


def skim_forward(s_prime_flat, params, config, words=None):
    """Multi-width valid convolutions + ReLU + average-over-time pooling, as
    one tensor.conv_relu_mean node. Given the grid's word mask (..., m, n),
    the node may skip the rows that no window of a word reads and take their
    windows from s_prime_flat's own <pad> rows, which embed_paragraph makes
    equal at each position. Without it every row counts as a word."""
    filters = [params.src_filters[h] for h in config.src_windows]
    return T.conv_relu_mean(s_prime_flat, filters, words)


def near_neighbor_encode(x, weight, bias, k):
    """Zero-padded window-(2k+1) convolution with ReLU; length preserved."""
    if weight.data.shape[0] != 2 * k + 1:
        raise T.ShapeError(f"near-neighbor weight window {weight.data.shape[0]} != 2k+1")
    return T.conv1d(x, weight, bias)


def dense_connect_pool(x_prime, u, g, weight, bias, rows=None):
    """Per position: relu(W_g g + W_u u_j + W_x x'_j + b), then mean over positions.

    x_prime and u are (..., L, d) or, given rows, distinct rows (U, L, d)
    that the int array rows (..., m) maps to m sequences per document; g is
    the (..., |g|) skim vector of each document. weight stacks the row blocks
    [W_g; W_u; W_x]. One affine_relu_mean node: the g term and b once per
    document, broadcast over its positions.
    """
    return T.affine_relu_mean(x_prime, u, g, weight, bias, rows)


def sirm_forward(grid, params, config, reverse_gradients=True):
    """Full forward pass; returns a ForwardTrace of all intermediates.

    reverse_gradients=False bypasses the gradient-reversal node (identity
    backward), used to measure the adversarial branch in isolation.
    """
    m, n = config.m, config.n
    dtype = params.embedding.dtype
    lead = grid.token_ids.shape[:-2]

    s_flat = embed_paragraph(grid, params, config)          # (..., m*n, d_e)
    g = skim_forward(s_flat, params, config, grid.word_mask)   # (..., |g|)

    # each distinct sentence once: repeats and all-PAD rows collapse. Viewing
    # a sentence's ids as one opaque key sorts them faster than axis=0 does.
    sentences = np.ascontiguousarray(grid.token_ids).reshape(-1, n)
    keys = sentences.view(np.dtype((np.void, sentences.strides[0]))).reshape(-1)
    _, first, rows = np.unique(keys, return_index=True, return_inverse=True)
    rows = rows.reshape(lead + (m,))
    s_prime = T.gather_rows(T.reshape(s_flat, (-1, n, config.d_e)), first)   # (U, n, d_e)
    nb_w, nb_b = params.sent_neighbor
    u_sent = near_neighbor_encode(s_prime, nb_w, nb_b, config.k)   # (U, n, d_ns)
    ds_w, ds_b = params.sent_dense
    o_sent = dense_connect_pool(s_prime, u_sent, g, ds_w, ds_b, rows)   # (..., m, d_as)
    pos_m = positional_encoding(m, config.d_as, dtype)
    o_prime = T.add(o_sent, pos_m)                           # (..., m, d_as)

    pn_w, pn_b = params.para_neighbor
    pd_w, pd_b = params.para_dense
    u_para = near_neighbor_encode(o_prime, pn_w, pn_b, config.k)
    o_para = dense_connect_pool(o_prime, u_para, g, pd_w, pd_b)

    ow, ob = params.out_head
    logit = T.add(T.matmul([o_para, g], ow), ob)
    y_prime = T.reshape(T.sigmoid(logit), lead)

    g_adv = T.grad_reverse(g, config.lambda_adv) if reverse_gradients else g
    aw, ab = params.adv_head
    y_dprime = T.softmax_lastaxis(T.add(T.matmul(g_adv, aw), ab))

    return ForwardTrace(
        s_prime=s_prime,
        sentence_rows=rows,
        g=g,
        u_sent=u_sent,
        o_sent=o_sent,
        o_prime=o_prime,
        u_para=u_para,
        o_para=o_para,
        y_prime=y_prime,
        y_dprime=y_dprime,
    )


def heads_loss(y_prime, y_dprime, y):
    """(batch mean loss, its BCE node): the main head's BCE against 0/1 labels
    y shaped like y_prime, plus the adversarial head's cross entropy unless
    y_dprime is None. The -lambda factor lives in the forward's gradient
    reversal node, so the value is exactly BCE + CE."""
    if not np.isin(y, (0, 1)).all():
        raise ValueError(f"labels must be 0 or 1, got {y!r}")
    bce = T.bce_loss(y_prime, y)
    if y_dprime is None:
        return bce, bce
    return T.add(bce, T.nll_loss(y_dprime, y)), bce


def sirm_loss(trace, y):
    """The heads_loss of a ForwardTrace, without its BCE node."""
    return heads_loss(trace.y_prime, trace.y_dprime, y)[0]


def build_nbow_params(config, make):
    """The NBOW model's Params, mean word embedding plus a linear sigmoid
    head, made as build_sirm_params makes SIRM's."""
    make, named = _recorded(make)
    return Params(named, embedding=make("embedding", (config.vocab_size, config.d_e)),
                  head_w=make("head_w", (config.d_e, 1)), head_b=make("head_b", (1,)))


def init_nbow_params(config, seed=0, dtype=np.float32):
    """A fresh NBOW model: build_nbow_params drawing through seeded_make."""
    return build_nbow_params(config, seeded_make(seed, dtype))


def nbow_forward(grid, params):
    """Mean of the real (non-padding) words' embeddings through a sigmoid head.

    Every document's mean is its row of a constant (documents, real words)
    matrix of 1/count weights times the real words' embeddings.
    """
    counts = grid.word_mask.sum(axis=(-2, -1)).reshape(-1)
    doc = np.repeat(np.arange(counts.size), counts)
    pool = np.zeros((counts.size, doc.size), dtype=params.embedding.dtype)
    pool[doc, np.arange(doc.size)] = 1.0 / counts[doc]
    emb = T.embedding_lookup(params.embedding, grid.token_ids[grid.word_mask])
    pooled = T.matmul(T.Tensor(pool), emb)
    logit = T.add(T.matmul(pooled, params.head_w), params.head_b)
    return T.reshape(T.sigmoid(logit), grid.token_ids.shape[:-2])


def sirm_heads(grid, params, config):
    trace = sirm_forward(grid, params, config)
    return trace.y_prime, trace.y_dprime


def nbow_heads(grid, params, config):
    return nbow_forward(grid, params), None


# model kind -> (build(SIRMConfig, make) -> Params in the builder's order,
#                heads(stacked grid, params, SIRMConfig) -> (y_prime, y_dprime or None))
MODELS = {
    "sirm": (build_sirm_params, sirm_heads),
    "nbow": (build_nbow_params, nbow_heads),
}


def lookup_model(name):
    """The (build, heads) entry of a model kind; ValueError for an unknown kind."""
    if name not in MODELS:
        raise ValueError(f"unknown model kind {name!r}")
    return MODELS[name]


def param_count(params, include_embeddings=False):
    total = 0
    for name, t in params.named_tensors():
        if name == "embedding" and not include_embeddings:
            continue
        total += t.data.size
    return total
