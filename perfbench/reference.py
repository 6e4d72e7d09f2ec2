"""Independent float64 numpy forward pass of SIRM, used to check outputs.

It follows the README's description of the model, not the package's code:
embeddings plus per-sentence sinusoidal positions; skim convolutions with
ReLU and mean pooling into g; a sentence level and a paragraph level, each a
zero-padded neighbour convolution followed by a dense layer over [g, u, x]
and mean pooling; a sigmoid head over [paragraph vector, g]. The benchmark
compares the probabilities `evaluate` returns against it, so a faster path
that changes the numbers fails the run.
"""

import numpy as np

# float32 forward against this float64 one
PROB_TOLERANCE = 1e-4


def positions(length, d):
    pos = np.arange(length, dtype=np.float64)[:, None]
    angles = pos / np.power(10000.0, np.arange(0, d, 2, dtype=np.float64) / d)
    out = np.empty((length, d))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def _conv(x, w, b, pad_l, pad_r):
    xp = np.pad(x, ((pad_l, pad_r), (0, 0)))
    length = xp.shape[0] - w.shape[0] + 1
    return sum(xp[j:j + length] @ w[j] for j in range(w.shape[0])) + b


def _relu(x):
    return np.maximum(x, 0.0)


def _level(x, g, neighbor, dense, k):
    """Neighbour conv, dense over [g, u_j, x_j] per position, mean pool."""
    u = _relu(_conv(x, *neighbor, k, k))
    t = np.concatenate([np.repeat(g[None, :], x.shape[0], axis=0), u, x], axis=1)
    return _relu(t @ dense[0] + dense[1]).mean(axis=0)


def probability(token_ids, weights, config):
    """P(label 1) for one (m, n) grid of token ids."""
    m, n = token_ids.shape

    def pair(name):
        return weights[f"{name}.weight"], weights[f"{name}.bias"]

    x = weights["embedding"][token_ids.reshape(-1)] + np.tile(positions(n, config.d_e), (m, 1))
    g = np.concatenate([
        _relu(_conv(x, *pair(f"src_filters.{h}"), 0, 0)).mean(axis=0)
        for h in sorted(config.src_windows)])
    sentences = np.stack([
        _level(x[i * n:(i + 1) * n], g, pair("sent_neighbor"), pair("sent_dense"), config.k)
        for i in range(m)])
    o = sentences + positions(m, sentences.shape[1])
    para = _level(o, g, pair("para_neighbor"), pair("para_dense"), config.k)
    w, b = pair("out_head")
    logit = (np.concatenate([para, g]) @ w + b).item()
    return 1.0 / (1.0 + np.exp(-logit))


def max_prob_error(params, config, grids, probs):
    """Largest |reference - given| probability over grids."""
    weights = {name: t.data.astype(np.float64) for name, t in params.named_tensors()}
    return max(abs(probability(grid.token_ids, weights, config) - p)
               for grid, p in zip(grids, probs))
