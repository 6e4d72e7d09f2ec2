import inspect
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sirm import tensor as T
from sirm.model import SIRMConfig, init_sirm_params, sirm_forward, sirm_loss
from sirm.text import ParagraphGrid


def t64(data, requires_grad=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def total(x):
    """The sum of every element of x as a scalar graph node: x flattened
    times a ones column, so its gradient comes from the ops under test."""
    ones = T.Tensor(np.ones((x.data.size, 1), dtype=x.data.dtype))
    return T.reshape(T.matmul(T.reshape(x, (x.data.size,)), ones), ())


class TestMatmul:
    def test_identity(self):
        a = t64(np.eye(2))
        b = t64([[1, 2], [3, 4]])
        assert np.array_equal(T.matmul(a, b).data, [[1, 2], [3, 4]])

    def test_projector_row_select(self):
        a = t64([[1, 0], [0, 0]])
        b = t64([[5, 6], [7, 8]])
        assert np.array_equal(T.matmul(a, b).data, [[5, 6], [0, 0]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(T.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))

    def test_grad_of_sum_vs_column_sums(self):
        rng = np.random.default_rng(0)
        a = t64(rng.normal(size=(3, 4)), requires_grad=True)
        b = t64(rng.normal(size=(4, 2)))
        out = total(T.matmul(a, b))
        T.backward(out)
        expected = np.tile(b.data.sum(axis=1), (3, 1))
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)

    def test_vector_times_matrix(self):
        rng = np.random.default_rng(8)
        a = t64(rng.normal(size=4), requires_grad=True)
        b = t64(rng.normal(size=(4, 2)))
        out = T.matmul(a, b)
        np.testing.assert_allclose(out.data, a.data @ b.data, rtol=1e-12)
        T.backward(total(out))
        np.testing.assert_allclose(a.grad, b.data.sum(axis=1), rtol=1e-12)

    def test_leading_axes_match_row_by_row(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(4, 2))
        out = T.matmul(t64(a), t64(b))
        assert out.data.shape == (2, 3, 2)
        for i in range(2):
            np.testing.assert_allclose(out.data[i], a[i] @ b, rtol=1e-12)

    def test_finite_difference(self):
        rng = np.random.default_rng(1)
        b = t64(rng.normal(size=(4, 2)))
        a = t64(rng.normal(size=(3, 4)), requires_grad=True)
        err = T.finite_diff_check(lambda x: total(T.matmul(x, b)), a)
        assert err < 1e-6


def conv1d_oracle(x, w, b, padding):
    """Independent triple-loop realization of the rectified convolution contract."""
    h, d_in, d_out = w.shape
    if padding == "valid":
        xp = x
    else:
        xp = np.vstack([np.zeros((h // 2, d_in)), x, np.zeros((h - 1 - h // 2, d_in))])
    l_out = xp.shape[0] - h + 1
    out = np.zeros((l_out, d_out))
    for i in range(l_out):
        for o in range(d_out):
            acc = b[o]
            for j in range(h):
                for c in range(d_in):
                    acc += xp[i + j, c] * w[j, c, o]
            out[i, o] = acc
    return np.maximum(out, 0)


def conv1d_im2col(x, w, b, padding, g):
    """The unrolled (im2col) convolution the tap form replaced, rectified, with
    the padded-buffer backward rule applied to g masked by out > 0: (out, dx,
    dw, db) for upstream gradient g."""
    h, d_in, d_out = w.shape
    pad_l = h // 2 if padding == "same_zero" else 0
    pad_r = h - 1 - pad_l if padding == "same_zero" else 0
    L = x.shape[-2]
    xp = np.pad(x, [(0, 0)] * (x.ndim - 2) + [(pad_l, pad_r), (0, 0)])
    l_out = xp.shape[-2] - h + 1
    cols = np.concatenate([xp[..., j:j + l_out, :] for j in range(h)], axis=-1)
    cols2 = cols.reshape(-1, h * d_in)
    w2 = w.reshape(h * d_in, d_out)
    out = np.maximum(cols2 @ w2 + b, 0).reshape(cols.shape[:-1] + (d_out,))
    g2 = (g * (out > 0)).reshape(-1, d_out)
    dcols = (g2 @ w2.T).reshape(cols.shape)
    dxp = np.zeros(xp.shape, dtype=x.dtype)
    for j in range(h):
        dxp[..., j:j + l_out, :] += dcols[..., j * d_in:(j + 1) * d_in]
    dx = np.zeros_like(x)
    dx += dxp[..., pad_l:pad_l + L, :]
    return out, dx, (cols2.T @ g2).reshape(h, d_in, d_out), g2.sum(axis=0)


def conv(x, w, b, padding):
    """conv1d for same_zero; for valid, the skim's arithmetic, T._conv_taps
    with no padding, as a graph node."""
    if padding == "same_zero":
        return T.conv1d(x, w, b)
    out, grads = T._conv_taps(x.data, w.data, b.data, 0, x.data.shape[-2] - w.data.shape[0] + 1)
    return T._from_op(out, (x, w, b), lambda g: grads(g, *T._accumulators(x, w, b)))


class TestConv1d:
    def test_sliding_sums(self):
        x = t64([[1], [2], [3], [4]])
        w = t64(np.ones((2, 1, 1)))
        b = t64([0.0])
        out = conv(x, w, b, "valid")
        assert np.array_equal(out.data, [[3], [5], [7]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = t64(rng.normal(size=(5, 3)))
        w = t64(np.eye(3)[None, :, :])
        out = T.conv1d(x, w, t64(np.zeros(3)))
        np.testing.assert_allclose(out.data, np.maximum(x.data, 0))

    def test_matches_loop_oracle_same_zero(self):
        rng = np.random.default_rng(3)
        x = t64(rng.normal(size=(7, 3)), requires_grad=True)
        w = t64(rng.normal(size=(3, 3, 2)), requires_grad=True)
        b = t64(rng.normal(size=2), requires_grad=True)
        out = T.conv1d(x, w, b)
        assert out.data.shape == (7, 2)
        np.testing.assert_allclose(out.data, conv1d_oracle(x.data, w.data, b.data, "same_zero"),
                                   rtol=1e-12)
        for param in (x, w, b):
            err = T.finite_diff_check(
                lambda _p: total(T.conv1d(x, w, b)), param)
            assert err < 1e-6

    def test_valid_matches_oracle(self):
        rng = np.random.default_rng(4)
        x = t64(rng.normal(size=(6, 2)))
        w = t64(rng.normal(size=(4, 2, 3)))
        b = t64(rng.normal(size=3))
        out = conv(x, w, b, "valid")
        np.testing.assert_allclose(out.data, conv1d_oracle(x.data, w.data, b.data, "valid"),
                                   rtol=1e-12)

    def test_leading_axes_are_independent_sequences(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 5, 3))
        w = rng.normal(size=(3, 3, 2))
        b = rng.normal(size=2)
        for padding in ("valid", "same_zero"):
            out = conv(t64(x), t64(w), t64(b), padding)
            for i in range(2):
                for j in range(3):
                    np.testing.assert_allclose(
                        out.data[i, j], conv1d_oracle(x[i, j], w, b, padding), rtol=1e-12)

    @settings(max_examples=60, deadline=None)
    @example(h=7, padding="same_zero", lead=[2], extra=2, d_in=2, d_out=1,
             dtype=np.float32, seed=0)
    @example(h=9, padding="same_zero", lead=[], extra=3, d_in=1, d_out=2,
             dtype=np.float64, seed=1)
    @given(h=st.integers(1, 9), padding=st.sampled_from(["valid", "same_zero"]),
           lead=st.lists(st.integers(1, 3), max_size=2), extra=st.integers(0, 5),
           d_in=st.integers(1, 4), d_out=st.integers(1, 3),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
    def test_matches_im2col_rule(self, h, padding, lead, extra, d_in, d_out, dtype, seed):
        rng = np.random.default_rng(seed)
        # same_zero takes sequences from length 1, shorter than its padding
        L = max(1, extra + (h if padding == "valid" else 0))
        x, w, b = (T.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                   for shape in ((*lead, L, d_in), (h, d_in, d_out), (d_out,)))
        out = conv(x, w, b, padding)
        g = rng.normal(size=out.data.shape).astype(dtype)
        out._backward(g)
        expected = conv1d_im2col(x.data, w.data, b.data, padding, g)
        # the tap form sums the same products in another order
        rel = 1e-12 if dtype == np.float64 else 1e-5
        for actual, want in zip((out.data, x.grad, w.grad, b.grad), expected):
            assert actual.dtype == want.dtype and actual.shape == want.shape
            np.testing.assert_allclose(actual, want, rtol=rel, atol=rel * np.abs(want).max())

    @pytest.mark.parametrize("padding", ["valid", "same_zero"])
    @pytest.mark.parametrize("h", range(1, 10))
    def test_exact_on_small_integers(self, h, padding):
        # small integers make every product and sum exact in any order, so the
        # tap form must match both references byte for byte on any BLAS
        rng = np.random.default_rng(h)
        lengths = range(1, h + 3) if padding == "same_zero" else range(h, h + 3)
        for dtype, lead, L in itertools.product((np.float32, np.float64),
                                                ((), (2,), (2, 3)), lengths):
            x, w, b = (T.Tensor(rng.integers(-3, 4, size=shape).astype(dtype), requires_grad=True)
                       for shape in ((*lead, L, 2), (h, 2, 3), (3,)))
            out = conv(x, w, b, padding)
            g = rng.integers(-3, 4, size=out.data.shape).astype(dtype)
            out._backward(g)
            oracle = np.empty(out.data.shape, dtype)
            for idx in np.ndindex(lead):
                oracle[idx] = conv1d_oracle(x.data[idx], w.data, b.data, padding)
            expected = conv1d_im2col(x.data, w.data, b.data, padding, g)
            for actual, want in zip((out.data, out.data, x.grad, w.grad, b.grad),
                                    (oracle, *expected)):
                assert actual.dtype == want.dtype and actual.shape == want.shape
                assert actual.tobytes() == want.tobytes(), (dtype, lead, L)

    def test_backward_rule_holds_nothing_larger_than_its_operands(self):
        rng = np.random.default_rng(5)
        x = t64(rng.normal(size=(2, 6, 3)), requires_grad=True)
        w = t64(rng.normal(size=(3, 3, 4)), requires_grad=True)   # h * d_out > d_in
        out = T.conv1d(x, w, t64(np.zeros(4), requires_grad=True))
        held = [cell.cell_contents for cell in out._backward.__closure__]
        # the rule reads the output's sign, but must not keep the tap
        # products: 2 * 6 rows times h * d_out = 3 * 4 columns
        limit = max(x.data.size, w.data.size, out.data.size)
        assert limit < 2 * 6 * 3 * 4
        assert all(a.size <= limit for a in held if isinstance(a, np.ndarray))

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_same_zero_input_gradient_on_sequences_shorter_than_the_padding(self, L):
        h = 7       # pad_l = 3: taps 0..2 see only padding on short sequences
        x = t64(np.ones((2, L, 1)), requires_grad=True)
        w = t64(np.arange(1.0, h + 1).reshape(h, 1, 1))
        T.backward(total(T.conv1d(x, w, t64([0.0]))))
        # input row r feeds output row i through tap r - i + 3, for every i < L
        expected = [sum(w.data[r - i + 3, 0, 0] for i in range(L)) for r in range(L)]
        assert np.array_equal(x.grad, np.broadcast_to(np.reshape(expected, (L, 1)), (2, L, 1)))


@settings(max_examples=20, deadline=None)
@given(src_windows=st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
def test_sirm_graph_rectifies_only_its_dense_connections(src_windows):
    # every convolution is rectified inside its own node, and so is the dense
    # connection of each level: no separate relu node is left; the skim's
    # convolutions, pooling and concatenation are one node
    config = SIRMConfig(vocab_size=12, d_e=4, d_c=4, src_windows=src_windows, k=1,
                        d_ns=4, d_np=4, d_as=4, d_ap=4, m=2, n=3)
    params = init_sirm_params(config, seed=0)
    ids = np.random.default_rng(0).integers(2, config.vocab_size, size=(2, config.m, config.n))
    grid = ParagraphGrid(ids, np.array([0, 1]))
    loss = sirm_loss(sirm_forward(grid, params, config), grid.label)
    ops = [(node._backward.__qualname__.split(".")[0], node)
           for node in T.Graph.trace(loss).nodes if node._backward is not None]
    rules = [rule for rule, _ in ops]
    assert rules.count("affine_relu_mean") == 2
    assert "relu" not in rules and "row_block" not in rules
    assert rules.count("conv1d") == 2
    assert rules.count("conv_relu_mean") == 1
    assert "mean_pool" not in rules and "concat_lastaxis" in rules   # the out head's
    # the skim term and the weight's row blocks live inside the dense
    # connections: the only products left as nodes are the two heads'
    heads = [params.out_head[0], params.adv_head[0]]
    assert sorted(id(node._parents[1]) for rule, node in ops if rule == "matmul") == \
        sorted(map(id, heads))


class TestElementwise:
    def test_sigmoid_symmetry(self):
        assert T.sigmoid(t64(0.0)).item() == 0.5

    def test_softmax_stability(self):
        out = T.softmax_lastaxis(t64([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])
        assert np.isfinite(out.data).all()

    def test_softmax_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 6))
        s = T.softmax_lastaxis(t64(x))
        np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, atol=1e-9)
        shifted = T.softmax_lastaxis(t64(x + 3.7))
        np.testing.assert_allclose(s.data, shifted.data, atol=1e-9)


def dense_chain(x, u, g, weight, bias, grad):
    """The matmul, add, reshape, relu and mean_pool chain affine_relu_mean
    replaced, on slices of the weight, as the numpy calls of those ops'
    forward and backward rules: (out, dx, du, dg, dweight, dbias) for
    upstream gradient grad."""
    d_g, d_u, d = g.shape[-1], u.shape[-1], weight.shape[1]
    w_g, w_u, w_x = weight[:d_g], weight[d_g:d_g + d_u], weight[d_g + d_u:]
    g2 = g.reshape(-1, d_g)
    shared = (g2 @ w_g).reshape(g.shape[:-1] + (d,)) + bias
    seq_shape = x.shape[:-1]
    x2, u2 = x.reshape(-1, x.shape[-1]), u.reshape(-1, d_u)
    per_pos = (x2 @ w_x).reshape(seq_shape + (d,))
    per_pos = per_pos + (u2 @ w_u).reshape(seq_shape + (d,))
    ones = (1,) * (len(seq_shape) + 1 - shared.ndim)
    shared_b = shared.reshape(shared.shape[:-1] + ones + (d,))
    pre = per_pos + shared_b
    act = np.maximum(pre, 0)
    L = act.shape[-2]
    out = act.sum(axis=-2) / float(L)
    g_pre = np.broadcast_to(grad[..., None, :] / float(L), act.shape) * (pre > 0)
    axes = tuple(i for i, (da, db) in enumerate(zip(pre.shape, shared_b.shape)) if db != da)
    dshared = g_pre.sum(axis=axes, keepdims=True).reshape(shared.shape)
    dbias = dshared.reshape(-1, d).sum(axis=0) if shared.ndim > 1 else dshared
    ds2 = dshared.reshape(-1, d)
    dg = (ds2 @ w_g.T).reshape(g.shape)
    gp2 = g_pre.reshape(-1, d)
    dx, du = (gp2 @ w_x.T).reshape(x.shape), (gp2 @ w_u.T).reshape(u.shape)
    dweight = np.zeros_like(weight)
    dweight[d_g + d_u:] += x2.T @ gp2
    dweight[d_g:d_g + d_u] += u2.T @ gp2
    dweight[:d_g] += g2.T @ ds2
    return out, dx, du, dg, dweight, dbias


def dense_inputs(x, u, g, weight, bias):
    return [T.Tensor(v, requires_grad=True) for v in (x, u, g, weight, bias)]


def shape_error_inputs(x, u, g, weight, bias):
    return [t64(np.zeros(shape)) for shape in (x, u, g, weight, bias)]


class TestAffineReluMean:
    def test_rectifies_then_pools(self):
        x = t64([[-1.0], [0.0], [2.0]])
        # weight rows [W_g; W_u; W_x]: 0.25 * 2 from g, nothing from u
        out = T.affine_relu_mean(x, t64(np.ones((3, 1))), t64([0.25]),
                                 t64([[2.0], [0.0], [1.0]]), t64([0.0]))
        assert np.array_equal(out.data, [(0.0 + 0.5 + 2.5) / 3])

    @settings(max_examples=60, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), max_size=2), mid=st.lists(st.integers(1, 3), max_size=1),
           n=st.integers(1, 5), widths=st.tuples(*[st.integers(1, 4)] * 3),
           d=st.integers(1, 4), seed=st.integers(0, 2**16))
    @example(lead=[], mid=[], n=3, widths=(2, 3, 4), d=2, seed=0)
    @example(lead=[], mid=[2], n=3, widths=(2, 3, 4), d=2, seed=1)
    def test_float32_bit_identical_to_the_chain(self, lead, mid, n, widths, d, seed):
        rng = np.random.default_rng(seed)

        def f32(*shape):
            return rng.normal(size=shape).astype(np.float32)

        d_g, d_u, d_x = widths
        arrays = (f32(*lead, *mid, n, d_x), f32(*lead, *mid, n, d_u), f32(*lead, d_g),
                  f32(d_g + d_u + d_x, d), f32(d))
        grad = f32(*lead, *mid, d)
        ts = dense_inputs(*arrays)
        out = T.affine_relu_mean(*ts)
        # the chain's parent order, which sets the order gradients are summed in
        x_t, u_t, g_t, w_t, b_t = ts
        assert out._parents == (x_t, u_t, w_t, g_t, b_t)
        out._backward(grad)
        expected, *grads = dense_chain(*arrays, grad)
        for got, want in [(out.data, expected), *zip([t.grad for t in ts], grads)]:
            assert got.dtype == want.dtype == np.float32
            assert got.tobytes() == want.tobytes()

    def test_keeps_a_mask_not_the_activation(self):
        x = t64(np.ones((4, 6, 3)), requires_grad=True)
        out = T.affine_relu_mean(x, t64(np.ones((4, 6, 2))), t64(np.ones((4, 1))),
                                 t64(np.ones((6, 5))), t64(np.zeros(5)))
        cells = [c.cell_contents for c in out._backward.__closure__]
        held = [c for c in cells if isinstance(c, np.ndarray) and c.shape == (4, 6, 5)]
        assert [a.dtype for a in held] == [np.bool_]

    @pytest.mark.parametrize("shapes", [
        pytest.param(((2, 3), (2, 3), (4,), (9, 3), (3,)), id="weight-rows-short"),
        pytest.param(((2, 3), (2, 3), (4,), (12, 3), (3,)), id="weight-rows-long"),
        pytest.param(((2, 3), (2, 3), (4,), (10,), (3,)), id="weight-not-rank-2"),
        pytest.param(((2, 3), (2, 3), (4,), (10, 3), (4,)), id="bias-width"),
        pytest.param(((2, 3), (2, 3), (4,), (10, 3), (1, 3)), id="bias-rank"),
        pytest.param(((2, 3), (2, 3), (2, 4), (10, 3), (3,)), id="g-over-the-sequence-axis"),
        pytest.param(((2, 4, 3), (2, 4, 3), (3, 4), (10, 3), (3,)), id="g-does-not-lead-x"),
        pytest.param(((3,), (3,), (4,), (10, 3), (3,)), id="no-sequence-axis"),
        pytest.param(((2, 3), (2, 3), (), (6, 3), (3,)), id="g-is-a-scalar"),
    ])
    def test_shape_mismatch_rejected(self, shapes):
        with pytest.raises(T.ShapeError, match="affine_relu_mean"):
            T.affine_relu_mean(*shape_error_inputs(*shapes))

    def test_terms_must_share_their_positions(self):
        with pytest.raises(T.ShapeError, match="affine_relu_mean"):
            T.affine_relu_mean(*shape_error_inputs((2, 3), (4, 3), (2,), (8, 2), (2,)))

    @pytest.mark.parametrize("rows", [
        np.array([0, 2]),               # row 1 has no copy
        np.array([0, 1, 3]),            # row 3 does not exist
        np.array([0, -1, 1, 2]),        # negative
        np.array([0.0, 1.0, 2.0]),      # not integers
    ])
    def test_rows_must_map_onto_every_term_row(self, rows):
        with pytest.raises(T.ShapeError, match="affine_relu_mean rows"):
            T.affine_relu_mean(*shape_error_inputs((3, 2, 4), (3, 2, 1), (2,), (7, 5), (5,)),
                               rows)

    @settings(max_examples=80, deadline=None)
    @given(lead=st.lists(st.integers(1, 4), min_size=1, max_size=2), n=st.integers(1, 4),
           widths=st.tuples(*[st.integers(1, 3)] * 3), d=st.integers(1, 4),
           rows_kind=st.sampled_from(["distinct", "one", "repeats"]), data=st.data())
    def test_row_map_is_the_function_of_the_gathered_terms(self, lead, n, widths, d,
                                                            rows_kind, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        size = int(np.prod(lead))
        if rows_kind == "distinct":
            rows = rng.permutation(size)
        elif rows_kind == "one":
            rows = np.zeros(size, dtype=np.int64)
        else:
            distinct = int(rng.integers(1, size + 1))
            rows = np.concatenate([np.arange(distinct),
                                   rng.integers(0, distinct, size - distinct)])
            rng.shuffle(rows)
        rows = rows.reshape(lead)
        d_g, d_u, d_x = widths
        x = rng.normal(size=(rows.max() + 1, n, d_x))
        u = rng.normal(size=(rows.max() + 1, n, d_u))
        g = rng.normal(size=tuple(lead[:data.draw(st.integers(0, len(lead)))]) + (d_g,))
        weight, bias = rng.normal(size=(d_g + d_u + d_x, d)), rng.normal(size=d)
        grad = rng.normal(size=tuple(lead) + (d,))

        def run(x, u, rows=None):
            ts = dense_inputs(x, u, g, weight, bias)
            out = T.affine_relu_mean(*ts, rows)
            out._backward(grad)
            return out.data, [t.grad for t in ts]

        mapped, mapped_grads = run(x, u, rows)
        full, full_grads = run(x[rows], u[rows])
        for got, want in zip(mapped_grads[:2], full_grads[:2]):
            summed = np.zeros(got.shape)
            np.add.at(summed, rows.reshape(-1), want.reshape((-1,) + got.shape[1:]))
            np.testing.assert_allclose(got, summed, rtol=0, atol=1e-12)
        for got, want in [(mapped, full), *zip(mapped_grads[2:], full_grads[2:])]:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestGatherRows:
    def test_rows_and_assigned_gradient(self):
        x = t64(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = T.gather_rows(x, np.array([2, 0]))
        assert np.array_equal(out.data, [[6, 7, 8], [0, 1, 2]])
        out._backward(np.array([[1.0, 2, 3], [4, 5, 6]]))
        assert np.array_equal(x.grad, [[4, 5, 6], [0, 0, 0], [1, 2, 3], [0, 0, 0]])

    @pytest.mark.parametrize("index", [[0, 0], [4], [-1], [[0, 1]], [0.0]])
    def test_indices_must_be_distinct_rows(self, index):
        with pytest.raises(T.ShapeError, match="gather_rows"):
            T.gather_rows(t64(np.zeros((4, 3))), np.array(index))


def chain_conv1d_valid(x, w, b):
    """The valid mode of conv1d as the skim ran it before conv_relu_mean, as
    its own op: a copy kept as the node's reference."""
    h, d_in, d_out = w.data.shape
    L = x.data.shape[-2]
    rows_shape = x.data.shape[:-1]
    l_out = L - h + 1
    spans = [(j, j, j, l_out + j) for j in range(h)]
    x2 = x.data.reshape(-1, d_in)
    rows = x2.shape[0]
    P = np.empty((rows, d_out), np.result_type(x.data, w.data))
    P_seq = P.reshape(rows_shape + (d_out,))
    out = np.empty((rows, d_out), np.result_type(P, b.data))
    out[...] = b.data
    for j, s, lo, hi in spans:
        np.matmul(x2, w.data[j], out=P)
        P_seq[..., :lo, :] = 0
        P_seq[..., hi:, :] = 0
        out[0:rows - s] += P[s:rows]
    np.maximum(out, 0, out=out)
    out_data = out.reshape(rows_shape + (d_out,))[..., :l_out, :]

    def bwd(g):
        g = g * (out_data > 0)
        dP = np.empty(rows_shape + (h, d_out), g.dtype)
        for j, s, lo, hi in spans:
            dP[..., :lo, j, :] = 0
            dP[..., hi:, j, :] = 0
            dP[..., lo:hi, j, :] = g[..., lo - s:hi - s, :]
        dP2 = dP.reshape(-1, h * d_out)
        taps = w.data.transpose(1, 0, 2).reshape(d_in, h * d_out)
        T._accum(x, (dP2 @ taps.T).reshape(x.data.shape))
        T._accum(w, (x2.T @ dP2).reshape(d_in, h, d_out).transpose(1, 0, 2))
        T._accum(b, g.reshape(-1, d_out).sum(axis=0))

    return T._from_op(out_data, (x, w, b), bwd)


def chain_mean_pool(x):
    """The mean_pool op the skim ran before conv_relu_mean: per-feature mean
    over the sequence axis."""
    L = x.data.shape[-2]
    out_data = x.data.sum(axis=-2) / float(L)

    def bwd(g):
        T._accum(x, np.broadcast_to(g[..., None, :] / float(L), x.data.shape))

    return T._from_op(out_data, (x,), bwd)


def chain_skim(x, filters):
    """The chain conv_relu_mean replaced: valid conv1d, mean_pool, concat."""
    return T.concat_lastaxis([chain_mean_pool(chain_conv1d_valid(x, w, b))
                              for w, b in filters])


def skim_ids(rng, lead, m, n, vocab, pad_runs):
    """Grids of token ids (..., m, n), 0 the <pad> id. pad_runs "none" has no
    <pad>, "runs" PAD runs of random length, "empty" some documents all
    <pad>."""
    L = m * n
    ids = rng.integers(1, vocab, size=tuple(lead) + (L,))
    if pad_runs != "none":
        for doc in np.ndindex(*lead):
            a, b = np.sort(rng.integers(0, L + 1, size=2))
            ids[doc][a:b] = 0
            ids[doc][rng.random(L) < 0.3] = 0
        if pad_runs == "empty":
            ids.reshape(-1, L)[rng.random(ids.size // L) < 0.5] = 0
    return ids.reshape(tuple(lead) + (m, n))


def skim_inputs(rng, dtype, ids, windows, d_in, d_out, vocab):
    """A skim read of grids of token ids (..., m, n), as the model builds it:
    the table E, the filters, the word mask and a function of E giving x,
    E's rows of the ids plus positions p mod n, so <pad> rows are equal at
    each position."""
    m, n = ids.shape[-2:]
    pos = rng.normal(size=(n, d_in)).astype(dtype)
    table = T.Tensor(rng.normal(size=(vocab, d_in)).astype(dtype), requires_grad=True)
    filters = [tuple(T.Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
                     for shape in ((h, d_in, d_out), (d_out,))) for h in windows]

    def read(E):
        flat = ids.reshape(ids.shape[:-2] + (m * n,))
        return T.add(T.embedding_lookup(E, flat), T.Tensor(np.tile(pos, (m, 1))))

    return table, filters, ids != 0, read


def backward_of(out, coef):
    T.backward(total(T.matmul(out, coef)))


def stretch_sources(words):
    """The first non-word row of each position of the flat rows, where some
    row there is not a word: the rows a compacted skim reads its stretch from."""
    n = words.shape[-1]
    blank = ~words.reshape(-1, n)
    return [r * n + q for q in range(n) for r in np.flatnonzero(blank[:, q])[:1]]


def check_skim_gradient_rows(x_grad, words, kept):
    """x's gradient is zero outside the kept rows and the stretch's sources,
    and the sources outside the kept rows are at most n."""
    grad_rows = np.flatnonzero(x_grad.reshape(kept.size, -1).any(axis=-1))
    allowed = set(np.flatnonzero(kept).tolist()) | set(stretch_sources(words))
    assert set(grad_rows.tolist()) <= allowed
    assert np.count_nonzero(~kept.reshape(-1)[grad_rows]) <= words.shape[-1]


class TestConvReluMean:
    @settings(max_examples=150, deadline=None)
    @example(lead=[3], m=2, n=4, windows=[1, 2, 3], pad_runs="runs", seed=0)
    @example(lead=[], m=1, n=6, windows=[2, 6], pad_runs="runs", seed=1)
    @example(lead=[4], m=3, n=2, windows=[5, 1], pad_runs="empty", seed=2)
    @example(lead=[2, 2], m=2, n=3, windows=[6], pad_runs="empty", seed=3)
    @example(lead=[2], m=3, n=3, windows=[1, 2], pad_runs="none", seed=4)
    @given(lead=st.lists(st.integers(1, 4), max_size=2), m=st.integers(1, 4),
           n=st.integers(1, 6), windows=st.lists(st.integers(1, 24), min_size=1, max_size=3,
                                                 unique=True),
           pad_runs=st.sampled_from(["none", "runs", "empty"]), seed=st.integers(0, 2**16))
    def test_matches_the_chain_it_replaced(self, lead, m, n, windows, pad_runs, seed):
        windows = [h for h in windows if h <= m * n] or [m * n]
        rng = np.random.default_rng(seed)
        ids = skim_ids(rng, lead, m, n, vocab=5, pad_runs=pad_runs)
        table, filters, words, read = skim_inputs(rng, np.float64, ids, windows,
                                                  d_in=3, d_out=2, vocab=5)
        coef = t64(rng.normal(size=(2 * len(windows), 1)))
        H = max(windows)
        flat_words = words.reshape(tuple(lead) + (m * n,))
        near = np.zeros(flat_words.shape, bool)
        for idx in np.ndindex(flat_words.shape):
            near[idx] = flat_words[idx[:-1]][max(0, idx[-1] - H + 1):idx[-1] + H].any()
        dropped = near.size - near.sum()
        kept = T.kept_rows(flat_words, H)
        if dropped and dropped >= T.MIN_DROPPED_SHARE * near.size:
            assert np.array_equal(kept, near)
        else:
            assert kept is None

        def run(skim):
            T.zero_grads([table] + [t for f in filters for t in f])
            out = skim(read(table))
            backward_of(out, coef)
            return [out.data, table.grad] + [t.grad for f in filters for t in f]

        got = run(lambda x: T.conv_relu_mean(x, filters, words))
        want = run(lambda x: chain_skim(x, filters))
        np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
        for a, b in zip(got[1:], want[1:]):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)

        if kept is not None:
            x = T.Tensor(read(table).data, requires_grad=True)
            backward_of(T.conv_relu_mean(x, filters, words), coef)
            check_skim_gradient_rows(x.grad, words, kept)

    @settings(max_examples=60, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), max_size=2), m=st.integers(1, 3),
           n=st.integers(1, 5), windows=st.lists(st.integers(1, 6), min_size=1, max_size=4,
                                                 unique=True),
           seed=st.integers(0, 2**16))
    def test_float32_bit_identical_to_the_chain_on_every_row(self, lead, m, n, windows, seed):
        windows = [h for h in windows if h <= m * n] or [m * n]
        rng = np.random.default_rng(seed)
        ids = skim_ids(rng, lead, m, n, vocab=5, pad_runs="runs")
        table, filters, _, read = skim_inputs(rng, np.float32, ids, windows, d_in=3,
                                              d_out=2, vocab=5)
        x_data = read(table)
        grad = rng.normal(size=tuple(lead) + (2 * len(windows),)).astype(np.float32)
        results = []
        for skim in (lambda x: T.conv_relu_mean(x, filters),
                     lambda x: chain_skim(x, filters)):
            T.zero_grads([t for f in filters for t in f])
            x = T.Tensor(x_data.data, requires_grad=True)
            # the chain's consumers run their rules in graph order
            out = skim(x)
            for node in reversed(T.Graph.trace(out).nodes):
                if node is out:
                    T._accum(out, grad)
                if node._backward is not None and node.grad is not None:
                    node._backward(node.grad)
            results.append([out.data, x.grad] + [t.grad for f in filters for t in f])
        for got, want in zip(*results):
            assert got.dtype == want.dtype == np.float32
            assert got.tobytes() == want.tobytes()

    def test_sliding_sums_are_pooled(self):
        x = t64([[1], [2], [3], [4]])
        out = T.conv_relu_mean(x, [(t64(np.ones((2, 1, 1))), t64([0.0])),
                                   (t64(np.ones((1, 1, 1))), t64([-2.0]))])
        assert np.array_equal(out.data, [(3 + 5 + 7) / 3, (0 + 0 + 1 + 2) / 4])

    def test_pad_only_windows_come_from_the_stretch(self):
        # one word at row 0 of a 6-row sequence, n = 2, windows 1 and 2: rows 2
        # to 5 are dropped, and their windows read the stretch: rows 2, 1, 2,
        # the first non-word row at positions 0, 1, 0
        x = t64([[5.0], [1.0], [2.0], [1.0], [2.0], [1.0]], requires_grad=True)
        filters = [(t64(np.ones((1, 1, 1))), t64([0.0])), (t64([[[1.0]], [[-1.0]]]), t64([0.0]))]
        words = np.arange(6).reshape(3, 2) == 0
        assert np.array_equal(T.kept_rows(words.reshape(6), 2),
                              [True, True, False, False, False, False])
        out = T.conv_relu_mean(x, filters, words)
        assert np.array_equal(out.data, [12 / 6, (4 + 0 + 1 + 0 + 1) / 5])
        T.backward(total(out))
        assert np.array_equal(x.grad[:, 0] != 0, [True, True, True, False, False, False])

    @pytest.mark.parametrize("windows,n", [((1,), 3), ((1, 2), 5)])
    def test_a_position_with_no_blank_row_reads_as_the_chain(self, windows, n):
        # position 0 is a word in every sentence, so the stretch's row there is
        # a word row: no window the stretch stands for reads it
        rng = np.random.default_rng(11)
        ids = rng.integers(1, 5, size=(3, 4, n))
        ids[..., 1:] = 0
        table, filters, words, read = skim_inputs(rng, np.float64, ids, windows,
                                                  d_in=3, d_out=2, vocab=5)
        kept = T.kept_rows(words.reshape(3, -1), max(windows))
        assert kept is not None and words[..., 0].all()
        coef = t64(rng.normal(size=(2 * len(windows), 1)))
        results = []
        for skim in (lambda x: T.conv_relu_mean(x, filters, words),
                     lambda x: chain_skim(x, filters)):
            T.zero_grads([table] + [t for f in filters for t in f])
            x = T.Tensor(read(table).data, requires_grad=True)
            out = skim(x)
            backward_of(out, coef)
            # each position's rows' gradient, summed, is what reaches the table
            per_position = x.grad.reshape(3, 4, n, -1).sum(axis=(0, 1))
            results.append([out.data, per_position] + [t.grad for f in filters for t in f])
        for got, want in zip(*results):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_input_gradient_only_on_kept_rows_and_the_stretch_sources(self):
        rng = np.random.default_rng(12)
        ids = skim_ids(rng, [6], 3, 5, vocab=5, pad_runs="empty")
        table, filters, words, read = skim_inputs(rng, np.float64, ids, [1, 3, 7],
                                                  d_in=3, d_out=2, vocab=5)
        kept = T.kept_rows(words.reshape(6, -1), 7)
        assert kept is not None
        x = T.Tensor(read(table).data, requires_grad=True)
        backward_of(T.conv_relu_mean(x, filters, words), t64(rng.normal(size=(6, 1))))
        check_skim_gradient_rows(x.grad, words, kept)
        # the stretch's windows do take a gradient
        assert x.grad.reshape(kept.size, -1)[~kept.reshape(-1)].any()

    def test_window_longer_than_the_sequence(self):
        with pytest.raises(T.ShapeError, match="sequence length 2 shorter than window 3"):
            T.conv_relu_mean(t64(np.zeros((2, 1))), [(t64(np.zeros((3, 1, 1))), t64([0.0]))])

    @pytest.mark.parametrize("words", [
        pytest.param(np.ones((2, 3), bool), id="words-length"),
        pytest.param(np.ones((2, 2)), id="words-not-bool"),
        pytest.param(np.ones(4, bool), id="words-without-sentences"),
        pytest.param(np.ones((1, 2, 2), bool), id="words-leading-axes"),
        pytest.param(np.ones((2, 0), bool), id="words-empty-sentences"),
    ])
    def test_words_must_fit(self, words):
        filters = [(t64(np.zeros((2, 2, 1))), t64([0.0]))]
        with pytest.raises(T.ShapeError, match="conv_relu_mean words"):
            T.conv_relu_mean(t64(np.zeros((4, 2))), filters, words)

    def test_filters_must_fit_the_input(self):
        with pytest.raises(T.ShapeError, match="conv_relu_mean"):
            T.conv_relu_mean(t64(np.zeros((4, 2))), [(t64(np.zeros((2, 3, 1))), t64([0.0]))])
        with pytest.raises(T.ShapeError, match="conv_relu_mean"):
            T.conv_relu_mean(t64(np.zeros((4, 2))), [(t64(np.zeros((2, 2, 1))), t64([0.0, 1.0]))])
        with pytest.raises(T.ShapeError, match="conv_relu_mean"):
            T.conv_relu_mean(t64(np.zeros((4, 2))), [])


class TestConcat:
    def test_basic(self):
        out = T.concat_lastaxis([t64([1, 2]), t64([3])])
        assert np.array_equal(out.data, [1, 2, 3])

    def test_empty_width_identity(self):
        x = t64([[1.0, 2.0]])
        out = T.concat_lastaxis([x, t64(np.zeros((1, 0)))])
        np.testing.assert_array_equal(out.data, x.data)

    def test_gradient_routing(self):
        a = t64([1.0, 2.0], requires_grad=True)
        b = t64([3.0], requires_grad=True)
        T.backward(total(T.concat_lastaxis([a, b])))
        assert np.array_equal(a.grad, [1, 1]) and np.array_equal(b.grad, [1])

    def test_leading_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.concat_lastaxis([t64(np.zeros((2, 1))), t64(np.zeros((3, 1)))])


class TestGradReverse:
    def test_identity_forward_bit_exact(self):
        x = t64([1.0, 2.0, 3.0])
        out = T.grad_reverse(x, 1e-6)
        assert np.array_equal(out.data, x.data)

    def test_sign_flip(self):
        x = t64([1.0, 2.0, 3.0], requires_grad=True)
        T.backward(total(T.grad_reverse(x, 1.0)))
        assert np.array_equal(x.grad, [-1, -1, -1])

    def test_scaling(self):
        x = t64([1.0, 2.0, 3.0], requires_grad=True)
        T.backward(total(T.grad_reverse(x, 0.5)))
        assert np.array_equal(x.grad, [-0.5, -0.5, -0.5])

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            T.grad_reverse(t64([1.0]), -1.0)


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64(np.zeros((2, 3)), requires_grad=True)
        T.backward(total(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_fanout_accumulates(self):
        x = t64([1.0, 2.0], requires_grad=True)
        T.backward(T.add(total(x), total(x)))
        assert np.array_equal(x.grad, [2, 2])

    def test_add_takes_equal_shapes_only(self):
        # or a second operand that broadcasts onto the first; these two do not
        with pytest.raises(T.ShapeError, match=r"\(2,\) \+ \(3,\)"):
            T.add(t64([1.0, 2.0]), t64([1.0, 2.0, 3.0]))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(T.ShapeError):
            T.backward(t64([1.0, 2.0], requires_grad=True))

    def test_grad_keeps_the_leaf_dtype(self):
        a = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = t64(np.ones(3), requires_grad=True)
        T.backward(total(T.add(a, b)))     # a float64 upstream gradient
        assert a.grad.dtype == np.float32 and b.grad.dtype == np.float64
        assert np.array_equal(a.grad, np.ones(3))

    def test_grads_alias_neither_the_upstream_array_nor_each_other(self):
        a = t64([1.0, 2.0], requires_grad=True)
        b = t64([3.0, 4.0], requires_grad=True)
        out = T.add(a, b)       # passes the same upstream array to both
        g = np.array([0.5, -1.5])
        out._backward(g)
        a.grad += 10.0
        assert np.array_equal(b.grad, [0.5, -1.5])
        assert np.array_equal(g, [0.5, -1.5])
        assert not np.shares_memory(a.grad, g) and not np.shares_memory(b.grad, g)

    def assert_leaf_grads_own_their_buffers(self, leaves, upstream):
        for i, leaf in enumerate(leaves):
            assert leaf.grad.flags.writeable
            for other in [*upstream, *(t.grad for t in leaves[i + 1:])]:
                assert not np.shares_memory(leaf.grad, other)

    def test_affine_relu_mean_owns_a_borrowed_op_node_weight_gradient_before_adding(self):
        leaf = t64(np.full((4, 2), 0.5), requires_grad=True)
        w = T.reshape(leaf, (4, 2))             # an op-node weight, rows [W_g; W_u; W_x]
        x, u, g = t64([[1.0], [2.0], [3.0]]), t64([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), t64([2.0])
        whole = T.reshape(w, (4, 2))
        dense = T.affine_relu_mean(x, u, g, w, t64([10.0, 10.0]))   # every position > 0
        g_whole, g_dense = np.ones((4, 2)), np.array([3.0, 6.0])
        whole._backward(g_whole)                # w borrows g_whole
        dense._backward(g_dense)                # [1, 2] at each of the 3 positions
        w._backward(w.grad)
        assert np.array_equal(g_whole, np.ones((4, 2)))
        assert np.array_equal(g_dense, [3.0, 6.0])
        # 1 + W_g: g * [3, 6], W_u: u summed * [1, 2], W_x: x summed * [1, 2]
        assert np.array_equal(leaf.grad, [[7, 13], [3, 5], [3, 5], [7, 13]])
        self.assert_leaf_grads_own_their_buffers([leaf], [g_whole, g_dense])

    def test_embedding_lookup_owns_a_borrowed_op_node_gradient_before_adding(self):
        leaf = t64(np.zeros((3, 2)), requires_grad=True)
        table = T.reshape(leaf, (3, 2))         # an op-node table
        whole, rows = T.reshape(table, (3, 2)), T.embedding_lookup(table, [2, 0, 2])
        g_whole, g_rows = np.ones((3, 2)), np.full((3, 2), 2.0)
        whole._backward(g_whole)                # table borrows g_whole
        rows._backward(g_rows)
        table._backward(table.grad)
        assert np.array_equal(g_whole, np.ones((3, 2)))
        assert np.array_equal(g_rows, np.full((3, 2), 2.0))
        assert np.array_equal(leaf.grad, [[3, 3], [1, 1], [5, 5]])
        self.assert_leaf_grads_own_their_buffers([leaf], [g_whole, g_rows])

    def test_add_operands_sum_a_second_gradient_into_a_fresh_buffer(self):
        leaf_a = t64([1.0, 2.0], requires_grad=True)
        leaf_b = t64([3.0, 4.0], requires_grad=True)
        a, b = T.reshape(leaf_a, (2,)), T.reshape(leaf_b, (2,))     # op-node operands
        first, second = T.add(a, b), T.add(a, b)
        g_first, g_second = np.array([0.5, -1.5]), np.array([2.0, 4.0])
        first._backward(g_first)                # a and b both borrow g_first
        second._backward(g_second)              # a second gradient for each
        a._backward(a.grad)
        b._backward(b.grad)
        assert np.array_equal(g_first, [0.5, -1.5]) and np.array_equal(g_second, [2.0, 4.0])
        assert np.array_equal(leaf_a.grad, [2.5, 2.5]) and np.array_equal(leaf_b.grad, [2.5, 2.5])
        self.assert_leaf_grads_own_their_buffers([leaf_a, leaf_b], [g_first, g_second])

    def test_op_nodes_are_freed_and_leaves_keep_grads(self):
        x = t64([1.0, -2.0], requires_grad=True)
        hidden = T.sigmoid(x)
        loss = total(hidden)
        T.backward(loss)
        assert x.grad is not None
        for node in (hidden, loss):
            assert node.grad is None and node._backward is None

    def test_second_backward_of_a_graph_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        loss = total(T.sigmoid(x))
        T.backward(loss)
        with pytest.raises(RuntimeError, match="already"):
            T.backward(loss)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(6)
            x = t64(rng.normal(size=(4, 3)), requires_grad=True)
            w = t64(rng.normal(size=(3, 2)), requires_grad=True)
            out = total(T.sigmoid(T.matmul(x, w)))
            T.backward(out)
            return out.data.copy(), x.grad.copy(), w.grad.copy()

        first, second = run(), run()
        for a, b in zip(first, second):
            assert np.array_equal(a, b)


class TestNoGrad:
    def test_ops_inside_keep_no_graph(self):
        x = t64([[1.0, -2.0]], requires_grad=True)
        w = t64([[0.5], [3.0]], requires_grad=True)
        with T.no_grad():
            out = T.sigmoid(T.matmul(x, w))
        assert out._parents == () and out._backward is None
        assert not out.requires_grad
        np.testing.assert_array_equal(out.data, T.sigmoid(T.matmul(x, w)).data)

    def test_graph_building_resumes_after_block_even_on_error(self):
        x = t64([1.0], requires_grad=True)
        with pytest.raises(ValueError):
            with T.no_grad():
                raise ValueError("inside")
        assert T.sigmoid(x)._parents == (x,)


class TestAdd:
    def test_trailing_bias_row(self):
        x = t64(np.ones((2, 3, 4)), requires_grad=True)
        b = t64([1.0, 2.0, 3.0, 4.0], requires_grad=True)
        out = T.add(x, b)
        np.testing.assert_array_equal(out.data, np.broadcast_to(1.0 + b.data, (2, 3, 4)))
        T.backward(total(out))
        assert np.array_equal(x.grad, np.ones((2, 3, 4)))
        assert np.array_equal(b.grad, np.full(4, 6.0))

    def test_block_bias_backward_sums_over_leading_axes(self):
        x = t64(np.ones((2, 3, 4)), requires_grad=True)
        b = t64(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = T.add(x, b)
        np.testing.assert_array_equal(out.data[1], 1.0 + b.data)
        T.backward(total(out))
        assert np.array_equal(x.grad, np.ones((2, 3, 4)))
        assert np.array_equal(b.grad, np.full((3, 4), 2.0))

    def test_size_one_axes_broadcast_over_positions(self):
        # one (d,) row per document, shared by its (m, n) positions
        x = t64(np.zeros((2, 3, 5, 4)), requires_grad=True)
        v = t64(np.arange(8.0).reshape(2, 1, 1, 4), requires_grad=True)
        out = T.add(x, v)
        assert out.data.shape == (2, 3, 5, 4)
        np.testing.assert_array_equal(out.data[1, 2], np.broadcast_to(v.data[1, 0], (5, 4)))
        g = np.random.default_rng(13).normal(size=(2, 3, 5, 4))
        out._backward(g)
        np.testing.assert_allclose(v.grad, g.sum(axis=(1, 2), keepdims=True), rtol=1e-12)
        assert np.array_equal(x.grad, g)

    def test_bias_must_match_trailing_shape(self):
        with pytest.raises(T.ShapeError, match=r"add shapes: \(2, 3, 4\) \+ \(2, 4\)"):
            T.add(t64(np.zeros((2, 3, 4))), t64(np.zeros((2, 4))))

    def test_output_keeps_the_first_operand_shape(self):
        with pytest.raises(T.ShapeError, match=r"\(\) \+ \(2,\)"):
            T.add(t64(3.0), t64([1.0, 2.0]))
        with pytest.raises(T.ShapeError):
            T.add(t64(np.zeros((1, 4))), t64(np.zeros((3, 4))))


@settings(max_examples=60, deadline=None)
@given(lead=st.lists(st.integers(1, 4), max_size=3),
       tail=st.lists(st.integers(1, 4), min_size=1, max_size=2),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
def test_trailing_operand_gradient_bit_identical_to_bias_rule(lead, tail, dtype, seed):
    rng = np.random.default_rng(seed)
    x = T.Tensor(rng.normal(size=(*lead, *tail)).astype(dtype))
    b = T.Tensor(rng.normal(size=tail).astype(dtype), requires_grad=True)
    out = T.add(x, b)
    g = rng.normal(size=out.data.shape).astype(dtype)
    out._backward(g)
    # the rule of the bias addition this op absorbed: one sum over the
    # flattened leading axes, copied into a fresh buffer
    expected = np.empty_like(b.data)
    expected[...] = g.reshape((-1,) + b.data.shape).sum(axis=0)
    assert b.grad.dtype == expected.dtype
    assert b.grad.tobytes() == expected.tobytes()


class TestLosses:
    def test_bce_at_half(self):
        for y in (0, 1):
            assert T.bce_loss(t64(0.5), y).item() == pytest.approx(np.log(2))

    def test_bce_clamps_exact_labels(self):
        assert np.isfinite(T.bce_loss(t64(1.0), 0).item())
        assert np.isfinite(T.bce_loss(t64(0.0), 1).item())

    def test_bce_gradient(self):
        p = t64(0.3, requires_grad=True)
        err = T.finite_diff_check(lambda x: T.bce_loss(x, 1), p)
        assert err < 1e-6

    def test_nll_uniform(self):
        assert T.nll_loss(t64([0.5, 0.5]), 0).item() == pytest.approx(np.log(2))

    def test_nll_gradient_through_softmax(self):
        x = t64([0.2, -1.3, 0.7], requires_grad=True)
        err = T.finite_diff_check(lambda v: T.nll_loss(T.softmax_lastaxis(v), 2), x)
        assert err < 1e-6

    def test_batch_losses_are_means_of_single_losses(self):
        rng = np.random.default_rng(12)
        p = rng.uniform(0.05, 0.95, size=(2, 3))
        probs = rng.dirichlet(np.ones(3), size=(2, 3))
        y = rng.integers(0, 2, size=(2, 3))
        for loss, batch, rows in ((T.bce_loss, p, p), (T.nll_loss, probs, probs)):
            singles = [loss(t64(rows[i, j]), y[i, j]).item()
                       for i in range(2) for j in range(3)]
            assert loss(t64(batch), y).item() == pytest.approx(np.mean(singles), rel=1e-12)
            x = t64(batch, requires_grad=True)
            assert T.finite_diff_check(lambda v: loss(v, y), x) < 1e-6

    def test_label_shape_must_match(self):
        with pytest.raises(T.ShapeError):
            T.bce_loss(t64([0.5, 0.5]), 1)
        with pytest.raises(T.ShapeError):
            T.nll_loss(t64([[0.5, 0.5]]), [0, 1])


class TestFiniteDiff:
    def test_sum_of_squares(self):
        x = t64([1.0, 2.0], requires_grad=True)

        def f(v):
            return total(T.matmul(T.reshape(v, (1, 2)), T.reshape(v, (2, 1))))

        assert T.finite_diff_check(f, x) < 1e-8
        T.backward(f(x))
        # grad accumulated twice by finite_diff_check's own run plus this one
        np.testing.assert_allclose(x.grad[-2:], [4.0, 8.0])

    def test_affine_relu_mean_away_from_kinks(self):
        x = t64([[1.0], [-2.0], [0.5]], requires_grad=True)
        f = lambda v: total(T.affine_relu_mean(v, t64(np.zeros((3, 1))), t64([0.0]),
                                               t64([[0.0], [0.0], [1.0]]), t64([0.0])))
        assert T.finite_diff_check(f, x) < 1e-10


def finite_difference_cases():
    """(op name, input, scalar function of the input) for the gradient table."""
    rng = np.random.default_rng(7)
    x = t64(rng.normal(size=(5, 4)) + np.sign(rng.normal(size=(5, 4))) * 0.01,
            requires_grad=True)

    cases = [
        ("sigmoid", x, lambda v: total(T.sigmoid(v))),
        # weighted sum: plain sum of softmax rows is constant (zero gradient)
        ("softmax_lastaxis", x, lambda v: total(T.matmul(T.softmax_lastaxis(v),
                                                         t64([[0.3], [-1.2], [0.8], [2.1]])))),
        ("concat_lastaxis", x, lambda v: total(T.concat_lastaxis([v, T.sigmoid(v)]))),
        ("reshape", x, lambda v: total(T.reshape(v, (4, 5)))),
    ]

    # rank-3 inputs to the ops that take leading batch axes; the sigmoid
    # keeps each output position's gradient distinct
    x3 = t64(rng.normal(size=(2, 5, 4)), requires_grad=True)
    w = t64(rng.normal(size=(3, 4, 2)), requires_grad=True)
    b = t64(rng.normal(size=2), requires_grad=True)
    m = t64(rng.normal(size=(4, 3)), requires_grad=True)
    bias = t64(rng.normal(size=4), requires_grad=True)
    block = t64(rng.normal(size=(5, 4)), requires_grad=True)
    per_doc = t64(rng.normal(size=(2, 1, 4)), requires_grad=True)
    stacked = t64(rng.normal(size=(8, 3)), requires_grad=True)     # rows [W_g; W_u; W_x]
    table = t64(rng.normal(size=(6, 4)), requires_grad=True)
    ids = rng.integers(0, 6, size=(2, 5))
    labels = rng.integers(0, 2, size=(2, 5))
    u3 = t64(rng.normal(size=(2, 5, 2)), requires_grad=True)
    g = t64(rng.normal(size=(2, 2)), requires_grad=True)      # one row per document
    dense_b = t64(rng.normal(size=3), requires_grad=True)
    u2, g_row = t64(rng.normal(size=(5, 2))), t64(rng.normal(size=2))
    # three distinct rows, one with a copy in each document, one twice in one
    distinct = t64(rng.normal(size=(3, 5, 4)), requires_grad=True)
    distinct_u = t64(rng.normal(size=(3, 5, 2)))
    copies = np.array([[2, 0, 2], [1, 2, 0]])
    # a skim read over two 8-row sequences of two 4-row sentences, windows 1
    # and 3: 7 of the 16 rows lie more than 2 rows from a word, so the node
    # reads a 6-row stretch from the first non-word row at each position
    seq = t64(rng.normal(size=(2, 8, 4)), requires_grad=True)
    words = np.zeros((2, 2, 4), bool)
    words[0, 0, 0] = words[1, 0, 3] = words[1, 1, 0] = True
    skim_w = [t64(rng.normal(size=(h, 4, 2)), requires_grad=True) for h in (1, 3)]
    skim_b = [t64(rng.normal(size=2), requires_grad=True) for _ in range(2)]

    def skim(x_=seq, w3=skim_w[1], b1=skim_b[0]):
        return smooth(T.conv_relu_mean(x_, [(skim_w[0], b1), (w3, skim_b[1])], words))

    def smooth(out):
        return total(T.sigmoid(out))

    def dense(x_=x3, u_=u3, g_=g, w_=stacked, b_=dense_b, rows=None):
        return smooth(T.affine_relu_mean(x_, u_, g_, w_, b_, rows))

    def mapped(x_=distinct, g_=g, w_=stacked):
        return dense(x_, distinct_u, g_, w_, rows=copies)

    cases += [
        ("conv1d", x3, lambda v: smooth(T.conv1d(v, w, b))),
        ("conv1d", w, lambda v: smooth(T.conv1d(x3, v, b))),
        ("conv1d", b, lambda v: smooth(T.conv1d(x3, w, v))),
        ("conv_relu_mean", seq, lambda v: skim(x_=v)),
        ("conv_relu_mean", skim_w[1], lambda v: skim(w3=v)),
        ("conv_relu_mean", skim_b[0], lambda v: skim(b1=v)),
        ("matmul", x3, lambda v: smooth(T.matmul(v, m))),
        ("matmul", m, lambda v: smooth(T.matmul(x3, v))),
        ("add", x3, lambda v: smooth(T.add(v, bias))),
        ("add", bias, lambda v: smooth(T.add(x3, v))),
        ("add", x3, lambda v: smooth(T.add(v, block))),
        ("add", block, lambda v: smooth(T.add(x3, v))),
        ("add", per_doc, lambda v: smooth(T.add(x3, v))),
        ("embedding_lookup", table, lambda v: smooth(T.embedding_lookup(v, ids))),
        ("affine_relu_mean", x3, lambda v: dense(x_=v)),
        ("affine_relu_mean", u3, lambda v: dense(u_=v)),
        ("affine_relu_mean", g, lambda v: dense(g_=v)),
        ("affine_relu_mean", stacked, lambda v: dense(w_=v)),
        ("affine_relu_mean", dense_b, lambda v: dense(b_=v)),
        # a rank-2 sequence and a g with no leading axes
        ("affine_relu_mean", x, lambda v: total(T.affine_relu_mean(v, u2, g_row, stacked,
                                                                   dense_b))),
        ("affine_relu_mean", distinct, lambda v: mapped(x_=v)),
        ("affine_relu_mean", g, lambda v: mapped(g_=v)),
        ("affine_relu_mean", stacked, lambda v: mapped(w_=v)),
        # the rows left out get a zero gradient
        ("gather_rows", x3, lambda v: smooth(T.gather_rows(v, [1]))),
        ("gather_rows", distinct, lambda v: smooth(T.gather_rows(v, [2, 0, 1]))),
        ("bce_loss", x3, lambda v: T.bce_loss(T.sigmoid(v), np.repeat(labels[..., None], 4, -1))),
        ("nll_loss", x3, lambda v: T.nll_loss(T.softmax_lastaxis(v), labels)),
    ]
    return cases


# ops whose backward is checked against exact values instead: grad_reverse
# flips the gradient's sign on purpose, so central differences disagree
EXACT_GRADIENT_TESTS = {"grad_reverse": "TestGradReverse"}


def test_randomized_op_gradients_pass_finite_difference():
    for _op, t, f in finite_difference_cases():
        assert T.finite_diff_check(f, t) < 1e-4


def test_every_op_has_a_gradient_check(monkeypatch):
    ops = sorted(name for name, fn in inspect.getmembers(T, inspect.isfunction)
                 if fn.__module__ == T.__name__ and name != "_from_op"
                 and "_from_op(" in inspect.getsource(fn))
    assert len(ops) == 14, ops
    cases = finite_difference_cases()
    assert set(ops) == {op for op, _, _ in cases} | set(EXACT_GRADIENT_TESTS)
    for test in EXACT_GRADIENT_TESTS.values():
        assert test in globals()
    # each case really runs the op it is filed under
    called = set()
    for op in ops:
        fn = getattr(T, op)
        monkeypatch.setattr(T, op, lambda *a, _op=op, _fn=fn, **k: called.add(_op) or _fn(*a, **k))
    for op, t, f in cases:
        called.clear()
        f(t)
        assert op in called, op


def test_embedding_lookup_scatter_and_bounds():
    table = t64(np.arange(8, dtype=float).reshape(4, 2), requires_grad=True)
    out = T.embedding_lookup(table, [1, 1, 3])
    assert np.array_equal(out.data, [[2, 3], [2, 3], [6, 7]])
    T.backward(total(out))
    assert np.array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])
    with pytest.raises(IndexError):
        T.embedding_lookup(table, [4])

    table.grad = None
    out = T.embedding_lookup(table, [[0, 3], [3, 3]])
    assert out.data.shape == (2, 2, 2)
    T.backward(total(out))
    assert np.array_equal(table.grad, [[1, 1], [0, 0], [0, 0], [3, 3]])


@settings(max_examples=60, deadline=None)
@given(ids_shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       vocab=st.integers(1, 5), d=st.integers(1, 4),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
def test_embedding_backward_bit_identical_to_row_scatter(ids_shape, vocab, d, dtype, seed):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab, size=ids_shape)    # a small vocabulary: heavy repeats
    table = T.Tensor(rng.normal(size=(vocab, d)).astype(dtype), requires_grad=True)
    out = T.embedding_lookup(table, ids)
    g = rng.normal(size=out.data.shape).astype(dtype)
    out._backward(g)
    # the rule this path replaced: 2-D row scatter on a zero table
    expected = np.zeros_like(table.data)
    np.add.at(expected, ids.reshape(-1), g.reshape(ids.size, -1))
    assert table.grad.dtype == expected.dtype
    assert table.grad.tobytes() == expected.tobytes()


def flat_scatter(grad, ids, g):
    """embedding_lookup's backward before the split: one flat np.add.at."""
    d = grad.shape[1]
    flat = (ids.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
    np.add.at(grad.reshape(-1), flat, g.reshape(-1))


@st.composite
def lookup_ids(draw, vocab):
    """ids with one dominant id (as <pad> is), no repeated id, or any mix."""
    size = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["dominant", "distinct", "any"]))
    if kind == "distinct":
        size = min(size, vocab)
        return np.array(draw(st.permutations(range(vocab)))[:size], dtype=np.int64)
    ids = draw(st.lists(st.integers(0, vocab - 1), min_size=size, max_size=size))
    if kind == "dominant":
        top = draw(st.integers(0, vocab - 1))
        ids = [top if i % 3 else v for i, v in enumerate(ids)]
    return np.array(ids, dtype=np.int64)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), vocab=st.integers(1, 9), d=st.integers(1, 5), lookups=st.integers(1, 2),
       dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**16))
def test_embedding_backward_bits_match_one_flat_scatter(data, vocab, d, lookups, dtype, seed):
    rng = np.random.default_rng(seed)
    table = T.Tensor(rng.normal(size=(vocab, d)).astype(dtype), requires_grad=True)
    # two lookups of one table in one graph: the second adds to the first's sums
    ids = [data.draw(lookup_ids(vocab)) for _ in range(lookups)]
    outs = [T.embedding_lookup(table, i) for i in ids]
    grads = [(rng.normal(size=o.data.shape) * 10.0 ** rng.integers(-3, 4, size=(len(i), 1)))
             .astype(dtype) for o, i in zip(outs, ids)]
    expected = np.zeros_like(table.data)
    for out, i, g in zip(outs, ids, grads):
        out._backward(g)
        flat_scatter(expected, i, g)
    assert table.grad.tobytes() == expected.tobytes()
    if lookups == 1:
        assert table.grad_rows.tolist() == sorted(set(ids[0].tolist()))
    else:       # to the first lookup, the second is some other op writing the gradient
        assert table.grad_rows is None


def test_embedding_backward_keeps_a_dominant_id_in_row_order():
    # at the paper grid <pad> is 62-71% of the looked-up rows
    rng = np.random.default_rng(1)
    ids = np.where(rng.random(5000) < 0.7, 0, rng.integers(1, 300, size=5000))
    table = T.Tensor(np.zeros((300, 64), np.float32), requires_grad=True)
    out = T.embedding_lookup(table, ids)
    g = rng.normal(size=out.data.shape).astype(np.float32)
    table.grad = rng.normal(size=table.data.shape).astype(np.float32)    # some other op's
    expected = table.grad.copy()
    out._backward(g)
    flat_scatter(expected, ids, g)
    assert table.grad.tobytes() == expected.tobytes()
    assert table.grad_rows is None      # another op wrote the gradient first


def test_embedding_backward_adds_to_a_gradient_in_any_memory_order():
    table = T.Tensor(np.asfortranarray(np.zeros((3, 2))), requires_grad=True)
    ids = np.array([2, 0, 2])
    for first_lookup in (True, False):
        table.grad = None
        lookup = total(T.embedding_lookup(table, ids))
        dense = total(T.matmul(t64(np.ones((1, 3))), table))
        T.backward(T.add(lookup, dense) if first_lookup else T.add(dense, lookup))
        assert np.array_equal(table.grad, [[2, 2], [1, 1], [3, 3]])
