import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sirm import tensor as T


def t64(data, requires_grad=False):
    return T.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


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
        out = T.sum_all(T.matmul(a, b))
        T.backward(out)
        expected = np.tile(b.data.sum(axis=1), (3, 1))
        np.testing.assert_allclose(a.grad, expected, rtol=1e-12)

    def test_vector_times_matrix(self):
        rng = np.random.default_rng(8)
        a = t64(rng.normal(size=4), requires_grad=True)
        b = t64(rng.normal(size=(4, 2)))
        out = T.matmul(a, b)
        np.testing.assert_allclose(out.data, a.data @ b.data, rtol=1e-12)
        T.backward(T.sum_all(out))
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
        err = T.finite_diff_check(lambda x: T.sum_all(T.matmul(x, b)), a)
        assert err < 1e-6


def conv1d_oracle(x, w, b, padding):
    """Independent triple-loop realization of the convolution contract."""
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
    return out


class TestConv1d:
    def test_sliding_sums(self):
        x = t64([[1], [2], [3], [4]])
        w = t64(np.ones((2, 1, 1)))
        b = t64([0.0])
        out = T.conv1d(x, w, b, padding="valid")
        assert np.array_equal(out.data, [[3], [5], [7]])

    def test_identity_kernel(self):
        rng = np.random.default_rng(2)
        x = t64(rng.normal(size=(5, 3)))
        w = t64(np.eye(3)[None, :, :])
        out = T.conv1d(x, w, t64(np.zeros(3)), padding="valid")
        np.testing.assert_allclose(out.data, x.data)

    def test_matches_loop_oracle_same_zero(self):
        rng = np.random.default_rng(3)
        x = t64(rng.normal(size=(7, 3)), requires_grad=True)
        w = t64(rng.normal(size=(3, 3, 2)), requires_grad=True)
        b = t64(rng.normal(size=2), requires_grad=True)
        out = T.conv1d(x, w, b, padding="same_zero")
        assert out.data.shape == (7, 2)
        np.testing.assert_allclose(out.data, conv1d_oracle(x.data, w.data, b.data, "same_zero"),
                                   rtol=1e-12)
        for param in (x, w, b):
            err = T.finite_diff_check(
                lambda _p: T.sum_all(T.relu(T.conv1d(x, w, b, padding="same_zero"))), param)
            assert err < 1e-6

    def test_valid_matches_oracle(self):
        rng = np.random.default_rng(4)
        x = t64(rng.normal(size=(6, 2)))
        w = t64(rng.normal(size=(4, 2, 3)))
        b = t64(rng.normal(size=3))
        out = T.conv1d(x, w, b, padding="valid")
        np.testing.assert_allclose(out.data, conv1d_oracle(x.data, w.data, b.data, "valid"),
                                   rtol=1e-12)

    def test_leading_axes_are_independent_sequences(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 5, 3))
        w = rng.normal(size=(3, 3, 2))
        b = rng.normal(size=2)
        for padding in ("valid", "same_zero"):
            out = T.conv1d(t64(x), t64(w), t64(b), padding=padding)
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
    def test_input_gradient_bit_identical_to_padded_buffer_rule(
            self, h, padding, lead, extra, d_in, d_out, dtype, seed):
        rng = np.random.default_rng(seed)
        # same_zero takes sequences from length 1, shorter than its padding
        L = max(1, extra + (h if padding == "valid" else 0))
        x = T.Tensor(rng.normal(size=(*lead, L, d_in)).astype(dtype), requires_grad=True)
        w = T.Tensor(rng.normal(size=(h, d_in, d_out)).astype(dtype))
        b = T.Tensor(np.zeros(d_out, dtype=dtype))
        out = T.conv1d(x, w, b, padding=padding)
        g = rng.normal(size=out.data.shape).astype(dtype)
        out._backward(g)
        # the rule this path replaced: scatter into a zero-padded buffer,
        # then add its centre to a zero gradient
        pad_l = h // 2 if padding == "same_zero" else 0
        pad_r = h - 1 - pad_l if padding == "same_zero" else 0
        l_out = out.data.shape[-2]
        dcols = (g.reshape(-1, d_out) @ w.data.reshape(h * d_in, d_out).T).reshape(
            (*lead, l_out, h * d_in))
        dxp = np.zeros((*lead, L + pad_l + pad_r, d_in), dtype=dtype)
        for j in range(h):
            dxp[..., j:j + l_out, :] += dcols[..., j * d_in:(j + 1) * d_in]
        expected = np.zeros_like(x.data)
        expected += dxp[..., pad_l:pad_l + L, :]
        assert x.grad.dtype == expected.dtype
        assert x.grad.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_same_zero_input_gradient_on_sequences_shorter_than_the_padding(self, L):
        h = 7       # pad_l = 3: taps 0..2 see only padding on short sequences
        x = t64(np.ones((2, L, 1)), requires_grad=True)
        w = t64(np.arange(1.0, h + 1).reshape(h, 1, 1))
        T.backward(T.sum_all(T.conv1d(x, w, t64([0.0]), padding="same_zero")))
        # input row r feeds output row i through tap r - i + 3, for every i < L
        expected = [sum(w.data[r - i + 3, 0, 0] for i in range(L)) for r in range(L)]
        assert np.array_equal(x.grad, np.broadcast_to(np.reshape(expected, (L, 1)), (2, L, 1)))

    def test_sequence_too_short(self):
        with pytest.raises(T.SequenceTooShortError):
            T.conv1d(t64(np.zeros((2, 1))), t64(np.zeros((3, 1, 1))), t64([0.0]),
                     padding="valid")


class TestElementwise:
    def test_relu(self):
        assert np.array_equal(T.relu(t64([-1, 0, 2])).data, [0, 0, 2])

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


class TestMeanPool:
    def test_fixed(self):
        assert np.array_equal(T.mean_pool(t64([[2, 4], [4, 8]])).data, [3, 6])

    def test_backward(self):
        x = t64([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], requires_grad=True)
        T.backward(T.sum_all(T.mean_pool(x)))
        np.testing.assert_allclose(x.grad, np.full((3, 2), 1.0 / 3.0))

    def test_leading_axes_pool_each_sequence(self):
        x = np.arange(12.0).reshape(2, 3, 2)
        out = T.mean_pool(t64(x))
        np.testing.assert_array_equal(out.data, x.mean(axis=1))


class TestRepeatRow:
    def test_shared_vector_to_grid(self):
        v = t64([1.0, 2.0], requires_grad=True)
        out = T.repeat_row(v, (2, 3))
        assert out.data.shape == (2, 3, 2)
        np.testing.assert_array_equal(out.data, np.broadcast_to([1.0, 2.0], (2, 3, 2)))
        T.backward(T.sum_all(out))
        np.testing.assert_array_equal(v.grad, [6.0, 6.0])

    def test_batched_vectors_repeat_within_their_row(self):
        v = t64([[1.0, 2.0], [3.0, 4.0]])
        out = T.repeat_row(v, (3,))
        assert out.data.shape == (2, 3, 2)
        np.testing.assert_array_equal(out.data[1], [[3.0, 4.0]] * 3)


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
        T.backward(T.sum_all(T.concat_lastaxis([a, b])))
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
        T.backward(T.sum_all(T.grad_reverse(x, 1.0)))
        assert np.array_equal(x.grad, [-1, -1, -1])

    def test_scaling(self):
        x = t64([1.0, 2.0, 3.0], requires_grad=True)
        T.backward(T.sum_all(T.grad_reverse(x, 0.5)))
        assert np.array_equal(x.grad, [-0.5, -0.5, -0.5])

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            T.grad_reverse(t64([1.0]), -1.0)


class TestBackward:
    def test_sum_gives_ones(self):
        x = t64(np.zeros((2, 3)), requires_grad=True)
        T.backward(T.sum_all(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_fanout_accumulates(self):
        x = t64([1.0, 2.0], requires_grad=True)
        T.backward(T.add(T.sum_all(x), T.sum_all(x)))
        assert np.array_equal(x.grad, [2, 2])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(T.ShapeError):
            T.backward(t64([1.0, 2.0], requires_grad=True))

    def test_grad_keeps_the_leaf_dtype(self):
        a = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        b = t64(np.ones(3), requires_grad=True)
        T.backward(T.sum_all(T.add(a, b)))     # a float64 upstream gradient
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

    def test_op_nodes_are_freed_and_leaves_keep_grads(self):
        x = t64([1.0, -2.0], requires_grad=True)
        hidden = T.sigmoid(x)
        loss = T.sum_all(hidden)
        T.backward(loss)
        assert x.grad is not None
        for node in (hidden, loss):
            assert node.grad is None and node._backward is None

    def test_second_backward_of_a_graph_rejected(self):
        x = t64([1.0, 2.0], requires_grad=True)
        loss = T.sum_all(T.sigmoid(x))
        T.backward(loss)
        with pytest.raises(RuntimeError, match="already"):
            T.backward(loss)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(6)
            x = t64(rng.normal(size=(4, 3)), requires_grad=True)
            w = t64(rng.normal(size=(3, 2)), requires_grad=True)
            out = T.sum_all(T.sigmoid(T.matmul(x, w)))
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
        assert T.relu(x)._parents == (x,)


class TestAddBias:
    def test_block_bias_backward_sums_over_leading_axes(self):
        x = t64(np.ones((2, 3, 4)), requires_grad=True)
        b = t64(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = T.add_bias(x, b)
        np.testing.assert_array_equal(out.data[1], 1.0 + b.data)
        T.backward(T.sum_all(out))
        assert np.array_equal(x.grad, np.ones((2, 3, 4)))
        assert np.array_equal(b.grad, np.full((3, 4), 2.0))

    def test_bias_must_match_trailing_shape(self):
        with pytest.raises(T.ShapeError, match="add_bias shapes"):
            T.add_bias(t64(np.zeros((2, 3, 4))), t64(np.zeros((2, 4))))


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
            return T.sum_all(T.matmul(T.reshape(v, (1, 2)), T.reshape(v, (2, 1))))

        assert T.finite_diff_check(f, x) < 1e-8
        T.backward(f(x))
        # grad accumulated twice by finite_diff_check's own run plus this one
        np.testing.assert_allclose(x.grad[-2:], [4.0, 8.0])

    def test_relu_sum_away_from_kinks(self):
        x = t64([1.0, -2.0, 0.5], requires_grad=True)
        assert T.finite_diff_check(lambda v: T.sum_all(T.relu(v)), x) < 1e-10


def test_randomized_op_gradients_pass_finite_difference():
    rng = np.random.default_rng(7)
    x = t64(rng.normal(size=(5, 4)) + np.sign(rng.normal(size=(5, 4))) * 0.01,
            requires_grad=True)

    cases = [
        lambda v: T.sum_all(T.relu(v)),
        lambda v: T.sum_all(T.sigmoid(v)),
        # weighted sum: plain sum of softmax rows is constant (zero gradient)
        lambda v: T.sum_all(T.matmul(T.softmax_lastaxis(v),
                                     t64([[0.3], [-1.2], [0.8], [2.1]]))),
        lambda v: T.sum_all(T.mean_pool(v)),
        lambda v: T.sum_all(T.concat_lastaxis([v, T.sigmoid(v)])),
        lambda v: T.sum_all(T.reshape(v, (4, 5))),
    ]
    for f in cases:
        assert T.finite_diff_check(f, x) < 1e-4

    # rank-3 inputs to the ops that take leading batch axes; the sigmoid
    # keeps each output position's gradient distinct
    x3 = t64(rng.normal(size=(2, 5, 4)), requires_grad=True)
    w = t64(rng.normal(size=(3, 4, 2)), requires_grad=True)
    b = t64(rng.normal(size=2), requires_grad=True)
    m = t64(rng.normal(size=(4, 3)), requires_grad=True)
    bias = t64(rng.normal(size=4), requires_grad=True)
    block = t64(rng.normal(size=(5, 4)), requires_grad=True)

    def smooth(out):
        return T.sum_all(T.sigmoid(out))

    batched = [
        (x3, lambda v: smooth(T.conv1d(v, w, b, padding="same_zero"))),
        (x3, lambda v: smooth(T.conv1d(v, w, b, padding="valid"))),
        (w, lambda v: smooth(T.conv1d(x3, v, b, padding="same_zero"))),
        (b, lambda v: smooth(T.conv1d(x3, w, v, padding="same_zero"))),
        (x3, lambda v: smooth(T.matmul(v, m))),
        (m, lambda v: smooth(T.matmul(x3, v))),
        (x3, lambda v: smooth(T.add_bias(v, bias))),
        (bias, lambda v: smooth(T.add_bias(x3, v))),
        (x3, lambda v: smooth(T.mean_pool(v))),
        (x3, lambda v: smooth(T.repeat_row(v, (2,)))),
        (x3, lambda v: smooth(T.add_bias(v, block))),
        (block, lambda v: smooth(T.add_bias(x3, v))),
    ]
    for t, f in batched:
        assert T.finite_diff_check(f, t) < 1e-4


def test_embedding_lookup_scatter_and_bounds():
    table = t64(np.arange(8, dtype=float).reshape(4, 2), requires_grad=True)
    out = T.embedding_lookup(table, [1, 1, 3])
    assert np.array_equal(out.data, [[2, 3], [2, 3], [6, 7]])
    T.backward(T.sum_all(out))
    assert np.array_equal(table.grad, [[0, 0], [2, 2], [0, 0], [1, 1]])
    with pytest.raises(IndexError):
        T.embedding_lookup(table, [4])

    table.zero_grad()
    out = T.embedding_lookup(table, [[0, 3], [3, 3]])
    assert out.data.shape == (2, 2, 2)
    T.backward(T.sum_all(out))
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


def test_embedding_backward_adds_to_a_gradient_in_any_memory_order():
    table = T.Tensor(np.asfortranarray(np.zeros((3, 2))), requires_grad=True)
    ids = np.array([2, 0, 2])
    for first_lookup in (True, False):
        table.zero_grad()
        lookup = T.sum_all(T.embedding_lookup(table, ids))
        dense = T.sum_all(T.matmul(t64(np.ones((1, 3))), table))
        T.backward(T.add(lookup, dense) if first_lookup else T.add(dense, lookup))
        assert np.array_equal(table.grad, [[2, 2], [1, 1], [3, 3]])
