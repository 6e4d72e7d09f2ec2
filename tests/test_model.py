import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sirm
from sirm import tensor as T
from sirm.model import (ConfigError, Params, SIRMConfig, build_nbow_params,
                        build_sirm_params, dense_connect_pool, embed_paragraph,
                        init_nbow_params, init_sirm_params, near_neighbor_encode,
                        param_count, positional_encoding, seeded_make, sirm_forward,
                        sirm_loss, skim_forward)
from sirm.text import PAD_ID, ParagraphGrid

from grids import stack_documents
from test_tensor import total


def toy_config(**overrides):
    defaults = dict(vocab_size=12, d_e=4, d_c=4, src_windows=(1, 2), k=1,
                    d_ns=4, d_np=4, d_as=4, d_ap=4, m=2, n=3)
    defaults.update(overrides)
    return SIRMConfig(**defaults)


def random_grid(config, seed=0, label=1):
    rng = np.random.default_rng(seed)
    ids = rng.integers(2, config.vocab_size, size=(config.m, config.n))
    return ParagraphGrid(ids, label=label)


class TestPositionalEncoding:
    def test_row_zero_alternates(self):
        out = positional_encoding(3, 6).data
        np.testing.assert_array_equal(out[0], [0, 1, 0, 1, 0, 1])

    def test_first_pair_at_pos_one(self):
        out = positional_encoding(2, 8).data
        assert out[1, 0] == pytest.approx(0.8414709848078965, abs=1e-12)
        assert out[1, 1] == pytest.approx(0.5403023058681398, abs=1e-12)

    def test_rotation_offset_identity(self):
        d = 16
        table = positional_encoding(300, d).data
        rng = np.random.default_rng(0)
        for _ in range(100):
            pos = int(rng.integers(0, 150))
            kappa = int(rng.integers(0, 150))
            i = int(rng.integers(0, d // 2))
            theta = kappa / 10000 ** (2 * i / d)
            rot = np.array([[np.cos(theta), np.sin(theta)],
                            [-np.sin(theta), np.cos(theta)]])
            pair = table[pos, 2 * i:2 * i + 2]
            expected = rot @ pair
            np.testing.assert_allclose(table[pos + kappa, 2 * i:2 * i + 2],
                                       expected, atol=1e-9)

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigError):
            positional_encoding(4, 5)


class TestEmbedParagraph:
    def test_zero_table_gives_position_broadcast(self):
        config = toy_config()
        params = init_sirm_params(config, seed=0, dtype=np.float64)
        params.embedding.data[:] = 0.0
        grid = random_grid(config)
        out = embed_paragraph(grid, params, config)
        expected = np.tile(positional_encoding(config.n, config.d_e).data,
                           (config.m, 1))
        np.testing.assert_allclose(out.data, expected)

    def test_single_token_sentence_gets_row_zero(self):
        config = toy_config(n=1, src_windows=(1,))
        params = init_sirm_params(config, seed=0, dtype=np.float64)
        grid = random_grid(config)
        out = embed_paragraph(grid, params, config)
        ids = grid.token_ids.reshape(-1)
        expected = params.embedding.data[ids] + np.array([0, 1, 0, 1.0])
        np.testing.assert_allclose(out.data, expected)

    def test_embedding_gradient_finite_difference(self):
        config = toy_config()
        params = init_sirm_params(config, seed=1, dtype=np.float64)
        grid = random_grid(config, seed=3)

        def f(_emb):
            return total(T.sigmoid(embed_paragraph(grid, params, config)))

        assert T.finite_diff_check(f, params.embedding) < 1e-6


def skim_oracle(x, params, config):
    """Loop realization: per window, valid conv + relu, mean over positions."""
    parts = []
    for h in config.src_windows:
        w, b = params.src_filters[h]
        l_out = x.shape[0] - h + 1
        fm = np.zeros((l_out, config.d_c))
        for i in range(l_out):
            for o in range(config.d_c):
                acc = b.data[o]
                for j in range(h):
                    for c in range(config.d_e):
                        acc += x[i + j, c] * w.data[j, c, o]
                fm[i, o] = max(acc, 0.0)
        parts.append(fm.sum(axis=0) / l_out)
    return np.concatenate(parts)


def neighbor_oracle(x, weight, bias, k):
    """Explicit zero padding, window 2k+1, relu."""
    L, d_in = x.shape
    d_out = weight.shape[2]
    xp = np.vstack([np.zeros((k, d_in)), x, np.zeros((k, d_in))])
    out = np.zeros((L, d_out))
    for i in range(L):
        for o in range(d_out):
            acc = bias[o]
            for j in range(2 * k + 1):
                for c in range(d_in):
                    acc += xp[i + j, c] * weight[j, c, o]
            out[i, o] = max(acc, 0.0)
    return out


def dense_pool_oracle(x, u, g, weight, bias):
    """Per position: relu(W.T [g, u_j, x_j] + b), then mean over positions."""
    L = x.shape[0]
    acc = np.zeros(weight.shape[1])
    for j in range(L):
        t = np.concatenate([g, u[j], x[j]])
        acc += np.maximum(weight.T @ t + bias, 0.0)
    return acc / L


class TestSkimForward:
    def test_all_zero_input_and_bias_gives_zero(self):
        config = toy_config()
        params = init_sirm_params(config, seed=0, dtype=np.float64)
        x = T.Tensor(np.zeros((config.m * config.n, config.d_e)))
        g = skim_forward(x, params, config)
        np.testing.assert_array_equal(g.data, np.zeros(config.g_width))

    def test_h1_identity_filters_reduce_to_column_means(self):
        config = toy_config(src_windows=(1,), d_c=4)
        params = init_sirm_params(config, seed=0, dtype=np.float64)
        params.src_filters[1][0].data[:] = np.eye(4)[None]
        params.src_filters[1][1].data[:] = 10.0  # keep relu inactive-free
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 4))
        g = skim_forward(T.Tensor(x, dtype=np.float64), params, config)
        np.testing.assert_allclose(g.data, x.mean(axis=0) + 10.0, rtol=1e-12)

    def test_matches_loop_oracle_with_gradients(self):
        config = toy_config()
        params = init_sirm_params(config, seed=4, dtype=np.float64)
        rng = np.random.default_rng(5)
        x_data = rng.normal(size=(config.m * config.n, config.d_e))
        x = T.Tensor(x_data, requires_grad=True, dtype=np.float64)
        g = skim_forward(x, params, config)
        np.testing.assert_allclose(g.data, skim_oracle(x_data, params, config),
                                   atol=1e-12)
        assert T.finite_diff_check(
            lambda v: total(skim_forward(v, params, config)), x) < 1e-6


    def test_dropping_the_rows_far_from_every_word_keeps_g(self):
        config = toy_config(m=3, n=4, src_windows=(1, 2, 3))
        params = init_sirm_params(config, seed=1, dtype=np.float64)
        ids = np.full((2, config.m, config.n), PAD_ID)
        ids[0, 0, :2] = [3, 4]
        ids[1, 1, 1] = 5
        grid = ParagraphGrid(ids, np.array([0, 1]))
        assert T.kept_rows(ids.reshape(2, -1) != PAD_ID, 3) is not None
        x = embed_paragraph(grid, params, config)
        np.testing.assert_allclose(skim_forward(x, params, config, grid.word_mask).data,
                                   skim_forward(x, params, config).data, rtol=0, atol=1e-12)


class TestNearNeighbor:
    def test_length_one_depends_only_on_real_row(self):
        rng = np.random.default_rng(6)
        w = T.Tensor(rng.normal(size=(3, 4, 2)), dtype=np.float64)
        b = T.Tensor(np.zeros(2), dtype=np.float64)
        x = T.Tensor(rng.normal(size=(1, 4)), dtype=np.float64)
        out = near_neighbor_encode(x, w, b, k=1)
        expected = np.maximum(x.data @ w.data[1], 0.0)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_zero_input_zero_bias(self):
        w = T.Tensor(np.ones((3, 2, 2)), dtype=np.float64)
        b = T.Tensor(np.zeros(2), dtype=np.float64)
        out = near_neighbor_encode(T.Tensor(np.zeros((4, 2))), w, b, k=1)
        np.testing.assert_array_equal(out.data, np.zeros((4, 2)))

    def test_matches_loop_oracle_with_gradient(self):
        rng = np.random.default_rng(7)
        w = T.Tensor(rng.normal(size=(3, 4, 3)), requires_grad=True, dtype=np.float64)
        b = T.Tensor(rng.normal(size=3), requires_grad=True, dtype=np.float64)
        x = T.Tensor(rng.normal(size=(5, 4)), requires_grad=True, dtype=np.float64)
        out = near_neighbor_encode(x, w, b, k=1)
        np.testing.assert_allclose(out.data,
                                   neighbor_oracle(x.data, w.data, b.data, 1),
                                   atol=1e-12)
        assert T.finite_diff_check(
            lambda v: total(near_neighbor_encode(v, w, b, 1)), x) < 1e-6


class TestDenseConnectPool:
    def test_zero_weights_give_zero(self):
        w = T.Tensor(np.zeros((10, 3)), dtype=np.float64)
        b = T.Tensor(np.zeros(3), dtype=np.float64)
        rng = np.random.default_rng(8)
        out = dense_connect_pool(T.Tensor(rng.normal(size=(4, 3))),
                                 T.Tensor(rng.normal(size=(4, 3))),
                                 T.Tensor(rng.normal(size=4)), w, b)
        np.testing.assert_array_equal(out.data, np.zeros(3))

    def test_single_position_is_its_own_pool(self):
        rng = np.random.default_rng(9)
        w = T.Tensor(rng.normal(size=(10, 3)), dtype=np.float64)
        b = T.Tensor(rng.normal(size=3), dtype=np.float64)
        x = T.Tensor(rng.normal(size=(1, 3)), dtype=np.float64)
        u = T.Tensor(rng.normal(size=(1, 3)), dtype=np.float64)
        g = T.Tensor(rng.normal(size=4), dtype=np.float64)
        out = dense_connect_pool(x, u, g, w, b)
        expected = dense_pool_oracle(x.data, u.data, g.data, w.data, b.data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_matches_oracle_with_gradient(self):
        rng = np.random.default_rng(10)
        w = T.Tensor(rng.normal(size=(10, 3)), requires_grad=True, dtype=np.float64)
        b = T.Tensor(rng.normal(size=3), requires_grad=True, dtype=np.float64)
        x = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True, dtype=np.float64)
        u = T.Tensor(rng.normal(size=(6, 3)), dtype=np.float64)
        g = T.Tensor(rng.normal(size=4), requires_grad=True, dtype=np.float64)
        out = dense_connect_pool(x, u, g, w, b)
        expected = dense_pool_oracle(x.data, u.data, g.data, w.data, b.data)
        np.testing.assert_allclose(out.data, expected, atol=1e-12)
        for param in (w, g):
            assert T.finite_diff_check(
                lambda v: total(dense_connect_pool(x, u, g, w, b)), param) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), max_size=2), m=st.lists(st.integers(1, 3), max_size=1),
           n=st.integers(1, 5), d_g=st.integers(1, 4), d_u=st.integers(1, 4),
           d_x=st.integers(1, 4), d_a=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_split_form_matches_concat_oracle(self, lead, m, n, d_g, d_u, d_x, d_a, seed):
        # lead documents; m is the sentence axis of the sentence level, absent
        # at the paragraph level; n positions are pooled
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(*lead, *m, n, d_x))
        u = rng.normal(size=(*lead, *m, n, d_u))
        g = rng.normal(size=(*lead, d_g))
        w = rng.normal(size=(d_g + d_u + d_x, d_a))
        b = rng.normal(size=d_a)
        out = dense_connect_pool(*(T.Tensor(v, dtype=np.float64) for v in (x, u, g, w, b)))
        assert out.data.shape == (*lead, *m, d_a)
        for idx in np.ndindex(*lead, *m):
            expected = dense_pool_oracle(x[idx], u[idx], g[idx[:len(lead)]], w, b)
            np.testing.assert_allclose(out.data[idx], expected, rtol=0, atol=1e-10)

    def test_width_mismatch(self):
        w = T.Tensor(np.zeros((5, 3)))
        with pytest.raises(T.ShapeError):
            dense_connect_pool(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))),
                               T.Tensor(np.zeros(4)), w, T.Tensor(np.zeros(3)))

    def test_weight_rows_beyond_the_inputs_rejected(self):
        w = T.Tensor(np.zeros((12, 3)))     # the inputs take 4 + 3 + 3 rows
        with pytest.raises(T.ShapeError):
            dense_connect_pool(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2, 3))),
                               T.Tensor(np.zeros(4)), w, T.Tensor(np.zeros(3)))


class TestSIRMForward:
    def test_zero_heads_give_half_and_uniform(self):
        config = toy_config()
        params = init_sirm_params(config, seed=0)
        params.out_head[0].data[:] = 0.0
        params.adv_head[0].data[:] = 0.0
        trace = sirm_forward(random_grid(config), params, config)
        assert trace.y_prime.item() == 0.5
        np.testing.assert_array_equal(trace.y_dprime.data, [0.5, 0.5])

    @pytest.mark.parametrize("seed", range(4))
    def test_shape_contract(self, seed):
        rng = np.random.default_rng(seed)
        config = SIRMConfig(
            vocab_size=int(rng.integers(5, 20)),
            d_e=2 * int(rng.integers(1, 4)),
            d_c=int(rng.integers(1, 4)),
            src_windows=tuple(range(1, int(rng.integers(2, 4)))),
            k=int(rng.integers(1, 3)),
            d_ns=int(rng.integers(1, 5)),
            d_np=int(rng.integers(1, 5)),
            d_as=2 * int(rng.integers(1, 4)),
            d_ap=int(rng.integers(1, 5)),
            m=int(rng.integers(1, 4)),
            n=int(rng.integers(2, 6)),
        )
        params = init_sirm_params(config, seed=seed)
        grid = random_grid(config, seed=seed)
        trace = sirm_forward(grid, params, config)
        m, n = config.m, config.n
        distinct = len(np.unique(grid.token_ids, axis=0))
        assert trace.s_prime.data.shape == (distinct, n, config.d_e)
        assert trace.sentence_rows.shape == (m,)
        assert trace.g.data.shape == (config.g_width,)
        assert trace.u_sent.data.shape == (distinct, n, config.d_ns)
        assert trace.o_sent.data.shape == (m, config.d_as)
        assert trace.o_prime.data.shape == (m, config.d_as)
        assert trace.u_para.data.shape == (m, config.d_np)
        assert trace.o_para.data.shape == (config.d_ap,)
        assert trace.y_prime.data.shape == ()
        assert trace.y_dprime.data.shape == (2,)
        assert 0 < trace.y_prime.item() < 1
        assert trace.y_dprime.data.sum() == pytest.approx(1.0, abs=1e-6)

    def test_global_feature_sensitivity(self):
        # a word in sentence 0 must reach every sentence's encoding through g
        config = toy_config()
        params = init_sirm_params(config, seed=11, dtype=np.float64)
        grid = random_grid(config, seed=11)
        trace = sirm_forward(grid, params, config)
        T.backward(total(T.matmul(T.Tensor([[0., 1.]]), trace.o_sent)))
        emb_grad = params.embedding.grad
        sentence0_ids = set(grid.token_ids[0].tolist()) - set(grid.token_ids[1].tolist())
        assert sentence0_ids, "need a word unique to sentence 0"
        for token_id in sentence0_ids:
            assert np.abs(emb_grad[token_id]).max() > 0

    @pytest.mark.parametrize("seed", range(3))
    def test_sentence_level_matches_per_sentence_oracles(self, seed):
        rng = np.random.default_rng(100 + seed)
        m, n, k = (int(v) for v in rng.integers([3, 2, 1], [6, 7, 3], endpoint=True))
        config = toy_config(m=m, n=n, k=k, d_ns=3, d_as=4)
        params = init_sirm_params(config, seed=seed, dtype=np.float64)
        ids = random_grid(config, seed=seed).token_ids
        ids[1] = PAD_ID             # an all-PAD sentence
        ids[-1] = ids[0]            # a repeated sentence
        trace = sirm_forward(ParagraphGrid(ids, label=1), params, config)
        assert len(trace.s_prime.data) == m - 1
        assert trace.sentence_rows[0] == trace.sentence_rows[-1]
        pos = positional_encoding(n, config.d_e, np.float64).data
        nb_w, nb_b = (t.data for t in params.sent_neighbor)
        ds_w, ds_b = (t.data for t in params.sent_dense)
        for i in range(m):
            row = trace.sentence_rows[i]
            x_i = trace.s_prime.data[row]
            np.testing.assert_array_equal(x_i, params.embedding.data[ids[i]] + pos)
            u_i = neighbor_oracle(x_i, nb_w, nb_b, k)
            np.testing.assert_allclose(trace.u_sent.data[row], u_i, rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                trace.o_sent.data[i],
                dense_pool_oracle(x_i, u_i, trace.g.data, ds_w, ds_b),
                rtol=0, atol=1e-12)

    def test_graph_size_does_not_grow_with_sentence_count(self):
        # one op chain for any m and any batch size: a per-sentence or
        # per-example loop would add nodes for every sentence or document
        sizes = []
        for m, batch in ((1, 1), (8, 1), (8, 8)):
            config = toy_config(m=m)
            params = init_sirm_params(config, seed=0)
            grid = stack_documents([random_grid(config, seed=i) for i in range(batch)])
            loss = sirm_loss(sirm_forward(grid, params, config), grid.label)
            sizes.append(len(T.Graph.trace(loss).nodes))
        assert sizes[0] == sizes[1] == sizes[2]

    def test_no_grad_forward_is_bit_identical_and_graph_free(self):
        config = toy_config()
        params = init_sirm_params(config, seed=17)
        grid = stack_documents([random_grid(config, seed=i) for i in range(3)])
        traced = sirm_forward(grid, params, config)
        with T.no_grad():
            bare = sirm_forward(grid, params, config)
        for name in traced.__dataclass_fields__:
            assert np.array_equal(getattr(traced, name).data, getattr(bare, name).data), name
        assert bare.y_prime._parents == ()
        assert traced.y_prime._parents != ()

    def test_backward_leaves_grads_on_parameters_only(self):
        config = toy_config()
        params = init_sirm_params(config, seed=18)
        grid = random_grid(config)
        trace = sirm_forward(grid, params, config)
        T.backward(sirm_loss(trace, grid.label))
        assert all(t.grad is not None for t in params.tensors())
        assert trace.g.grad is None and trace.y_prime.grad is None

    def test_positional_sensitivity(self):
        config = toy_config(m=1, src_windows=(1, 2))
        params = init_sirm_params(config, seed=12)
        ids = np.array([[2, 3, 4]])
        y1 = sirm_forward(ParagraphGrid(ids, 0), params, config).y_prime.item()
        y2 = sirm_forward(ParagraphGrid(ids[:, ::-1].copy(), 0),
                          params, config).y_prime.item()
        assert abs(y1 - y2) > 1e-6

    def test_forward_identical_for_any_lambda(self):
        base = toy_config(lambda_adv=0.0)
        other = toy_config(lambda_adv=1e-6)
        grid = random_grid(base, seed=13)
        p1 = init_sirm_params(base, seed=13)
        p2 = init_sirm_params(other, seed=13)
        t1 = sirm_forward(grid, p1, base)
        t2 = sirm_forward(grid, p2, other)
        assert np.array_equal(t1.y_prime.data, t2.y_prime.data)
        assert np.array_equal(t1.y_dprime.data, t2.y_dprime.data)

    def test_all_finite_fuzz(self):
        config = toy_config()
        for trial in range(1000):
            params = init_sirm_params(config, seed=trial % 7)
            grid = random_grid(config, seed=trial, label=trial % 2)
            trace = sirm_forward(grid, params, config)
            for t in (trace.g, trace.o_para, trace.y_prime, trace.y_dprime):
                assert np.isfinite(t.data).all()
            if trial % 50 == 0:
                loss = sirm_loss(trace, grid.label)
                T.backward(loss)
                for tensor in params.tensors():
                    assert tensor.grad is None or np.isfinite(tensor.grad).all()


class TestSIRMLoss:
    def test_value_at_uniform(self):
        config = toy_config()
        params = init_sirm_params(config, seed=0)
        params.out_head[0].data[:] = 0.0
        params.adv_head[0].data[:] = 0.0
        trace = sirm_forward(random_grid(config), params, config)
        assert sirm_loss(trace, 0).item() == pytest.approx(2 * np.log(2), rel=1e-6)

    def test_loss_value_is_bce_plus_ce_exactly(self):
        config = toy_config(lambda_adv=1e-6)
        params = init_sirm_params(config, seed=14, dtype=np.float64)
        grid = random_grid(config, seed=14)
        trace = sirm_forward(grid, params, config)
        total = sirm_loss(trace, 1)
        bce = T.bce_loss(trace.y_prime, 1)
        ce = T.nll_loss(trace.y_dprime, 1)
        assert total.item() == bce.item() + ce.item()

    def test_lambda_zero_matches_bce_only_gradients_exactly(self):
        config = toy_config(lambda_adv=0.0)
        params = init_sirm_params(config, seed=15, dtype=np.float64)
        grid = random_grid(config, seed=15)

        T.zero_grads(params.tensors())
        T.backward(sirm_loss(sirm_forward(grid, params, config), 1))
        total_grads = {n: t.grad.copy() for n, t in params.named_tensors()
                       if t.grad is not None}

        T.zero_grads(params.tensors())
        T.backward(T.bce_loss(sirm_forward(grid, params, config).y_prime, 1))
        for h in config.src_windows:
            w, b = params.src_filters[h]
            assert np.array_equal(total_grads[f"src_filters.{h}.weight"], w.grad)
            assert np.array_equal(total_grads[f"src_filters.{h}.bias"], b.grad)
        assert np.array_equal(total_grads["embedding"], params.embedding.grad)

    def test_two_branch_decomposition(self):
        lam = 1e-3
        config = toy_config(lambda_adv=lam)
        params = init_sirm_params(config, seed=16, dtype=np.float64)
        grid = random_grid(config, seed=16)

        T.zero_grads(params.tensors())
        T.backward(sirm_loss(sirm_forward(grid, params, config), 1))
        total = {n: t.grad.copy() for n, t in params.named_tensors()}

        T.zero_grads(params.tensors())
        T.backward(T.bce_loss(sirm_forward(grid, params, config).y_prime, 1))
        bce = {n: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
               for n, t in params.named_tensors()}

        T.zero_grads(params.tensors())
        trace = sirm_forward(grid, params, config, reverse_gradients=False)
        T.backward(T.nll_loss(trace.y_dprime, 1))
        ce = {n: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
              for n, t in params.named_tensors()}

        for h in config.src_windows:
            name = f"src_filters.{h}.weight"
            expected = bce[name] - lam * ce[name]
            np.testing.assert_allclose(total[name], expected, rtol=1e-9, atol=1e-15)

    @settings(max_examples=25, deadline=None)
    @given(batch=st.integers(1, 5), m=st.integers(1, 3), n=st.integers(2, 5),
           seed=st.integers(0, 2**16), data=st.data())
    def test_stacked_batch_gradients_are_mean_of_single_grids(self, batch, m, n,
                                                              seed, data):
        labels = data.draw(st.lists(st.integers(0, 1), min_size=batch, max_size=batch))
        config = toy_config(m=m, n=n, lambda_adv=0.3)
        params = init_sirm_params(config, seed=seed, dtype=np.float64)
        grids = [random_grid(config, seed=seed + i, label=y) for i, y in enumerate(labels)]

        def grads(grid):
            T.zero_grads(params.tensors())
            trace = sirm_forward(grid, params, config)
            T.backward(sirm_loss(trace, grid.label))
            return trace, [t.grad.copy() for t in params.tensors()]

        stacked, batched = grads(stack_documents(grids))
        assert stacked.y_prime.data.shape == (batch,)
        assert stacked.y_dprime.data.shape == (batch, 2)
        singles = [grads(grid)[1] for grid in grids]
        for i, got in enumerate(batched):
            expected = np.mean([single[i] for single in singles], axis=0)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)

    def test_batch_with_repeated_and_empty_sentences_passes_finite_difference(self):
        # a sentence repeated within and across documents and all-PAD rows:
        # every parameter's gradient sums over each distinct sentence's copies
        config = toy_config(m=3, n=3)
        params = init_sirm_params(config, seed=21, dtype=np.float64)
        ids = np.array([[[2, 3, 4], [5, 6, 0], [2, 3, 4]],
                        [[5, 6, 0], [0, 0, 0], [0, 0, 0]],
                        [[7, 8, 9], [2, 3, 4], [0, 0, 0]]])
        grid = ParagraphGrid(ids, np.array([1, 0, 1]))

        def loss(_t):
            T.zero_grads(params.tensors())
            trace = sirm_forward(grid, params, config, reverse_gradients=False)
            return sirm_loss(trace, grid.label)

        assert len(sirm_forward(grid, params, config).s_prime.data) == 4
        for name, t in params.named_tensors():
            assert T.finite_diff_check(loss, t) < 1e-4, name

    def test_bad_label_rejected(self):
        config = toy_config()
        params = init_sirm_params(config, seed=0)
        trace = sirm_forward(random_grid(config), params, config)
        with pytest.raises(ValueError):
            sirm_loss(trace, 2)


class TestInit:
    @pytest.mark.parametrize("init", [init_sirm_params, init_nbow_params])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("overrides", [{}, {"src_windows": (3, 1)},
                                           {"d_e": 64, "d_c": 16, "src_windows": (1, 2, 3, 4),
                                            "d_ns": 64, "d_np": 64, "d_as": 64, "d_ap": 64,
                                            "m": 8, "n": 32}])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_an_independent_redraw(self, init, dtype, overrides, seed):
        """One default_rng(seed) walked in named_tensors() order: N(0, 1) for the
        embedding, zeros for 1-D tensors, Glorot-uniform for every other weight."""
        config = toy_config(**overrides)
        params = init(config, seed=seed, dtype=dtype)
        rng = np.random.default_rng(seed)
        for name, t in params.named_tensors():
            shape = t.data.shape
            if name == "embedding":
                assert shape == (config.vocab_size, config.d_e)
                expected = rng.normal(0.0, 1.0, size=shape)
            elif len(shape) == 1:
                expected = np.zeros(shape)
            else:
                fan_in, fan_out = np.prod(shape[:-1]), shape[-1]
                bound = np.sqrt(6.0 / (fan_in + fan_out))
                expected = rng.uniform(-bound, bound, size=shape)
            assert t.data.dtype == dtype and t.requires_grad, name
            assert t.data.tobytes() == expected.astype(dtype).tobytes(), name


def reachable_tensors(value):
    """Every Tensor inside value, walking dicts, tuples and lists."""
    if isinstance(value, T.Tensor):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [t for item in value for t in reachable_tensors(item)]
    return []


class TestParams:
    @pytest.mark.parametrize("build", [build_sirm_params, build_nbow_params])
    @pytest.mark.parametrize("overrides", [{}, {"src_windows": (3, 1)}])
    def test_named_tensors_are_what_make_returned_in_call_order(self, build, overrides):
        made, make = [], seeded_make(0)

        def spy(name, shape):
            made.append((name, make(name, shape)))
            return made[-1][1]

        params = build(toy_config(**overrides), spy)
        named = params.named_tensors()
        assert [name for name, _ in named] == [name for name, _ in made]
        assert all(got is returned for (_, got), (_, returned) in zip(named, made))
        assert all(got is t for (_, got), t in zip(named, params.tensors()))
        assert len(params.tensors()) == len(named) == len(made)

    @pytest.mark.parametrize("init", [init_sirm_params, init_nbow_params])
    def test_every_layer_tensor_is_named_once(self, init):
        params = init(toy_config())
        reachable = reachable_tensors([value for name, value in vars(params).items()
                                       if not name.startswith("_")])
        named = params.tensors()
        assert len({id(t) for t in named}) == len(named)
        assert {id(t) for t in reachable} == {id(t) for t in named}
        assert len(reachable) == len(named)

    def test_sirm_checkpoint_order(self):
        params = init_sirm_params(toy_config(src_windows=(3, 1)))
        assert [name for name, _ in params.named_tensors()] == [
            "embedding", "src_filters.1.weight", "src_filters.1.bias",
            "src_filters.3.weight", "src_filters.3.bias",
            *(f"{layer}.{part}" for layer in ("sent_neighbor", "sent_dense",
                                              "para_neighbor", "para_dense",
                                              "out_head", "adv_head")
              for part in ("weight", "bias"))]
        assert list(params.src_filters) == [1, 3]

    def test_the_package_exports_params(self):
        assert sirm.Params is Params and "Params" in sirm.__all__
        assert isinstance(init_nbow_params(toy_config()), sirm.Params)


class TestParamCount:
    def test_default_architecture(self):
        config = SIRMConfig(vocab_size=30000)
        params = init_sirm_params(config, seed=0)
        # layer-shape arithmetic for d_e=64, d_c=16, h 1..4, k=1, widths 64
        expected = (sum(h * 64 * 16 + 16 for h in range(1, 5))
                    + (3 * 64 * 64 + 64) + (192 * 64 + 64)
                    + (3 * 64 * 64 + 64) + (192 * 64 + 64)
                    + (128 * 1 + 1) + (64 * 2 + 2))
        assert param_count(params) == expected == 59971

    def test_empty_params(self):
        class Empty:
            def named_tensors(self):
                return []

        assert param_count(Empty()) == 0

    def test_include_embeddings_adds_table(self):
        config = toy_config()
        params = init_sirm_params(config, seed=0)
        diff = param_count(params, include_embeddings=True) - param_count(params)
        assert diff == config.vocab_size * config.d_e


class TestConfigValidation:
    def test_window_larger_than_grid(self):
        with pytest.raises(ConfigError):
            toy_config(src_windows=(1, 7), m=2, n=3)

    def test_negative_lambda(self):
        with pytest.raises(ConfigError):
            toy_config(lambda_adv=-1.0)

    def test_odd_embedding_width(self):
        with pytest.raises(ConfigError):
            toy_config(d_e=5)

    @pytest.mark.parametrize("field,value,fragment", [
        ("d_e", "64", "d_e must be an integer, got '64'"),
        ("m", 2.5, "m must be an integer, got 2.5"),
        ("n", True, "n must be an integer, got True"),
        ("lambda_adv", None, "lambda_adv must be a finite number, got None"),
        ("lambda_adv", "0.1", "lambda_adv must be a finite number"),
        ("src_windows", 3, "src_windows must be a list of integers, got 3"),
        ("src_windows", (1, 2.0), "src_windows must be a list of integers"),
        ("src_windows", (0, 2), "skim windows must be >= 1"),
        ("src_windows", (2, 2), "src_windows must be distinct, got (2, 2)"),
        ("lambda_adv", float("nan"), "lambda_adv must be a finite number, got nan"),
    ])
    def test_wrong_types_and_values_rejected(self, field, value, fragment):
        with pytest.raises(ConfigError, match=re.escape(fragment)):
            toy_config(**{field: value})

    def test_numeric_types_accepted(self):
        config = toy_config(lambda_adv=0, d_e=np.int64(4), src_windows=[2, 1])
        assert config.src_windows == (1, 2) and config.lambda_adv == 0

    def test_roundtrip_dict(self):
        config = toy_config()
        assert SIRMConfig.from_dict(asdict(config)) == config

    def test_retired_mask_aware_key(self):
        d = asdict(toy_config())
        assert SIRMConfig.from_dict(dict(d, mask_aware_pooling=False)) == toy_config()
        with pytest.raises(ConfigError, match="mask_aware_pooling"):
            SIRMConfig.from_dict(dict(d, mask_aware_pooling=True))
