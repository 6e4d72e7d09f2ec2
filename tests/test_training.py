import gc
import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sirm.model as model_mod
import sirm.text as text_mod
import sirm.training as training_mod
from sirm import tensor as T
from sirm.evaluation import evaluate, metrics
from sirm.model import (MODELS, ConfigError, SIRMConfig, init_nbow_params, init_sirm_params,
                        seeded_make, sirm_forward, sirm_loss)
from sirm.text import DataFormatError, ParagraphGrid
from sirm.training import (Adam, CheckpointError, TrainConfig, TrainingError, best_epoch,
                           load_checkpoint, save_checkpoint, serialize_checkpoint, split_dev,
                           train)

from grids import stack_documents


BUNDLED = Path(__file__).resolve().parent.parent / "data" / "synthetic_64.jsonl"


def toy_config(**overrides):
    defaults = dict(vocab_size=12, d_e=4, d_c=4, src_windows=(1, 2), k=1,
                    d_ns=4, d_np=4, d_as=4, d_ap=4, m=2, n=3)
    defaults.update(overrides)
    return SIRMConfig(**defaults)


def with_header(blob, edit):
    """A checkpoint blob whose JSON header is rewritten by edit(header)."""
    start = len(training_mod.MAGIC) + 4
    (length,) = struct.unpack("<I", blob[start - 4:start])
    header = json.loads(blob[start:start + length])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:start - 4] + struct.pack("<I", len(new)) + new + blob[start + length:]


def with_first_record(blob, edit):
    """A checkpoint blob whose first tensor record's name and dims are
    rewritten by edit(name, dims) -> (name, dims); its data bytes stay."""
    start = len(training_mod.MAGIC) + 4
    (length,) = struct.unpack("<I", blob[start - 4:start])
    off = start + length
    (name_len,) = struct.unpack("<I", blob[off:off + 4])
    name = blob[off + 4:off + 4 + name_len]
    (rank,) = struct.unpack("<I", blob[off + 4 + name_len:off + 8 + name_len])
    dims_at = off + 8 + name_len
    dims = struct.unpack(f"<{rank}I", blob[dims_at:dims_at + 4 * rank])
    name, dims = edit(name, dims)
    return (blob[:off] + struct.pack("<I", len(name)) + name
            + struct.pack(f"<I{len(dims)}I", len(dims), *dims) + blob[dims_at + 4 * rank:])


def split_records(blob):
    """A checkpoint blob cut into everything up to its first tensor record and
    the list of its (name, record bytes) pairs in file order."""
    start = len(training_mod.MAGIC) + 4
    (length,) = struct.unpack("<I", blob[start - 4:start])
    off = head_end = start + length
    records = []
    while off < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, off)
        name = blob[off + 4:off + 4 + name_len].decode("utf-8")
        (rank,) = struct.unpack_from("<I", blob, off + 4 + name_len)
        dims = struct.unpack_from(f"<{rank}I", blob, off + 8 + name_len)
        end = off + 8 + name_len + 4 * rank + 4 * math.prod(dims)
        records.append((name, blob[off:end]))
        off = end
    return blob[:head_end], records


def with_parent_header(blob, mask_aware):
    """A checkpoint blob rewritten with the header of the earlier format,
    whose config always carried a mask_aware_pooling flag."""
    return with_header(blob, lambda h: h["config"].update(mask_aware_pooling=mask_aware))


def toy_grids(config, count=8, seed=0):
    rng = np.random.default_rng(seed)
    return stack_documents(
        ParagraphGrid(rng.integers(2, config.vocab_size, size=(config.m, config.n)), i % 2)
        for i in range(count))


class TestAdam:
    def test_zero_gradient_is_exact_noop_on_parameters(self):
        p = T.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([("p", p)], TrainConfig())
        before = p.data.copy()
        p.grad = np.zeros_like(p.data)
        opt.step()
        assert np.array_equal(p.data, before)
        assert opt.step_count == 1

    def test_first_step_closed_form(self):
        lr = 1e-3
        p = T.Tensor(np.array([0.5]), requires_grad=True, dtype=np.float64)
        opt = Adam([("p", p)], TrainConfig(learning_rate=lr))
        p.grad = np.array([1.0])
        opt.step()
        assert p.data[0] == pytest.approx(0.5 - lr / (1.0 + 1e-8), rel=1e-9)

    def test_missing_gradient_names_parameter(self):
        p = T.Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("stuck", p)], TrainConfig())
        with pytest.raises(TrainingError, match="stuck"):
            opt.step()

    def test_ten_steps_deterministic(self):
        def run():
            rng = np.random.default_rng(3)
            p = T.Tensor(rng.normal(size=5).astype(np.float32), requires_grad=True)
            opt = Adam([("p", p)], TrainConfig(seed=3))
            g_rng = np.random.default_rng(4)
            for _ in range(10):
                p.grad = g_rng.normal(size=5).astype(np.float32)
                opt.step()
            return p.data.copy()

        assert np.array_equal(run(), run())

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**16), lr=st.sampled_from([1e-3, 3e-2]))
    def test_in_place_step_bit_identical_to_out_of_place_formula(self, seed, lr):
        cfg = TrainConfig(learning_rate=lr)
        beta1, beta2, eps = 0.9, 0.999, 1e-8     # Kingma & Ba's defaults
        rng = np.random.default_rng(seed)
        # the last is larger than any tensor the dense step meets at the paper default
        shapes = [((3, 4), np.float32), ((5,), np.float64), ((2, 3, 2), np.float32),
                  ((1,), np.float64), ((3, 65536 + 5), np.float32)]
        params = [T.Tensor(rng.normal(size=s).astype(dt), requires_grad=True)
                  for s, dt in shapes]
        expected = [p.data.copy() for p in params]
        m = [np.zeros_like(e) for e in expected]
        v = [np.zeros_like(e) for e in expected]
        opt = Adam([(f"p{i}", p) for i, p in enumerate(params)], cfg)
        for t in range(1, 11):
            grads = [rng.normal(size=p.data.shape).astype(p.data.dtype)
                     * (rng.random() < 0.7) for p in params]   # some all zero
            for p, g in zip(params, grads):
                p.grad = g.copy()
            params[0].grad = np.asfortranarray(grads[0])     # not C-contiguous
            opt.step()
            # the out-of-place update this step replaced
            for i, g in enumerate(grads):
                m[i] = beta1 * m[i] + (1 - beta1) * g
                v[i] = beta2 * v[i] + (1 - beta2) * g * g
                m_hat = m[i] / (1 - beta1 ** t)
                v_hat = v[i] / (1 - beta2 ** t)
                expected[i] -= (lr * m_hat / (np.sqrt(v_hat) + eps)).astype(expected[i].dtype)
            for p, e, mi, vi, om, ov in zip(params, expected, m, v, opt.m, opt.v):
                assert p.grad is None
                assert p.data.dtype == e.dtype and p.data.tobytes() == e.tobytes()
                assert om.tobytes() == mi.tobytes() and ov.tobytes() == vi.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_step_is_bit_identical_to_the_scratch_array_schedule(self, dtype):
        """The reference: Adam's update as ten out= calls into two scratch
        arrays of m's shape, in the formula's operation order."""
        b1, b2 = training_mod.ADAM_BETA1, training_mod.ADAM_BETA2
        lr = 1e-2
        rng = np.random.default_rng(0)
        p = T.Tensor(rng.normal(size=(4, 6)).astype(dtype), requires_grad=True)
        opt = Adam([("p", p)], TrainConfig(learning_rate=lr))
        ref_p = p.data.copy()
        ref_m, ref_v = np.zeros_like(ref_p), np.zeros_like(ref_p)
        for t in range(1, 6):
            g = rng.normal(size=ref_p.shape).astype(dtype)
            p.grad = g.copy()
            opt.step()
            c1, c2 = 1 - b1 ** t, 1 - b2 ** t
            step, denom = np.empty_like(ref_m), np.empty_like(ref_m)
            ref_m *= b1
            ref_m += np.multiply(g, 1 - b1, out=step)
            ref_v *= b2
            np.multiply(g, 1 - b2, out=denom)
            ref_v += np.multiply(denom, g, out=denom)
            np.sqrt(np.divide(ref_v, c2, out=denom), out=denom)
            denom += training_mod.ADAM_EPS
            np.divide(ref_m, c1, out=step)
            step *= lr
            ref_p -= np.divide(step, denom, out=step)
            assert p.data.dtype == dtype and p.data.tobytes() == ref_p.tobytes(), t
            assert opt.m[0].tobytes() == ref_m.tobytes(), t
            assert opt.v[0].tobytes() == ref_v.tobytes(), t

    @pytest.mark.parametrize("lazy", [False, True], ids=["dense", "lazy"])
    def test_fortran_ordered_parameter_steps_to_the_bytes_of_its_c_copy(self, lazy):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 3)).astype(np.float32)
        params = [T.Tensor(np.asfortranarray(data), requires_grad=True),
                  T.Tensor(data.copy(), requires_grad=True)]
        assert not params[0].data.flags.c_contiguous
        opts = [Adam([("wide", p)], TrainConfig(learning_rate=0.01)) for p in params]
        for _ in range(3):
            g = rng.normal(size=data.shape).astype(np.float32)
            for p, opt in zip(params, opts):
                p.grad = g.copy()
                p.grad_rows = np.array([1, 3]) if lazy else None
                opt.step()
        fortran, c_order = params
        assert fortran.data.tobytes(order="C") == c_order.data.tobytes()
        assert opts[0].m[0].tobytes() == opts[1].m[0].tobytes()
        assert opts[0].v[0].tobytes() == opts[1].v[0].tobytes()

    @pytest.mark.parametrize("bad_grad", [None, np.ones(1), np.ones((4, 3)), np.ones((1, 4))],
                             ids=["missing", "one-element", "transposed", "broadcastable"])
    def test_a_bad_gradient_raises_before_any_parameter_is_touched(self, bad_grad):
        rng = np.random.default_rng(0)
        params = [T.Tensor(rng.normal(size=(3, 4)), requires_grad=True) for _ in range(3)]
        opt = Adam([(f"p{i}", p) for i, p in enumerate(params)], TrainConfig())
        for _ in range(2):
            for p in params:
                p.grad = rng.normal(size=p.data.shape)
            opt.step()
        grads = [rng.normal(size=(3, 4)), bad_grad, rng.normal(size=(3, 4))]
        for p, g in zip(params, grads):
            p.grad = g
        before = [[a.copy() for a in (p.data, m, v)] for p, m, v in zip(params, opt.m, opt.v)]
        with pytest.raises(TrainingError, match="'p1'"):
            opt.step()
        assert opt.step_count == 2
        for p, m, v, g, old in zip(params, opt.m, opt.v, grads, before):
            assert p.grad is g
            for now, then in zip((p.data, m, v), old):
                assert now.tobytes() == then.tobytes()

    def test_lazy_step_allocates_no_table_sized_scratch(self):
        rows = np.arange(0, 30000, 300)     # 100 rows of a 30000 x 64 table
        table = T.Tensor(np.ones((30000, 64), np.float32), requires_grad=True)
        opt = Adam([("embedding", table)], TrainConfig())
        table.grad = np.ones_like(table.data)
        table.grad_rows = rows
        tracemalloc.start()
        try:
            opt.step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table.data.nbytes / 10
        assert (table.data[rows] != 1).all() and (table.data[1:300] == 1).all()


def dense_adam_step(optimizer):
    """Adam.step before the lazy rule: the ten operations on every element."""
    b1, b2 = training_mod.ADAM_BETA1, training_mod.ADAM_BETA2
    optimizer.step_count += 1
    c1 = 1 - b1 ** optimizer.step_count
    c2 = 1 - b2 ** optimizer.step_count
    for (_, p), m, v in zip(optimizer.named_params, optimizer.m, optimizer.v):
        g = p.grad
        m *= b1
        m += g * (1 - b1)
        v *= b2
        v += (g * (1 - b2)) * g
        denom = np.sqrt(v / c2)
        denom += training_mod.ADAM_EPS
        step = m / c1
        step *= optimizer.config.learning_rate
        p.data -= step / denom
        p.grad = p.grad_rows = None


class TestLazyAdam:
    def table_and_optimizer(self):
        rng = np.random.default_rng(0)
        table = T.Tensor(rng.normal(size=(6, 3)).astype(np.float32), requires_grad=True)
        opt = Adam([("embedding", table)], TrainConfig(learning_rate=0.01))
        # two dense steps leave a nonzero m and v in every row
        for _ in range(2):
            table.grad = rng.normal(size=table.data.shape).astype(np.float32)
            opt.step()
        return table, opt

    def dense_copy(self, table, opt):
        """An Adam over a copy of table at opt's state; its gradient will not
        come from a lookup, so it steps dense."""
        reference = Adam([("embedding", T.Tensor(table.data.copy(), requires_grad=True))],
                         opt.config)
        reference.step_count = opt.step_count
        reference.m[0][...], reference.v[0][...] = opt.m[0], opt.v[0]
        return reference

    def lookup_loss(self, table, ids):
        out = T.embedding_lookup(table, ids)
        w = T.Tensor(np.linspace(-1, 1, out.data.size, dtype=np.float32).reshape(-1, 1))
        return T.reshape(T.matmul(T.reshape(out, (1, out.data.size)), w), ())

    def test_rows_no_lookup_read_keep_p_m_and_v(self):
        table, opt = self.table_and_optimizer()
        before = [a.copy() for a in (table.data, opt.m[0], opt.v[0])]
        T.backward(self.lookup_loss(table, [[4, 1], [1, 4]]))
        assert table.grad.shape == table.data.shape     # still dense for its readers
        assert table.grad_rows.tolist() == [1, 4]
        opt.step()
        assert table.grad is None and table.grad_rows is None
        for after, old in zip((table.data, opt.m[0], opt.v[0]), before):
            assert after[[0, 2, 3, 5]].tobytes() == old[[0, 2, 3, 5]].tobytes()
            assert not np.array_equal(after[[1, 4]], old[[1, 4]])

    def test_read_rows_step_as_dense_adam_does(self):
        table, opt = self.table_and_optimizer()
        reference = self.dense_copy(table, opt)
        T.backward(self.lookup_loss(table, [3, 0, 3, 3]))
        reference.named_params[0][1].grad = table.grad.copy()
        opt.step()
        reference.step()
        for got, expected in ((table.data, reference.named_params[0][1].data),
                              (opt.m[0], reference.m[0]), (opt.v[0], reference.v[0])):
            assert got[[0, 3]].tobytes() == expected[[0, 3]].tobytes()
        assert opt.step_count == reference.step_count

    def test_a_table_two_lookups_read_steps_as_dense_adam_does(self):
        table, opt = self.table_and_optimizer()
        reference = self.dense_copy(table, opt)
        # rows 0, 3 and 5 hold nonzero moments and neither lookup reads them
        T.backward(T.add(self.lookup_loss(table, [1, 4]), self.lookup_loss(table, [4, 2])))
        assert table.grad_rows is None
        reference.named_params[0][1].grad = table.grad.copy()
        opt.step()
        reference.step()
        for got, expected in ((table.data, reference.named_params[0][1].data),
                              (opt.m[0], reference.m[0]), (opt.v[0], reference.v[0])):
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("lookup_first", [True, False])
    def test_any_other_gradient_makes_the_step_dense(self, lookup_first):
        table, opt = self.table_and_optimizer()
        m_before = opt.m[0].copy()
        lookup = self.lookup_loss(table, [2])
        dense = T.reshape(T.matmul(T.Tensor(np.ones((1, 6), np.float32)), table), (3,))
        dense = T.reshape(T.matmul(T.reshape(dense, (1, 3)),
                                   T.Tensor(np.ones((3, 1), np.float32))), ())
        T.backward(T.add(lookup, dense) if lookup_first else T.add(dense, lookup))
        assert table.grad_rows is None
        opt.step()
        # every row's moments moved, not only row 2's
        assert (opt.m[0] != m_before).all(axis=1).all()

    def test_zero_grads_clears_the_rows(self):
        table, _ = self.table_and_optimizer()
        T.backward(self.lookup_loss(table, [5]))
        T.zero_grads([table])
        assert table.grad is None and table.grad_rows is None

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_one_batch_epochs_train_the_bytes_of_dense_adam(self, kind, monkeypatch):
        # one batch holds every document, so every row with moments is read
        # at every step
        pairs = text_mod.load_dataset(str(BUNDLED))
        vocab = text_mod.build_vocab(pairs, min_frequency=1)
        grids = text_mod.encode_split(pairs, vocab, 2, 10)
        config = SIRMConfig(vocab_size=len(vocab), m=2, n=10)
        tc = TrainConfig(max_epochs=4, early_stop_patience=4, batch_size=len(grids))
        step, lazy_steps = Adam.step, []

        def spied(optimizer):
            lazy_steps.append(dict(optimizer.named_params)["embedding"].grad_rows is not None)
            step(optimizer)

        monkeypatch.setattr(Adam, "step", spied)
        lazy, _ = train(grids, grids, kind, config, tc)
        assert lazy_steps == [True] * 4
        monkeypatch.setattr(Adam, "step", dense_adam_step)
        dense, _ = train(grids, grids, kind, config, tc)
        for (name, got), (_, expected) in zip(lazy.named_tensors(), dense.named_tensors()):
            assert got.data.tobytes() == expected.data.tobytes(), name


class TestTrainLoop:
    def test_patience_zero_runs_one_epoch(self):
        config = toy_config()
        grids = toy_grids(config)
        tc = TrainConfig(max_epochs=10, early_stop_patience=0, batch_size=4, seed=0)
        _, history = train(grids, grids, "sirm", config, tc)
        assert len(history) == 1

    def test_empty_split_rejected(self):
        with pytest.raises(DataFormatError, match="training split is empty"):
            train([], [], "sirm", toy_config(), TrainConfig())

    def test_empty_dev_split_rejected_before_any_step(self, monkeypatch):
        def no_step(self):
            raise AssertionError("train took a step before checking the dev split")

        monkeypatch.setattr(Adam, "step", no_step)
        config = toy_config()
        with pytest.raises(DataFormatError, match="dev split is empty"):
            train(toy_grids(config), toy_grids(config)[:0], "sirm", config, TrainConfig())

    def test_seed_determinism(self):
        config = toy_config()
        grids = toy_grids(config)
        tc = TrainConfig(max_epochs=3, early_stop_patience=5, batch_size=4, seed=9)
        p1, h1 = train(grids, grids, "sirm", config, tc)
        p2, h2 = train(grids, grids, "sirm", config, tc)
        for (n1, t1), (_n2, t2) in zip(p1.named_tensors(), p2.named_tensors()):
            assert np.array_equal(t1.data, t2.data), n1
        timings = {"train_seconds", "dev_seconds", "wall_seconds"}
        strip = lambda h: [{k: v for k, v in rec.items() if k not in timings} for rec in h]
        assert strip(h1) == strip(h2)

    def test_lambda_runs_share_initial_loss_then_diverge(self):
        grids = toy_grids(toy_config())
        records = {}
        for lam in (0.0, 0.5):
            config = toy_config(lambda_adv=lam)
            tc = TrainConfig(max_epochs=3, early_stop_patience=10,
                             batch_size=len(grids), seed=1, learning_rate=0.05)
            _, history = train(grids, grids, "sirm", config, tc)
            records[lam] = history
        # identical initial forward loss (first batch computed before any step)
        assert records[0.0][0]["train_loss"] == records[0.5][0]["train_loss"]
        assert records[0.0][-1]["train_loss"] != records[0.5][-1]["train_loss"]

    def test_divergence_aborts_with_batch_index(self, monkeypatch):
        config = toy_config()
        grids = toy_grids(config)

        def exploding(y_prime, y_dprime, y):
            loss = T.Tensor(np.array(np.inf), requires_grad=True)
            return loss, loss

        monkeypatch.setattr(training_mod, "heads_loss", exploding)
        with pytest.raises(TrainingError, match="batch 0"):
            train(grids, grids, "sirm", config, TrainConfig(max_epochs=1))

    def test_best_checkpoint_not_worse_than_any_epoch(self):
        config = toy_config()
        grids = toy_grids(config, count=12, seed=5)
        tc = TrainConfig(max_epochs=8, early_stop_patience=8, batch_size=4,
                         seed=2, learning_rate=0.02)
        params, history = train(grids, grids, "sirm", config, tc)
        final_report, _ = evaluate("sirm", params, config, grids)
        assert final_report["macro_f1"] >= max(h["dev_macro_f1"] for h in history) - 1e-12

    def test_returns_the_parameters_of_the_best_epoch(self):
        config = toy_config()
        grids = toy_grids(config, count=12, seed=5)
        tc = TrainConfig(max_epochs=12, early_stop_patience=2, batch_size=4,
                         seed=1, learning_rate=0.05)
        params, history = train(grids, grids, "sirm", config, tc)
        scores = [h["dev_macro_f1"] for h in history]
        best = scores.index(max(scores))
        assert best < len(history) - 1     # training went on past the best epoch
        tc.max_epochs = best + 1
        at_best, _ = train(grids, grids, "sirm", config, tc)
        for (name, got), (_, expected) in zip(params.named_tensors(),
                                              at_best.named_tensors()):
            assert np.array_equal(got.data, expected.data), name

    def test_history_file_written(self, tmp_path):
        config = toy_config()
        grids = toy_grids(config)
        path = tmp_path / "history.jsonl"
        _, history = train(grids, grids, "sirm", config,
                           TrainConfig(max_epochs=2, early_stop_patience=5),
                           history_path=str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines == history
        for key in ("epoch", "train_loss", "dev_acc", "dev_f1", "dev_macro_f1",
                    "train_seconds", "dev_seconds", "wall_seconds"):
            assert key in lines[0]
        for r in lines:
            assert 0 <= r["train_seconds"] <= r["wall_seconds"]
            assert r["train_seconds"] + r["dev_seconds"] == pytest.approx(r["wall_seconds"])

    def test_epoch_times_survive_a_wall_clock_that_runs_backwards(self, monkeypatch):
        config = toy_config()
        grids = toy_grids(config)
        ticks = itertools.count()
        monkeypatch.setattr(time, "time", lambda: 1e9 - 60 * next(ticks))
        _, history = train(grids, grids, "sirm", config,
                           TrainConfig(max_epochs=3, early_stop_patience=5))
        assert len(history) == 3
        assert all(record["wall_seconds"] >= 0 for record in history)

    def test_nbow_trains_with_same_loop(self):
        config = toy_config()
        grids = toy_grids(config)
        params, history = train(grids, grids, "nbow", config,
                                TrainConfig(max_epochs=2, early_stop_patience=5))
        assert params.embedding.data.shape == (config.vocab_size, config.d_e)
        assert len(history) == 2


    def test_nbow_train_bce_is_its_train_loss(self):
        config = toy_config()
        grids = toy_grids(config)
        _, history = train(grids, grids, "nbow", config,
                           TrainConfig(max_epochs=3, early_stop_patience=5, batch_size=4))
        assert [r["train_bce"] for r in history] == [r["train_loss"] for r in history]

    def test_sirm_train_bce_is_the_main_head_bce_before_the_first_step(self):
        config = toy_config(lambda_adv=0.5)
        grids = toy_grids(config)
        tc = TrainConfig(max_epochs=1, batch_size=len(grids), seed=3)
        _, history = train(grids, grids, "sirm", config, tc)
        # the one batch of epoch 0, in train's shuffled order, on the seeded model
        order = np.arange(len(grids))
        np.random.default_rng(tc.seed).shuffle(order)
        batch = grids[order]
        params = MODELS["sirm"][0](config, seeded_make(tc.seed))
        with T.no_grad():
            trace = sirm_forward(batch, params, config)
            bce = T.bce_loss(trace.y_prime, batch.label).item()
            loss = sirm_loss(trace, batch.label).item()
        assert history[0]["train_bce"] == pytest.approx(bce, rel=1e-12)
        assert history[0]["train_loss"] == pytest.approx(loss, rel=1e-12)

    def test_nbow_rejects_a_label_other_than_0_or_1(self):
        config = toy_config()
        grids = toy_grids(config)
        grids.label[3] = 2
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            train(grids, grids, "nbow", config, TrainConfig(max_epochs=1))

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_no_graph_node_outlives_backward_into_the_adam_step(self, kind, monkeypatch):
        config = toy_config()
        grids = toy_grids(config)
        step, alive = Adam.step, []

        def counted(optimizer):
            alive.append(sum(isinstance(o, T.Tensor) and bool(o._parents)
                             for o in gc.get_objects()))
            step(optimizer)

        monkeypatch.setattr(Adam, "step", counted)
        gc.collect()
        train(grids, grids, kind, config,
              TrainConfig(max_epochs=2, early_stop_patience=5, batch_size=3))
        assert alive == [0] * 6

    def test_sirm_train_loss_holds_the_bce_plus_a_non_negative_ce(self):
        config = toy_config()
        grids = toy_grids(config, count=12, seed=5)
        _, history = train(grids, grids, "sirm", config,
                           TrainConfig(max_epochs=4, early_stop_patience=5, batch_size=4))
        assert all(r["train_loss"] - r["train_bce"] >= 0 for r in history)


# One warm-up step, then 20 counted ones, of the training loop at the paper
# grid; prints the minor page faults of the counted steps.
FAULTS_SCRIPT = """
import resource
import numpy as np
from sirm import model, training
from sirm.text import PAD_ID, ParagraphGrid

rng = np.random.default_rng(0)
ids = rng.integers(2, 2000, size=(16 * 21, 8, 32))
ids[rng.random(ids.shape) < 0.3] = PAD_ID
grids = ParagraphGrid(ids, rng.integers(0, 2, size=len(ids)))
faults = []
step = training.Adam.step

def counted_step(optimizer):
    step(optimizer)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

training.Adam.step = counted_step
training.train(grids, grids[:16], "sirm", model.SIRMConfig(vocab_size=2000),
               training.TrainConfig(batch_size=16, max_epochs=1))
assert len(faults) == 21
print(faults[-1] - faults[0])
"""
# At glibc's default thresholds, which unmap or trim freed blocks, this loop
# faulted 3666 to 3669 pages in 5 runs while each dense connection was seven
# graph nodes and a step's graph lived on into the next step's forward, and
# 46268 with today's graph; keeping freed heap mapped leaves 122 to 124.
MAX_STEP_FAULTS = 300


@pytest.mark.skipif(not T._HEAP_KEPT_MAPPED, reason="allocator policy is set on Linux/glibc only")
def test_training_steps_reuse_freed_pages():
    src = str(Path(model_mod.__file__).resolve().parent.parent)
    # a pinned environment: the fault count moved with the caller's environment size
    env = {"PATH": os.environ.get("PATH", ""),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    assert int(proc.stdout) < MAX_STEP_FAULTS


def dev_scores(monkeypatch, scores):
    """Make train's dev pass report the given macro-F1 values, one per epoch."""
    reports = iter(scores)
    monkeypatch.setattr(training_mod, "evaluate", lambda *args: (
        {"accuracy": 0.5, "f1": 0.5, "macro_f1": next(reports)}, []))


class TestBestEpoch:
    def test_one_record_is_epoch_zero(self):
        assert best_epoch([{"dev_macro_f1": 0.0}]) == 0

    def test_a_tie_keeps_the_first_epoch(self):
        history = [{"dev_macro_f1": f1} for f1 in (0.5, 0.7, 0.6, 0.7)]
        assert best_epoch(history) == 1

    def test_a_later_tie_does_not_reset_patience(self, monkeypatch):
        config = toy_config()
        grids = toy_grids(config)
        tc = TrainConfig(max_epochs=2, early_stop_patience=2, batch_size=4)
        dev_scores(monkeypatch, [0.5, 0.7])
        at_best, _ = train(grids, grids, "sirm", config, tc)
        dev_scores(monkeypatch, [0.5, 0.7, 0.7, 0.6, 0.9])
        tc.max_epochs = 5
        params, history = train(grids, grids, "sirm", config, tc)
        assert len(history) == 4    # epoch 3 is two past epoch 1, the tie at 2 aside
        for (name, got), (_, expected) in zip(params.named_tensors(),
                                              at_best.named_tensors()):
            assert np.array_equal(got.data, expected.data), name

    def test_equal_dev_scores_from_different_counts_tie(self, monkeypatch):
        # both predictions score macro-F1 5/9 on these labels; rounding
        # precision, recall and F1 in turn once read the second one higher
        labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]
        first, second = [0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1], [0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1]
        reports = iter([first, second, first])
        monkeypatch.setattr(training_mod, "evaluate", lambda *args: (
            metrics(next(reports), labels), []))
        config = toy_config()
        grids = toy_grids(config)
        tc = TrainConfig(max_epochs=3, early_stop_patience=1, batch_size=4)
        params, history = train(grids, grids, "sirm", config, tc)
        assert len(history) == 2 and best_epoch(history) == 0
        reports = iter([first])
        tc.max_epochs = 1
        at_first, _ = train(grids, grids, "sirm", config, tc)
        for (name, got), (_, expected) in zip(params.named_tensors(),
                                              at_first.named_tensors()):
            assert np.array_equal(got.data, expected.data), name


def test_split_dev_is_seeded_and_disjoint():
    config = toy_config()
    grids = toy_grids(config, count=20)
    train_a, dev_a = split_dev(grids, seed=3)
    train_b, dev_b = split_dev(grids, seed=3)
    assert len(dev_a) == 2 and len(train_a) == 18
    assert np.array_equal(dev_a.token_ids, dev_b.token_ids)
    assert not ({doc.token_ids.tobytes() for doc in dev_a}
                & {doc.token_ids.tobytes() for doc in train_a})


def test_split_dev_needs_two_examples():
    grids = toy_grids(toy_config(), count=1)
    with pytest.raises(DataFormatError, match="at least 2"):
        split_dev(grids)
    train_part, dev_part = split_dev(toy_grids(toy_config(), count=2))
    assert len(train_part) == len(dev_part) == 1


@settings(max_examples=50, deadline=None)
@given(count=st.integers(2, 60), seed=st.integers(0, 2**16), data=st.data())
def test_split_dev_partitions_rows_in_file_order(count, seed, data):
    labels = data.draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
    # each document's ids name its row, so a split part shows where its rows came from
    grids = ParagraphGrid(np.arange(count).repeat(6).reshape(count, 2, 3) + 2,
                          np.array(labels, dtype=np.int64))
    train_part, dev_part = split_dev(grids, seed=seed)
    rows = [part.token_ids[:, 0, 0] - 2 for part in (train_part, dev_part)]
    assert len(dev_part) == max(1, round(0.1 * count))
    assert sorted([*rows[0], *rows[1]]) == list(range(count))
    for part, part_rows in zip((train_part, dev_part), rows):
        assert isinstance(part, ParagraphGrid)
        assert np.all(np.diff(part_rows) > 0)
        assert part.label.dtype == np.int64
        assert part.label.tolist() == [labels[row] for row in part_rows]


class TestCheckpoint:
    def _setup(self, tmp_path):
        config = toy_config()
        params = init_sirm_params(config, seed=6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, "sirm", config, params)
        return config, params, path

    def test_save_load_save_byte_identical(self, tmp_path):
        config, params, path = self._setup(tmp_path)
        _, config2, params2 = load_checkpoint(path)
        assert serialize_checkpoint("sirm", config2, params2) == path.read_bytes()

    def test_unknown_kind_rejected_before_writing(self, tmp_path):
        config = toy_config()
        path = tmp_path / "model.ckpt"
        with pytest.raises(ValueError, match="unknown model kind 'bogus'"):
            save_checkpoint(path, "bogus", config, init_sirm_params(config, seed=6))
        assert not path.exists()

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_every_model_kind_round_trips(self, tmp_path, kind):
        config = toy_config()
        build, _ = MODELS[kind]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, kind, config, build(config, seeded_make(6)))
        kind2, config2, loaded = load_checkpoint(path)
        assert (kind2, config2) == (kind, config)
        assert serialize_checkpoint(kind2, config2, loaded) == path.read_bytes()
        grids = toy_grids(config)
        _, rows = evaluate(kind, build(config, seeded_make(6)), config, grids)
        assert evaluate(kind2, loaded, config2, grids)[1] == rows

    @pytest.mark.parametrize("kind, init", [("sirm", init_sirm_params),
                                            ("nbow", init_nbow_params)])
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch, kind, init):
        config = toy_config()
        params = init(config, seed=6)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, kind, config, params)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random numbers")

        monkeypatch.setattr(model_mod.np.random, "default_rng", no_draw)
        _, _, loaded = load_checkpoint(path)
        for (name, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
            assert np.array_equal(a.data, b.data), name
            assert b.requires_grad, name

    def test_roundtrip_bit_exact(self, tmp_path):
        config, params, path = self._setup(tmp_path)
        _, _, loaded = load_checkpoint(path)
        for (name, a), (_, b) in zip(params.named_tensors(), loaded.named_tensors()):
            assert np.array_equal(a.data, b.data), name

    def test_loaded_model_reproduces_outputs_exactly(self, tmp_path):
        config, params, path = self._setup(tmp_path)
        kind, config2, loaded = load_checkpoint(path)
        grid = toy_grids(config, count=1)[0]
        y1 = sirm_forward(grid, params, config).y_prime.data
        y2 = sirm_forward(grid, loaded, config2).y_prime.data
        assert np.array_equal(y1, y2)

    def test_earlier_format_header_loads_with_same_outputs(self, tmp_path):
        config, params, path = self._setup(tmp_path)
        blob = path.read_bytes()
        old = tmp_path / "old.ckpt"
        old.write_bytes(with_parent_header(blob, False))
        assert b'"mask_aware_pooling": false' in old.read_bytes()
        _, config2, loaded = load_checkpoint(old)
        assert config2 == config
        for grid in toy_grids(config, count=4):
            assert np.array_equal(sirm_forward(grid, params, config).y_prime.data,
                                  sirm_forward(grid, loaded, config2).y_prime.data)
        assert serialize_checkpoint("sirm", config2, loaded) == blob

    def test_mask_aware_header_rejected(self, tmp_path):
        _, _, path = self._setup(tmp_path)
        path.write_bytes(with_parent_header(path.read_bytes(), True))
        with pytest.raises(CheckpointError, match="mask_aware_pooling"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, value):
        config, params, path = self._setup(tmp_path)
        params.sent_dense[0].data[1, 2] = value
        save_checkpoint(path, "sirm", config, params)
        with pytest.raises(CheckpointError, match="'sent_dense.weight'.*non-finite"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        _, _, path = self._setup(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        _, _, path = self._setup(tmp_path)
        path.write_bytes(with_first_record(path.read_bytes(),
                                           lambda name, dims: (b"\xff" + name[1:], dims)))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: corrupt tensor record name")):
            load_checkpoint(path)

    def test_dims_whose_product_wraps_int64_rejected(self, tmp_path):
        # 0xFFFFFFFF squared wraps to 1 - 2**33 in int64 arithmetic
        _, _, path = self._setup(tmp_path)
        path.write_bytes(with_first_record(path.read_bytes(),
                                           lambda name, dims: (name, (2**32 - 1,) * 2)))
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: truncated checkpoint file")):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTSIRM" + b"\x00" * 64)
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        config, params, path = self._setup(tmp_path)
        blob = path.read_bytes()
        name = b"adv_head.bias"
        record = (struct.pack("<I", len(name)) + name + struct.pack("<II", 1, 2)
                  + np.zeros(2, dtype="<f4").tobytes())
        assert blob.endswith(record[:-8] + params.adv_head[1].data.astype("<f4").tobytes())
        path.write_bytes(blob + record)
        with pytest.raises(CheckpointError, match="adv_head.bias.*twice"):
            load_checkpoint(path)

    @pytest.mark.parametrize("after", ["embedding", "src_filters.1.bias", "sent_dense.weight"])
    def test_repeated_record_mid_file_rejected(self, tmp_path, after):
        _, _, path = self._setup(tmp_path)
        head, records = split_records(path.read_bytes())
        at = [name for name, _ in records].index(after) + 1
        records.insert(at, records[at - 1])     # the same record twice in a row
        path.write_bytes(head + b"".join(record for _, record in records))
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: tensor {after!r} appears twice")):
            load_checkpoint(path)

    @pytest.mark.parametrize("first, second", [("sent_neighbor.", "sent_dense."),
                                               ("out_head.", "adv_head."),
                                               ("embedding", "src_filters.1.weight")])
    def test_records_out_of_builder_order_rejected(self, tmp_path, first, second):
        # every record stays valid and present; two adjacent groups trade places
        _, _, path = self._setup(tmp_path)
        head, records = split_records(path.read_bytes())
        a = [record for record in records if record[0].startswith(first)]
        b = [record for record in records if record[0].startswith(second)]
        at = records.index(a[0])
        end = at + len(a) + len(b)
        assert records[at:end] == a + b
        records[at:end] = b + a
        path.write_bytes(head + b"".join(record for _, record in records))
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: tensor names do not match the config")):
            load_checkpoint(path)

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_loaded_tensors_own_one_writable_copy(self, tmp_path, kind):
        config = toy_config()
        build, _ = MODELS[kind]
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, kind, config, build(config, seeded_make(6)))
        blob = path.read_bytes()
        _, _, loaded = load_checkpoint(path)
        for i, (name, t) in enumerate(loaded.named_tensors()):
            flags = t.data.flags
            assert t.data.dtype == np.float32, name
            assert flags.c_contiguous and flags.aligned and flags.writeable, name
            assert flags.owndata and t.data.base is None, name
            t.data[...] = i
        assert path.read_bytes() == blob
        assert all(np.all(t.data == i) for i, t in enumerate(loaded.tensors()))

    def test_extra_tensor_rejected(self, tmp_path):
        config, params, path = self._setup(tmp_path)
        name = b"extra.bias"
        path.write_bytes(path.read_bytes() + struct.pack("<I", len(name)) + name
                         + struct.pack("<II", 1, 2) + np.zeros(2, dtype="<f4").tobytes())
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: tensor names do not match the config")):
            load_checkpoint(path)

    def test_missing_tensor_rejected(self, tmp_path):
        config, params, path = self._setup(tmp_path)
        path.write_bytes(serialize_checkpoint("sirm", toy_config(src_windows=(1, 2, 3)), params))
        with pytest.raises(CheckpointError, match=re.escape(
                f"{path}: tensor names do not match the config")):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        config, params, path = self._setup(tmp_path)
        other = toy_config(d_c=3)
        blob = serialize_checkpoint("sirm", other, params)
        path.write_bytes(blob)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    for field, value in (("max_epochs", 0), ("early_stop_patience", -1), ("seed", -1)):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
    for field, value in (("learning_rate", "0.1"), ("batch_size", True), ("seed", 1.0),
                         ("max_epochs", None), ("learning_rate", False),
                         ("learning_rate", float("inf"))):
        with pytest.raises(ConfigError, match=f"{field} must be an? "):
            TrainConfig(**{field: value})
    assert TrainConfig(learning_rate=np.float32(0.5)).learning_rate == 0.5
