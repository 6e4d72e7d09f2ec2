import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sirm.training as training_mod
from sirm import tensor as T
from sirm.model import SIRMConfig, init_sirm_params, sirm_forward
from sirm.text import DataFormatError, ParagraphGrid
from sirm.training import (Adam, CheckpointError, TrainConfig, TrainingError,
                           load_checkpoint, save_checkpoint,
                           serialize_checkpoint, split_dev, train)


def toy_config(**overrides):
    defaults = dict(vocab_size=12, d_e=4, d_c=4, src_windows=(1, 2), k=1,
                    d_ns=4, d_np=4, d_as=4, d_ap=4, m=2, n=3)
    defaults.update(overrides)
    return SIRMConfig(**defaults)


def with_parent_header(blob, mask_aware):
    """A checkpoint blob rewritten with the header of the earlier format,
    whose config always carried a mask_aware_pooling flag."""
    start = len(training_mod.MAGIC) + 4
    (length,) = struct.unpack("<I", blob[start - 4:start])
    header = json.loads(blob[start:start + length])
    header["config"]["mask_aware_pooling"] = mask_aware
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:start - 4] + struct.pack("<I", len(new)) + new + blob[start + length:]


def toy_grids(config, count=8, seed=0):
    rng = np.random.default_rng(seed)
    grids = []
    for i in range(count):
        ids = rng.integers(2, config.vocab_size, size=(config.m, config.n))
        grids.append(ParagraphGrid(ids, np.ones_like(ids, bool),
                                   np.ones(config.m, bool), label=i % 2))
    return grids


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
    @given(seed=st.integers(0, 2**16), lr=st.sampled_from([1e-3, 3e-2]),
           beta1=st.sampled_from([0.9, 0.5]), beta2=st.sampled_from([0.999, 0.9]))
    def test_in_place_step_bit_identical_to_out_of_place_formula(self, seed, lr,
                                                                 beta1, beta2):
        cfg = TrainConfig(learning_rate=lr, adam_beta1=beta1, adam_beta2=beta2)
        rng = np.random.default_rng(seed)
        shapes = [((3, 4), np.float32), ((5,), np.float64), ((2, 3, 2), np.float32),
                  ((1,), np.float64)]
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
            opt.step()
            # the out-of-place update this step replaced
            for i, g in enumerate(grads):
                m[i] = cfg.adam_beta1 * m[i] + (1 - cfg.adam_beta1) * g
                v[i] = cfg.adam_beta2 * v[i] + (1 - cfg.adam_beta2) * g * g
                m_hat = m[i] / (1 - cfg.adam_beta1 ** t)
                v_hat = v[i] / (1 - cfg.adam_beta2 ** t)
                expected[i] -= (cfg.learning_rate * m_hat /
                                (np.sqrt(v_hat) + cfg.adam_eps)).astype(expected[i].dtype)
            for p, e, mi, vi, om, ov in zip(params, expected, m, v, opt.m, opt.v):
                assert p.grad is None
                assert p.data.dtype == e.dtype and p.data.tobytes() == e.tobytes()
                assert om.tobytes() == mi.tobytes() and ov.tobytes() == vi.tobytes()


class TestTrainLoop:
    def test_patience_zero_runs_one_epoch(self):
        config = toy_config()
        grids = toy_grids(config)
        tc = TrainConfig(max_epochs=10, early_stop_patience=0, batch_size=4, seed=0)
        _, history = train(grids, grids, "sirm", config, tc)
        assert len(history) == 1

    def test_empty_split_rejected(self):
        with pytest.raises(TrainingError):
            train([], [], "sirm", toy_config(), TrainConfig())

    def test_seed_determinism(self):
        config = toy_config()
        grids = toy_grids(config)
        tc = TrainConfig(max_epochs=3, early_stop_patience=5, batch_size=4, seed=9)
        p1, h1 = train(grids, grids, "sirm", config, tc)
        p2, h2 = train(grids, grids, "sirm", config, tc)
        for (n1, t1), (_n2, t2) in zip(p1.named_tensors(), p2.named_tensors()):
            assert np.array_equal(t1.data, t2.data), n1
        strip = lambda h: [{k: v for k, v in rec.items() if k != "wall_seconds"}
                           for rec in h]
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

        def exploding(model_kind, grid, params, cfg):
            loss = T.Tensor(np.array(np.inf), requires_grad=True)
            loss._parents = ()
            return loss, np.inf

        monkeypatch.setattr(training_mod, "_batch_loss", exploding)
        with pytest.raises(TrainingError, match="batch 0"):
            train(grids, grids, "sirm", config, TrainConfig(max_epochs=1))

    def test_best_checkpoint_not_worse_than_any_epoch(self):
        config = toy_config()
        grids = toy_grids(config, count=12, seed=5)
        tc = TrainConfig(max_epochs=8, early_stop_patience=8, batch_size=4,
                         seed=2, learning_rate=0.02)
        params, history = train(grids, grids, "sirm", config, tc)
        from sirm.evaluation import evaluate
        final_report, _ = evaluate("sirm", params, config, grids)
        assert final_report["macro_f1"] >= max(h["dev_macro_f1"] for h in history) - 1e-12

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
                    "wall_seconds"):
            assert key in lines[0]

    def test_nbow_trains_with_same_loop(self):
        config = toy_config()
        grids = toy_grids(config)
        params, history = train(grids, grids, "nbow", config,
                                TrainConfig(max_epochs=2, early_stop_patience=5))
        assert params.embedding.data.shape == (config.vocab_size, config.d_e)
        assert len(history) == 2


def test_split_dev_is_seeded_and_disjoint():
    config = toy_config()
    grids = toy_grids(config, count=20)
    train_a, dev_a = split_dev(grids, seed=3)
    train_b, dev_b = split_dev(grids, seed=3)
    assert len(dev_a) == 2 and len(train_a) == 18
    assert [id(g) for g in dev_a] == [id(g) for g in dev_b]
    assert not set(id(g) for g in dev_a) & set(id(g) for g in train_a)


def test_split_dev_needs_two_examples():
    grids = toy_grids(toy_config(), count=1)
    with pytest.raises(DataFormatError, match="at least 2"):
        split_dev(grids)
    train_part, dev_part = split_dev(toy_grids(toy_config(), count=2))
    assert len(train_part) == len(dev_part) == 1


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
    with pytest.raises(ValueError):
        TrainConfig(adam_beta1=1.0)
    for field, value in (("max_epochs", 0), ("early_stop_patience", -1)):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})
