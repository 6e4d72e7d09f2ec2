import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sirm import tensor as T
from sirm import evaluation
from sirm.evaluation import evaluate, metrics, write_predictions
from sirm.model import (MODELS, SIRMConfig, init_nbow_params,
                        init_sirm_params, nbow_forward, seeded_make)
from sirm.text import DataFormatError, ParagraphGrid

from grids import stack_documents


class TestMetrics:
    def test_perfect(self):
        out = metrics([1, 0, 1], [1, 0, 1])
        assert out == {"accuracy": 1.0, "f1": 1.0, "macro_f1": 1.0}

    def test_hand_enumerated_half(self):
        out = metrics([1, 1, 0, 0], [1, 0, 1, 0])
        assert out["accuracy"] == 0.5
        assert out["f1"] == 0.5
        assert out["macro_f1"] == 0.5

    def test_zero_denominator_rule(self):
        out = metrics([1, 1], [0, 0])
        assert out["f1"] == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            metrics([1], [1, 0])

    def test_empty_split_is_data_error(self):
        with pytest.raises(DataFormatError, match="empty split"):
            metrics([], [])

    def test_numpy_arrays(self):
        assert metrics(np.array([0, 1]), np.array([0, 1]))["macro_f1"] == 1.0
        with pytest.raises(DataFormatError, match="empty split"):
            metrics(np.array([]), np.array([]))

    def test_gold_label_other_than_0_or_1_rejected(self):
        with pytest.raises(ValueError, match=r"0 or 1, got \[2\]"):
            metrics([1, 0, 1], [1, 2, 1])

    def test_constant_classifier_below_half_macro(self):
        out = metrics([1, 1, 1, 1], [1, 1, 0, 0])
        assert out["macro_f1"] < 0.5

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=30),
           st.randoms(use_true_random=False))
    def test_permutation_invariance(self, pairs, rng):
        preds, labels = zip(*pairs)
        base = metrics(list(preds), list(labels))
        shuffled = list(pairs)
        rng.shuffle(shuffled)
        p2, l2 = zip(*shuffled)
        assert metrics(list(p2), list(l2)) == base

    def test_equal_scores_from_different_counts_are_equal_floats(self):
        labels = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0]
        first = metrics([0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1], labels)
        second = metrics([0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 1], labels)
        assert first["macro_f1"] == second["macro_f1"] == float(Fraction(5, 9))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=1, max_size=40))
    def test_every_score_is_its_exact_fraction_rounded_once(self, pairs):
        preds, labels = zip(*pairs)

        def f1(c):
            tp = sum(p == y == c for p, y in pairs)
            total = preds.count(c) + labels.count(c)
            return Fraction(2 * tp, total) if total else Fraction(0)

        correct = sum(p == y for p, y in pairs)
        assert metrics(list(preds), list(labels)) == {
            "accuracy": float(Fraction(correct, len(pairs))),
            "f1": float(f1(1)),
            "macro_f1": float((f1(0) + f1(1)) / 2),
        }


def make_grid(ids_row, vocab_size=10):
    return ParagraphGrid(np.array([ids_row]), label=1)


class TestNBOW:
    def test_zero_head_outputs_half(self):
        params = init_nbow_params(SIRMConfig(vocab_size=10, d_e=6), seed=0)
        params.head_w.data[:] = 0.0
        assert nbow_forward(make_grid([2, 3, 4, 0]), params).item() == 0.5

    def test_duplicate_tokens_do_not_change_output(self):
        params = init_nbow_params(SIRMConfig(vocab_size=10, d_e=6), seed=1,
                                  dtype=np.float64)
        single = nbow_forward(make_grid([2, 3, 0, 0, 0, 0]), params).item()
        doubled = nbow_forward(make_grid([2, 3, 2, 3, 0, 0]), params).item()
        assert doubled == pytest.approx(single, abs=1e-12)

    def test_token_order_invariance(self):
        params = init_nbow_params(SIRMConfig(vocab_size=10, d_e=6), seed=2,
                                  dtype=np.float64)
        a = nbow_forward(make_grid([2, 3, 4, 5]), params).item()
        b = nbow_forward(make_grid([5, 4, 3, 2]), params).item()
        assert b == pytest.approx(a, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(batch=st.integers(1, 5), m=st.integers(1, 3), n=st.integers(1, 5),
           seed=st.integers(0, 2**16), data=st.data())
    def test_stacked_batch_gradients_are_mean_of_single_grids(self, batch, m, n,
                                                              seed, data):
        labels = data.draw(st.lists(st.integers(0, 1), min_size=batch, max_size=batch))
        rng = np.random.default_rng(seed)
        params = init_nbow_params(SIRMConfig(vocab_size=10, d_e=4), seed=seed,
                                  dtype=np.float64)
        grids = []
        for y in labels:
            mask = np.arange(n) < rng.integers(0, n + 1, size=(m, 1))
            mask[0, 0] = True
            ids = np.where(mask, rng.integers(2, 10, size=(m, n)), 0)
            grids.append(ParagraphGrid(ids, label=y))

        def grads(grid):
            T.zero_grads(params.tensors())
            prob = nbow_forward(grid, params)
            T.backward(T.bce_loss(prob, grid.label))
            return prob, [t.grad.copy() for t in params.tensors()]

        prob, batched = grads(stack_documents(grids))
        assert prob.data.shape == (batch,)
        singles = [grads(grid)[1] for grid in grids]
        for i, got in enumerate(batched):
            expected = np.mean([single[i] for single in singles], axis=0)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


class TestEvaluate:
    @pytest.fixture
    def setup(self):
        config = SIRMConfig(vocab_size=12, d_e=4, d_c=2, src_windows=(1, 2),
                            d_ns=4, d_np=4, d_as=4, d_ap=4, m=2, n=3)
        params = init_sirm_params(config, seed=0)
        rng = np.random.default_rng(0)
        grids = stack_documents(ParagraphGrid(rng.integers(2, 12, size=(2, 3)), i % 2)
                                for i in range(6))
        return config, params, grids

    def test_empty_split_is_error_not_nan(self, setup):
        config, params, grids = setup
        with pytest.raises(DataFormatError, match="empty split"):
            evaluate("sirm", params, config, grids[:0])

    def test_threshold_one_predicts_all_negative(self, setup):
        config, params, grids = setup
        _, rows = evaluate("sirm", params, config, grids, threshold=1.0)
        assert all(pred == 0 for _, _, pred, _ in rows)

    @pytest.mark.parametrize("threshold", [-0.5, 1.5, -1e-9, 1 + 1e-9])
    def test_threshold_outside_unit_interval_rejected(self, setup, threshold):
        config, params, grids = setup
        with pytest.raises(ValueError, match=r"threshold must be in \[0, 1\]"):
            evaluate("sirm", params, config, grids, threshold=threshold)

    def test_threshold_zero_predicts_all_positive(self, setup):
        config, params, grids = setup
        _, rows = evaluate("sirm", params, config, grids, threshold=0.0)
        assert all(pred == 1 for _, _, pred, _ in rows)

    def test_deterministic_prediction_files(self, setup, tmp_path):
        config, params, grids = setup
        _, rows1 = evaluate("sirm", params, config, grids)
        _, rows2 = evaluate("sirm", params, config, grids)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_predictions(rows1, p1)
        write_predictions(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rows_follow_input_order(self, setup):
        config, params, grids = setup
        report, rows = evaluate("sirm", params, config, grids)
        assert [r[0] for r in rows] == list(range(len(grids)))
        assert report["n"] == len(grids)

    @pytest.mark.parametrize("model_kind", sorted(MODELS))
    def test_batched_rows_match_single_grid_calls(self, setup, model_kind,
                                                  monkeypatch):
        config, _, _ = setup
        monkeypatch.setattr(evaluation, "EVAL_CELLS", 16 * config.m * config.n)
        build, _ = MODELS[model_kind]
        params = build(config, seeded_make(0))
        rng = np.random.default_rng(1)
        grids = stack_documents(ParagraphGrid(rng.integers(2, 12, size=(2, 3)), i % 2)
                                for i in range(37))    # crosses two batch boundaries
        assert len(grids) > 2 * 16
        _, rows = evaluate(model_kind, params, config, grids)
        for idx, prob, pred, gold in rows:
            _, [(_, single, single_pred, single_gold)] = evaluate(
                model_kind, params, config, grids[idx:idx + 1])
            assert prob == pytest.approx(single, abs=1e-6)
            assert (pred, gold) == (single_pred, single_gold)

    @pytest.mark.parametrize("model_kind", sorted(MODELS))
    @pytest.mark.parametrize("m, n, docs, batches", [
        (8, 32, 33, [16, 16, 1]),       # the paper grid: 16 documents a forward
        (2, 10, 205, [204, 1]),         # the bundled grid
        (65, 64, 2, [1, 1]),            # more than EVAL_CELLS cells a document
    ])
    def test_cell_budget_sets_documents_per_forward(self, model_kind, m, n, docs,
                                                     batches, monkeypatch):
        config = SIRMConfig(vocab_size=12, d_e=4, d_c=2, src_windows=(1, 2),
                            d_ns=4, d_np=4, d_as=4, d_ap=4, m=m, n=n)
        build, heads = MODELS[model_kind]
        seen = []

        def counted(grid, params, config):
            seen.append(grid.token_ids.shape[0])
            return heads(grid, params, config)

        monkeypatch.setitem(MODELS, model_kind, (build, counted))
        ids = np.full((m, n), 2)
        grids = stack_documents(ParagraphGrid(ids, i % 2) for i in range(docs))
        report, rows = evaluate(model_kind, build(config, seeded_make(0)), config, grids)
        assert seen == batches
        assert report["n"] == len(rows) == docs

    @pytest.mark.parametrize("model_kind", sorted(MODELS))
    def test_label_other_than_0_or_1_rejected(self, setup, model_kind):
        config, _, grids = setup
        grids.label[2] = 2
        params = MODELS[model_kind][0](config, seeded_make(0))
        with pytest.raises(ValueError, match="0 or 1"):
            evaluate(model_kind, params, config, grids)

    @pytest.mark.parametrize("model_kind", sorted(MODELS))
    def test_label_other_than_0_or_1_rejected_before_any_forward(self, setup, model_kind,
                                                                 monkeypatch):
        config, _, grids = setup
        grids.label[-1] = 2
        build, _ = MODELS[model_kind]

        def heads(*args):
            raise AssertionError("evaluate ran a forward")

        monkeypatch.setitem(MODELS, model_kind, (build, heads))
        with pytest.raises(ValueError, match=r"gold labels must be 0 or 1, got \[2\]"):
            evaluate(model_kind, build(config, seeded_make(0)), config, grids)

    @pytest.mark.parametrize("model_kind", sorted(MODELS))
    def test_builds_no_loss(self, setup, model_kind, monkeypatch):
        config, _, grids = setup
        params = MODELS[model_kind][0](config, seeded_make(0))
        _, rows = evaluate(model_kind, params, config, grids)

        def no_loss(*args):
            raise AssertionError("evaluate built a loss")

        monkeypatch.setattr(T, "bce_loss", no_loss)
        monkeypatch.setattr(T, "nll_loss", no_loss)
        assert evaluate(model_kind, params, config, grids)[1] == rows

    def test_non_finite_probability_raises(self, setup):
        config, params, grids = setup
        params.out_head[1].data[:] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite"):
            evaluate("sirm", params, config, grids)

    def test_unknown_model_kind(self, setup):
        config, params, grids = setup
        with pytest.raises(ValueError):
            evaluate("mystery", params, config, grids)


def load_quality_script():
    path = Path(__file__).resolve().parent.parent / "scripts" / "quality.py"
    spec = importlib.util.spec_from_file_location("quality_script", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)), min_size=2, max_size=30)
       .filter(lambda pairs: len({y for _, y in pairs}) == 2))
def test_quality_script_auc_is_the_share_of_ordered_pairs(pairs):
    # probabilities on a coarse grid, so ties are common; a tie counts half
    roc_auc = load_quality_script().roc_auc
    probs = np.array([p / 4 for p, _ in pairs])
    labels = np.array([y for _, y in pairs])
    pos, neg = probs[labels == 1], probs[labels == 0]
    expected = ((pos[:, None] > neg).sum() + 0.5 * (pos[:, None] == neg).sum()) / (pos.size * neg.size)
    assert roc_auc(probs, labels) == pytest.approx(expected, abs=1e-12)
