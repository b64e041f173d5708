import numpy as np
import pytest

from shiftscope.data import Column, FeatureSchema, TabularDataset
from shiftscope.errors import MalformedRow, RowCountMismatch, SchemaMismatch
from shiftscope.predictor import (
    LogisticModel,
    design_matrix,
    load_predictions,
    logistic_loss_grad,
    predict,
    train_logistic,
)
from shiftscope.tabulate import distinct_first


def toy_separable():
    schema = FeatureSchema(
        columns=(Column("v", "continuous"),),
        label_cardinality=2,
    )
    rng = np.random.default_rng(0)
    x = np.concatenate([rng.uniform(-2, -1, 50), rng.uniform(1, 2, 50)])
    y = np.concatenate([np.ones(50, dtype=int), np.full(50, 2)])
    return TabularDataset(schema=schema, rows=x.reshape(-1, 1), labels=y)


class TestTraining:
    def test_separable_data_reaches_full_accuracy(self):
        ds = toy_separable()
        model = train_logistic(ds, l2_lambda=1e-4)
        scored = predict(model, ds)
        assert np.mean(scored.predictions == scored.labels) == 1.0

    def test_huge_regularization_collapses_to_intercept_only(self, small_base):
        # lambda ~ 1e6 caps stable gradient steps at ~2/lambda, so the
        # unregularized intercept cannot travel far from zero init in any
        # sane budget; the testable content is the coefficient collapse plus
        # near-prior predictions for this near-balanced base
        model = train_logistic(small_base, l2_lambda=1e6)
        assert not model.converged  # flagged, but the model is still usable
        assert np.abs(model.coef[:-1]).max() < 1e-4
        probs = predict(model, small_base).pred_probs
        prior = np.array([np.mean(small_base.labels == y) for y in (1, 2)])
        assert np.max(np.abs(probs - prior)) < 0.02
        assert np.ptp(probs, axis=0).max() < 1e-4  # per-row variation gone

    def test_gradient_matches_finite_differences(self, small_base):
        # the distinct (row, label) pairs of 200 rows, weighted by count
        rows, labels = small_base.rows[:200], small_base.labels[:200]
        first, inverse = distinct_first([*rows.T, labels])
        counts = np.bincount(inverse).astype(float)
        x = design_matrix(small_base.schema, rows[first])
        y_idx = labels[first] - 1
        rng = np.random.default_rng(1)
        w = rng.standard_normal(x.shape[1] * 2) * 0.5
        _, grad = logistic_loss_grad(w, x, y_idx, counts, 1e-3)
        h = 1e-6
        for k in range(w.size):
            wp, wm = w.copy(), w.copy()
            wp[k] += h
            wm[k] -= h
            lp, _ = logistic_loss_grad(wp, x, y_idx, counts, 1e-3)
            lm, _ = logistic_loss_grad(wm, x, y_idx, counts, 1e-3)
            # abs floor covers central-difference cancellation noise
            assert grad[k] == pytest.approx((lp - lm) / (2 * h), rel=1e-5, abs=1e-8)

    def test_loss_nonincreasing_in_budget(self, small_base):
        x = design_matrix(small_base.schema, small_base.rows)
        y_idx = small_base.labels - 1
        losses = []
        for iters in (1, 10, 100):
            model = train_logistic(small_base, max_iters=iters)
            loss, _ = logistic_loss_grad(model.coef.reshape(-1), x, y_idx,
                                         np.ones(small_base.n), model.l2_lambda)
            losses.append(loss)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestPredict:
    def test_probabilities_on_simplex(self, small_scored):
        sums = small_scored.pred_probs.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-9
        assert (small_scored.pred_probs >= 0).all()

    def test_deterministic(self, small_base, small_model):
        a = predict(small_model, small_base)
        b = predict(small_model, small_base)
        assert np.array_equal(a.predictions, b.predictions)
        assert np.array_equal(a.pred_probs, b.pred_probs)

    def test_exact_tie_picks_lowest_class(self, small_base):
        d = design_matrix(small_base.schema, small_base.rows).shape[1]
        model = LogisticModel(schema=small_base.schema, coef=np.zeros((d, 2)),
                              l2_lambda=0.0, converged=True, iterations=0)
        scored = predict(model, small_base)
        assert (scored.predictions == 1).all()

    def test_schema_mismatch(self, small_model):
        other = FeatureSchema(
            columns=(Column("z", "discrete", 3),), label_cardinality=2
        )
        ds = TabularDataset(schema=other, rows=[[1]])
        with pytest.raises(SchemaMismatch, match="column 1"):
            predict(small_model, ds)


class TestLoadPredictions:
    def _write(self, path, lines):
        path.write_text("\n".join(lines) + "\n")

    def test_valid_file(self, tmp_path, small_base):
        path = tmp_path / "preds.csv"
        rows = ["pred,p_1,p_2"] + ["1,0.75,0.25"] * small_base.n
        self._write(path, rows)
        ds = load_predictions(small_base, path)
        assert (ds.predictions == 1).all()
        assert np.allclose(ds.pred_probs, [0.75, 0.25])

    def test_row_count_mismatch(self, tmp_path, small_base):
        path = tmp_path / "preds.csv"
        self._write(path, ["pred,p_1,p_2"] + ["1,0.5,0.5"] * (small_base.n - 1))
        with pytest.raises(RowCountMismatch):
            load_predictions(small_base, path)

    def test_off_simplex_row_is_renormalized_with_warning(self, tmp_path, small_base):
        path = tmp_path / "preds.csv"
        self._write(path, ["pred,p_1,p_2"] + ["2,0.6,0.5"] * small_base.n)
        with pytest.warns(UserWarning, match="renormalized"):
            ds = load_predictions(small_base, path)
        assert np.allclose(ds.pred_probs[0], [6 / 11, 5 / 11])

    def test_negative_probability_rejected(self, tmp_path, small_base):
        path = tmp_path / "preds.csv"
        self._write(path, ["pred,p_1,p_2", "1,-0.1,1.1"])
        with pytest.raises(MalformedRow):
            load_predictions(small_base, path)
