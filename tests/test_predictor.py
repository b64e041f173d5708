import numpy as np
import pytest

from shiftscope.data import Column, FeatureSchema, TabularDataset
from shiftscope.errors import MalformedRow, RowCountMismatch, SchemaMismatch
from shiftscope.predictor import (
    GRAD_TOL,
    LogisticModel,
    _softmax,
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
        # lambda ~ 1e6 pins every non-intercept coefficient near 0, while the
        # unregularized intercept is free: Newton steps scale each direction
        # by its own curvature, so the intercept still reaches the log prior
        model = train_logistic(small_base, l2_lambda=1e6)
        assert model.converged
        assert np.abs(model.coef[:-1]).max() < 1e-4
        probs = predict(model, small_base).pred_probs
        prior = np.array([np.mean(small_base.labels == y) for y in (1, 2)])
        assert np.max(np.abs(probs - prior)) < 1e-6
        assert np.ptp(probs, axis=0).max() < 1e-4  # per-row variation gone

    def test_symmetric_set_and_its_shuffled_copy_converge_alike(self):
        # classes 1 and 2 share row [2] exactly, so only the ridge curves the
        # direction that tells them apart; gradient descent crawled along it
        # and stopped wherever rounding let it, still reporting converged
        schema = FeatureSchema(columns=(Column("f", "discrete", 3),), label_cardinality=3)
        ds = TabularDataset(schema=schema, rows=[[2], [2], [3]], labels=[2, 1, 3])
        order = np.random.default_rng(0).permutation(6)
        twice = TabularDataset(schema=schema, rows=np.repeat(ds.rows, 2, axis=0)[order],
                               labels=np.repeat(ds.labels, 2)[order])
        fits = [train_logistic(ds), train_logistic(twice)]
        for model, data in zip(fits, (ds, twice)):
            assert model.converged
            x = design_matrix(schema, data.rows)
            _, grad = logistic_loss_grad(model.coef.reshape(-1), x, data.labels - 1,
                                         np.ones(data.n), 1e-4)
            assert np.linalg.norm(grad) <= GRAD_TOL
        np.testing.assert_allclose(fits[0].coef, fits[1].coef, rtol=0, atol=1e-10)

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
                                         np.ones(small_base.n), 1e-4)
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
                              converged=True, iterations=0)
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


def _row_wise_softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _logits(L):
    rng = np.random.default_rng(L)
    return rng.standard_normal((3000, L)) * rng.uniform(0.1, 30.0, (3000, 1))


@pytest.mark.parametrize("L", range(2, 8))
def test_softmax_has_the_bits_of_the_row_wise_formula(L):
    """Below 8 columns the column-loop softmax sums in numpy's row order, so
    it matches the row-wise reductions it replaced bit for bit."""
    z = _logits(L)
    assert np.array_equal(_softmax(z), _row_wise_softmax(z))


@pytest.mark.parametrize("L", range(8, 13))
def test_wide_softmax_differs_from_the_row_wise_formula_in_rounding_only(L):
    """From 8 columns numpy sums a row pairwise, so the column loop may differ
    in the last bits: by no more than the rounding of a sum of L terms."""
    z = _logits(L)
    got = _softmax(z)
    ulp = np.finfo(float).eps
    np.testing.assert_allclose(got, _row_wise_softmax(z), rtol=L * ulp, atol=0)
    np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=L * ulp)
