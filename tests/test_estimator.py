from fractions import Fraction

import numpy as np
import pytest

from shiftscope.data import Column, FeatureSchema, TabularDataset
from shiftscope.errors import MissingTruth
from shiftscope.estimator import (
    GroundTruth,
    Pair,
    estimate_gap,
    run_method,
    score_gap,
    score_weights,
    select_features,
    source_accuracy,
)
from shiftscope.sees_c import default_basis
from shiftscope.synth import stump, counterexample_fixture
from shiftscope.weights import BasisWeight, KernelWeight, ModelRatioWeight, TableWeight


def two_col_schema():
    return FeatureSchema(
        columns=(Column("x1", "discrete", 2), Column("x2", "discrete", 2)),
        label_cardinality=2,
    )


def unit_weight():
    return TableWeight(index_set=(), table={((), 1): 1.0, ((), 2): 1.0})


def dataset_matching_counterexample_source():
    """200 rows whose empirical distribution equals the analytic source
    exactly (every cell mass is a multiple of 1/200)."""
    source, _, _ = counterexample_fixture()
    rows, labels = [], []
    for (x, y), mass in sorted(source.cells.items()):
        count = mass * 200
        assert count == int(count)
        rows.extend([list(x)] * int(count))
        labels.extend([y] * int(count))
    ds = TabularDataset(schema=source.schema, rows=np.array(rows, dtype=float),
                        labels=labels)
    preds = [stump(2)(tuple(int(v) for v in row)) for row in ds.rows]
    return ds.with_outputs(predictions=np.array(preds), pred_probs=None), source


class TestEstimateGap:
    def test_unit_weights_give_zero(self, small_scored):
        assert estimate_gap(small_scored, unit_weight().weights_for(small_scored)) == 0.0

    def test_two_row_hand_example(self):
        ds = TabularDataset(
            schema=two_col_schema(),
            rows=[[1, 1], [2, 2]],
            labels=[1, 2],
            predictions=[1, 1],  # first row correct, second wrong
        )
        w = TableWeight(index_set=(1,), table={
            ((1,), 1): 3.0, ((2,), 2): 7.0,
        })
        assert estimate_gap(ds, w.weights_for(ds)) == pytest.approx(1.0, abs=1e-15)

    def test_counterexample_analytic_gap_at_true_weights(self):
        # oracle: enumerate all 8 cells exactly with rational arithmetic
        source, target, truth = counterexample_fixture()
        clf = stump(2)
        acc_p = sum(m for (x, y), m in source.cells.items() if clf(x) == y)
        acc_q = sum(m for (x, y), m in target.cells.items() if clf(x) == y)
        expected = acc_q - acc_p
        assert expected == Fraction(-1, 50)

        ds, _ = dataset_matching_counterexample_source()
        delta = estimate_gap(ds, truth.true_weights.weights_for(ds))
        assert delta == pytest.approx(float(expected), abs=1e-12)

    def test_linearity_in_weights(self, small_scored):
        rng = np.random.default_rng(8)
        keys = [((v,), y) for v in (1, 2) for y in (1, 2)]
        for _ in range(100):
            t1 = {k: rng.uniform(0, 3) for k in keys}
            t2 = {k: rng.uniform(0, 3) for k in keys}
            alpha = rng.uniform()
            blend = {k: alpha * t1[k] + (1 - alpha) * t2[k] for k in keys}
            d1, d2, db = (
                estimate_gap(small_scored,
                             TableWeight(index_set=(1,), table=t).weights_for(small_scored))
                for t in (t1, t2, blend))
            assert db == pytest.approx(alpha * d1 + (1 - alpha) * d2, abs=1e-12)

    def test_gap_within_bounds(self, small_scored):
        rng = np.random.default_rng(10)
        acc = source_accuracy(small_scored)
        bound = 20.0
        for _ in range(20):
            table = {((v,), y): rng.uniform(0, bound) for v in (1, 2) for y in (1, 2)}
            w = TableWeight(index_set=(1,), table=table)
            delta = estimate_gap(small_scored, w.weights_for(small_scored))
            assert -acc - 1e-12 <= delta <= (bound - 1.0) + 1e-12


class TestSelectFeatures:
    def test_table_passthrough(self):
        w = TableWeight(index_set=(3,), table={((1,), 1): 1.0})
        assert select_features(w, 1) == (3,)

    def test_top_s_by_score(self):
        schema = FeatureSchema(
            columns=tuple(Column(f"x{i}", "discrete", 2) for i in range(1, 5)),
            label_cardinality=2,
        )
        basis = default_basis(schema)
        a = np.zeros((basis.size, 2))
        # per-feature indicator pairs: bases (0,1)=f1, (2,3)=f2, (4,5)=f3, (6,7)=f4
        a[2, 0] = 5.0
        a[4, 0] = 5.0
        a[6, 0] = 1.0
        w = BasisWeight(coefficients=a, basis=basis)
        assert select_features(w, 2) == (2, 3)

    def test_all_equal_scores_pick_lowest_index(self):
        schema = FeatureSchema(
            columns=tuple(Column(f"x{i}", "discrete", 2) for i in range(1, 4)),
            label_cardinality=2,
        )
        basis = default_basis(schema)
        w = BasisWeight(coefficients=np.ones((basis.size, 2)), basis=basis)
        assert select_features(w, 1) == (1,)

    def test_invariant_to_common_rescaling(self):
        schema = FeatureSchema(
            columns=tuple(Column(f"x{i}", "discrete", 2) for i in range(1, 4)),
            label_cardinality=2,
        )
        basis = default_basis(schema)
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, size=(basis.size, 2))
        w1 = BasisWeight(coefficients=a, basis=basis)
        w2 = BasisWeight(coefficients=a * 17.5, basis=basis)
        assert select_features(w1, 2) == select_features(w2, 2)


class TestScoreWeights:
    def test_perfect_weights(self, small_scored):
        table = {((v,), y): 0.5 + 0.3 * v + 0.1 * y for v in (1, 2) for y in (1, 2)}
        w = TableWeight(index_set=(1,), table=table)
        truth = GroundTruth(true_weights=w, true_shift_set=(1,))
        out = score_weights(w.weights_for(small_scored),
                            truth.true_weights.weights_for(small_scored))
        assert out["mse"] == 0.0 and out["pcc"] == pytest.approx(1.0)

    def test_constant_estimate_warns_and_zeroes_pcc(self, small_scored):
        truth_w = TableWeight(index_set=(1,), table={
            ((v,), y): float(v + y) for v in (1, 2) for y in (1, 2)
        })
        truth = GroundTruth(true_weights=truth_w, true_shift_set=(1,))
        with pytest.warns(UserWarning, match="PCC"):
            out = score_weights(unit_weight().weights_for(small_scored),
                                truth.true_weights.weights_for(small_scored))
        assert out["pcc"] == 0.0


class TestScoreGap:
    def _truth(self, acc=0.5):
        return GroundTruth(true_weights=unit_weight(), true_shift_set=(),
                           true_target_accuracy=acc)

    def test_exact_estimate_scores_zero(self):
        truth = self._truth(acc=0.62)
        assert score_gap(0.12, truth, 0.5) == 0.0

    def test_case_study_magnitudes(self):
        # estimated 16.7 points vs true 15.5 points: squared error 1.44e-4
        truth = self._truth(acc=0.5 + 0.155)
        assert score_gap(0.167, truth, 0.5) == pytest.approx(1.44e-4, abs=1e-12)

    def test_off_by_a_tenth(self):
        truth = self._truth(acc=0.6)
        assert score_gap(0.0, truth, 0.5) == pytest.approx(0.01, abs=1e-15)

    def test_missing_truth(self):
        truth = GroundTruth(true_weights=unit_weight(), true_shift_set=())
        with pytest.raises(MissingTruth):
            score_gap(0.1, truth, 0.5)


@pytest.mark.parametrize("method,expected", [
    ("sees-d", {"TableWeight": 2}),  # the fitted table and the truth
    ("sees-c", {"BasisWeight": 1, "TableWeight": 1}),
    ("bbse", {"TableWeight": 2}),
    ("kliep", {"TableWeight": 1}),  # kliep returns its source weights
    ("dlu", {"ModelRatioWeight": 1, "TableWeight": 1}),  # the one that sets its scale
])
def test_run_method_evaluates_each_weight_once_on_its_source(method, expected, monkeypatch):
    from shiftscope.bench import joint_trial, suite_fixture

    base, model = suite_fixture(6)
    source, target, truth = joint_trial(base, model, (1,), 2000, 0)
    calls = {}
    for cls in (TableWeight, BasisWeight, KernelWeight, ModelRatioWeight):
        def counted(self, ds, _name=cls.__name__, _real=cls.weights_for):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(self, ds)

        monkeypatch.setattr(cls, "weights_for", counted)
    run_method(method, Pair(source, target, truth), 1)
    assert calls == expected


@pytest.mark.parametrize("seed,method", [(26, "dlu"), (28, "sees-d"), (32, "dlu"),
                                         (34, "dlu")])
def test_one_class_source_keeps_target_accuracy_within_unit_interval(seed, method,
                                                                     monkeypatch):
    """A source of one class, predicted right on every row, gives weights whose
    source mean is 1 only up to rounding, so the method's gap is rounding noise
    around 0 with no reliable sign. The gap the report gets is made to overshoot
    1 by a known amount; the estimate must not pass 1, and delta_hat,
    accuracy_drop and the target accuracy must agree."""
    import shiftscope.estimator as estimator
    from shiftscope.predictor import predict, train_logistic
    from shiftscope.synth import binary_base

    overshoot = 2.0 ** -30
    raw = []
    real_gap = estimator.estimate_gap

    def overshooting_gap(ds, w):
        raw.append(real_gap(ds, w))
        return 1.0 - source_accuracy(ds) + overshoot

    monkeypatch.setattr(estimator, "estimate_gap", overshooting_gap)
    base = binary_base(4, 3000, seed)
    source = base.take(np.flatnonzero(base.labels == 2))
    model = train_logistic(source)
    source = predict(model, source)
    target = predict(model, binary_base(4, 2000, seed + 100)).without_labels()
    report = run_method(method, Pair(source, target), 1)
    assert report.source_accuracy == 1.0 and abs(raw[0]) < 1e-12
    out = report.to_dict()
    assert out["estimated_target_accuracy"] == 1.0
    assert out["delta_hat"] == 1.0 - out["source_accuracy"]
    assert out["estimated_target_accuracy"] == out["source_accuracy"] + out["delta_hat"]
    assert out["accuracy_drop"] == -out["delta_hat"]
