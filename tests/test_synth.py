from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from shiftscope.data import CONTINUOUS, DISCRETE, Column, FeatureSchema, TabularDataset
from shiftscope.errors import EmptyCell, MissingAxis, ValidationError
from shiftscope.synth import (
    ShiftSpec,
    apply_shift,
    age_case_pair,
    binary_base,
    age_case_base,
    empirical_marginal,
    identifiable_fixture,
    pure_covariate_shift,
    pure_label_shift,
    sample_analytic,
    counterexample_fixture,
)
from shiftscope.predictor import train_logistic


class TestCounterexampleFixture:
    def test_conditional_exactness(self):
        source, target, _ = counterexample_fixture()
        assert target.label_given((2, 2), 2) == Fraction(1, 3)
        assert source.label_given((2, 2), 2) == Fraction(1, 22)

    def test_feature_conditional_differs(self):
        source, target, _ = counterexample_fixture()
        # P(X1 high | second class): 0.1 on source vs 0.5 on target
        p = source.marginal_xy((1,))
        q = target.marginal_xy((1,))
        assert p[((2,), 2)] / (p[((1,), 2)] + p[((2,), 2)]) == Fraction(1, 10)
        assert q[((2,), 2)] / (q[((1,), 2)] + q[((2,), 2)]) == Fraction(1, 2)

    def test_masses_sum_exactly_to_one(self):
        for dist in counterexample_fixture()[:2] + identifiable_fixture()[:2]:
            assert sum(dist.cells.values()) == 1

    def test_truth_weights(self):
        _, _, truth = counterexample_fixture()
        assert truth.true_shift_set == (1,)
        assert truth.true_weights.value((2,), 2) == pytest.approx(6.0)
        assert truth.true_weights.value((1,), 1) == pytest.approx(4 / 3)


class TestSampleAnalytic:
    def test_determinism(self):
        source, _, _ = counterexample_fixture()
        a = sample_analytic(source, 500, seed=11)
        b = sample_analytic(source, 500, seed=11)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.labels, b.labels)

    def test_law_of_large_numbers(self):
        source, _, _ = counterexample_fixture()
        ds = sample_analytic(source, 10**6, seed=5)
        assert abs(np.mean(ds.labels == 2) - 0.5) < 0.002

    def test_single_row_and_label_toggle(self):
        source, _, _ = counterexample_fixture()
        ds = sample_analytic(source, 1, seed=0)
        assert ds.n == 1 and ds.labels is not None
        bare = sample_analytic(source, 1, seed=0, with_labels=False)
        assert bare.labels is None


class TestApplyShift:
    def test_identity_marginal_gives_unit_weights(self, small_base):
        spec = ShiftSpec(shifted=(1,), cells=empirical_marginal(small_base, (1,)))
        _, truth = apply_shift(small_base, spec, 100, seed=0)
        for key in spec.cells:
            assert truth.true_weights.value(*key) == pytest.approx(1.0, abs=1e-12)

    def test_age_case_truth_weight_is_two(self):
        base = age_case_base(seed=1)
        model = train_logistic(base.take(np.arange(0, base.n, 10)), max_iters=200)
        source, target, truth = age_case_pair(model, 500, seed=2, base=base)
        assert truth.true_weights.value((2,), 2) == pytest.approx(2.0, abs=1e-12)
        assert source.n == 1000 and target.n == 1000
        assert target.labels is None

    def test_empty_cell_rejected(self, small_base):
        marg = empirical_marginal(small_base, (1,))
        bad_key = ((1,), 1)
        keep = {k: v for k, v in marg.items() if k != bad_key}
        total = sum(keep.values())
        cells = {k: v / total * 0.5 for k, v in keep.items()}
        cells[bad_key] = 0.5
        mutilated = small_base.take(
            np.flatnonzero(~((small_base.rows[:, 0] == 1) & (small_base.labels == 1)))
        )
        with pytest.raises(EmptyCell):
            apply_shift(mutilated, ShiftSpec(shifted=(1,), cells=cells), 50, seed=0)

    def test_missing_drawn_cell_is_rejected_at_zero_rows(self, small_base):
        x1, y = small_base.rows[:, 0], small_base.labels
        mutilated = small_base.take(np.flatnonzero(~((x1 == 1) & (y == 1))))
        spec = ShiftSpec(shifted=(1,), cells={((1,), 1): 0.5, ((2,), 1): 0.5})
        with pytest.raises(EmptyCell):
            apply_shift(mutilated, spec, 0, seed=0)
        with pytest.raises(EmptyCell):
            pure_covariate_shift(small_base.take(np.flatnonzero(x1 == 2)), 1,
                                 {1: 0.5, 2: 0.5}, 0, seed=0)

    def test_zero_rows_is_valid(self, small_base):
        spec = ShiftSpec(shifted=(1,), cells=empirical_marginal(small_base, (1,)))
        sample, truth = apply_shift(small_base, spec, 0, seed=0)
        assert sample.n == 0

    def test_preserves_conditionals(self, small_base):
        # resampling must not disturb p(x_rest | x_I, y); compare the x2
        # distribution between base and shifted sample within each (x1, y)
        marg = empirical_marginal(small_base, (1,))
        boosted = {k: v * (2.0 if k[0][0] == 2 else 0.5) for k, v in marg.items()}
        total = sum(boosted.values())
        spec = ShiftSpec(shifted=(1,), cells={k: v / total for k, v in boosted.items()})
        sample, _ = apply_shift(small_base, spec, 10000, seed=3)
        for x1 in (1, 2):
            for y in (1, 2):
                in_base = (small_base.rows[:, 0] == x1) & (small_base.labels == y)
                in_sample = (sample.rows[:, 0] == x1) & (sample.labels == y)
                table = np.array([
                    [np.sum(small_base.rows[in_base, 1] == v) for v in (1, 2)],
                    [np.sum(sample.rows[in_sample, 1] == v) for v in (1, 2)],
                ])
                _, p_value, _, _ = chi2_contingency(table)
                assert p_value > 1e-3


class TestPureShifts:
    def test_unchanged_label_marginal_gives_identity(self, small_base):
        marg = {y: float(np.mean(small_base.labels == y)) for y in (1, 2)}
        _, truth = pure_label_shift(small_base, marg, 100, seed=0)
        for y in (1, 2):
            assert truth.true_weights.value((), y) == pytest.approx(1.0, abs=1e-12)

    def test_empty_shift_set_equals_label_shift(self, small_base):
        marg = {1: 0.3, 2: 0.7}
        spec = ShiftSpec(shifted=(), cells={((), y): m for y, m in marg.items()})
        _, t1 = apply_shift(small_base, spec, 100, seed=1)
        _, t2 = pure_label_shift(small_base, marg, 100, seed=1)
        assert dict(t1.true_weights.table) == dict(t2.true_weights.table)

    def test_covariate_shift_preserves_label_conditional(self, small_base):
        sample, truth = pure_covariate_shift(small_base, 1, {1: 0.2, 2: 0.8},
                                             10000, seed=4)
        for v in (1, 2):
            base_rows = small_base.labels[small_base.rows[:, 0] == v]
            samp_rows = sample.labels[sample.rows[:, 0] == v]
            table = np.array([
                [np.sum(base_rows == y) for y in (1, 2)],
                [np.sum(samp_rows == y) for y in (1, 2)],
            ])
            _, p_value, _, _ = chi2_contingency(table)
            assert p_value > 1e-3
        # weights ignore the label
        assert truth.true_weights.value((1,), 1) == truth.true_weights.value((1,), 2)

    def test_truth_weights_have_unit_base_mean(self, small_base):
        marg = {1: 0.25, 2: 0.75}
        _, truth = pure_label_shift(small_base, marg, 100, seed=0)
        assert abs(np.mean(truth.true_weights.weights_for(small_base)) - 1) < 1e-9
        _, truth2 = pure_covariate_shift(small_base, 2, {1: 0.6, 2: 0.4}, 100, seed=0)
        assert abs(np.mean(truth2.true_weights.weights_for(small_base)) - 1) < 1e-9


@pytest.mark.parametrize("draw", ["joint", "covariate"])
def test_a_drawn_pair_keys_its_base_once(small_base, small_model, monkeypatch, draw):
    """One keying of the base serves the source marginal and both draws;
    a joint pair still makes its two ``apply_shift`` calls."""
    import shiftscope.synth as synth

    calls = {"_cells": 0, "apply_shift": []}
    real_cells, real_apply = synth._cells, synth.apply_shift

    def cells(*args, **kwargs):
        calls["_cells"] += 1
        return real_cells(*args, **kwargs)

    def apply(base, spec, n, seed, keyed=None):
        calls["apply_shift"].append(n)
        return real_apply(base, spec, n, seed, keyed)

    monkeypatch.setattr(synth, "_cells", cells)
    monkeypatch.setattr(synth, "apply_shift", apply)
    if draw == "joint":
        marg = empirical_marginal(small_base, (1,))
        calls["_cells"] = 0
        synth.shifted_pair(small_base, small_model, (1,), marg, 300, 200, seed=3)
        assert calls["apply_shift"] == [300, 200]
    else:
        synth.covariate_pair(small_base, small_model, 1, {1: 0.3, 2: 0.7}, 300, 200, seed=3)
    assert calls["_cells"] == 1


class TestSpecValidation:
    def test_marginal_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            ShiftSpec(shifted=(1,), cells={((1,), 1): 0.4, ((2,), 1): 0.4})

    def test_arity_checked(self):
        with pytest.raises(ValidationError):
            ShiftSpec(shifted=(1, 2), cells={((1,), 1): 1.0})

    def test_cell_keys_follow_the_sorted_features(self):
        spec = ShiftSpec(shifted=(3, 1), cells={((2, 1), 2): 0.25, ((1, 2), 1): 0.75})
        assert spec.shifted == (1, 3)
        assert dict(spec.cells) == {((1, 2), 2): 0.25, ((2, 1), 1): 0.75}

    def test_features_out_of_order_draw_the_cell_named(self):
        # the one cell is x3 = 2, x1 = 1, y = 2, keyed with feature 3 first
        spec = ShiftSpec(shifted=(3, 1), cells={((2, 1), 2): 1.0})
        drawn = apply_shift(binary_base(3, 2000, 0), spec, 50, seed=0)[0]
        assert (drawn.rows[:, 2] == 2).all() and (drawn.rows[:, 0] == 1).all()
        assert (drawn.labels == 2).all()

    def test_shifted_outside_schema_rejected(self, small_base):
        spec = ShiftSpec(shifted=(9,), cells={((1,), 1): 1.0})
        with pytest.raises(ValidationError):
            apply_shift(small_base, spec, 10, seed=0)


class TestContinuousShiftedColumn:
    """A shifted column must have cells: float values are refused, not
    truncated to integer keys."""

    @pytest.fixture(scope="class")
    def base(self):
        rng = np.random.default_rng(3)
        schema = FeatureSchema(columns=(Column("v", CONTINUOUS), Column("b", DISCRETE, 2)),
                               label_cardinality=2)
        rows = np.column_stack([rng.normal(size=200), rng.integers(1, 3, size=200)])
        return TabularDataset(schema=schema, rows=rows, labels=rng.integers(1, 3, size=200))

    def test_empirical_marginal(self, base):
        with pytest.raises(MissingAxis):
            empirical_marginal(base, (1,))

    def test_apply_shift(self, base):
        spec = ShiftSpec(shifted=(1,), cells={((0,), 1): 0.5, ((0,), 2): 0.5})
        with pytest.raises(MissingAxis):
            apply_shift(base, spec, 10, seed=0)

    def test_pure_covariate_shift(self, base):
        with pytest.raises(MissingAxis):
            pure_covariate_shift(base, 1, {0: 1.0}, 10, seed=0)

    def test_discrete_column_of_the_same_base_still_shifts(self, base):
        sample, _ = pure_covariate_shift(base, 2, {1: 0.5, 2: 0.5}, 10, seed=0)
        assert sample.n == 10
