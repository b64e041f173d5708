from fractions import Fraction

import numpy as np
import pytest

from shiftscope.baselines import KLIEP_ITERS, run_bbse, run_bbse_population, run_dlu, run_kliep
from shiftscope.errors import DegenerateKernel, SingularConfusion, ValidationError
from shiftscope.estimator import score_weights
from shiftscope.sees_d import SeesDConfig, run_sees_d, run_sees_d_population
from shiftscope.synth import (
    label_shifted,
    population_joint,
    stump,
    counterexample_fixture,
)
from shiftscope.data import Column, FeatureSchema, TabularDataset


@pytest.fixture(scope="module")
def joint_pair():
    from shiftscope.bench import joint_trial, suite_fixture

    base, model = suite_fixture(6)
    return joint_trial(base, model, (1,), 8000, 3)


@pytest.fixture(scope="module")
def covariate_pair_fx():
    from shiftscope.bench import covariate_trial, suite_fixture

    base, model = suite_fixture(6)
    return covariate_trial(base, model, 1, 8000, 3)


def population_weight_mse(weight, source_dist, truth):
    """Exact E_P[(w_hat - w*)^2] over the analytic source cells."""
    total = 0.0
    for (x, y), mass in source_dist.cells.items():
        w_hat = weight.value(tuple(x[j - 1] for j in weight.index_set), y)
        w_star = truth.true_weights.value(
            tuple(x[j - 1] for j in truth.true_weights.index_set), y
        )
        total += float(mass) * (w_hat - w_star) ** 2
    return total


class TestBbse:
    def test_identical_pair_gives_unit_weights(self, small_scored):
        weight, diag = run_bbse(small_scored, small_scored)
        for y in (1, 2):
            assert weight.value((), y) == pytest.approx(1.0, abs=1e-9)

    def test_population_label_shift_exact(self):
        source, _, _ = counterexample_fixture()
        target = label_shifted(source, {1: Fraction(1, 5), 2: Fraction(4, 5)})
        sj = population_joint(source, stump(2))
        tj = population_joint(target, stump(2), include_label=False)
        weight, diag = run_bbse_population(sj, tj)
        assert weight.value((), 1) == pytest.approx(0.4, abs=1e-9)
        assert weight.value((), 2) == pytest.approx(1.6, abs=1e-9)

    def test_joint_shift_beats_bbse_in_population(self):
        source, target, truth = counterexample_fixture()
        sj = population_joint(source, stump(2))
        tj = population_joint(target, stump(2), include_label=False)
        bbse_w, _ = run_bbse_population(sj, tj)
        sees_w, _, _ = run_sees_d_population(sj, tj, SeesDConfig(sparsity=1))
        assert population_weight_mse(sees_w, source, truth) < population_weight_mse(
            bbse_w, source, truth
        )

    def test_singular_confusion_detected(self):
        source, target, _ = counterexample_fixture()
        constant = lambda x: 1  # noqa: E731 - classifier ignoring its input
        sj = population_joint(source, constant)
        tj = population_joint(target, constant, include_label=False)
        with pytest.raises(SingularConfusion):
            run_bbse_population(sj, tj)


class TestKliep:
    def test_identical_pair_near_unit(self, small_scored):
        weight, diag = run_kliep(small_scored, small_scored)
        vals = weight.weights_for(small_scored)
        assert float(np.sqrt(np.mean((vals - 1.0) ** 2))) < 0.1

    def test_objective_nondecreasing_in_budget(self, small_scored):
        rng = np.random.default_rng(4)
        target = small_scored.take(rng.integers(0, small_scored.n, size=1200))
        values = [
            run_kliep(small_scored, target, max_iters=k)[1]["objective"]
            for k in (1, 5, 25, 125)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_iteration_cap_reports_non_convergence(self, small_scored):
        rng = np.random.default_rng(4)
        target = small_scored.take(rng.integers(0, small_scored.n, size=1200))
        _, capped = run_kliep(small_scored, target, max_iters=3)
        _, full = run_kliep(small_scored, target)
        assert capped["iterations"] == 3.0 and capped["non_convergence"] == 1.0
        assert full["iterations"] < KLIEP_ITERS and full["non_convergence"] == 0.0

    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_nonpositive_iteration_cap_rejected(self, small_scored, max_iters):
        with pytest.raises(ValidationError, match="max_iters must be positive"):
            run_kliep(small_scored, small_scored, max_iters=max_iters)

    def test_covariate_beats_bbse_on_gap(self):
        # Monte-Carlo ordering: average the squared gap error over seeds
        from shiftscope.bench import covariate_trial, evaluate_method, suite_fixture

        base, model = suite_fixture(6)
        kliep_errs, bbse_errs = [], []
        for seed in range(6):
            source, target, truth = covariate_trial(base, model, 1, 8000, seed)
            kliep_errs.append(
                evaluate_method("kliep", source, target, truth, 1)["gap_sq_error"]
            )
            bbse_errs.append(
                evaluate_method("bbse", source, target, truth, 1)["gap_sq_error"]
            )
        assert np.mean(kliep_errs) <= np.mean(bbse_errs)

    def test_joint_shift_defeats_kliep(self, joint_pair):
        from shiftscope.bench import evaluate_method

        source, target, truth = joint_pair
        kliep_err = evaluate_method("kliep", source, target, truth, 1)["gap_sq_error"]
        sees_err = evaluate_method("sees-d", source, target, truth, 1)["gap_sq_error"]
        assert kliep_err > sees_err

    def test_degenerate_kernel_raises(self):
        schema = FeatureSchema(columns=(Column("a", "discrete", 2),), label_cardinality=2)
        ds = TabularDataset(schema=schema, rows=np.ones((50, 1)),
                            labels=np.ones(50, dtype=int),
                            predictions=np.ones(50, dtype=int))
        with pytest.raises(DegenerateKernel):
            run_kliep(ds, ds)


class TestDlu:
    def test_identical_pair_near_unit(self, small_scored):
        weight, diag = run_dlu(small_scored, small_scored)
        vals = weight.weights_for(small_scored)
        assert float(np.sqrt(np.mean((vals - 1.0) ** 2))) < 0.1

    def test_covariate_shift_error_small(self, covariate_pair_fx):
        from shiftscope.bench import evaluate_method

        source, target, truth = covariate_pair_fx
        dlu_err = evaluate_method("dlu", source, target, truth, 1)["gap_sq_error"]
        assert dlu_err < 1e-3

    def test_joint_shift_weight_mse_above_sees_d(self, joint_pair):
        source, target, truth = joint_pair
        dlu_w, _ = run_dlu(source, target)
        sees_w, _, _ = run_sees_d(source, target, SeesDConfig(sparsity=1))
        dlu_mse = score_weights(dlu_w, truth, source)["mse"]
        sees_mse = score_weights(sees_w, truth, source)["mse"]
        assert dlu_mse > sees_mse


class TestNormalization:
    def test_all_baselines_unit_source_mean(self, joint_pair):
        source, target, _ = joint_pair
        for runner in (run_bbse, run_kliep, run_dlu):
            weight, _ = runner(source, target)
            vals = weight.weights_for(source)
            assert (vals >= 0).all()
            assert abs(float(np.mean(vals)) - 1.0) < 1e-6
