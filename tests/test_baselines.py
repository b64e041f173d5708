from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from scipy.optimize import minimize

from shiftscope import baselines
from shiftscope.baselines import _median_pairwise, run_bbse, run_dlu, run_kliep
from shiftscope.errors import DegenerateKernel, SingularConfusion
from shiftscope.estimator import Pair, score_weights
from shiftscope.sees_d import SeesDConfig, run_sees_d, sample_joints
from shiftscope.synth import (
    label_shifted,
    population_joint,
    stump,
    counterexample_fixture,
)
from shiftscope.data import Column, FeatureSchema, TabularDataset
from shiftscope.predictor import one_hot
from shiftscope.sees_c import KKT_TOL, PROB_FLOOR, SeesCConfig
from shiftscope.tabulate import LABEL, PREDICTION, distinct_first, estimate_pmf


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
        weight, diag = run_bbse(*sample_joints(small_scored, small_scored))
        for y in (1, 2):
            assert weight.value((), y) == pytest.approx(1.0, abs=1e-9)

    def test_population_label_shift_exact(self):
        source, _, _ = counterexample_fixture()
        target = label_shifted(source, {1: Fraction(1, 5), 2: Fraction(4, 5)})
        sj = population_joint(source, stump(2))
        tj = population_joint(target, stump(2), include_label=False)
        weight, diag = run_bbse(sj, tj)
        assert weight.value((), 1) == pytest.approx(0.4, abs=1e-9)
        assert weight.value((), 2) == pytest.approx(1.6, abs=1e-9)

    def test_joint_shift_beats_bbse_in_population(self):
        source, target, truth = counterexample_fixture()
        sj = population_joint(source, stump(2))
        tj = population_joint(target, stump(2), include_label=False)
        bbse_w, _ = run_bbse(sj, tj)
        sees_w, _, _ = run_sees_d(sj, tj, SeesDConfig(sparsity=1))
        assert population_weight_mse(sees_w, source, truth) < population_weight_mse(
            bbse_w, source, truth
        )

    def test_reads_only_prediction_and_label_of_a_continuous_schema(self):
        # bbse needs no feature axis, so a continuous column needs no binning
        rng = np.random.default_rng(5)
        schema = FeatureSchema(columns=(Column("a", "discrete", 2), Column("v", "continuous")),
                               label_cardinality=2)

        def draw(n, p_two):
            y = np.where(rng.uniform(size=n) < p_two, 2, 1)
            rows = np.column_stack([rng.integers(1, 3, n), rng.normal(y, 1.0, n)])
            pred = np.where(rng.uniform(size=n) < 0.8, y, 3 - y)
            return TabularDataset(schema=schema, rows=rows, labels=y, predictions=pred)

        source, target = draw(400, 0.3), draw(300, 0.6)
        weight, diag = run_bbse(estimate_pmf(source, (PREDICTION, LABEL)),
                                estimate_pmf(target, (PREDICTION,)))
        assert weight.value((), 2) > 1.0 > weight.value((), 1)
        assert diag["condition_number"] > 0

    def test_singular_confusion_detected(self):
        source, target, _ = counterexample_fixture()
        constant = lambda x: 1  # noqa: E731 - classifier ignoring its input
        sj = population_joint(source, constant)
        tj = population_joint(target, constant, include_label=False)
        with pytest.raises(SingularConfusion):
            run_bbse(sj, tj)


class TestKliep:
    def test_identical_pair_near_unit(self, small_scored):
        weight, diag, _ = run_kliep(small_scored, small_scored)
        vals = weight.weights_for(small_scored)
        assert float(np.sqrt(np.mean((vals - 1.0) ** 2))) < 0.1

    def test_objective_nondecreasing_in_budget(self, small_scored, monkeypatch):
        rng = np.random.default_rng(4)
        target = small_scored.take(rng.integers(0, small_scored.n, size=1200))
        values = [kliep_capped(monkeypatch, small_scored, target, k)[1]["objective"]
                  for k in (1, 2, 3, 4)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_iteration_cap_reports_non_convergence(self, small_scored, monkeypatch):
        rng = np.random.default_rng(4)
        target = small_scored.take(rng.integers(0, small_scored.n, size=1200))
        _, capped, _ = kliep_capped(monkeypatch, small_scored, target, 2)
        _, full, _ = run_kliep(small_scored, target)
        assert capped["iterations"] == 2.0 and capped["non_convergence"] == 1.0
        assert full["iterations"] > 2.0 and full["non_convergence"] == 0.0
        assert full["stationarity"] <= KKT_TOL < capped["stationarity"]

    @pytest.mark.parametrize("workload", ["estimate-discrete", "estimate-continuous"])
    def test_matches_slsqp_reference(self, benchmark_pair, workload):
        source, target = benchmark_pair(workload, 1)
        weight, diag, w = run_kliep(source, target)
        assert diag["stationarity"] <= KKT_TOL and diag["non_convergence"] == 0.0
        assert diag["objective"] == pytest.approx(kliep_reference(source, target, weight.gamma),
                                                  abs=1e-8)
        np.testing.assert_allclose(w, weight.weights_for(source), rtol=1e-12)

    def test_covariate_beats_bbse_on_gap(self):
        # Monte-Carlo ordering: average the squared gap error over seeds
        from shiftscope.bench import covariate_trial, evaluate_method, suite_fixture

        base, model = suite_fixture(6)
        kliep_errs, bbse_errs = [], []
        for seed in range(6):
            pair = Pair(*covariate_trial(base, model, 1, 8000, seed))
            kliep_errs.append(evaluate_method("kliep", pair, 1)["gap_sq_error"])
            bbse_errs.append(evaluate_method("bbse", pair, 1)["gap_sq_error"])
        assert np.mean(kliep_errs) <= np.mean(bbse_errs)

    def test_joint_shift_defeats_kliep(self, joint_pair):
        from shiftscope.bench import evaluate_method

        pair = Pair(*joint_pair)
        kliep_err = evaluate_method("kliep", pair, 1)["gap_sq_error"]
        sees_err = evaluate_method("sees-d", pair, 1)["gap_sq_error"]
        assert kliep_err > sees_err

    def test_degenerate_kernel_raises(self):
        schema = FeatureSchema(columns=(Column("a", "discrete", 2),), label_cardinality=2)
        ds = TabularDataset(schema=schema, rows=np.ones((50, 1)),
                            labels=np.ones(50, dtype=int),
                            predictions=np.ones(50, dtype=int))
        with pytest.raises(DegenerateKernel):
            run_kliep(ds, ds)


    def test_no_source_row_reaching_a_centre_is_a_degenerate_kernel(self, far_apart_pair):
        # the source sits about 1e3 bandwidths from every target centre, so
        # every entry of b underflows to 0: the kernel's fault, not the input's
        source, target = far_apart_pair
        with pytest.raises(DegenerateKernel, match="no source row reaches any centre"):
            run_kliep(source, target)


def kliep_capped(monkeypatch, source, target, max_iters):
    """``run_kliep`` with the shared ascent capped at ``max_iters`` iterations."""
    with monkeypatch.context() as m:
        m.setattr(baselines, "SeesCConfig", partial(SeesCConfig, max_iters=max_iters))
        return run_kliep(source, target)


def kliep_reference(source, target, gamma, centers=100):
    """kliep's optimum by SLSQP at bandwidth parameter ``gamma``, over
    centres on ``centers`` evenly spaced target rows: the mean log of
    k(x, centres) . alpha over every target row, floored as sees-c floors
    it, subject to alpha >= 0 and the unit mean of the weight over every
    source row."""
    idx = np.unique(np.linspace(0, target.n - 1, num=centers).round().astype(int))
    ctr = one_hot(target.schema, target.rows[idx])

    def kernel(ds):
        x = one_hot(ds.schema, ds.rows)
        return np.column_stack([np.exp(-gamma * ((x - c) ** 2).sum(axis=1)) for c in ctr])

    k_t, b = kernel(target), kernel(source).mean(axis=0)

    def objective(alpha):
        inner = np.maximum(k_t @ alpha, PROB_FLOOR)
        return -float(np.log(inner).mean()), -k_t.T @ (1.0 / inner) / k_t.shape[0]

    res = minimize(objective, np.full(b.size, 1.0 / b.sum()), jac=True, method="SLSQP",
                   bounds=[(0, None)] * b.size,
                   constraints=[{"type": "eq", "fun": lambda a: [b @ a - 1.0],
                                 "jac": lambda a: b[None]}],
                   options={"ftol": 1e-15, "maxiter": 1000})
    assert res.success, res.message
    alpha = np.maximum(res.x, 0.0)
    return -objective(alpha / float(b @ alpha))[0]


def dense_median_pairwise(x, limit=1000):
    """The median over every pair of the subsample, by one dense distance
    matrix: the reference for the count-weighted distinct-row median."""
    if x.shape[0] > limit:
        x = x[np.unique(np.linspace(0, x.shape[0] - 1, num=limit).round().astype(int))]
    sq = (x * x).sum(axis=1)[:, None] - 2.0 * x @ x.T
    sq += (x * x).sum(axis=1)[None, :]
    iu = np.triu_indices(x.shape[0], k=1)
    return float(np.median(np.sqrt(np.maximum(sq, 0.0)[iu])))


class TestMedianPairwise:
    @pytest.mark.parametrize("kind,n,limit", [
        ("discrete", 40, 1000),    # repeated rows, 780 pairs
        ("discrete", 42, 1000),    # repeated rows, 861 pairs
        ("mixed", 30, 1000),       # all rows distinct, 435 pairs
        ("mixed", 32, 1000),       # all rows distinct, 496 pairs
        ("discrete", 300, 51),     # above the limit, 1275 pairs
        ("discrete", 3000, 1000),  # above the limit, 499500 pairs
        ("mixed", 300, 50),        # above the limit, all distinct, 1225 pairs
        ("clustered", 28, 1000),   # 3 distinct rows, 378 pairs, a third of them equal
    ])
    def test_equals_the_dense_median_to_the_bit(self, kind, n, limit):
        rng = np.random.default_rng(n + limit)
        columns = [Column("a", "discrete", 2), Column("b", "discrete", 3)]
        rows = [rng.integers(1, 3, n), rng.integers(1, 4, n)]
        if kind == "mixed":
            columns.append(Column("v", "continuous"))
            rows.append(rng.normal(size=n))
        if kind == "clustered":
            # distances 0, sqrt 2 and 2 in proportions 138 : 96 : 144, so the
            # median is sqrt 2 with the equal pairs and 2 without them
            rows = rng.permutation(np.repeat([[1, 1], [2, 2], [1, 2]], [12, 12, 4], axis=0)).T
        schema = FeatureSchema(columns=tuple(columns), label_cardinality=2)
        rows = np.column_stack(rows).astype(float)
        distinct = distinct_first(rows.T)[0].size
        assert distinct == n if kind == "mixed" else distinct < n
        got = _median_pairwise(schema, rows, limit)
        assert got > 0.0
        assert got == dense_median_pairwise(one_hot(schema, rows), limit)


def continuous_pair():
    """Two discrete and two continuous columns, with the target's means moved."""
    schema = FeatureSchema(
        columns=(Column("a", "discrete", 2), Column("u", "continuous"),
                 Column("b", "discrete", 3), Column("v", "continuous")),
        label_cardinality=2,
    )
    rng = np.random.default_rng(9)

    def draw(n, shift, labeled):
        rows = np.column_stack([rng.integers(1, 3, n), rng.normal(shift, 1.0, n),
                                rng.integers(1, 4, n), rng.normal(-shift, 2.0, n)])
        labels = rng.integers(1, 3, n) if labeled else None
        return TabularDataset(schema=schema, rows=rows, labels=labels)

    return draw(600, 0.0, True), draw(400, 0.5, False)


@pytest.mark.parametrize("run", [run_kliep, run_dlu], ids=["kliep", "dlu"])
@pytest.mark.parametrize("pair", ["discrete", "continuous"])
def test_returned_source_weights_are_the_weights_on_the_source(run, pair, joint_pair):
    source, target = joint_pair[:2] if pair == "discrete" else continuous_pair()
    weight, _, values = run(source, target)
    assert np.array_equal(values, weight.weights_for(source))


def test_kliep_kernels_read_distinct_rows_only(monkeypatch):
    import sys

    import shiftscope.weights
    from shiftscope.synth import binary_base

    base = binary_base(7, 30000, 1)
    source, target = base.take(np.arange(20000)), base.take(np.arange(20000, 30000))
    pooled = np.vstack([source.rows, target.rows])
    sample = pooled[np.unique(np.linspace(0, 29999, num=1000).round().astype(int))]
    bounds = {distinct_first(rows.T)[0].size for rows in (source.rows, target.rows, sample)}
    assert max(bounds) <= 128
    seen = []
    for name in ("gaussian_kernel", "sq_distances"):
        real = getattr(shiftscope.weights, name)

        def counted(x, y, *args, _real=real, _name=name):
            seen.append((_name, x.shape[0], y.shape[0]))
            return _real(x, y, *args)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("shiftscope") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted)
    run_kliep(source, target)
    assert {name for name, _, _ in seen} == {"gaussian_kernel", "sq_distances"}
    # one axis of each kernel holds the distinct rows of one side, the other the centres
    assert all(rows in bounds or cols in bounds for _, rows, cols in seen)


class TestDlu:
    def test_identical_pair_near_unit(self, small_scored):
        weight, diag, _ = run_dlu(small_scored, small_scored)
        vals = weight.weights_for(small_scored)
        assert float(np.sqrt(np.mean((vals - 1.0) ** 2))) < 0.1

    def test_covariate_shift_error_small(self, covariate_pair_fx):
        from shiftscope.bench import evaluate_method

        dlu_err = evaluate_method("dlu", Pair(*covariate_pair_fx), 1)["gap_sq_error"]
        assert dlu_err < 1e-3

    def test_joint_shift_weight_mse_above_sees_d(self, joint_pair):
        source, target, truth = joint_pair
        dlu_w, _, _ = run_dlu(source, target)
        sees_w, _, _ = run_sees_d(*sample_joints(source, target), SeesDConfig(sparsity=1))
        ref = truth.true_weights.weights_for(source)
        dlu_mse = score_weights(dlu_w.weights_for(source), ref)["mse"]
        sees_mse = score_weights(sees_w.weights_for(source), ref)["mse"]
        assert dlu_mse > sees_mse


class TestNormalization:
    def test_all_baselines_unit_source_mean(self, joint_pair):
        source, target, _ = joint_pair
        for weight, *_ in (run_bbse(*sample_joints(source, target)),
                           run_kliep(source, target), run_dlu(source, target)):
            vals = weight.weights_for(source)
            assert (vals >= 0).all()
            assert abs(float(np.mean(vals)) - 1.0) < 1e-6

    def test_kliep_constraint_is_the_unit_source_mean(self, joint_pair):
        # kliep's weight is returned as fitted: b . alpha = 1 with b the
        # source mean of each kernel already puts its source mean at 1
        source, target, _ = joint_pair
        weight, _, _ = run_kliep(source, target)
        assert abs(float(np.mean(weight.weights_for(source))) - 1.0) < 1e-12
