import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from shiftscope.baselines import run_bbse
from shiftscope.data import Column, FeatureSchema, TabularDataset
from shiftscope.errors import ValidationError
from shiftscope.estimator import score_weights
from shiftscope.predictor import predict, train_logistic
from shiftscope.sees_c import (
    KKT_TOL,
    BasisSet,
    SeesCConfig,
    default_basis,
    feature_scores,
    kkt_residual,
    run_sees_c,
    sees_c_objective,
)
from shiftscope.synth import binary_base, boosted_marginal, correlation_boost, empirical_marginal, shifted_pair
from shiftscope.tabulate import LABEL, PREDICTION, estimate_pmf


def mixed_schema():
    return FeatureSchema(
        columns=(Column("v", "continuous"), Column("g", "discrete", 2)),
        label_cardinality=2,
    )


def random_feasible(problem_shape, rng):
    """Strictly positive coefficients, feasible for FD checks."""
    return rng.uniform(0.2, 2.0, size=problem_shape)


@pytest.fixture(scope="module")
def sjs_pair():
    base = binary_base(4, 6000, 99)
    model = train_logistic(base)
    marg = boosted_marginal(empirical_marginal(base, (2,)), correlation_boost((2,), 2.2))
    return shifted_pair(base, model, (2,), marg, 4000, 4000, 0)


class TestDefaultBasis:
    def test_mixed_schema_has_three_bases(self):
        ref = TabularDataset(schema=mixed_schema(), rows=[[0.5, 1], [2.0, 2]])
        basis = default_basis(mixed_schema(), reference=ref)
        assert basis.size == 3
        vals = basis.design(ref.rows)
        assert (vals >= 0).all()

    def test_two_ternary_columns_give_six_indicators(self):
        schema = FeatureSchema(
            columns=(Column("a", "discrete", 3), Column("b", "discrete", 3)),
            label_cardinality=2,
        )
        assert default_basis(schema).size == 6

    def test_continuous_without_reference_rejected(self):
        with pytest.raises(ValidationError):
            default_basis(mixed_schema())

    def test_shifts_must_match_column_kinds(self):
        for shifts in ((None, None), (0.0, 1.0), (0.0,), (0.0, None, None)):
            with pytest.raises(ValidationError):
                BasisSet(schema=mixed_schema(), shifts=shifts)


@st.composite
def basis_cases(draw):
    """A schema of discrete (cardinality 2-4) and continuous columns, a
    reference dataset, and rows to encode, whose continuous values reach
    below the reference minimum."""
    kinds = draw(st.lists(st.sampled_from([None, 2, 3, 4]), min_size=1, max_size=5))
    schema = FeatureSchema(
        columns=tuple(Column(f"x{j}", "continuous") if card is None
                      else Column(f"x{j}", "discrete", card)
                      for j, card in enumerate(kinds, start=1)),
        label_cardinality=2,
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def sample(n, spread):
        return np.column_stack([rng.uniform(-spread, spread, n).round(2) if card is None
                                else rng.integers(1, card + 1, n).astype(float)
                                for card in kinds])

    reference = TabularDataset(schema=schema, rows=sample(draw(st.integers(1, 20)), 5.0))
    return schema, reference, sample(draw(st.integers(1, 20)), 8.0)


class TestBasisDesign:
    @settings(deadline=None, max_examples=60)
    @given(basis_cases())
    def test_design_matches_per_column_bases(self, case):
        schema, reference, rows = case
        basis = default_basis(schema, reference=reference)
        expected, blocks = [], []
        for j, col in enumerate(schema.columns):
            if col.kind == "discrete":
                cols = [(rows[:, j] == c).astype(float) for c in range(1, col.cardinality + 1)]
            else:
                cols = [np.maximum(rows[:, j] - reference.rows[:, j].min() + 1.0, 0.0)]
            blocks.append(list(range(len(expected), len(expected) + len(cols))))
            expected += cols
        design = basis.design(rows)
        assert np.array_equal(design, np.column_stack(expected))
        assert basis.size == design.shape[1]
        assert [g.tolist() for g in basis.groups()] == blocks


class TestObjective:
    def test_uniform_indicators_score_zero(self, small_scored):
        basis = default_basis(small_scored.schema)
        d = small_scored.schema.d
        a = np.full((basis.size, 2), 1.0 / d)
        cfg = SeesCConfig(eta=0.0)
        value, _ = sees_c_objective(a, small_scored, small_scored, basis, cfg)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_eta_zero_is_plain_likelihood(self, small_scored):
        basis = default_basis(small_scored.schema)
        rng = np.random.default_rng(0)
        a = random_feasible((basis.size, 2), rng)
        v0, _ = sees_c_objective(a, small_scored, small_scored, basis,
                                 SeesCConfig(eta=0.0))
        # manual recomputation
        probs = small_scored.pred_probs
        inner = np.zeros(small_scored.n)
        for y in (1, 2):
            inner += probs[:, y - 1] * (basis.design(small_scored.rows) @ a[:, y - 1])
        assert v0 == pytest.approx(float(np.mean(np.log(inner))), abs=1e-12)

    def test_gradient_matches_central_differences(self, small_scored):
        basis = default_basis(small_scored.schema)
        cfg = SeesCConfig(eta=0.001)
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(20):
            a = random_feasible((basis.size, 2), rng)
            _, grad = sees_c_objective(a, small_scored, small_scored, basis, cfg)
            k = rng.integers(0, basis.size)
            y = rng.integers(0, 2)
            ap, am = a.copy(), a.copy()
            ap[k, y] += h
            am[k, y] -= h
            vp, _ = sees_c_objective(ap, small_scored, small_scored, basis, cfg)
            vm, _ = sees_c_objective(am, small_scored, small_scored, basis, cfg)
            fd = (vp - vm) / (2 * h)
            assert grad[k, y] == pytest.approx(fd, rel=1e-5, abs=1e-9)

    def test_likelihood_term_is_concave(self, small_scored):
        basis = default_basis(small_scored.schema)
        cfg = SeesCConfig(eta=0.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            a1 = random_feasible((basis.size, 2), rng)
            a2 = random_feasible((basis.size, 2), rng)
            t = rng.uniform()
            v1, _ = sees_c_objective(a1, small_scored, small_scored, basis, cfg)
            v2, _ = sees_c_objective(a2, small_scored, small_scored, basis, cfg)
            vm, _ = sees_c_objective(t * a1 + (1 - t) * a2, small_scored,
                                     small_scored, basis, cfg)
            assert vm >= t * v1 + (1 - t) * v2 - 1e-10


class TestRunSeesC:
    def test_no_shift_weights_near_one(self, small_scored):
        basis = default_basis(small_scored.schema)
        w, diag = run_sees_c(small_scored, small_scored, basis,
                             SeesCConfig(eta=0.0, max_iters=800))
        vals = w.weights_for(small_scored)
        assert float(np.sqrt(np.mean((vals - 1.0) ** 2))) < 0.05

    def test_eta_zero_refuses_a_basis_cell_no_source_row_weights(self, small_scored):
        # no source row has x2 = 2 with label 2, but target rows do: at eta 0
        # that coefficient raises the objective without bound
        keep = ~((small_scored.rows[:, 1] == 2) & (small_scored.labels == 2))
        source = small_scored.take(np.flatnonzero(keep))
        target = small_scored.without_labels()
        basis = default_basis(source.schema)
        with pytest.raises(ValidationError, match=r"unbounded: .* basis cell \(x2=2, y=2\)"):
            run_sees_c(source, target, basis, SeesCConfig(eta=0.0))
        # the group penalty bounds the same problem
        _, diag = run_sees_c(source, target, basis, SeesCConfig(eta=0.001))
        assert diag["non_convergence"] == 0.0

    def test_projection_contract(self, sjs_pair):
        source, target, _ = sjs_pair
        basis = default_basis(source.schema)
        w, diag = run_sees_c(source, target, basis, SeesCConfig(max_iters=800))
        assert (w.coefficients >= 0).all()
        assert abs(np.mean(w.weights_for(source)) - 1.0) < 1e-6
        assert diag["constraint_residual"] < 1e-6

    def test_objective_nondecreasing_in_iteration_budget(self, sjs_pair):
        source, target, _ = sjs_pair
        basis = default_basis(source.schema)
        values = []
        for iters in (1, 4, 16, 64, 256):
            _, diag = run_sees_c(source, target, basis, SeesCConfig(max_iters=iters))
            values.append(diag["objective"])
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_iteration_cap_reports_non_convergence(self, sjs_pair):
        source, target, _ = sjs_pair
        basis = default_basis(source.schema)
        _, capped = run_sees_c(source, target, basis, SeesCConfig(max_iters=3))
        assert capped["iterations"] == 3.0
        assert capped["non_convergence"] == 1.0

    def test_beats_bbse_on_joint_shift(self, sjs_pair):
        source, target, truth = sjs_pair
        basis = default_basis(source.schema)
        w, _ = run_sees_c(source, target, basis, SeesCConfig(max_iters=2000))
        mse_c = score_weights(w.weights_for(source), truth.true_weights.weights_for(source))["mse"]
        wb, _ = run_bbse(estimate_pmf(source, (PREDICTION, LABEL)),
                         estimate_pmf(target, (PREDICTION,)))
        mse_b = score_weights(wb.weights_for(source), truth.true_weights.weights_for(source))["mse"]
        assert mse_c < mse_b


def small_pair(seed, n_labels):
    """A 300-row source and a 200-row target drawn from 40 distinct rows, over
    a binary, a ternary and a continuous feature, with random probabilities."""
    rng = np.random.default_rng(seed)
    schema = FeatureSchema(columns=(Column("a", "discrete", 2), Column("b", "discrete", 3),
                                    Column("v", "continuous")), label_cardinality=n_labels)

    def draw(n, shift):
        y = rng.integers(1, n_labels + 1, n)
        rows = np.column_stack([np.where(rng.uniform(size=n) < 0.3 + 0.4 * shift * (y == 2), 2, 1),
                                rng.integers(1, 4, n), np.round(rng.normal(shift * y, 1.0, n), 2)])
        probs = rng.dirichlet(np.ones(n_labels), n)
        return TabularDataset(schema=schema, rows=rows.astype(float), labels=y,
                              predictions=probs.argmax(axis=1) + 1, pred_probs=probs)

    source, target = draw(300, 0.0), draw(40, 1.0)
    return source, target.take(rng.integers(0, target.n, 200))


def reference_optimum(source, target, basis, eta):
    """sees-c's optimum by SLSQP on the smooth epigraph form: maximize the
    plain likelihood minus eta * sum(t) subject to t_g^2 >= |a_g|^2, t >= 0,
    a >= 0 and the unit source mean, built here from the source rows."""
    L = source.schema.n_labels
    design = basis.design(source.rows)
    c = np.column_stack([design[source.labels == y].sum(axis=0)
                         for y in range(1, L + 1)]) / source.n
    groups = basis.groups()
    n = c.size
    plain = SeesCConfig(eta=0.0)

    def objective(z):
        value, grad = sees_c_objective(z[:n].reshape(c.shape), source, target, basis, plain)
        return -value + eta * z[n:].sum(), np.concatenate([-grad.ravel(), np.full(len(groups), eta)])

    def cone(z):
        a = z[:n].reshape(c.shape)
        return np.array([z[n + i] ** 2 - (a[g] ** 2).sum() for i, g in enumerate(groups)])

    def cone_jac(z):
        a = z[:n].reshape(c.shape)
        jac = np.zeros((len(groups), z.size))
        for i, g in enumerate(groups):
            block = np.zeros(c.shape)
            block[g] = -2 * a[g]
            jac[i, :n] = block.ravel()
            jac[i, n + i] = 2 * z[n + i]
        return jac

    a0 = np.full(c.shape, 1.0 / c.sum())
    z0 = np.concatenate([a0.ravel(), [np.sqrt((a0[g] ** 2).sum()) for g in groups]])
    mean = np.concatenate([c.ravel(), np.zeros(len(groups))])
    res = minimize(objective, z0, jac=True, method="SLSQP", bounds=[(0, None)] * z0.size,
                   constraints=[{"type": "eq", "fun": lambda z: [mean @ z - 1],
                                 "jac": lambda z: mean[None]},
                                {"type": "ineq", "fun": cone, "jac": cone_jac}],
                   options={"ftol": 1e-15, "maxiter": 1000})
    assert res.success, res.message
    a = np.maximum(res.x[:n].reshape(c.shape), 0.0)
    return sees_c_objective(a / float((c * a).sum()), source, target, basis,
                            SeesCConfig(eta=eta))[0]


class TestKktResidual:
    def test_stationary_point_reads_zero_and_each_violation_counts(self):
        c = np.array([1.0, 2.0, 1.0, 1.0])
        a = np.array([0.5, 0.25, 0.0, 0.0])  # c . a = 1
        grad = np.array([0.3, 0.6, 0.1, 0.3])  # 0.3 * c on the positive entries
        assert kkt_residual(a, grad, c)[0] == pytest.approx(0.0, abs=1e-15)
        # a zero entry that wants to grow (lam stays 0.3); positive entries
        # off the line (lam = a . grad = 0.31, r = (0.01, -0.02, ...))
        assert kkt_residual(a, grad + [0.0, 0.0, 0.25, 0.0], c)[0] == pytest.approx(0.05)
        assert kkt_residual(a, grad + [0.02, 0.0, 0.0, 0.0], c)[0] == pytest.approx(0.02)

    def test_all_zero_group_absorbs_a_pull_up_to_eta(self):
        c = np.ones((3, 1))
        a = np.array([[1.0], [0.0], [0.0]])
        grad = np.array([[1.0], [1.3], [1.4]])  # pull (0.3, 0.4) on the zero group
        groups = [np.array([0]), np.array([1, 2])]
        assert kkt_residual(a, grad, c, groups, eta=0.5)[0] == pytest.approx(0.0, abs=1e-15)
        assert kkt_residual(a, grad, c, groups, eta=0.4)[0] == pytest.approx(0.1)
        assert kkt_residual(a, grad, c)[0] == pytest.approx(0.4)


class TestNewtonOptimum:
    @pytest.mark.parametrize("seed,n_labels,eta,zero_groups", [
        (2, 2, 0.0, None),
        (6, 3, 0.001, None),
        (3, 2, 0.05, 1),  # feature b ends exactly at zero
        (6, 3, 0.05, 1),
    ])
    def test_matches_reference_optimum(self, seed, n_labels, eta, zero_groups):
        source, target = small_pair(seed, n_labels)
        assert np.unique(target.rows, axis=0).shape[0] < target.n  # repeated rows
        basis = default_basis(source.schema, reference=source)
        weight, diag = run_sees_c(source, target, basis, SeesCConfig(eta=eta))
        assert diag["stationarity"] <= KKT_TOL and diag["non_convergence"] == 0.0
        assert diag["objective"] == pytest.approx(reference_optimum(source, target, basis, eta),
                                                  abs=1e-8)
        if zero_groups is not None:
            assert (feature_scores(weight.coefficients, basis) == 0.0).sum() == zero_groups

    def test_benchmark_continuous_input_at_seed_6_converges_quickly(self, benchmark_pair):
        source, target = benchmark_pair("estimate-continuous", 6)
        basis = default_basis(source.schema, reference=source)
        _, diag = run_sees_c(source, target, basis)
        assert diag["iterations"] <= 50
        assert diag["stationarity"] <= KKT_TOL and diag["non_convergence"] == 0.0


class TestFeatureScores:
    def test_zero_coefficients(self, small_scored):
        basis = default_basis(small_scored.schema)
        beta = feature_scores(np.zeros((basis.size, 2)), basis)
        assert (beta == 0).all()

    def test_three_four_five(self):
        schema = FeatureSchema(
            columns=(Column("a", "discrete", 2), Column("b", "discrete", 2)),
            label_cardinality=2,
        )
        basis = default_basis(schema)
        a = np.zeros((basis.size, 2))
        # bases 2 and 3 read feature 2; put (3, 4) on one of them
        a[2, 0] = 3.0
        a[2, 1] = 4.0
        beta = feature_scores(a, basis)
        assert beta[1] == pytest.approx(5.0)
        assert beta[0] == 0.0

    def test_argmax_traces_shifted_feature(self):
        base = binary_base(4, 8000, 314)
        model = train_logistic(base)
        cfg = SeesCConfig(max_iters=400)
        hits = unconverged = 0
        trials = 100
        for seed in range(trials):
            shifted = (1 + seed % 4,)
            marg = boosted_marginal(
                empirical_marginal(base, shifted), correlation_boost(shifted, 2.2)
            )
            source, target, truth = shifted_pair(base, model, shifted, marg,
                                                 2000, 2000, seed)
            basis = default_basis(source.schema)
            w, diag = run_sees_c(source, target, basis, cfg)
            beta = feature_scores(w.coefficients, basis)
            if int(np.argmax(beta)) + 1 == shifted[0]:
                hits += 1
            unconverged += int(diag["non_convergence"])
        assert hits >= 80
        assert unconverged == 0
