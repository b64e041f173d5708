import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftscope.baselines import run_bbse
from shiftscope.data import Column, FeatureSchema, TabularDataset
from shiftscope.errors import ValidationError
from shiftscope.estimator import score_weights
from shiftscope.predictor import predict, train_logistic
from shiftscope.sees_c import (
    BasisSet,
    SeesCConfig,
    default_basis,
    feature_scores,
    project_feasible,
    run_sees_c,
    sees_c_objective,
)
from shiftscope.synth import binary_base, boosted_marginal, correlation_boost, empirical_marginal, shifted_pair


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


def zeros_or_scaled(n):
    """n entries, each 0 or in [0.1, 10]."""
    return st.lists(st.one_of(st.just(0.0), st.floats(0.1, 10.0)), min_size=n, max_size=n)


@st.composite
def constraint_and_point(draw, feasible=False):
    """A constraint c >= 0 with zero entries allowed and at least one positive
    entry, and a point v: a feasible one, a generic one, or an all-negative
    one of large magnitude, whose hyperplane step rounding can cancel so that
    clipping leaves no mass."""
    n = draw(st.integers(1, 8))
    c = np.array(draw(zeros_or_scaled(n).filter(lambda xs: max(xs) > 0)))
    if feasible:
        u = np.array(draw(zeros_or_scaled(n)))
        if float((c * u).sum()) <= 0:
            u = np.where(c > 0, 1.0, u)
        return c, u / float((c * u).sum())
    if draw(st.booleans()):
        return c, np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    exponents = draw(st.lists(st.floats(-3.0, 20.0), min_size=n, max_size=n))
    return c, -(10.0 ** np.array(exponents))


class TestProjectFeasible:
    @settings(deadline=None, max_examples=300)
    @given(constraint_and_point())
    @example((np.array([1.0, 0.0, 1.0]), np.array([-1e20, -3.0, -1e20])))  # no mass left
    def test_result_is_feasible(self, cv):
        c, v = cv
        a = project_feasible(v, c)
        assert (a >= 0).all()
        assert abs(float((c * a).sum()) - 1.0) <= 1e-12

    @settings(deadline=None, max_examples=300)
    @given(constraint_and_point(feasible=True))
    def test_feasible_point_is_kept(self, cv):
        c, v = cv
        np.testing.assert_allclose(project_feasible(v, c), v, rtol=1e-15, atol=1e-15)


class TestRunSeesC:
    def test_no_shift_weights_near_one(self, small_scored):
        basis = default_basis(small_scored.schema)
        w, diag = run_sees_c(small_scored, small_scored, basis,
                             SeesCConfig(eta=0.0, max_iters=800))
        vals = w.weights_for(small_scored)
        assert float(np.sqrt(np.mean((vals - 1.0) ** 2))) < 0.05

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
        mse_c = score_weights(w, truth, source)["mse"]
        wb, _ = run_bbse(source, target)
        mse_b = score_weights(wb, truth, source)["mse"]
        assert mse_c < mse_b


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
        hits = 0
        trials = 100
        for seed in range(trials):
            shifted = (1 + seed % 4,)
            marg = boosted_marginal(
                empirical_marginal(base, shifted), correlation_boost(shifted, 2.2)
            )
            source, target, truth = shifted_pair(base, model, shifted, marg,
                                                 2000, 2000, seed)
            basis = default_basis(source.schema)
            w, _ = run_sees_c(source, target, basis, cfg)
            beta = feature_scores(w.coefficients, basis)
            if int(np.argmax(beta)) + 1 == shifted[0]:
                hits += 1
        assert hits >= 80
