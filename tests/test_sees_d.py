import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

from shiftscope.errors import TooManyCandidates, ValidationError
from shiftscope.data import Column, FeatureSchema, TabularDataset
from shiftscope.sees_d import (
    SeesDConfig,
    _box_ls,
    enumerate_kappas,
    fit_candidate,
    fit_candidate_population,
    run_sees_d,
    run_sees_d_population,
)
from shiftscope.synth import (
    identifiable_fixture,
    label_shifted,
    population_joint,
    stump,
    counterexample_fixture,
)
from shiftscope.tabulate import LABEL, PREDICTION, estimate_pmf
from fractions import Fraction


class TestEnumerateKappas:
    def test_basic_supersets(self):
        assert enumerate_kappas((1,), 3, 1) == [(1, 2), (1, 3)]

    def test_full_set_when_2s_reaches_d(self):
        assert enumerate_kappas((1, 2), 4, 2) == [(1, 2, 3, 4)]

    def test_single_superset(self):
        assert enumerate_kappas((2,), 2, 1) == [(1, 2)]

    def test_empty_candidate(self):
        assert enumerate_kappas((), 5, 0) == [()]

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            enumerate_kappas((1, 2), 4, 1)


def counterexample_joints(classifier=None):
    source, target, truth = counterexample_fixture()
    clf = classifier or stump(2)
    return (
        population_joint(source, clf),
        population_joint(target, clf, include_label=False),
        truth,
    )


def oracle_candidate_distance(source, target, classifier, J, d, s, bound):
    """Independent evaluation of the matching objective at its optimum.

    Builds the per-cell linear systems directly from the analytic pmf
    tables and solves each with scipy's bounded least squares.
    """
    L = 2
    kappas = enumerate_kappas(J, d, s)
    values = [tuple(range(1, 3))] * d
    total = 0.0
    j_cells = list(itertools.product(*[values[j - 1] for j in J])) or [()]
    for xj in j_cells:
        rows_a, rows_b = [], []
        for kappa in kappas:
            rest = [k for k in kappa if k not in J]
            for x_rest in itertools.product(*[values[k - 1] for k in rest]):
                assign = dict(zip(J, xj))
                assign.update(dict(zip(rest, x_rest)))
                for f_bar in (1, 2):
                    q_mass = 0.0
                    p_row = np.zeros(L)
                    for x in itertools.product(*values):
                        if any(x[k - 1] != assign[k] for k in kappa):
                            continue
                        if classifier(x) != f_bar:
                            continue
                        for y in (1, 2):
                            p_row[y - 1] += float(source.prob(x, y))
                            q_mass += float(target.prob(x, y))
                    rows_a.append(p_row)
                    rows_b.append(q_mass)
        A = np.array(rows_a)
        b = np.array(rows_b)
        keep = (A.max(axis=1) > 0) | (b > 0)
        A, b = A[keep], b[keep]
        if A.size == 0:
            continue
        res = lsq_linear(A, b, bounds=(0.0, bound), tol=1e-14)
        total += float(np.sum((A @ res.x - b) ** 2))
    return total


class TestCounterexamplePopulation:
    def test_true_candidate_is_exact(self):
        sj, tj, truth = counterexample_joints()
        fit = fit_candidate_population(sj, tj, (1,), SeesDConfig(sparsity=1))
        assert fit.distance < 1e-12
        for x1 in (1, 2):
            for y in (1, 2):
                expected = truth.true_weights.value((x1,), y)
                assert fit.weights.value((x1,), y) == pytest.approx(expected, abs=1e-9)

    def test_wrong_candidate_matches_oracle(self):
        # With two features the matching marginals use the full feature set,
        # where a deterministic classifier adds nothing beyond x itself; the
        # J={2} system is then square and consistent, so its optimal distance
        # is 0 as well (the bounded-least-squares oracle confirms it) and
        # selection falls to the lexicographic tie rule.
        source, target, _ = counterexample_fixture()
        expected = oracle_candidate_distance(
            source, target, stump(2), (2,), d=2, s=1, bound=20.0
        )
        sj, tj, _ = counterexample_joints()
        fit = fit_candidate_population(sj, tj, (2,), SeesDConfig(sparsity=1))
        assert fit.distance == pytest.approx(expected, abs=1e-10)
        assert expected < 1e-12

    def test_selection_returns_true_set(self):
        sj, tj, truth = counterexample_joints()
        weight, selected, diag = run_sees_d_population(sj, tj, SeesDConfig(sparsity=1))
        assert selected == (1,)
        assert diag["selected_distance"] < 1e-12
        assert weight.value((2,), 2) == pytest.approx(6.0, abs=1e-9)


class TestIdentifiableFixture:
    """d=3 fixture whose matching marginals are linearly independent: the
    distance is zero iff the candidate equals the true shifted set."""

    def test_zero_distance_iff_true_set(self):
        source, target, truth = identifiable_fixture()
        sj = population_joint(source, stump(2))
        tj = population_joint(target, stump(2), include_label=False)
        weight, selected, diag = run_sees_d_population(sj, tj, SeesDConfig(sparsity=1))
        assert selected == (1,)
        assert diag["dd(1)"] < 1e-12
        assert diag["dd(2)"] > 1e-4 and diag["dd(3)"] > 1e-4
        for x1 in (1, 2):
            for y in (1, 2):
                assert weight.value((x1,), y) == pytest.approx(
                    truth.true_weights.value((x1,), y), abs=1e-9
                )

    def test_oracle_agrees_on_every_candidate(self):
        source, target, _ = identifiable_fixture()
        sj = population_joint(source, stump(2))
        tj = population_joint(target, stump(2), include_label=False)
        cfg = SeesDConfig(sparsity=1)
        for J in ((1,), (2,), (3,)):
            fit = fit_candidate_population(sj, tj, J, cfg)
            expected = oracle_candidate_distance(
                source, target, stump(2), J, d=3, s=1, bound=cfg.weight_bound
            )
            assert fit.distance == pytest.approx(expected, rel=1e-8, abs=1e-12)


class TestSampleMode:
    def test_identical_pair_gives_unit_weights(self, small_scored):
        cfg = SeesDConfig(sparsity=1)
        fit = fit_candidate(small_scored, small_scored, (2,), cfg)
        assert fit.distance < 1e-20
        for v in (1, 2):
            for y in (1, 2):
                assert fit.weights.value((v,), y) == pytest.approx(1.0, abs=1e-9)

    def test_duplicating_rows_changes_nothing(self, small_scored):
        cfg = SeesDConfig(sparsity=1)
        doubled = small_scored.take(np.repeat(np.arange(small_scored.n), 2))
        w1, j1, _ = run_sees_d(small_scored, small_scored, cfg)
        w2, j2, _ = run_sees_d(doubled, doubled, cfg)
        assert j1 == j2
        assert dict(w1.table) == pytest.approx(dict(w2.table))

    def test_sample_mode_equals_population_mode_on_empirical_joints(self, small_scored):
        rng = np.random.default_rng(5)
        target = small_scored.take(rng.integers(0, small_scored.n, size=1500))
        d = small_scored.schema.d
        sj = estimate_pmf(small_scored, (*range(1, d + 1), PREDICTION, LABEL))
        tj = estimate_pmf(target, (*range(1, d + 1), PREDICTION))
        for s in range(d + 1):
            cfg = SeesDConfig(sparsity=s)
            for J in itertools.combinations(range(1, d + 1), s):
                fit = fit_candidate(small_scored, target, J, cfg)
                pop = fit_candidate_population(sj, tj, J, cfg)
                assert fit.distance == pytest.approx(pop.distance, abs=1e-12)
                assert fit.weights.table.keys() == pop.weights.table.keys()
                for cell, w in fit.weights.table.items():
                    assert w == pytest.approx(pop.weights.table[cell], abs=1e-9)

    def test_full_kappa_distance_nonnegative_and_zero_on_identity(self, small_scored):
        # 2s >= d forces the single full-feature kappa
        cfg = SeesDConfig(sparsity=2)
        fit = fit_candidate(small_scored, small_scored, (1, 2), cfg)
        assert 0.0 <= fit.distance < 1e-18

    def test_unseen_cell_is_neutral_and_flagged(self, small_scored):
        # remove every x1=2 row from the source: the (x1=2) block has no
        # source mass, so its weights stay at 1.0 and get flagged
        keep = np.flatnonzero(small_scored.rows[:, 0] == 1)
        source = small_scored.take(keep)
        fit = fit_candidate(source, small_scored, (1,), SeesDConfig(sparsity=1))
        assert fit.unconstrained_cells >= 2
        assert fit.weights.value((2,), 1) == 1.0
        assert fit.weights.value((2,), 2) == 1.0

    def test_candidate_guard(self):
        cols = tuple(Column(f"c{i}", "discrete", 2) for i in range(1, 51))
        schema = FeatureSchema(columns=cols, label_cardinality=2)
        ds = TabularDataset(
            schema=schema,
            rows=np.ones((4, 50)),
            labels=[1, 2, 1, 2],
            predictions=[1, 2, 1, 2],
        )
        with pytest.raises(TooManyCandidates):
            run_sees_d(ds, ds, SeesDConfig(sparsity=4))


class TestLabelShiftDegenerate:
    def test_s0_recovers_exact_label_ratios(self):
        # population-mode pure label shift: the empty candidate reduces the
        # matcher to label-shift weights q(y)/p(y)
        source, _, _ = counterexample_fixture()
        target = label_shifted(source, {1: Fraction(1, 5), 2: Fraction(4, 5)})
        sj = population_joint(source, stump(2))
        tj = population_joint(target, stump(2), include_label=False)
        weight, selected, diag = run_sees_d_population(sj, tj, SeesDConfig(sparsity=0))
        assert selected == ()
        assert weight.value((), 1) == pytest.approx(0.4, abs=1e-9)
        assert weight.value((), 2) == pytest.approx(1.6, abs=1e-9)


@st.composite
def box_problems(draw):
    """(A, b, hi) with 1 to 4 columns, some zero or duplicated, and a right
    side drawn around a point that may lie below 0 or above hi."""
    k = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    A = np.array(draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                               min_size=m, max_size=m)))
    for j, kind in enumerate(draw(st.lists(st.sampled_from(["own", "zero", "copy"]),
                                           min_size=k, max_size=k))):
        if kind == "zero":
            A[:, j] = 0.0
        elif kind == "copy" and j:
            A[:, j] = A[:, j - 1]
    hi = draw(st.sampled_from([1.0, 2.5, 20.0]))
    center = np.array(draw(st.lists(st.floats(-hi, 2 * hi), min_size=k, max_size=k)))
    noise = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
    return A, A @ center + draw(st.sampled_from([0.0, 0.01, 1.0])) * noise, hi


class TestBoxLeastSquares:
    @settings(max_examples=300, deadline=None)
    @given(box_problems())
    # subnormal columns whose least-squares solve overflows to inf
    @example((np.array([[0.0, 5e-324, 5e-324]]), np.array([0.01]), 1.0))
    @example((np.array([[5e-324, 5e-324, 0.0]]), np.array([0.01]), 1.0))
    def test_matches_bounded_least_squares_oracle(self, problem):
        A, b, hi = problem
        w, residual, changes = _box_ls(A, b, hi)
        assert w.shape == (A.shape[1],)
        assert ((w >= 0.0) & (w <= hi)).all()
        r = A @ w - b
        assert residual == float(r @ r)
        oracle = lsq_linear(A, b, bounds=(0.0, hi), method="bvls", tol=1e-14)
        best = float(np.sum((A @ oracle.x - b) ** 2))
        assert abs(residual - best) <= 1e-12 * (1.0 + best)
        assert changes >= 0

    def test_optimum_on_both_bounds(self):
        A = np.eye(3)
        w, residual, changes = _box_ls(A, np.array([-1.0, 0.5, 30.0]), 20.0)
        assert w.tolist() == [0.0, 0.5, 20.0]
        assert residual == pytest.approx(101.0)
        assert changes == 2

    def test_interior_optimum_takes_no_changes(self):
        A = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        w, residual, changes = _box_ls(A, A @ np.array([2.0, 3.0]), 20.0)
        assert w == pytest.approx([2.0, 3.0])
        assert residual < 1e-24
        assert changes == 0


def three_label_pair():
    """Source and target over x1 in 1..3 and x2, x3 in 1..2 with three
    labels. The target repeats each source (x, y) row m(x1, y) times, so the
    pair is under an exact shift on {x1} with weights proportional to m."""
    rng = np.random.default_rng(11)
    cols = (Column("x1", "discrete", 3), Column("x2", "discrete", 2),
            Column("x3", "discrete", 2))
    schema = FeatureSchema(columns=cols, label_cardinality=3)
    m = rng.integers(1, 5, size=(3, 3))
    cells = [(x, y) for x in itertools.product((1, 2, 3), (1, 2), (1, 2)) for y in (1, 2, 3)]
    counts = rng.integers(1, 7, size=len(cells))
    src = [cell for cell, c in zip(cells, counts) for _ in range(c)]
    tgt = [(x, y) for (x, y), c in zip(cells, counts) for _ in range(c * m[x[0] - 1, y - 1])]

    def dataset(rows, labeled):
        x = np.array([r[0] for r in rows], dtype=float)
        preds = 1 + (x[:, 0] + x[:, 1]).astype(int) % 3
        return TabularDataset(schema=schema, rows=x, predictions=preds,
                              labels=[r[1] for r in rows] if labeled else None)

    source, target = dataset(src, True), dataset(tgt, False)
    return source, target, m * source.n / target.n


def test_three_labels_recover_the_shifted_feature():
    source, target, truth = three_label_pair()
    weight, selected, diag = run_sees_d(source, target, SeesDConfig(sparsity=1))
    assert selected == (1,)
    assert diag["dd(1)"] < 1e-20
    assert diag["dd(2)"] > 1e-6 and diag["dd(3)"] > 1e-6
    for x1 in (1, 2, 3):
        for y in (1, 2, 3):
            assert weight.value((x1,), y) == pytest.approx(truth[x1 - 1, y - 1], abs=1e-9)
