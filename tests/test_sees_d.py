import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import lsq_linear

from shiftscope.baselines import run_bbse
from shiftscope.errors import TooManyCandidates, ValidationError
from shiftscope.estimator import Pair
from shiftscope.data import Column, FeatureSchema, TabularDataset
from shiftscope.bench import run_suite
from shiftscope.sees_d import (
    CandidateFit,
    SeesDConfig,
    STACK_FLOATS,
    _bvls,
    _fit_candidates,
    enumerate_kappas,
    fit_candidate,
    run_sees_d,
    sample_joints,
)
from shiftscope.synth import (
    identifiable_fixture,
    label_shifted,
    population_joint,
    stump,
    counterexample_fixture,
)
from shiftscope.tabulate import LABEL, PREDICTION, estimate_pmf
from shiftscope.weights import TableWeight
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
        fit = fit_candidate(sj, tj, (1,), SeesDConfig(sparsity=1))
        assert fit.distance < 1e-12
        for x1 in (1, 2):
            for y in (1, 2):
                expected = truth.true_weights.value((x1,), y)
                assert fit.weights[x1 - 1, y - 1] == pytest.approx(expected, abs=1e-9)

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
        fit = fit_candidate(sj, tj, (2,), SeesDConfig(sparsity=1))
        assert fit.distance == pytest.approx(expected, abs=1e-10)
        assert expected < 1e-12

    def test_selection_returns_true_set(self):
        sj, tj, truth = counterexample_joints()
        weight, selected, diag = run_sees_d(sj, tj, SeesDConfig(sparsity=1))
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
        weight, selected, diag = run_sees_d(sj, tj, SeesDConfig(sparsity=1))
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
            fit = fit_candidate(sj, tj, J, cfg)
            expected = oracle_candidate_distance(
                source, target, stump(2), J, d=3, s=1, bound=cfg.weight_bound
            )
            assert fit.distance == pytest.approx(expected, rel=1e-8, abs=1e-12)


class TestSampleMode:
    def test_identical_pair_gives_unit_weights(self, small_scored):
        cfg = SeesDConfig(sparsity=1)
        fit = fit_candidate(*sample_joints(small_scored, small_scored), (2,), cfg)
        assert fit.distance < 1e-20
        assert fit.weights.shape == (2, 2)
        assert np.abs(fit.weights - 1.0).max() <= 1e-9

    def test_duplicating_rows_changes_nothing(self, small_scored):
        cfg = SeesDConfig(sparsity=1)
        doubled = small_scored.take(np.repeat(np.arange(small_scored.n), 2))
        w1, j1, _ = run_sees_d(*sample_joints(small_scored, small_scored), cfg)
        w2, j2, _ = run_sees_d(*sample_joints(doubled, doubled), cfg)
        assert j1 == j2
        assert dict(w1.table) == pytest.approx(dict(w2.table))

    def test_full_kappa_distance_nonnegative_and_zero_on_identity(self, small_scored):
        # 2s >= d forces the single full-feature kappa
        cfg = SeesDConfig(sparsity=2)
        fit = fit_candidate(*sample_joints(small_scored, small_scored), (1, 2), cfg)
        assert 0.0 <= fit.distance < 1e-18

    def test_unseen_cell_is_neutral_and_flagged(self, small_scored):
        # remove every x1=2 row from the source: the (x1=2) block has no
        # source mass, so its weights stay at 1.0 and get flagged
        keep = np.flatnonzero(small_scored.rows[:, 0] == 1)
        source = small_scored.take(keep)
        fit = fit_candidate(*sample_joints(source, small_scored), (1,), SeesDConfig(sparsity=1))
        assert fit.unconstrained_cells >= 2
        assert fit.weights[1].tolist() == [1.0, 1.0]

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
            run_sees_d(*sample_joints(ds, ds), SeesDConfig(sparsity=4))


class TestLabelShiftDegenerate:
    def test_s0_recovers_exact_label_ratios(self):
        # population-mode pure label shift: the empty candidate reduces the
        # matcher to label-shift weights q(y)/p(y)
        source, _, _ = counterexample_fixture()
        target = label_shifted(source, {1: Fraction(1, 5), 2: Fraction(4, 5)})
        sj = population_joint(source, stump(2))
        tj = population_joint(target, stump(2), include_label=False)
        weight, selected, diag = run_sees_d(sj, tj, SeesDConfig(sparsity=0))
        assert selected == ()
        assert weight.value((), 1) == pytest.approx(0.4, abs=1e-9)
        assert weight.value((), 2) == pytest.approx(1.6, abs=1e-9)


def box_ls(A, b, hi):
    """``_bvls`` on the one block (A, b), with the residual ||A w - b||^2 of
    the returned w. Returns (w, residual, number of active-set changes)."""
    w, _, changes = _bvls(A[None], b[None], hi)
    r = A @ w[0] - b
    return w[0], float(r @ r), int(changes[0])


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
    # subnormal columns, whose singular values count as zero
    @example((np.array([[0.0, 5e-324, 5e-324]]), np.array([0.01]), 1.0))
    @example((np.array([[5e-324, 5e-324, 0.0]]), np.array([0.01]), 1.0))
    # the first solve walks to w2 = hi; the next one, on the subnormal
    # column alone, must not end the block at its start
    @example((np.array([[0.0, 1.0], [2.22507386e-309, 0.0]]), np.array([2.0, 0.0]), 1.0))
    # every free solve lands at or below 0 (w2 at -3e-17), so the first
    # in-box pass is back at w = 0; it must be scored, or the block ends
    # before the pull test frees w2 (optimum w2 = 0.25, residual 1.25)
    @example((np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.5, 1.0], [0.0, 1.0, 0.25, 0.0]]),
              np.array([-1.0, -0.5, 0.25]), 1.0))
    def test_matches_bounded_least_squares_oracle(self, problem):
        A, b, hi = problem
        w, residual, changes = box_ls(A, b, hi)
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
        w, residual, changes = box_ls(A, np.array([-1.0, 0.5, 30.0]), 20.0)
        assert w.tolist() == [0.0, 0.5, 20.0]
        assert residual == pytest.approx(101.0)
        assert changes == 2

    def test_interior_optimum_takes_no_changes(self):
        A = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        w, residual, changes = box_ls(A, A @ np.array([2.0, 3.0]), 20.0)
        assert w == pytest.approx([2.0, 3.0])
        assert residual < 1e-24
        assert changes == 0


@st.composite
def box_stacks(draw):
    """(A, b, hi) for a stack of 1 to 20 blocks sharing (m, k), k from 1 to
    4: in each block a column may be zero or a copy of the one before, a
    dead column is zero in every block, a row may be zero in A and b, and
    each right side is drawn around a point that may lie below 0 or above hi."""
    n, m, k = draw(st.integers(1, 20)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    entry = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    A = draw(arrays(float, (n, m, k), elements=entry))
    kinds = draw(arrays("U4", (n, k), elements=st.sampled_from(["own", "zero", "copy"])))
    for i, j in zip(*np.nonzero(kinds == "zero")):
        A[i, :, j] = 0.0
    for i, j in zip(*np.nonzero(kinds == "copy")):
        if j:
            A[i, :, j] = A[i, :, j - 1]
    A[:, :, draw(arrays(bool, k))] = 0.0
    hi = draw(st.sampled_from([1.0, 2.5, 20.0]))
    center = draw(arrays(float, (n, k), elements=st.floats(-hi, 2 * hi)))
    noise = draw(arrays(float, (n, m), elements=st.floats(-1.0, 1.0)))
    b = (A @ center[..., None])[..., 0] + draw(st.sampled_from([0.0, 0.01, 1.0])) * noise
    zero_rows = draw(arrays(bool, (n, m)))
    A[zero_rows], b[zero_rows] = 0.0, 0.0
    return A, b, hi


class TestBatchedBoxLeastSquares:
    @settings(max_examples=200, deadline=None)
    @given(box_stacks())
    # the two subnormal blocks, stacked with an ordinary one
    @example((np.array([[[0.0, 5e-324, 5e-324]], [[5e-324, 5e-324, 0.0]], [[0.5, 0.25, 1.0]]]),
              np.array([[0.01], [0.01], [0.3]]), 1.0))
    def test_each_block_matches_its_solve_alone(self, problem):
        A, b, hi = problem
        w, residual, changes = _bvls(A, b, hi)
        assert w.shape == A.shape[::2] and residual.shape == changes.shape == (len(A),)
        assert np.isfinite(residual).all()
        for i in range(len(A)):
            w_i, residual_i, changes_i = box_ls(A[i], b[i], hi)
            assert changes[i] == changes_i
            tol = 1e-12 * (1.0 + residual_i)
            assert np.abs(w[i] - w_i).max() <= tol
            assert abs(residual[i] - residual_i) <= tol


def reference_box_ls(A, b, hi):
    """The per-block solver that ``_bvls`` replaced, one ``lstsq`` call per solve."""
    w = np.zeros(A.shape[1])
    free = np.ones(A.shape[1], dtype=bool)
    changes = 0
    best = (w, float(b @ b), changes)
    while True:
        while True:
            z = w.copy()
            z[free], *_ = np.linalg.lstsq(A[:, free], b - A[:, ~free] @ w[~free], rcond=None)
            out = np.flatnonzero(free & ((z < 0.0) | (z > hi)))
            if not out.size:
                break
            edge = np.where(z[out] < 0.0, 0.0, hi)
            step = (edge - w[out]) / (z[out] - w[out])
            i = np.argmin(step)
            if step[i] > 0.0:
                w = w + step[i] * (z - w)
            w = np.clip(w, 0.0, hi)
            w[out[i]] = edge[i]
            free[out[i]] = False
            changes += 1
        r = A @ z - b
        f = float(r @ r)
        if not f < best[1]:
            return best
        w, best = z, (z, f, changes)
        g = A.T @ r
        pull = np.where(free, 0.0, np.where(w == 0.0, -g, g))
        if pull.max() <= 0.0:
            return best
        free[np.argmax(pull)] = True
        changes += 1


def reference_fit(source_joint, target_joint, J, cfg):
    """The per-block fit that the stacked fit replaced: one (A, b) system per
    x_J cell, its all-zero rows and dead columns dropped, solved alone."""
    L = source_joint.cardinalities[-1]
    cards_j = [source_joint.cardinalities[j - 1] for j in J]
    n_blocks = math.prod(cards_j)
    p, q = [], []
    for kappa in enumerate_kappas(J, len(source_joint.axes) - 2, cfg.sparsity):
        feats = (*J, *(k for k in kappa if k not in J))
        p.append(source_joint.marginal((*feats, PREDICTION, LABEL)).mass.reshape(n_blocks, -1, L))
        q.append(target_joint.marginal((*feats, PREDICTION)).mass.reshape(n_blocks, -1))
    weights, distance, unconstrained, iterations = np.ones((n_blocks, L)), 0.0, 0, 0
    for blk in range(n_blocks):
        A, b = np.vstack([m[blk] for m in p]), np.concatenate([m[blk] for m in q])
        keep = (A.max(axis=1) > 0) | (b > 0)
        A_k, b_k = A[keep], b[keep]
        w = weights[blk]
        live = A_k.sum(axis=0) > 0 if A_k.size else np.zeros(L, dtype=bool)
        unconstrained += int(L - live.sum())
        if live.any():
            sol, resid, iters = reference_box_ls(A_k[:, live], b_k, cfg.weight_bound)
            w[live] = sol
            distance += resid
            iterations += iters
        else:
            distance += float(b_k @ b_k)
    return CandidateFit(index_set=tuple(J), weights=weights.reshape(*cards_j, L),
                        distance=distance, unconstrained_cells=unconstrained,
                        solver_iterations=iterations)


def assert_fits_match_reference(source_joint, target_joint, sparsities):
    d = len(source_joint.axes) - 2
    for s in sparsities:
        cfg = SeesDConfig(sparsity=s)
        for J in itertools.combinations(range(1, d + 1), s):
            fit = fit_candidate(source_joint, target_joint, J, cfg)
            ref = reference_fit(source_joint, target_joint, J, cfg)
            assert fit.index_set == ref.index_set
            assert fit.weights.shape == ref.weights.shape
            assert fit.unconstrained_cells == ref.unconstrained_cells
            assert fit.solver_iterations == ref.solver_iterations
            assert np.abs(fit.weights - ref.weights).max() <= 1e-12
            assert abs(fit.distance - ref.distance) <= 1e-15


class TestBatchedFitMatchesPerBlockFit:
    def test_sample_joints(self, small_scored):
        rng = np.random.default_rng(5)
        target = small_scored.take(rng.integers(0, small_scored.n, size=1500))
        d = small_scored.schema.d
        assert_fits_match_reference(estimate_pmf(small_scored, (*range(1, d + 1), PREDICTION, LABEL)),
                                    estimate_pmf(target, (*range(1, d + 1), PREDICTION)),
                                    range(d + 1))

    def test_three_labels(self):
        source, target, _ = three_label_pair()
        axes = (1, 2, 3, PREDICTION)
        assert_fits_match_reference(estimate_pmf(source, (*axes, LABEL)),
                                    estimate_pmf(target, axes), range(4))

    def test_identifiable_fixture(self):
        source, target, _ = identifiable_fixture()
        assert_fits_match_reference(population_joint(source, stump(2)),
                                    population_joint(target, stump(2), include_label=False),
                                    range(4))


def test_sensitivity_suite_solves_blocks_in_batches(tmp_path, monkeypatch):
    """One sensitivity-suite operation fits 2187 blocks, all candidates of a
    sparsity in one ``_bvls`` call; a per-block solve loop would make at
    least one linear solve per block."""
    import shiftscope.sees_d
    monkeypatch.setenv("SHIFTSCOPE_THREADS", "1")
    blocks, solves = [], []

    def counted_bvls(A, b, hi, _real=_bvls):
        blocks.append(len(A))
        return _real(A, b, hi)

    monkeypatch.setattr(shiftscope.sees_d, "_bvls", counted_bvls)
    for name in ("lstsq", "pinv", "solve", "svd"):
        def counted(*args, _real=getattr(np.linalg, name), **kwargs):
            solves.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    run_suite("sensitivity", 1, tmp_path / "sensitivity.csv")
    assert sum(blocks) == 2187
    assert len(blocks) == 8  # one stack per sparsity
    assert len(solves) < sum(blocks)


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


def sensitivity_pair():
    """The pair one seed of the sensitivity suite runs its eight sparsities on."""
    from shiftscope.bench import MULTI_AMPS, joint_trial, suite_fixture

    base, model = suite_fixture(7)
    return joint_trial(base, model, (1, 2, 3), 10000, 0, amp=MULTI_AMPS, n_source=20000)


def recording_bvls(monkeypatch):
    """Patch ``_bvls`` to record the shape of every stack it is handed."""
    import shiftscope.sees_d

    shapes = []

    def recorded(A, b, hi, _real=_bvls):
        shapes.append(A.shape)
        return _real(A, b, hi)

    monkeypatch.setattr(shiftscope.sees_d, "_bvls", recorded)
    return shapes


def assert_same_fit(fit, alone):
    assert fit.index_set == alone.index_set
    assert fit.distance == alone.distance
    assert fit.weights.shape == alone.weights.shape
    assert (fit.weights == alone.weights).all()
    assert fit.unconstrained_cells == alone.unconstrained_cells
    assert fit.solver_iterations == alone.solver_iterations


@pytest.mark.parametrize("build, sparsities, shapes_at_1", [
    (sensitivity_pair, range(8), 1),
    # x1 has three values, x2 and x3 two: at s = 1 the blocks come in two shapes
    (three_label_pair, range(4), 2),
])
def test_search_matches_one_candidate_at_a_time(build, sparsities, shapes_at_1, monkeypatch):
    """The stacked search gives every candidate the bits of its fit alone."""
    source, target, _ = build()
    joints = sample_joints(source, target)
    d = source.schema.d
    for s in sparsities:
        cfg = SeesDConfig(sparsity=s)
        candidates = list(itertools.combinations(range(1, d + 1), s))
        alone = [fit_candidate(*joints, J, cfg) for J in candidates]
        with monkeypatch.context() as m:
            shapes = recording_bvls(m)
            _, selected, diag = run_sees_d(*joints, cfg)
        assert len(shapes) == len({shape[1:] for shape in shapes})
        if s == 1:
            assert len(shapes) == shapes_at_1
        for J, fit in zip(candidates, alone):
            assert diag[f"dd({','.join(map(str, J))})"] == fit.distance
        best = alone[candidates.index(selected)]
        assert diag["unconstrained_cells"] == best.unconstrained_cells
        assert diag["solver_iterations"] == best.solver_iterations
        for fit, one in zip(_fit_candidates(*joints, candidates, cfg), alone):
            assert_same_fit(fit, one)
        # stacks of three blocks split candidates across stacks
        with monkeypatch.context() as m:
            m.setattr("shiftscope.sees_d.STACK_FLOATS", 3 * max(math.prod(x[1:]) for x in shapes))
            for fit, one in zip(_fit_candidates(*joints, candidates, cfg), alone):
                assert_same_fit(fit, one)


def test_stacks_stay_within_the_float_budget(monkeypatch):
    """d = 12 binary features at s = 6: 924 candidates of 64 blocks, about
    15M floats of A unstacked, fitted in stacks of at most STACK_FLOATS."""
    rng = np.random.default_rng(3)
    d, n = 12, 3000
    schema = FeatureSchema(columns=tuple(Column(f"x{j}", "discrete", 2) for j in range(1, d + 1)),
                           label_cardinality=2)

    def dataset(labeled):
        x = rng.integers(1, 3, size=(n, d))
        y = np.where(rng.random(n) < 0.8, x[:, 0], 3 - x[:, 0])
        return TabularDataset(schema=schema, rows=x, labels=y if labeled else None,
                              predictions=1 + (x[:, 0] + x[:, 1]) % 2)

    joints = sample_joints(dataset(True), dataset(False))
    cfg = SeesDConfig(sparsity=6)
    candidates = list(itertools.combinations(range(1, d + 1), 6))
    assert len(candidates) * 64 * 128 * 2 > 14 * STACK_FLOATS
    shapes = recording_bvls(monkeypatch)
    fits = _fit_candidates(*joints, candidates, cfg)
    assert sum(shape[0] for shape in shapes) == len(candidates) * 64
    assert max(math.prod(shape) for shape in shapes) <= STACK_FLOATS
    for J, fit in zip(candidates, fits):
        assert_same_fit(fit, fit_candidate(*joints, J, cfg))


def joint_trial_pair():
    from shiftscope.bench import joint_trial, suite_fixture

    base, model = suite_fixture(6)
    return joint_trial(base, model, (1,), 8000, 3)


@pytest.mark.parametrize("build", [joint_trial_pair, three_label_pair])
def test_bbse_on_the_pairs_sees_d_joints_matches_its_own_joints(build):
    source, target, _ = build()
    shared = run_bbse(*Pair(source, target).joints)
    alone = run_bbse(estimate_pmf(source, (PREDICTION, LABEL)),
                     estimate_pmf(target, (PREDICTION,)))
    assert shared == alone


def test_three_labels_recover_the_shifted_feature():
    source, target, truth = three_label_pair()
    weight, selected, diag = run_sees_d(*sample_joints(source, target), SeesDConfig(sparsity=1))
    assert selected == (1,)
    assert diag["dd(1)"] < 1e-20
    assert diag["dd(2)"] > 1e-6 and diag["dd(3)"] > 1e-6
    for x1 in (1, 2, 3):
        for y in (1, 2, 3):
            assert weight.value((x1,), y) == pytest.approx(truth[x1 - 1, y - 1], abs=1e-9)


def test_one_search_builds_one_table_weight(small_scored, monkeypatch):
    """Each candidate's weights stay an array; only the winner's become a
    ``TableWeight``, where building one per candidate would make C(d, s) + 1."""
    rng = np.random.default_rng(5)
    joints = sample_joints(small_scored, small_scored.take(rng.integers(0, small_scored.n, 1500)))
    built, real = [], TableWeight.__post_init__

    def counted(self):
        built.append(self.index_set)
        real(self)

    monkeypatch.setattr(TableWeight, "__post_init__", counted)
    for s in range(small_scored.schema.d + 1):
        built.clear()
        weight, selected, diag = run_sees_d(*joints, SeesDConfig(sparsity=s))
        assert diag["candidates"] == math.comb(small_scored.schema.d, s)
        assert built == [selected] and weight.index_set == selected
