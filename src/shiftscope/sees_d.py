"""Discrete-feature shift estimator: candidate-subset marginal matching.

For each candidate shifted set J of size s, the target marginal over every
2s-sized superset kappa (joined with the model's prediction) is matched
against the reweighted source marginal by box-constrained least squares;
the candidate attaining the smallest residual wins. For a fixed value of
x_J the unknowns are the L weights w(x_J, .), so the system decouples into
tiny per-cell blocks. The blocks of every candidate of a sparsity are fitted
together: those of one shape are stacked, up to ``STACK_FLOATS`` entries per
stack, into one call of the batched box solver.

``run_sees_d`` reads two joints of the one table type, ``EmpiricalPmf``:
exact ones in population mode, the ``sample_joints`` of two datasets in
sample mode, which ``estimator.Pair`` builds once for every sparsity and for
bbse. Only a marginal's ``.mass`` is made dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .data import TabularDataset
from .errors import TooManyCandidates, ValidationError
from .tabulate import LABEL, PREDICTION, EmpiricalPmf, estimate_pmf
from .weights import TableWeight

TIE_TOL = 1e-12
TINY = np.finfo(float).tiny  # the smallest normal float
STACK_FLOATS = 2**20  # most entries of A in one stacked ``_bvls`` call


@dataclass(frozen=True)
class SeesDConfig:
    sparsity: int
    weight_bound: float = 20.0

    def __post_init__(self):
        if self.sparsity < 0:
            raise ValidationError("sparsity must be >= 0")
        if self.weight_bound < 1:
            raise ValidationError("weight bound must be >= 1")


@dataclass(frozen=True)
class CandidateFit:
    index_set: tuple[int, ...]
    weights: np.ndarray  # (*cardinalities of J, L), unnormalized
    distance: float
    unconstrained_cells: int = 0
    solver_iterations: int = 0


def enumerate_kappas(J, d: int, s: int) -> list[tuple[int, ...]]:
    """All supersets of J with min(2s, d) members, sorted lexicographically."""
    J = tuple(sorted(int(j) for j in J))
    if d < 1:
        raise ValidationError("d must be >= 1")
    if len(J) != s:
        raise ValidationError(f"|J| = {len(J)} but s = {s}")
    if any(not 1 <= j <= d for j in J):
        raise ValidationError(f"candidate {J} outside 1..{d}")
    size = min(2 * s, d)
    rest = [i for i in range(1, d + 1) if i not in J]
    out = [tuple(sorted(J + extra)) for extra in combinations(rest, size - len(J))]
    return sorted(out)


def _bvls(A: np.ndarray, b: np.ndarray, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """min ||A[i] w - b[i]||^2 over the box [0, hi]^k for every block i of
    the stacks A (n, m, k) and b (n, m), by bounded-variable least squares
    (Stark & Parker 1995).

    The free coordinates are solved by minimum-norm least squares while the
    others are held at 0 or hi; the first solve frees every coordinate whose
    column is not all zero. A solve that leaves the box steps to the first
    bound it meets and holds that coordinate there. A held coordinate is
    freed when the gradient points into the box. A block starts at w = 0,
    scores its first solve that stays in the box, and ends when no held
    coordinate qualifies or a later pass fails to strictly lower its best
    residual (only rounding or an overflowing solve can do that; a block never
    scored returns w = 0). Each pass makes one stacked solve over the blocks
    still running, so a block takes the same steps as it would alone, with no
    tolerance or cap. Returns (w, residual, active-set changes) per block.
    """
    n, m, k = A.shape
    w = np.zeros((n, k))
    free = (A != 0.0).any(axis=1)
    changes = np.zeros(n, dtype=int)
    best_w, best_f, best_changes = w.copy(), np.full(n, np.inf), changes.copy()
    rcond = max(m, k) * np.finfo(float).eps  # lstsq's default cutoff
    run = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing solve
        while run.size:
            Ar, fr, wr = A[run], free[run], w[run]
            held = np.where(fr, 0.0, wr)
            rhs = b[run] - (Ar @ held[..., None])[..., 0]
            # as lstsq does: a QR of [A | rhs], then the minimum-norm solve on R
            qr = np.linalg.qr(np.concatenate([Ar * fr[:, None, :], rhs[..., None]], axis=2), "r")
            R = qr[:, :k, :k]
            # a singular value at or below TINY also counts as zero, so no
            # kept one has an overflowing reciprocal (the largest singular
            # value is at least the largest entry)
            cut = np.maximum(rcond, TINY / np.maximum(np.abs(R).max(axis=(1, 2)), TINY))
            z = np.linalg.pinv(R, cut) @ qr[:, :k, k:]
            z = np.where(fr, z[..., 0], held)
            out = fr & ((z < 0.0) | (z > hi))
            walk = out.any(axis=1)
            # walk from w toward z until the first coordinate meets its bound
            edge = np.where(z < 0.0, 0.0, hi)
            step = np.full(z.shape, np.inf)
            step[out] = (edge[out] - wr[out]) / (z[out] - wr[out])
            i, t = step.argmin(axis=1), step.min(axis=1)
            moved = walk & (t > 0.0)  # a solve that overflowed (z = +-inf) meets its bound at once
            wr[moved] += t[moved, None] * (z[moved] - wr[moved])
            wr[walk] = np.clip(wr[walk], 0.0, hi)
            wr[walk, i[walk]] = edge[walk, i[walk]]
            fr[walk, i[walk]] = False
            changes[run[walk]] += 1
            # a block whose solve stayed in the box is scored
            r = (Ar @ z[..., None])[..., 0] - b[run]
            f = (r * r).sum(axis=1)
            lower = ~walk & (f < best_f[run])  # also false on a NaN residual
            wr[lower] = z[lower]
            best_w[run[lower]], best_f[run[lower]] = z[lower], f[lower]
            best_changes[run[lower]] = changes[run[lower]]
            g = (r[:, None, :] @ Ar)[:, 0]
            # positive where moving a held coordinate into the box lowers the residual
            pull = np.where(fr, 0.0, np.where(wr == 0.0, -g, g))
            j = pull.argmax(axis=1)
            grow = lower & (pull.max(axis=1) > 0.0)
            fr[grow, j[grow]] = True
            changes[run[grow]] += 1
            w[run], free[run] = wr, fr
            run = run[walk | grow]
    return best_w, np.where(np.isinf(best_f), (b * b).sum(axis=1), best_f), best_changes


def sample_joints(source: TabularDataset, target: TabularDataset):
    """The joints sees-d searches and bbse marginalizes: (features...,
    prediction, label) of the source, (features..., prediction) of the target."""
    if source.labels is None or source.predictions is None:
        raise ValidationError("source needs labels and predictions")
    if target.predictions is None:
        raise ValidationError("target needs predictions")
    feats = range(1, source.schema.d + 1)
    return (estimate_pmf(source, (*feats, PREDICTION, LABEL)),
            estimate_pmf(target, (*feats, PREDICTION)))


def _check_joints(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf):
    feat = tuple(range(1, len(source_joint.axes) - 1))
    if not feat or source_joint.axes != (*feat, PREDICTION, LABEL):
        raise ValidationError("source joint must have axes (features..., prediction, label)")
    if target_joint.axes != (*feat, PREDICTION):
        raise ValidationError("target joint must have axes (features..., prediction)")


def _candidate_blocks(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf, J, kappas,
                      dense: dict) -> tuple[np.ndarray, np.ndarray]:
    """Candidate J's (A, b): block i stacks the rows of the i-th x_J value
    from each kappa's marginal, kappa by kappa. ``dense`` maps a kappa to its
    two dense marginals, which every candidate within kappa shares."""
    L = source_joint.cardinalities[-1]
    n_blocks = math.prod(source_joint.cardinalities[j - 1] for j in J)
    p, q = [], []
    for kappa in kappas:
        if kappa not in dense:
            dense[kappa] = (source_joint.marginal((*kappa, PREDICTION, LABEL)).mass,
                            target_joint.marginal((*kappa, PREDICTION)).mass)
        p_k, q_k = dense[kappa]
        # x_J leads, so each block is one leading index
        order = (*(kappa.index(j) for j in J), *(i for i, k in enumerate(kappa) if k not in J))
        size = len(kappa)
        p.append(p_k.transpose(*order, size, size + 1).reshape(n_blocks, -1, L))
        q.append(q_k.transpose(*order, size).reshape(n_blocks, -1))
    return np.concatenate(p, axis=1), np.concatenate(q, axis=1)


def _stacks(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf, candidates, kappas,
            first_block):
    """Yield each stack as a list of (A, b, rows) parts: blocks of one shape
    from consecutive candidates, at most ``STACK_FLOATS`` entries of A (or
    one block), and each block's position among all candidates' blocks. A
    candidate may straddle two stacks; kappa marginals live for one stack."""
    cards = source_joint.cardinalities
    by_rows: dict[int, list[int]] = {}
    for c, (J, ks) in enumerate(zip(candidates, kappas)):
        rows = cards[-2] * sum(math.prod(cards[i - 1] for i in kappa if i not in J) for kappa in ks)
        by_rows.setdefault(rows, []).append(c)
    for m, members in by_rows.items():
        cap = max(1, STACK_FLOATS // (m * cards[-1]))  # blocks per stack
        parts, dense, filled = [], {}, 0
        for c in members:
            A, b = _candidate_blocks(source_joint, target_joint, candidates[c], kappas[c], dense)
            lo = 0
            while lo < len(A):
                take = min(cap - filled, len(A) - lo)
                parts.append((A[lo:lo + take], b[lo:lo + take],
                              np.arange(first_block[c] + lo, first_block[c] + lo + take)))
                lo, filled = lo + take, filled + take
                if filled == cap:
                    yield parts
                    parts, dense, filled = [], {}, 0
        if parts:
            yield parts


def _fit_candidates(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf, candidates,
                    cfg: SeesDConfig) -> list[CandidateFit]:
    """Fit every candidate's x_J blocks, one ``_bvls`` call per stack of
    equal-shape blocks. A label with no source mass in a block keeps weight 1
    and counts as unconstrained."""
    d, L = len(source_joint.axes) - 2, source_joint.cardinalities[-1]
    kappas = [enumerate_kappas(J, d, cfg.sparsity) for J in candidates]
    cards_j = [[source_joint.cardinalities[j - 1] for j in J] for J in candidates]
    first_block = np.cumsum([0, *(math.prod(c) for c in cards_j)])
    w = np.empty((first_block[-1], L))
    residual, changes = np.empty(first_block[-1]), np.empty(first_block[-1], dtype=int)
    live = np.empty((first_block[-1], L), dtype=bool)
    for parts in _stacks(source_joint, target_joint, candidates, kappas, first_block):
        A, b, rows = (np.concatenate(x) for x in zip(*parts))
        w[rows], residual[rows], changes[rows] = _bvls(A, b, cfg.weight_bound)
        live[rows] = A.sum(axis=1) > 0
    w[~live] = 1.0
    return [CandidateFit(index_set=tuple(J), weights=w[lo:hi].reshape(*cards, L),
                         distance=sum(residual[lo:hi].tolist()),
                         unconstrained_cells=int((~live[lo:hi]).sum()),
                         solver_iterations=int(changes[lo:hi].sum()))
            for J, cards, lo, hi in zip(candidates, cards_j, first_block, first_block[1:])]


def fit_candidate(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf, J,
                  cfg: SeesDConfig) -> CandidateFit:
    """Fit the one candidate J on the two joints (``sample_joints``, or exact
    ones), by the same stacked fit ``run_sees_d`` makes of every candidate."""
    _check_joints(source_joint, target_joint)
    return _fit_candidates(source_joint, target_joint, [tuple(sorted(J))], cfg)[0]


def run_sees_d(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf,
               cfg: SeesDConfig) -> tuple[TableWeight, tuple[int, ...], dict]:
    """Search all size-s candidates on the two joints, ``sample_joints`` of
    two datasets or exact ones; returns (normalized weights, J, diagnostics).

    Distances are compared before normalization; ties within 1e-12 go to
    the lexicographically smallest candidate. Only the winner's weights
    become a ``TableWeight``, rescaled so their source expectation, taken
    over the (x_J, y) source marginal, is 1.
    """
    _check_joints(source_joint, target_joint)
    d = len(source_joint.axes) - 2
    s = cfg.sparsity
    if s > d:
        raise ValidationError(f"sparsity {s} exceeds feature count {d}")
    n_cand = math.comb(d, s)
    if n_cand > 10**5:
        raise TooManyCandidates(f"{n_cand} candidate subsets of size {s} (limit 1e5)")
    fits = _fit_candidates(source_joint, target_joint, list(combinations(range(1, d + 1), s)), cfg)
    best = fits[0]
    for cand in fits[1:]:
        if cand.distance < best.distance - TIE_TOL:
            best = cand
    diagnostics = {f"dd({','.join(map(str, f.index_set))})": f.distance for f in fits}
    diagnostics["selected_distance"] = best.distance
    diagnostics["unconstrained_cells"] = float(best.unconstrained_cells)
    diagnostics["solver_iterations"] = float(best.solver_iterations)
    diagnostics["candidates"] = float(len(fits))
    label_marg = source_joint.marginal((*best.index_set, LABEL)).mass
    mean = 0.0
    # one product at a time in C order: np.sum's pairwise order and the
    # builtin sum's compensated one would move the output's last bits
    for m, v in zip(label_marg.ravel().tolist(), best.weights.ravel().tolist()):
        mean += m * v
    if mean <= 0:
        raise ValidationError("cannot normalize: zero source expectation")
    w = best.weights * (1.0 / mean)
    table = {(tuple(i + 1 for i in idx[:-1]), idx[-1] + 1): v
             for idx, v in zip(np.ndindex(w.shape), w.ravel().tolist())}
    return TableWeight(index_set=best.index_set, table=table), best.index_set, diagnostics
