"""Discrete-feature shift estimator: candidate-subset marginal matching.

For each candidate shifted set J of size s, the target marginal over every
2s-sized superset kappa (joined with the model's prediction) is matched
against the reweighted source marginal by box-constrained least squares;
the candidate attaining the smallest residual wins. For a fixed value of
x_J the unknowns are the L weights w(x_J, .), so the system decouples into
tiny per-cell blocks, which one stacked solver fits together.

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
    freed when the gradient points into the box. A block starts at w = 0 and
    ends when no held coordinate qualifies, or when a pass fails to strictly
    lower its best residual, which only rounding or an overflowing solve can
    cause. Each pass makes one stacked solve over the blocks still running,
    so a block takes the same steps as it would alone, with no tolerance or
    cap. Returns (w, residual, number of active-set changes) per block.
    """
    n, m, k = A.shape
    w = np.zeros((n, k))
    free = (A != 0.0).any(axis=1)
    changes = np.zeros(n, dtype=int)
    best_w, best_f, best_changes = w.copy(), (b * b).sum(axis=1), changes.copy()
    rcond = max(m, k) * np.finfo(float).eps  # lstsq's default cutoff
    run = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing solve
        while run.size:
            Ar, fr, wr = A[run], free[run], w[run]
            held = np.where(fr, 0.0, wr)
            rhs = b[run] - (Ar @ held[..., None])[..., 0]
            # as lstsq does: a QR of [A | rhs], then the minimum-norm solve on R
            qr = np.linalg.qr(np.concatenate([Ar * fr[:, None, :], rhs[..., None]], axis=2), "r")
            z = np.linalg.pinv(qr[:, :k, :k], rcond) @ qr[:, :k, k:]
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
    return best_w, best_f, best_changes


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
    return source_joint, target_joint


def _fit_blocks(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf, J,
                cfg: SeesDConfig) -> CandidateFit:
    """Fit every x_J block of candidate J in one ``_bvls`` call. Block i
    stacks the rows of its x_J value from each kappa's marginal, kappa by
    kappa; a label with no source mass in the block keeps weight 1 and
    counts as unconstrained."""
    L = source_joint.cardinalities[-1]
    cards_j = [source_joint.cardinalities[j - 1] for j in J]
    n_blocks = math.prod(cards_j)
    p, q = [], []
    for kappa in enumerate_kappas(J, len(source_joint.axes) - 2, cfg.sparsity):
        # x_J leads, so each block is one leading index
        feats = (*J, *(k for k in kappa if k not in J))
        p.append(source_joint.marginal((*feats, PREDICTION, LABEL)).mass.reshape(n_blocks, -1, L))
        q.append(target_joint.marginal((*feats, PREDICTION)).mass.reshape(n_blocks, -1))
    A = np.concatenate(p, axis=1)
    w, residual, changes = _bvls(A, np.concatenate(q, axis=1), cfg.weight_bound)
    live = A.sum(axis=1) > 0
    w[~live] = 1.0
    return CandidateFit(
        index_set=tuple(J),
        weights=w.reshape(*cards_j, L),
        distance=sum(residual.tolist()),
        unconstrained_cells=int((~live).sum()),
        solver_iterations=int(changes.sum()),
    )


def fit_candidate(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf, J,
                  cfg: SeesDConfig) -> CandidateFit:
    """Fit the one candidate J on the two joints (``sample_joints``, or exact ones)."""
    return _fit_blocks(*_check_joints(source_joint, target_joint), tuple(sorted(J)), cfg)


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
    fits = [_fit_blocks(source_joint, target_joint, J, cfg)
            for J in combinations(range(1, d + 1), s)]
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
