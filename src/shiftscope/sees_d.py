"""Discrete-feature shift estimator: candidate-subset marginal matching.

For each candidate shifted set J of size s, the target marginal over every
2s-sized superset kappa (joined with the model's prediction) is matched
against the reweighted source marginal by box-constrained least squares;
the candidate attaining the smallest residual wins. For a fixed value of
x_J the unknowns are the L weights w(x_J, .), so the system decouples into
tiny per-cell blocks.

Both modes read the one table type, ``EmpiricalPmf``: sample mode is
population mode on ``estimate_pmf`` joints, and only a marginal's ``.mass``
is ever made dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    weights: TableWeight
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


def _box_ls(A: np.ndarray, b: np.ndarray, hi: float) -> tuple[np.ndarray, float, int]:
    """min ||A w - b||^2 over the box [0, hi]^k by bounded-variable least
    squares (Stark & Parker 1995).

    The free coordinates are solved by plain least squares while the others
    are held at 0 or hi; the first solve frees every coordinate. A solve that
    leaves the box steps to the first bound it meets and holds that
    coordinate there. A held coordinate is freed when the gradient points
    into the box. The search starts at w = 0 and ends when no held
    coordinate qualifies, or when a pass fails to strictly lower the best
    residual, which only rounding or an overflowing solve can cause.
    Returns (w, residual, number of active-set changes).
    """
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
            # walk from w toward z until the first coordinate meets its bound
            edge = np.where(z[out] < 0.0, 0.0, hi)
            step = (edge - w[out]) / (z[out] - w[out])
            i = np.argmin(step)
            if step[i] > 0.0:  # a solve that overflowed (z = +-inf) meets its bound at once
                w = w + step[i] * (z - w)
            w = np.clip(w, 0.0, hi)
            w[out[i]] = edge[i]
            free[out[i]] = False
            changes += 1
        r = A @ z - b
        f = float(r @ r)
        if not f < best[1]:  # also a NaN residual
            return best
        w, best = z, (z, f, changes)
        g = A.T @ r
        # positive where moving a held coordinate into the box lowers the residual
        pull = np.where(free, 0.0, np.where(w == 0.0, -g, g))
        if pull.max() <= 0.0:
            return best
        free[np.argmax(pull)] = True
        changes += 1


def _sample_joints(source: TabularDataset, target: TabularDataset):
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


def _blocks_for(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf, J, s: int):
    """Per-x_J stacked (A, b) systems across every matching kappa."""
    L = source_joint.cardinalities[-1]
    cards_j = [source_joint.cardinalities[j - 1] for j in J]
    n_blocks = math.prod(cards_j)
    p, q = [], []
    for kappa in enumerate_kappas(J, len(source_joint.axes) - 2, s):
        # x_J leads, so each block is one leading index
        feats = (*J, *(k for k in kappa if k not in J))
        p.append(source_joint.marginal((*feats, PREDICTION, LABEL)).mass.reshape(n_blocks, -1, L))
        q.append(target_joint.marginal((*feats, PREDICTION)).mass.reshape(n_blocks, -1))
    return [(tuple(int(v) + 1 for v in np.unravel_index(blk, cards_j)),
             np.vstack([m[blk] for m in p]), np.concatenate([m[blk] for m in q]))
            for blk in range(n_blocks)]


def _fit_blocks(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf, J,
                cfg: SeesDConfig) -> CandidateFit:
    L = source_joint.cardinalities[-1]
    table = {}
    distance = 0.0
    unconstrained = 0
    iterations = 0
    for xj, A, b in _blocks_for(source_joint, target_joint, J, cfg.sparsity):
        keep = (A.max(axis=1) > 0) | (b > 0)
        A_k, b_k = A[keep], b[keep]
        w = np.ones(L)
        live = A_k.sum(axis=0) > 0 if A_k.size else np.zeros(L, dtype=bool)
        unconstrained += int(L - live.sum())
        if live.any():
            sol, resid, iters = _box_ls(A_k[:, live], b_k, cfg.weight_bound)
            w[live] = sol
            distance += resid
            iterations += iters
        else:
            distance += float(b_k @ b_k)
        for y in range(1, L + 1):
            table[(xj, y)] = float(w[y - 1])
    return CandidateFit(
        index_set=tuple(J),
        weights=TableWeight(index_set=tuple(J), table=table),
        distance=distance,
        unconstrained_cells=unconstrained,
        solver_iterations=iterations,
    )


def fit_candidate(source: TabularDataset, target: TabularDataset, J,
                  cfg: SeesDConfig) -> CandidateFit:
    return _fit_blocks(*_sample_joints(source, target), tuple(sorted(J)), cfg)


def fit_candidate_population(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf,
                             J, cfg: SeesDConfig) -> CandidateFit:
    return _fit_blocks(*_check_joints(source_joint, target_joint), tuple(sorted(J)), cfg)


def _search(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf,
            cfg: SeesDConfig) -> tuple[TableWeight, tuple[int, ...], dict]:
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
    return _normalize_table(best.weights, label_marg), best.index_set, diagnostics


def _normalize_table(weight: TableWeight, label_marg: np.ndarray) -> TableWeight:
    """Rescale so the source expectation of the weight equals 1, computed
    from the (x_J, y) source marginal."""
    mean = 0.0
    it = np.ndindex(label_marg.shape)
    for idx in it:
        xj = tuple(v + 1 for v in idx[:-1])
        y = idx[-1] + 1
        mean += label_marg[idx] * weight.value(xj, y)
    if mean <= 0:
        raise ValidationError("cannot normalize: zero source expectation")
    factor = 1.0 / mean
    return replace(weight, table={k: w * factor for k, w in weight.table.items()})


def run_sees_d(source: TabularDataset, target: TabularDataset,
               cfg: SeesDConfig) -> tuple[TableWeight, tuple[int, ...], dict]:
    """Search all size-s candidates; returns (normalized weights, J, diagnostics).

    Distances are compared before normalization; ties within 1e-12 go to
    the lexicographically smallest candidate.
    """
    return _search(*_sample_joints(source, target), cfg)


def run_sees_d_population(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf,
                          cfg: SeesDConfig) -> tuple[TableWeight, tuple[int, ...], dict]:
    """Population mode: the same search over exact joints."""
    return _search(*_check_joints(source_joint, target_joint), cfg)
