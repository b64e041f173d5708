"""Discrete-feature shift estimator: candidate-subset marginal matching.

For each candidate shifted set J of size s, the target marginal over every
2s-sized superset kappa (joined with the model's prediction) is matched
against the reweighted source marginal by box-constrained least squares;
the candidate attaining the smallest residual wins. For a fixed value of
x_J the unknowns are the L weights w(x_J, .), so the system decouples into
tiny per-cell blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .data import TabularDataset
from .errors import TooManyCandidates, ValidationError
from .tabulate import (LABEL, MAX_TABLE_CELLS, PREDICTION, EmpiricalPmf, _axis_column,
                       distinct_rows)
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


class _Tables:
    """Source (features..., prediction, label) and target (features...,
    prediction) joints, each kept as its distinct 0-based cells (one column
    per cell), each cell's mass and a total.

    A marginal is one bincount over the cells, divided by the total. From
    samples the masses are integer counts, so every marginal equals
    ``estimate_pmf`` on the same axes bit for bit.
    """

    def __init__(self, source, target, cards: tuple[int, ...]):
        self.source, self.target = source, target  # (cells, mass, total)
        self.cards = cards  # per source column: features..., prediction, label
        self.d = len(cards) - 2
        self.n_labels = cards[-1]

    @classmethod
    def from_samples(cls, source: TabularDataset, target: TabularDataset) -> "_Tables":
        if source.labels is None or source.predictions is None:
            raise ValidationError("source needs labels and predictions")
        if target.predictions is None:
            raise ValidationError("target needs predictions")
        if source.n == 0 or target.n == 0:
            raise ValidationError("cannot estimate a pmf from an empty dataset")
        feats = range(1, source.schema.d + 1)
        sides = []
        for ds, axes in ((source, (*feats, PREDICTION, LABEL)), (target, (*feats, PREDICTION))):
            cells, inverse = distinct_rows([_axis_column(ds, a)[0] for a in axes])
            sides.append((np.array(cells, dtype=int).T, np.bincount(inverse).astype(float),
                          float(ds.n)))
        L = source.schema.n_labels
        return cls(*sides, (*(source.schema.column(j).cardinality for j in feats), L, L))

    @classmethod
    def from_joints(cls, source_joint: EmpiricalPmf, target_joint: EmpiricalPmf) -> "_Tables":
        feat = tuple(range(1, len(source_joint.axes) - 1))
        if not feat or source_joint.axes != (*feat, PREDICTION, LABEL):
            raise ValidationError("source joint must have axes (features..., prediction, label)")
        if target_joint.axes != (*feat, PREDICTION):
            raise ValidationError("target joint must have axes (features..., prediction)")
        sides = [(np.array(np.nonzero(j.mass)), j.mass[j.mass != 0], 1.0)
                 for j in (source_joint, target_joint)]
        return cls(*sides, source_joint.cardinalities)

    def _marginal(self, side, cols: list[int]) -> np.ndarray:
        cells, mass, total = side
        cards = tuple(self.cards[c] for c in cols)
        n_cells = int(np.prod(cards))
        if n_cells > MAX_TABLE_CELLS:
            raise ValidationError(f"refusing to materialize table with {n_cells} cells")
        flat = np.ravel_multi_index(cells[cols], cards)
        return (np.bincount(flat, weights=mass, minlength=n_cells) / total).reshape(cards)

    def q(self, feats) -> np.ndarray:
        """Target mass over (feats..., prediction), in the given order."""
        return self._marginal(self.target, [j - 1 for j in feats] + [self.d])

    def p(self, feats) -> np.ndarray:
        """Source mass over (feats..., prediction, label)."""
        return self._marginal(self.source, [j - 1 for j in feats] + [self.d, self.d + 1])

    def label_marginal(self, J) -> np.ndarray:
        """Source mass over (J..., label)."""
        return self._marginal(self.source, [j - 1 for j in J] + [self.d + 1])


def _box_ls(A: np.ndarray, b: np.ndarray, hi: float) -> tuple[np.ndarray, float, int]:
    """min ||A w - b||^2 over the box [0, hi]^k by bounded-variable least
    squares (Stark & Parker 1995).

    The free coordinates are solved by plain least squares while the others
    are held at 0 or hi; the first solve frees every coordinate. A solve that
    leaves the box steps to the first bound it meets and holds that
    coordinate there. A held coordinate is freed when the gradient points
    into the box. The search ends when no held coordinate qualifies, or when
    freeing one fails to lower the residual, which only rounding can cause.
    Returns (w, residual, number of active-set changes).
    """
    w = np.zeros(A.shape[1])
    free = np.ones(A.shape[1], dtype=bool)
    changes = 0
    best = (w, np.inf, changes)
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
            w = np.clip(w + step[i] * (z - w), 0.0, hi)
            w[out[i]] = edge[i]
            free[out[i]] = False
            changes += 1
        r = A @ z - b
        f = float(r @ r)
        if f >= best[1]:
            return best
        w, best = z, (z, f, changes)
        g = A.T @ r
        # positive where moving a held coordinate into the box lowers the residual
        pull = np.where(free, 0.0, np.where(w == 0.0, -g, g))
        if pull.max() <= 0.0:
            return best
        free[np.argmax(pull)] = True
        changes += 1


def _blocks_for(tables, J, s: int):
    """Per-x_J stacked (A, b) systems across every matching kappa."""
    kappas = enumerate_kappas(J, tables.d, s)
    L = tables.n_labels
    cards_j = [tables.cards[j - 1] for j in J]
    n_blocks = int(np.prod(cards_j)) if J else 1
    rows_a = [[] for _ in range(n_blocks)]
    rows_b = [[] for _ in range(n_blocks)]
    for kappa in kappas:
        # x_J leads, so each block is one leading index
        feats = (*J, *(k for k in kappa if k not in J))
        q_f = tables.q(feats).reshape(n_blocks, -1)
        p_f = tables.p(feats).reshape(n_blocks, -1, L)
        for blk in range(n_blocks):
            rows_a[blk].append(p_f[blk])
            rows_b[blk].append(q_f[blk])
    out = []
    for blk in range(n_blocks):
        xj = tuple(int(v) + 1 for v in np.unravel_index(blk, cards_j)) if J else ()
        out.append((xj, np.vstack(rows_a[blk]), np.concatenate(rows_b[blk])))
    return out


def _fit_blocks(tables, J, cfg: SeesDConfig) -> CandidateFit:
    L = tables.n_labels
    table = {}
    distance = 0.0
    unconstrained = 0
    iterations = 0
    for xj, A, b in _blocks_for(tables, J, cfg.sparsity):
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
    return _fit_blocks(_Tables.from_samples(source, target), tuple(sorted(J)), cfg)


def fit_candidate_population(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf,
                             J, cfg: SeesDConfig) -> CandidateFit:
    return _fit_blocks(_Tables.from_joints(source_joint, target_joint), tuple(sorted(J)), cfg)


def _search(tables: _Tables, cfg: SeesDConfig) -> tuple[TableWeight, tuple[int, ...], dict]:
    d = tables.d
    s = cfg.sparsity
    if s > d:
        raise ValidationError(f"sparsity {s} exceeds feature count {d}")
    n_cand = math.comb(d, s)
    if n_cand > 10**5:
        raise TooManyCandidates(f"{n_cand} candidate subsets of size {s} (limit 1e5)")
    fits = [_fit_blocks(tables, J, cfg) for J in combinations(range(1, d + 1), s)]
    best = fits[0]
    for cand in fits[1:]:
        if cand.distance < best.distance - TIE_TOL:
            best = cand
    diagnostics = {f"dd({','.join(map(str, f.index_set))})": f.distance for f in fits}
    diagnostics["selected_distance"] = best.distance
    diagnostics["unconstrained_cells"] = float(best.unconstrained_cells)
    diagnostics["solver_iterations"] = float(best.solver_iterations)
    diagnostics["candidates"] = float(len(fits))
    weight = _normalize_table(best.weights, tables.label_marginal(best.index_set))
    return weight, best.index_set, diagnostics


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
    return _search(_Tables.from_samples(source, target), cfg)


def run_sees_d_population(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf,
                          cfg: SeesDConfig) -> tuple[TableWeight, tuple[int, ...], dict]:
    """Population mode: identical search over exact joint tables."""
    return _search(_Tables.from_joints(source_joint, target_joint), cfg)
