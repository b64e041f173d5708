"""Continuous-feature shift estimator: group-penalized likelihood matching.

Weights are linear combinations of fixed nonnegative basis functions of
the features alone, w(x, y) = sum_k a[k, y] * phi_k(x); the label enters
only through the coefficients. The coefficients maximize the empirical
target log of the induced feature density surrogate, minus a group penalty
(one group per feature) that drives whole features out of the weight,
subject to nonnegativity and a unit source-mean constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DISCRETE, FeatureSchema, TabularDataset
from .errors import ValidationError
from .predictor import one_hot
from .tabulate import distinct_first
from .weights import BasisWeight


@dataclass(frozen=True)
class BasisSet:
    """The bases phi_k(x): ``predictor.one_hot`` of the rows with each
    continuous column x_i replaced by max(x_i - shifts[i] + 1, 0). ``shifts``
    holds one entry per column, None for a discrete one."""

    schema: FeatureSchema
    shifts: tuple

    def __post_init__(self):
        if [s is None for s in self.shifts] != [c.kind == DISCRETE for c in self.schema.columns]:
            raise ValidationError("basis shifts: a number per continuous column, None per discrete")

    @property
    def size(self) -> int:
        return sum(g.size for g in self.groups())

    def groups(self) -> list[np.ndarray]:
        """For each feature, in column order, the indices k of its bases: one
        block per column, as wide as its cardinality (1 if continuous)."""
        widths = [col.cardinality if col.kind == DISCRETE else 1 for col in self.schema.columns]
        ends = np.cumsum(widths)
        return [np.arange(end - width, end) for width, end in zip(widths, ends)]

    def design(self, rows: np.ndarray) -> np.ndarray:
        """(n, K) matrix of basis values."""
        shifted = np.array(rows, dtype=float)
        for j, shift in enumerate(self.shifts):
            if shift is not None:
                shifted[:, j] = np.maximum(shifted[:, j] - shift + 1.0, 0.0)
        return one_hot(self.schema, shifted)


def default_basis(schema: FeatureSchema, reference: TabularDataset | None = None) -> BasisSet:
    """Linear bases for continuous columns, indicators for discrete ones.

    A continuous feature contributes phi(x) = x_i - min + 1, shifted by the
    reference dataset's column minimum so every basis value stays
    nonnegative; a discrete feature of cardinality v contributes the v
    indicator functions.
    """
    shifts = []
    for j, col in enumerate(schema.columns):
        if col.kind == DISCRETE:
            shifts.append(None)
        elif reference is None:
            raise ValidationError(
                f"continuous column {col.name!r} needs a reference dataset "
                "to anchor the nonnegative shift"
            )
        else:
            shifts.append(float(reference.rows[:, j].min()))
    return BasisSet(schema=schema, shifts=tuple(shifts))


STEP_SIZE = 0.1  # first step tried by each backtracking search
TOL = 1e-9  # one step's objective gain below this ends the ascent
PROB_FLOOR = 1e-8  # floor on the target likelihood surrogate inside the log


@dataclass(frozen=True)
class SeesCConfig:
    eta: float = 0.001
    max_iters: int = 5000

    def __post_init__(self):
        if self.eta < 0:
            raise ValidationError("eta must be >= 0")
        if self.max_iters <= 0:
            raise ValidationError("max_iters must be positive")


def _group_norms(a: np.ndarray, groups) -> np.ndarray:
    return np.array([np.sqrt(float((a[g] ** 2).sum())) for g in groups])


def feature_scores(a: np.ndarray, basis: BasisSet) -> np.ndarray:
    """Per-feature contribution beta_i, the Euclidean norm of the feature's
    coefficient group (all its bases, all labels)."""
    a = np.asarray(a, dtype=float)
    if (a < 0).any():
        raise ValidationError("coefficients must be nonnegative")
    return _group_norms(a, basis.groups())


class _Problem:
    """Precomputed matrices for one (source, target, basis) triple."""

    def __init__(self, source: TabularDataset, target: TabularDataset, basis: BasisSet):
        if target.pred_probs is None or source.pred_probs is None:
            raise ValidationError("both datasets need pred_probs")
        if source.labels is None:
            raise ValidationError("source needs labels")
        L = source.schema.n_labels
        self.L = L
        self.groups = basis.groups()
        # the target enters only through its distinct (row, probabilities)
        # pairs, weighted by count; equal rows may carry external
        # predictions that differ
        first, inverse = distinct_first([*target.rows.T, *target.pred_probs.T])
        self.counts = np.bincount(inverse).astype(float)
        self.phi_t = basis.design(target.rows[first])  # (m, K)
        self.pt = target.pred_probs[first]  # (m, L)
        self.n_t = target.n
        # linear constraint: sum_{k,y} a[k,y] * c[k,y] = 1
        c = np.zeros((basis.size, L))
        for y in range(1, L + 1):
            mask = source.labels == y
            if mask.any():
                c[:, y - 1] = basis.design(source.rows[mask]).sum(axis=0)
        self.constraint = c / source.n

    def value_grad(self, a: np.ndarray, cfg: SeesCConfig):
        inner = np.zeros(self.counts.size)
        for y in range(self.L):
            inner += self.pt[:, y] * (self.phi_t @ a[:, y])
        floored = inner < PROB_FLOOR
        safe = np.maximum(inner, PROB_FLOOR)
        value = float((self.counts * np.log(safe)).sum()) / self.n_t
        coef = np.where(floored, 0.0, self.counts / safe) / self.n_t
        grad = np.empty_like(a)
        for y in range(self.L):
            grad[:, y] = self.phi_t.T @ (coef * self.pt[:, y])
        if cfg.eta > 0:
            norms = _group_norms(a, self.groups)
            value -= cfg.eta * float(norms.sum())
            for i, g in enumerate(self.groups):
                if norms[i] > 0:
                    grad[g] -= cfg.eta * a[g] / norms[i]
        return value, grad


def project_feasible(v: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Map ``v`` into {a >= 0, sum(c * a) = 1} for a nonnegative ``c``:
    orthogonal step to the hyperplane, clip at 0, rescale. If clipping
    leaves no mass, every entry with c > 0 is set to 1 before the rescale."""
    c_sq = float((c * c).sum())
    if c_sq <= 0:
        raise ValidationError("constraint vector is identically zero")
    a = np.maximum(v + c * (1.0 - float((c * v).sum())) / c_sq, 0.0)
    s = float((c * a).sum())
    if s <= 0:
        a = np.where(c > 0, 1.0, a)
        s = float((c * a).sum())
    return a / s


def projected_ascent(value_grad, c: np.ndarray, a0: np.ndarray, step0: float, tol: float,
                     max_iters: int):
    """Projected gradient ascent with halving backtracking over
    {a >= 0, sum(c * a) = 1}, from the feasible ``a0``.

    ``value_grad(a)`` returns the objective and its gradient. Each iteration
    tries ``step0`` and up to 39 halvings of it and accepts the first
    projected step that raises the objective, so accepted values never
    decrease. The ascent stops when an iteration gains less than ``tol``
    (converged) or after ``max_iters`` iterations. Returns
    ``(a, value, iterations, converged)``.
    """
    a = a0
    value, grad = value_grad(a)
    iterations = 0
    converged = False
    for iterations in range(1, max_iters + 1):
        step = step0
        gain = 0.0
        for _ in range(40):
            cand = project_feasible(a + step * grad, c)
            cand_value, cand_grad = value_grad(cand)
            if cand_value > value:
                gain = cand_value - value
                a, value, grad = cand, cand_value, cand_grad
                break
            step *= 0.5
        if gain < tol:
            converged = True
            break
    return a, value, iterations, converged


def sees_c_objective(a: np.ndarray, source: TabularDataset, target: TabularDataset,
                     basis: BasisSet, cfg: SeesCConfig) -> tuple[float, np.ndarray]:
    """Penalized target log-likelihood surrogate and its exact gradient.

    The subgradient of a group term at an exactly-zero group is taken as 0.
    """
    a = np.asarray(a, dtype=float)
    return _Problem(source, target, basis).value_grad(a, cfg)


def run_sees_c(source: TabularDataset, target: TabularDataset, basis: BasisSet,
               cfg: SeesCConfig = SeesCConfig()) -> tuple[BasisWeight, dict]:
    """Fit the coefficients with ``projected_ascent`` from the uniform start.

    Returns the fitted weight and diagnostics (final objective, constraint
    residual, iterations, non_convergence flag). The flag is 1 when the
    iteration cap, not the ``TOL`` test, ended the ascent, or when the final
    constraint residual exceeds 1e-6.
    """
    problem = _Problem(source, target, basis)
    # start at the feasible uniform rescale of all-ones; for indicator bases
    # this is exactly w = 1
    a = np.ones((basis.size, problem.L))
    total = float((problem.constraint * a).sum())
    if total <= 0:
        raise ValidationError("constraint vector is identically zero")
    a, value, iterations, converged = projected_ascent(
        lambda x: problem.value_grad(x, cfg), problem.constraint, a / total,
        STEP_SIZE, TOL, cfg.max_iters)
    residual = abs(float((problem.constraint * a).sum()) - 1.0)
    diagnostics = {
        "objective": value,
        "constraint_residual": residual,
        "iterations": float(iterations),
        "non_convergence": 1.0 if (residual > 1e-6 or not converged) else 0.0,
    }
    return BasisWeight(coefficients=a, basis=basis), diagnostics
