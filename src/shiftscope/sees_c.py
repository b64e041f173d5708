"""Continuous-feature shift estimator: group-penalized likelihood matching.

Weights are linear combinations of fixed nonnegative basis functions,
w(x, y) = sum_k a[k, y] * phi_k(x, y). The coefficients maximize the
empirical target log of the induced feature density surrogate, minus a
group penalty (one group per feature) that drives whole features out of
the weight, subject to nonnegativity and a unit source-mean constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DISCRETE, FeatureSchema, TabularDataset
from .errors import ValidationError
from .tabulate import distinct_first
from .weights import BasisWeight


@dataclass(frozen=True)
class BasisFunction:
    """One nonnegative basis phi(x, y), tagged with the feature it reads."""

    feature_index: int
    name: str
    fn: object  # callable (rows, y) -> (n,) nonnegative values


@dataclass(frozen=True)
class BasisSet:
    functions: tuple
    d: int

    def __post_init__(self):
        if not self.functions:
            raise ValidationError("basis set is empty")
        for f in self.functions:
            if not 1 <= f.feature_index <= self.d:
                raise ValidationError(f"basis {f.name} reads feature {f.feature_index}")
        object.__setattr__(self, "functions", tuple(self.functions))

    @property
    def size(self) -> int:
        return len(self.functions)

    def groups(self) -> list[np.ndarray]:
        """For each feature i (1-based), the indices k with phi_k reading i."""
        out = []
        for i in range(1, self.d + 1):
            out.append(
                np.array([k for k, f in enumerate(self.functions) if f.feature_index == i],
                         dtype=int)
            )
        return out

    def design(self, rows: np.ndarray, y: int) -> np.ndarray:
        """(n, K) matrix of basis values at label y."""
        cols = [np.asarray(f.fn(rows, y), dtype=float) for f in self.functions]
        mat = np.column_stack(cols) if cols else np.zeros((rows.shape[0], 0))
        if (mat < 0).any():
            raise ValidationError("basis functions must be nonnegative")
        return mat

    def design_stack(self, rows: np.ndarray, n_labels: int) -> np.ndarray:
        """(L, n, K) stack of per-label design matrices."""
        return np.stack([self.design(rows, y) for y in range(1, n_labels + 1)])

    def weight_values(self, rows: np.ndarray, labels: np.ndarray,
                      coefficients: np.ndarray) -> np.ndarray:
        w = np.empty(rows.shape[0])
        for y in np.unique(labels):
            mask = labels == y
            w[mask] = self.design(rows[mask], int(y)) @ coefficients[:, int(y) - 1]
        return w


def default_basis(schema: FeatureSchema, reference: TabularDataset | None = None) -> BasisSet:
    """Linear bases for continuous columns, indicators for discrete ones.

    A continuous feature contributes phi(x, y) = x_i - min + 1, shifted by
    the reference dataset's column minimum so every basis value stays
    nonnegative; a discrete feature of cardinality v contributes the v
    indicator functions.
    """
    functions = []
    for j, col in enumerate(schema.columns, start=1):
        if col.kind == DISCRETE:
            for c in range(1, col.cardinality + 1):
                functions.append(BasisFunction(
                    feature_index=j,
                    name=f"{col.name}=={c}",
                    fn=_indicator(j, c),
                ))
        else:
            if reference is None:
                raise ValidationError(
                    f"continuous column {col.name!r} needs a reference dataset "
                    "to anchor the nonnegative shift"
                )
            shift = float(reference.rows[:, j - 1].min())
            functions.append(BasisFunction(
                feature_index=j,
                name=f"{col.name}+{1 - shift}",
                fn=_shifted_linear(j, shift),
            ))
    return BasisSet(functions=tuple(functions), d=schema.d)


def _indicator(j: int, c: int):
    def fn(rows, y):
        return (rows[:, j - 1].astype(int) == c).astype(float)

    return fn


def _shifted_linear(j: int, shift: float):
    def fn(rows, y):
        return np.maximum(rows[:, j - 1] - shift + 1.0, 0.0)

    return fn


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
    return np.array([np.sqrt(float((a[g] ** 2).sum())) if g.size else 0.0 for g in groups])


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
        self.phi_t = basis.design_stack(target.rows[first], L)  # (L, m, K)
        self.pt = target.pred_probs[first]  # (m, L)
        self.n_t = target.n
        # linear constraint: sum_{k,y} a[k,y] * c[k,y] = 1
        c = np.zeros((basis.size, L))
        for y in range(1, L + 1):
            mask = source.labels == y
            if mask.any():
                c[:, y - 1] = basis.design(source.rows[mask], y).sum(axis=0)
        self.constraint = c / source.n

    def value_grad(self, a: np.ndarray, cfg: SeesCConfig):
        inner = np.zeros(self.counts.size)
        for y in range(self.L):
            inner += self.pt[:, y] * (self.phi_t[y] @ a[:, y])
        floored = inner < PROB_FLOOR
        safe = np.maximum(inner, PROB_FLOOR)
        value = float((self.counts * np.log(safe)).sum()) / self.n_t
        coef = np.where(floored, 0.0, self.counts / safe) / self.n_t
        grad = np.empty_like(a)
        for y in range(self.L):
            grad[:, y] = self.phi_t[y].T @ (coef * self.pt[:, y])
        if cfg.eta > 0:
            norms = _group_norms(a, self.groups)
            value -= cfg.eta * float(norms.sum())
            for i, g in enumerate(self.groups):
                if norms[i] > 0:
                    grad[g] -= cfg.eta * a[g] / norms[i]
        return value, grad

    def project(self, a: np.ndarray, tol: float = 1e-8, max_passes: int = 100):
        """Restore feasibility: orthogonal step back to the constraint
        hyperplane, then alternate nonnegativity clipping and constraint
        rescaling until both conditions hold."""
        c = self.constraint
        c_sq = float((c * c).sum())
        if c_sq <= 0:
            raise ValidationError("constraint vector is identically zero")
        a = np.array(a, dtype=float)
        a = a + c * (1.0 - float((c * a).sum())) / c_sq
        ok = False
        for _ in range(max_passes):
            a = np.maximum(a, 0.0)
            s = float((c * a).sum())
            if s <= 0:
                a = np.where(c > 0, 1.0, a)
                s = float((c * a).sum())
            a = a / s
            residual = abs(float((c * a).sum()) - 1.0)
            if residual <= tol and a.min() >= 0.0:
                ok = True
                break
        return a, ok


def sees_c_objective(a: np.ndarray, source: TabularDataset, target: TabularDataset,
                     basis: BasisSet, cfg: SeesCConfig) -> tuple[float, np.ndarray]:
    """Penalized target log-likelihood surrogate and its exact gradient.

    The subgradient of a group term at an exactly-zero group is taken as 0.
    """
    a = np.asarray(a, dtype=float)
    return _Problem(source, target, basis).value_grad(a, cfg)


def run_sees_c(source: TabularDataset, target: TabularDataset, basis: BasisSet,
               cfg: SeesCConfig = SeesCConfig()) -> tuple[BasisWeight, dict]:
    """Projected gradient ascent with halving backtracking.

    Every iterate is projected onto {a >= 0, unit source mean}; a step is
    accepted only if it does not decrease the objective, so the objective
    sequence is nondecreasing. Returns the fitted weight and diagnostics
    (final objective, constraint residual, iterations, non_convergence flag).
    The flag is 1 when the iteration cap, not the ``TOL`` test, ended the
    ascent, when an accepted step came from a failed projection, or when the
    final constraint residual exceeds 1e-6.
    """
    problem = _Problem(source, target, basis)
    # start at the feasible uniform rescale of all-ones; for indicator bases
    # this is exactly w = 1
    a = np.ones((basis.size, problem.L))
    total = float((problem.constraint * a).sum())
    if total <= 0:
        raise ValidationError("constraint vector is identically zero")
    a = a / total
    value, grad = problem.value_grad(a, cfg)
    iterations = 0
    projection_failed = False
    converged = False
    for iterations in range(1, cfg.max_iters + 1):
        step = STEP_SIZE
        gain = 0.0
        for _ in range(40):
            cand, ok = problem.project(a + step * grad)
            cand_value, cand_grad = problem.value_grad(cand, cfg)
            if cand_value > value:
                if not ok:
                    projection_failed = True
                gain = cand_value - value
                a, value, grad = cand, cand_value, cand_grad
                break
            step *= 0.5
        if gain < TOL:
            converged = True
            break
    residual = abs(float((problem.constraint * a).sum()) - 1.0)
    diagnostics = {
        "objective": value,
        "constraint_residual": residual,
        "iterations": float(iterations),
        "non_convergence": 1.0 if (projection_failed or residual > 1e-6 or not converged) else 0.0,
    }
    return BasisWeight(coefficients=a, basis=basis), diagnostics
