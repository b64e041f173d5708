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

from .data import DISCRETE, FeatureSchema, TabularDataset, encode_code
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


KKT_TOL = 1e-9  # the Newton loop stops once the KKT residual is at most this
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

    def _inner(self, a: np.ndarray) -> np.ndarray:
        inner = np.zeros(self.counts.size)
        for y in range(self.L):
            inner += self.pt[:, y] * (self.phi_t @ a[:, y])
        return inner

    def value_grad(self, a: np.ndarray, cfg: SeesCConfig):
        inner = self._inner(a)
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

    def gain(self, a: np.ndarray, b: np.ndarray, cfg: SeesCConfig) -> float:
        """value(b) - value(a) of ``value_grad``'s objective, from the log1p of
        each row's relative change and the change of each group norm, so a
        gain far below the objective's rounding keeps its sign."""
        before = np.maximum(self._inner(a), PROB_FLOOR)
        after = np.maximum(self._inner(b), PROB_FLOOR)
        exact = (before > PROB_FLOOR) & (after > PROB_FLOOR)
        change = np.where(exact, self._inner(b - a), after - before)
        gain = float((self.counts * np.log1p(change / before)).sum()) / self.n_t
        if cfg.eta > 0:
            norms = _group_norms(a, self.groups) + _group_norms(b, self.groups)
            for g, norm in zip(self.groups, norms):
                if norm > 0:
                    gain -= cfg.eta * float(((b[g] - a[g]) * (b[g] + a[g])).sum()) / norm
        return gain

    def hessian(self, a: np.ndarray, cfg: SeesCConfig) -> np.ndarray:
        """Hessian of ``value_grad``'s objective over ``a.ravel()``: L^2
        blocks phi_t' diag(w pt_y pt_z) phi_t of the likelihood, minus the
        group-norm curvature eta (I / |a_g| - a_g a_g' / |a_g|^3) on every
        group that is not all zero."""
        K, L = a.shape
        inner = self._inner(a)
        w = np.where(inner < PROB_FLOOR, 0.0,
                     self.counts / np.maximum(inner, PROB_FLOOR) ** 2) / self.n_t
        hess = np.empty((K, L, K, L))
        for y in range(L):
            for z in range(y, L):
                block = -(self.phi_t.T @ ((w * self.pt[:, y] * self.pt[:, z])[:, None]
                                          * self.phi_t))
                hess[:, y, :, z] = block
                hess[:, z, :, y] = block.T
        hess = hess.reshape(K * L, K * L)
        if cfg.eta > 0:
            for g in self.groups:
                v = a[g].ravel()
                norm = float(np.sqrt(v @ v))
                if norm > 0:
                    idx = (g[:, None] * L + np.arange(L)).ravel()
                    hess[np.ix_(idx, idx)] -= cfg.eta * (np.eye(v.size) / norm
                                                         - np.outer(v, v) / norm ** 3)
        return hess


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
    {a >= 0, sum(c * a) = 1}, from the feasible ``a0``; kliep's solver, and
    its only caller.

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


def kkt_residual(a: np.ndarray, grad: np.ndarray, c: np.ndarray, groups=(),
                 eta: float = 0.0) -> tuple[float, np.ndarray]:
    """KKT residual of maximizing f over {a >= 0, sum(c * a) = 1} at the
    feasible ``a``, where ``grad`` is f's gradient, taking 0 for the gradient
    of eta * |a_g| at an all-zero group.

    lam, the multiplier of the equality, is (a . grad) / (c . a), the value
    that makes r = grad - lam * c orthogonal to ``a``; entries near zero,
    whose r need not vanish yet, barely move it. The residual is the largest
    of |r| on positive entries, max(r, 0) on zero entries, and, for each
    group of ``groups`` (index arrays into the first axis of ``a``) that is
    all zero, |max(r_g, 0)| - eta clipped at 0, since the group norm's
    subgradient at 0 absorbs a pull of up to eta. Returns ``(residual, r)``.
    """
    pos = a > 0
    r = grad - float((a * grad).sum()) / float((c * a).sum()) * c
    res = np.where(pos, np.abs(r), np.maximum(r, 0.0))
    kinks = [0.0]
    for g in groups:
        if not pos[g].any():
            kinks.append(float(np.sqrt((res[g] ** 2).sum())) - eta)
            res[g] = 0.0
    return max(float(res.max()), *kinks), r


def _newton_direction(hess: np.ndarray, grad: np.ndarray, c: np.ndarray, a: np.ndarray,
                      free: np.ndarray) -> np.ndarray:
    """Newton direction d of the model grad . d + d' hess d / 2 over the flat
    ``free`` entries, with c . d = 0 and d = 0 elsewhere.

    The KKT system is solved on the null space of c (an orthonormal basis Z
    from a QR of c) by ``lstsq``, since the indicator design makes the
    Hessian singular: d = Z u with (Z' (-hess) Z) u = Z' grad. A free entry
    at zero that d would make negative is fixed at zero and the system
    solved again.
    """
    while True:
        f = np.flatnonzero(free)
        basis = np.linalg.qr(c[f][:, None], mode="complete")[0][:, 1:]
        u = np.linalg.lstsq(basis.T @ -hess[np.ix_(f, f)] @ basis, basis.T @ grad[f],
                            rcond=None)[0]
        d = np.zeros(a.size)
        d[f] = basis @ u
        blocked = (a == 0) & (d < 0)
        if not blocked.any():
            return d
        free = free & ~blocked


def _newton_ascent(problem: _Problem, cfg: SeesCConfig, a: np.ndarray):
    """Active-set projected Newton ascent (Bertsekas 1982) over
    {a >= 0, sum(c * a) = 1} from the feasible ``a``.

    An iteration first tries to drop whole groups: every nonzero group whose
    positive entries would pass the kink test at zero (|max(r_g, 0)| <= eta
    with the group norm's own pull taken out of r, see ``kkt_residual``) is
    set to zero and the rest rescaled to c . a = 1; the drop is kept if it
    raises the objective. Otherwise ``_newton_step`` moves ``a``. Entries
    below the rounding of the largest constrained entry are then set to
    zero, since no representable step moves them. The loop stops once the
    KKT residual is at most ``KKT_TOL``, when no step ascends, or after
    ``cfg.max_iters`` iterations. Returns ``(a, value, residual,
    iterations)``.
    """
    c = problem.constraint
    value, grad = problem.value_grad(a, cfg)
    residual, r = kkt_residual(a, grad, c, problem.groups, cfg.eta)
    iterations = 0
    while residual > KKT_TOL and iterations < cfg.max_iters:
        iterations += 1
        cand = a.copy()
        for g, norm in zip(problem.groups, _group_norms(a, problem.groups)):
            if norm > 0:
                pull = np.where(a[g] > 0, r[g] + cfg.eta * a[g] / norm, 0.0)
                if np.sqrt((np.maximum(pull, 0.0) ** 2).sum()) <= cfg.eta:
                    cand[g] = 0.0
        total = float((c * cand).sum())
        if total > 0 and (cand != a).any() and problem.gain(a, cand / total, cfg) > 0:
            cand /= total
        else:
            cand = _newton_step(problem, cfg, a, grad, r)
            if cand is None:
                break
        a = np.where(cand > np.finfo(float).eps * cand[c > 0].max(), cand, 0.0)
        value, grad = problem.value_grad(a, cfg)
        residual, r = kkt_residual(a, grad, c, problem.groups, cfg.eta)
    return a, value, residual, iterations


def _newton_step(problem: _Problem, cfg: SeesCConfig, a: np.ndarray, grad: np.ndarray,
                 r: np.ndarray):
    """One step of ``_newton_ascent`` from ``a``, or None if none ascends.

    The free set holds the positive entries and the zero entries whose
    multiplier r is positive, but an all-zero group stays at zero while
    |max(r_g, 0)| <= eta, the kink test. The step takes the Newton direction
    on the free set, or, if that does not ascend, the fallback that moves
    each free entry by its r, less (c . that) * a to keep c . d = 0, which
    leaves the slope unchanged since r . a = 0. It cuts the direction at the first bound (ratio test) and
    halves the step until the Armijo test holds on the exact ``gain``, so
    accepted objectives never decrease.
    """
    c = problem.constraint
    free = (a > 0) | (r > 0)
    kinks = []
    for g in problem.groups:
        if not (a[g] > 0).any():
            if np.sqrt((np.maximum(r[g], 0.0) ** 2).sum()) <= cfg.eta:
                free[g] = False
            else:
                kinks.append(g)
    newton = _newton_direction(problem.hessian(a, cfg), grad.ravel(), c.ravel(), a.ravel(),
                               free.ravel()).reshape(a.shape)
    ascent = np.where(free, r, 0.0)
    ascent -= float((c * ascent).sum()) * a
    for d in (newton, ascent):
        # along d, the norm of an all-zero group grows by |d_g| per unit step
        slope = float((grad * d).sum()) - cfg.eta * sum(
            float(np.sqrt((d[g] ** 2).sum())) for g in kinks)
        if slope > 0:
            break
    else:
        return None
    neg = d < 0
    bound_steps = np.full(a.shape, np.inf)
    bound_steps[neg] = -a[neg] / d[neg]
    step = min(1.0, float(bound_steps.min()))
    for _ in range(40):
        cand = np.where(bound_steps <= step, 0.0, np.maximum(a + step * d, 0.0))
        if problem.gain(a, cand, cfg) >= 1e-4 * step * slope:
            return cand
        step *= 0.5
    return None


def run_sees_c(source: TabularDataset, target: TabularDataset, basis: BasisSet,
               cfg: SeesCConfig = SeesCConfig()) -> tuple[BasisWeight, dict]:
    """Fit the coefficients with ``_newton_ascent`` from the uniform start.

    Returns the fitted weight and diagnostics: final objective, constraint
    residual, ``stationarity`` (the final ``kkt_residual``), iterations, and
    the non_convergence flag. The flag is 1 when the stationarity is above
    ``KKT_TOL`` (the loop hit its cap or no step could raise the objective)
    or the constraint residual exceeds 1e-6. At eta 0, a basis cell that
    target rows reach but no source row weights leaves the objective
    unbounded, so it raises ValidationError naming the cell.
    """
    problem = _Problem(source, target, basis)
    if cfg.eta == 0:
        support = problem.phi_t.T @ (problem.counts[:, None] * problem.pt)
        for k, y in np.argwhere((problem.constraint == 0) & (support > 0))[:1]:
            j = next(j for j, g in enumerate(problem.groups) if k in g)
            col, schema = basis.schema.columns[j], basis.schema
            cell = (col.name if col.kind != DISCRETE else
                    f"{col.name}={encode_code(k - problem.groups[j][0] + 1, col.categories)}")
            raise ValidationError(
                f"sees-c with eta 0 is unbounded: target rows reach basis cell ({cell}, "
                f"{schema.label_name}={encode_code(y + 1, schema.label_categories)}), "
                "which no source row weights")
    # start at the feasible uniform rescale of all-ones; for indicator bases
    # this is exactly w = 1
    a = np.ones((basis.size, problem.L))
    total = float((problem.constraint * a).sum())
    if total <= 0:
        raise ValidationError("constraint vector is identically zero")
    a, value, stationarity, iterations = _newton_ascent(problem, cfg, a / total)
    residual = abs(float((problem.constraint * a).sum()) - 1.0)
    diagnostics = {
        "objective": value,
        "constraint_residual": residual,
        "stationarity": stationarity,
        "iterations": float(iterations),
        "non_convergence": 1.0 if (residual > 1e-6 or stationarity > KKT_TOL) else 0.0,
    }
    return BasisWeight(coefficients=a, basis=basis), diagnostics
