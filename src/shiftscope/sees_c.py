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

from .data import DISCRETE, FeatureSchema, TabularDataset, encode_code, refine_key
from .errors import ValidationError
from .predictor import one_hot
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
DAMPING = 0.1  # the Newton system's damping, a multiple of the free set's largest |r|
ARC_HALVINGS = 20  # halvings of the projected arc before the ratio-test step


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
    """Maximize sum_i counts_i log((M' a)_i) / n - eta sum_g |a_g| over the
    flat coefficients {a >= 0, c . a = 1}, n = sum(counts), the likelihood
    floored at ``PROB_FLOOR``. ``design`` is M stored coefficient-major,
    (P, m), one column per distinct target row, and never copied whole:
    products read only the rows of the nonzero (or free) entries of ``a``.
    ``groups`` are index arrays into ``a``."""

    def __init__(self, design: np.ndarray, counts: np.ndarray, constraint: np.ndarray,
                 groups=()):
        self.design = design
        self.counts = counts
        self.n = float(counts.sum())
        self.constraint = constraint
        self.groups = groups

    def _inner(self, a: np.ndarray) -> np.ndarray:
        nz = np.flatnonzero(a)
        return a[nz] @ self.design[nz]

    def _weights(self, inner: np.ndarray, power: int) -> np.ndarray:
        """counts / inner**power / n, and 0 where the floor holds."""
        return np.where(inner < PROB_FLOOR, 0.0,
                        self.counts / np.maximum(inner, PROB_FLOOR) ** power) / self.n

    def value_grad(self, a: np.ndarray, cfg: SeesCConfig):
        """The objective and its gradient at ``a``, and the product M' a,
        which ``gain`` and ``curvature`` read at ``a``."""
        inner = self._inner(a)
        value = float((self.counts * np.log(np.maximum(inner, PROB_FLOOR))).sum()) / self.n
        grad = self.design @ self._weights(inner, 1)
        if cfg.eta > 0:
            norms = _group_norms(a, self.groups)
            value -= cfg.eta * float(norms.sum())
            for g, norm in zip(self.groups, norms):
                if norm > 0:
                    grad[g] -= cfg.eta * a[g] / norm
        return value, grad, inner

    def gain(self, a: np.ndarray, inner: np.ndarray, b: np.ndarray, cfg: SeesCConfig) -> float:
        """value(b) - value(a) of ``value_grad``'s objective, given the product
        ``inner`` at ``a``, from the log1p of each row's relative change and
        the change of each group norm, so a gain far below the objective's
        rounding keeps its sign."""
        before = np.maximum(inner, PROB_FLOOR)
        after = np.maximum(self._inner(b), PROB_FLOOR)
        exact = (before > PROB_FLOOR) & (after > PROB_FLOOR)
        change = np.where(exact, self._inner(b - a), after - before)
        gain = float((self.counts * np.log1p(change / before)).sum()) / self.n
        if cfg.eta > 0:
            norms = _group_norms(a, self.groups) + _group_norms(b, self.groups)
            for g, norm in zip(self.groups, norms):
                if norm > 0:
                    gain -= cfg.eta * float(((b[g] - a[g]) * (b[g] + a[g])).sum()) / norm
        return gain

    def curvature(self, a: np.ndarray, inner: np.ndarray, f: np.ndarray,
                  cfg: SeesCConfig) -> np.ndarray:
        """Minus the Hessian of ``value_grad``'s objective over the entries
        ``f`` at ``a``, whose product is ``inner``: A A' with A = M[f] sqrt(w)
        for the likelihood, plus the group-norm curvature eta (I / |a_g| -
        a_g a_g' / |a_g|^3) on every group that is not all zero."""
        A = self.design[f]
        A *= np.sqrt(self._weights(inner, 2))
        curv = A @ A.T
        if cfg.eta > 0:
            at = np.full(a.size, -1)
            at[f] = np.arange(f.size)
            for g in self.groups:
                norm = float(np.sqrt((a[g] ** 2).sum()))
                g = g[at[g] >= 0]
                if norm > 0 and g.size:
                    curv[np.ix_(at[g], at[g])] += cfg.eta * (np.eye(g.size) / norm
                                                             - np.outer(a[g], a[g]) / norm ** 3)
        return curv


def _sees_c_problem(source: TabularDataset, target: TabularDataset,
                    basis: BasisSet) -> _Problem:
    """sees-c's problem over ``a.ravel()`` of the (K, L) coefficients. The
    target enters only through its distinct (row, probabilities) pairs,
    weighted by count, since equal rows may carry external predictions
    that differ: M's row k * L + y is phi_k times the probability of label
    y on each pair. c's entry k * L + y is the source mean of phi_k on the
    rows of label y, a count-weighted sum over the distinct (row, label)
    pairs, and each feature's group holds its bases' entries for every
    label."""
    if target.pred_probs is None or source.pred_probs is None:
        raise ValidationError("both datasets need pred_probs")
    if source.labels is None:
        raise ValidationError("source needs labels")
    L = source.schema.n_labels
    first, inverse = refine_key(target, target.pred_probs)
    phi_t = basis.design(target.rows[first])
    design = (phi_t.T[:, None, :] * target.pred_probs[first].T[None]).reshape(-1, first.size)
    first_s, inverse_s = refine_key(source, source.labels)
    by_label = source.labels[first_s][:, None] == np.arange(1, L + 1)
    c = basis.design(source.rows[first_s]).T @ (by_label * np.bincount(inverse_s)[:, None])
    groups = [(g[:, None] * L + np.arange(L)).ravel() for g in basis.groups()]
    return _Problem(design, np.bincount(inverse).astype(float), c.ravel() / source.n, groups)


def sees_c_objective(a: np.ndarray, source: TabularDataset, target: TabularDataset,
                     basis: BasisSet, cfg: SeesCConfig) -> tuple[float, np.ndarray]:
    """Penalized target log-likelihood surrogate and its exact gradient.

    The subgradient of a group term at an exactly-zero group is taken as 0.
    """
    a = np.asarray(a, dtype=float)
    value, grad, _ = _sees_c_problem(source, target, basis).value_grad(a.ravel(), cfg)
    return value, grad.reshape(a.shape)


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


def _newton_direction(problem: _Problem, cfg: SeesCConfig, a: np.ndarray, inner: np.ndarray,
                      grad: np.ndarray, r: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Damped Newton direction d over the ``free`` entries, with c . d = 0
    and d = 0 elsewhere.

    The system is solved on the null space of c (an orthonormal basis Z
    from a QR of c): d = Z u with (Z' C Z + mu I) u = Z' grad, C the
    ``curvature``. The damping mu is ``DAMPING`` times the largest |r| over
    the free entries, so it vanishes at the optimum; it keeps the flat
    directions of a singular C (indicator designs, Gaussian kernels) from
    being dropped or blown up. A free entry at zero that d would make
    negative is fixed at zero and the system solved again.
    """
    c = problem.constraint
    free = np.flatnonzero(free)
    curv = problem.curvature(a, inner, free, cfg)
    keep = np.ones(free.size, dtype=bool)
    while True:
        f = free[keep]
        basis = np.linalg.qr(c[f][:, None], mode="complete")[0][:, 1:]
        system = basis.T @ curv[np.ix_(keep, keep)] @ basis
        system[np.diag_indices_from(system)] += DAMPING * float(np.abs(r[f]).max())
        d = np.zeros(a.size)
        d[f] = basis @ np.linalg.solve(system, basis.T @ grad[f])
        blocked = (a[free] == 0) & (d[free] < 0)
        if not blocked.any():
            return d
        keep &= ~blocked


def _newton_ascent(problem: _Problem, cfg: SeesCConfig):
    """Active-set projected Newton ascent (Bertsekas 1982) over
    {a >= 0, c . a = 1} from the uniform a = 1 / sum(c); the one solver of
    sees-c and kliep.

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
    total = float(c.sum())
    if total <= 0:
        raise ValidationError("constraint vector is identically zero")
    a = np.full(c.size, 1.0 / total)
    value, grad, inner = problem.value_grad(a, cfg)
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
        total = float(c @ cand)
        if total > 0 and (cand != a).any() and problem.gain(a, inner, cand / total, cfg) > 0:
            cand /= total
        else:
            cand = _newton_step(problem, cfg, a, inner, grad, r)
            if cand is None:
                break
        a = np.where(cand > np.finfo(float).eps * cand[c > 0].max(), cand, 0.0)
        value, grad, inner = problem.value_grad(a, cfg)
        residual, r = kkt_residual(a, grad, c, problem.groups, cfg.eta)
    return a, value, residual, iterations


def _newton_step(problem: _Problem, cfg: SeesCConfig, a: np.ndarray, inner: np.ndarray,
                 grad: np.ndarray, r: np.ndarray):
    """One step of ``_newton_ascent`` from ``a``, whose product M' a is
    ``inner``, or None if none ascends.

    The free set holds the positive entries and the zero entries whose
    multiplier r is positive, but an all-zero group stays at zero while
    |max(r_g, 0)| <= eta, the kink test. The step takes the Newton direction
    on the free set, or, if that does not ascend, the fallback that moves
    each free entry by its r, less (c . that) * a to keep c . d = 0, which
    leaves the slope unchanged since r . a = 0.

    Along the direction d it first searches the projected arc: max(a + t d,
    0) rescaled to c . a = 1, for t = 1, 1/2, ..., accepted once the exact
    ``gain`` is at least 1e-4 times the first-order gain of the move it
    makes, so entries that reach zero leave the free set in one step. If
    no arc point passes, it cuts d at the first bound (ratio test) and
    halves that step until the same test holds on the straight move.
    Accepted objectives never decrease.
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

    def slope(d):
        # along d, the norm of an all-zero group grows by |d_g| per unit step
        return float(grad @ d) - cfg.eta * sum(float(np.sqrt((d[g] ** 2).sum())) for g in kinks)

    ascent = np.where(free, r, 0.0)
    ascent -= float(c @ ascent) * a
    for d in (_newton_direction(problem, cfg, a, inner, grad, r, free), ascent):
        if slope(d) > 0:
            break
    else:
        return None
    step = 1.0
    for _ in range(ARC_HALVINGS):
        cand = np.maximum(a + step * d, 0.0)
        cand /= float(c @ cand)
        if problem.gain(a, inner, cand, cfg) >= 1e-4 * slope(cand - a) > 0:
            return cand
        step *= 0.5
    neg = d < 0
    bound_steps = np.full(a.shape, np.inf)
    bound_steps[neg] = -a[neg] / d[neg]
    step = min(1.0, float(bound_steps.min()))
    for _ in range(40):
        cand = np.where(bound_steps <= step, 0.0, np.maximum(a + step * d, 0.0))
        if problem.gain(a, inner, cand, cfg) >= 1e-4 * step * slope(d):
            return cand
        step *= 0.5
    return None


def run_sees_c(source: TabularDataset, target: TabularDataset, basis: BasisSet,
               cfg: SeesCConfig = SeesCConfig()) -> tuple[BasisWeight, dict]:
    """Fit the coefficients with ``_newton_ascent`` from the uniform start;
    for indicator bases that start is exactly w = 1.

    Returns the fitted weight and diagnostics: final objective, constraint
    residual, ``stationarity`` (the final ``kkt_residual``), iterations, and
    the non_convergence flag. The flag is 1 when the stationarity is above
    ``KKT_TOL`` (the loop hit its cap or no step could raise the objective)
    or the constraint residual exceeds 1e-6. At eta 0, a basis cell that
    target rows reach but no source row weights leaves the objective
    unbounded, so it raises ValidationError naming the cell.
    """
    problem = _sees_c_problem(source, target, basis)
    L = source.schema.n_labels
    unbounded = np.flatnonzero((problem.constraint == 0)
                               & (problem.design @ problem.counts > 0))
    if cfg.eta == 0 and unbounded.size:
        k, y = divmod(int(unbounded[0]), L)
        j, g = next((j, g) for j, g in enumerate(basis.groups()) if k in g)
        col, schema = basis.schema.columns[j], basis.schema
        cell = (col.name if col.kind != DISCRETE else
                f"{col.name}={encode_code(k - g[0] + 1, col.categories)}")
        raise ValidationError(
            f"sees-c with eta 0 is unbounded: target rows reach basis cell ({cell}, "
            f"{schema.label_name}={encode_code(y + 1, schema.label_categories)}), "
            "which no source row weights")
    a, value, stationarity, iterations = _newton_ascent(problem, cfg)
    residual = abs(float(problem.constraint @ a) - 1.0)
    diagnostics = {
        "objective": value,
        "constraint_residual": residual,
        "stationarity": stationarity,
        "iterations": float(iterations),
        "non_convergence": 1.0 if (residual > 1e-6 or stationarity > KKT_TOL) else 0.0,
    }
    return BasisWeight(coefficients=a.reshape(basis.size, L), basis=basis), diagnostics
