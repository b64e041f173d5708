"""Reference estimators: confusion-matrix label-shift weights, kernel
density-ratio covariate weights, and discriminative source/target weights."""

from __future__ import annotations

import numpy as np

from .data import FeatureSchema, TabularDataset
from .errors import DegenerateKernel, SingularConfusion, ValidationError
from .predictor import one_hot, train_logistic
from .sees_c import project_feasible, projected_ascent
from .tabulate import LABEL, PREDICTION, EmpiricalPmf, distinct_first, estimate_pmf
from .weights import KernelWeight, ModelRatioWeight, TableWeight, gaussian_kernel, sq_distances

CONDITION_LIMIT = 1e12
EPS = 1e-12
KLIEP_ITERS = 2500
KLIEP_TOL = 1e-7  # one step's objective gain below this ends the ascent


def run_bbse(source: TabularDataset, target: TabularDataset) -> tuple[TableWeight, dict]:
    """BBSE label weights: ``run_bbse_population`` on the ``estimate_pmf``
    joints of the two datasets."""
    if source.labels is None or source.predictions is None:
        raise ValidationError("BBSE needs source labels and predictions")
    if target.predictions is None:
        raise ValidationError("BBSE needs target predictions")
    return run_bbse_population(estimate_pmf(source, (PREDICTION, LABEL)),
                               estimate_pmf(target, (PREDICTION,)))


def run_bbse_population(source_joint: EmpiricalPmf,
                        target_joint: EmpiricalPmf) -> tuple[TableWeight, dict]:
    """Solve the hard-prediction confusion system C w = mu for label weights,
    from joints over (..., prediction, label) and (..., prediction).

    Negative solution entries are clipped to zero before renormalizing the
    source expectation to 1.
    """
    confusion = source_joint.marginal((PREDICTION, LABEL)).mass
    mu = target_joint.marginal((PREDICTION,)).mass
    label_marg = source_joint.marginal((LABEL,)).mass
    cond = float(np.linalg.cond(confusion))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularConfusion(f"confusion matrix condition number {cond:.3g}")
    w = np.clip(np.linalg.solve(confusion, mu), 0.0, None)
    mean = float(label_marg @ w)
    if mean <= 0:
        raise SingularConfusion("clipped solution has zero source mass")
    w = w / mean
    weight = TableWeight(index_set=(), table={((), y): float(v) for y, v in enumerate(w, start=1)})
    return weight, {"condition_number": cond, "min_class_weight": float(w.min())}


def _median_pairwise(x: np.ndarray, limit: int = 1000) -> float:
    if x.shape[0] > limit:
        idx = np.unique(np.linspace(0, x.shape[0] - 1, num=limit).round().astype(int))
        x = x[idx]
    iu = np.triu_indices(x.shape[0], k=1)
    return float(np.median(np.sqrt(sq_distances(x, x)[iu])))


def run_kliep(source: TabularDataset, target: TabularDataset, centers: int = 100,
              max_iters: int = KLIEP_ITERS) -> tuple[KernelWeight, dict]:
    """Gaussian-kernel density-ratio fit of w(x), assuming covariate shift.

    Centers sit on evenly spaced target rows; the bandwidth is the median
    pairwise distance over a bounded subsample of the pooled data. The
    log-likelihood is fitted by sees-c's ``projected_ascent``, whose accepted
    objectives never decrease; ``non_convergence`` is 1 when ``max_iters``,
    not ``KLIEP_TOL``, ended it.
    """
    if max_iters <= 0:
        raise ValidationError("max_iters must be positive")
    schema = source.schema
    xs, xt = one_hot(schema, source.rows), one_hot(schema, target.rows)
    sigma = _median_pairwise(np.vstack([xs, xt]))
    if sigma <= 0:
        raise DegenerateKernel("median pairwise distance is 0")
    gamma = 1.0 / (2.0 * sigma * sigma)
    idx = np.unique(np.linspace(0, xt.shape[0] - 1, num=min(centers, xt.shape[0]))
                    .round().astype(int))
    ctr = xt[idx]

    # the target enters only through its distinct rows, weighted by count
    first, inverse = distinct_first(target.rows.T)
    counts = np.bincount(inverse).astype(float)
    n_t = target.n
    k_t = gaussian_kernel(xt[first], ctr, gamma)
    b = gaussian_kernel(xs, ctr, gamma).mean(axis=0)  # source-mean of each kernel

    def value_grad(alpha):
        safe = np.maximum(k_t @ alpha, EPS)
        value = float((counts * np.log(safe)).sum()) / n_t
        return value, k_t.T @ (counts / safe) / n_t

    alpha, value, iterations, converged = projected_ascent(
        value_grad, b, project_feasible(np.ones(ctr.shape[0]), b), 1.0, KLIEP_TOL, max_iters)
    # the constraint b . alpha = 1 is the unit source mean of the weight
    weight = KernelWeight(centers=ctr, alphas=alpha, gamma=gamma, schema=schema)
    diag = {"objective": value, "iterations": float(iterations), "bandwidth": sigma,
            "centers": float(ctr.shape[0]), "non_convergence": 0.0 if converged else 1.0}
    return weight, diag


def run_dlu(source: TabularDataset, target: TabularDataset) -> tuple[ModelRatioWeight, dict]:
    """Discriminative reweighting: train a source-vs-target classifier on the
    union and convert its probability into a feature-only weight, scaled to
    source mean 1."""
    union_schema = FeatureSchema(
        columns=source.schema.columns,
        label_cardinality=2,
        label_name="domain",
    )
    rows = np.vstack([source.rows, target.rows])
    domain = np.concatenate([np.ones(source.n, dtype=int), np.full(target.n, 2)])
    union = TabularDataset(schema=union_schema, rows=rows, labels=domain)
    model = train_logistic(union)
    weight = ModelRatioWeight(model, prior_ratio=source.n / max(target.n, 1))
    mean = float(np.mean(weight.weights_for(source)))
    if mean <= 0:
        raise ValidationError("cannot normalize: source mean weight is 0")
    weight = ModelRatioWeight(model, weight.prior_ratio, scale=1.0 / mean)
    diag = {
        "train_iterations": float(model.iterations),
        "train_converged": 1.0 if model.converged else 0.0,
        "calibration": 1.0,  # standard probability-ratio construction
    }
    return weight, diag
