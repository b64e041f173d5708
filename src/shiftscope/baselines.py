"""Reference estimators: confusion-matrix label-shift weights, kernel
density-ratio covariate weights, and discriminative source/target weights."""

from __future__ import annotations

import numpy as np

from .data import FeatureSchema, TabularDataset
from .errors import DegenerateKernel, SingularConfusion, ValidationError
from .predictor import one_hot, train_logistic
from .tabulate import LABEL, PREDICTION, EmpiricalPmf, distinct_first, estimate_pmf
from .weights import KernelWeight, ModelRatioWeight, TableWeight, gaussian_kernel, sq_distances

CONDITION_LIMIT = 1e12
EPS = 1e-12
KLIEP_ITERS = 2500
KLIEP_TOL = 1e-7  # least objective gain that counts as an improving step


def _bbse_solve(confusion: np.ndarray, mu: np.ndarray, label_marg: np.ndarray):
    cond = float(np.linalg.cond(confusion))
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularConfusion(f"confusion matrix condition number {cond:.3g}")
    w = np.linalg.solve(confusion, mu)
    w = np.clip(w, 0.0, None)
    mean = float(label_marg @ w)
    if mean <= 0:
        raise SingularConfusion("clipped solution has zero source mass")
    w = w / mean
    return w, cond


def _bbse_weight(w: np.ndarray) -> TableWeight:
    return TableWeight(
        index_set=(),
        table={((), y): float(w[y - 1]) for y in range(1, len(w) + 1)},
    )


def run_bbse(source: TabularDataset, target: TabularDataset) -> tuple[TableWeight, dict]:
    """Solve the hard-prediction confusion system C w = mu for label weights.

    Negative solution entries are clipped to zero before renormalizing the
    source expectation to 1.
    """
    if source.labels is None or source.predictions is None:
        raise ValidationError("BBSE needs source labels and predictions")
    if target.predictions is None:
        raise ValidationError("BBSE needs target predictions")
    confusion = estimate_pmf(source, (PREDICTION, LABEL)).mass
    mu = estimate_pmf(target, (PREDICTION,)).mass
    label_marg = estimate_pmf(source, (LABEL,)).mass
    w, cond = _bbse_solve(confusion, mu, label_marg)
    return _bbse_weight(w), {"condition_number": cond, "min_class_weight": float(w.min())}


def run_bbse_population(source_joint: EmpiricalPmf,
                        target_joint: EmpiricalPmf) -> tuple[TableWeight, dict]:
    """Population mode over exact joint tables (features..., prediction[, label])."""
    confusion = source_joint.marginal((PREDICTION, LABEL)).mass
    mu = target_joint.marginal((PREDICTION,)).mass
    label_marg = source_joint.marginal((LABEL,)).mass
    w, cond = _bbse_solve(confusion, mu, label_marg)
    return _bbse_weight(w), {"condition_number": cond, "min_class_weight": float(w.min())}


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
    log-likelihood ascent backtracks, so accepted objectives never decrease.
    """
    schema = source.schema

    def encode(ds: TabularDataset) -> np.ndarray:
        return one_hot(schema, ds.rows)

    xs, xt = encode(source), encode(target)
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

    b_sq = float(b @ b)

    def project(alpha):
        alpha = alpha + b * (1.0 - float(b @ alpha)) / b_sq
        alpha = np.maximum(alpha, 0.0)
        s = float(b @ alpha)
        if s <= 0:
            alpha = np.ones_like(alpha)
            s = float(b @ alpha)
        return alpha / s

    def objective(alpha):
        return float((counts * np.log(np.maximum(k_t @ alpha, EPS))).sum()) / n_t

    alpha = project(np.ones(ctr.shape[0]))
    value = objective(alpha)
    iterations = 0
    for iterations in range(1, max_iters + 1):
        grad = k_t.T @ (counts / np.maximum(k_t @ alpha, EPS)) / n_t
        step = 1.0
        improved = False
        for _ in range(40):
            cand = project(alpha + step * grad)
            cand_value = objective(cand)
            if cand_value >= value - 1e-18:
                improved = cand_value > value + KLIEP_TOL
                alpha, value = cand, cand_value
                break
            step *= 0.5
        if not improved:
            break
    weight = KernelWeight(centers=ctr, alphas=alpha, gamma=gamma, encoder=encode)
    weight = weight.normalized(source)
    diag = {"objective": value, "iterations": float(iterations), "bandwidth": sigma,
            "centers": float(ctr.shape[0])}
    return weight, diag


def run_dlu(source: TabularDataset, target: TabularDataset) -> tuple[ModelRatioWeight, dict]:
    """Discriminative reweighting: train a source-vs-target classifier on the
    union and convert its probability into a feature-only weight."""
    union_schema = FeatureSchema(
        columns=source.schema.columns,
        label_cardinality=2,
        label_name="domain",
    )
    rows = np.vstack([source.rows, target.rows])
    domain = np.concatenate([np.ones(source.n, dtype=int), np.full(target.n, 2)])
    union = TabularDataset(schema=union_schema, rows=rows, labels=domain)
    model = train_logistic(union)
    weight = ModelRatioWeight(model, prior_ratio=source.n / max(target.n, 1)).normalized(source)
    diag = {
        "train_iterations": float(model.iterations),
        "train_converged": 1.0 if model.converged else 0.0,
        "calibration": 1.0,  # standard probability-ratio construction
    }
    return weight, diag
