"""Reference estimators: confusion-matrix label-shift weights, kernel
density-ratio covariate weights, and discriminative source/target weights."""

from __future__ import annotations

import numpy as np

from .data import FeatureSchema, TabularDataset, distinct_first
from .errors import DegenerateKernel, SingularConfusion, ValidationError
from .predictor import one_hot, train_logistic
from .sees_c import KKT_TOL, SeesCConfig, _newton_ascent, _Problem
from .tabulate import LABEL, PREDICTION, EmpiricalPmf
from .weights import KernelWeight, ModelRatioWeight, TableWeight, gaussian_kernel, sq_distances

CONDITION_LIMIT = 1e12


def run_bbse(source_joint: EmpiricalPmf, target_joint: EmpiricalPmf) -> tuple[TableWeight, dict]:
    """Solve the hard-prediction confusion system C w = mu for label weights,
    from joints over (..., prediction, label) and (..., prediction): sees-d's
    ``sample_joints``, or ``estimate_pmf(source, (PREDICTION, LABEL))`` and
    ``estimate_pmf(target, (PREDICTION,))`` on any schema. Joints of row
    counts give the same tables to the bit either way.

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


def _median_pairwise(schema: FeatureSchema, rows: np.ndarray, limit: int = 1000) -> float:
    """Median Euclidean distance between the one-hot encodings of the row
    pairs of at most ``limit`` evenly spaced ``rows``. Each distinct row is
    encoded once: a distinct pair's distance counts ``c_i * c_j`` times and
    each distinct row adds ``c (c - 1) / 2`` zeros, so the median is the one
    over every pair."""
    if rows.shape[0] > limit:
        rows = rows[np.unique(np.linspace(0, rows.shape[0] - 1, num=limit).round().astype(int))]
    first, inverse = distinct_first(rows.T)
    x = one_hot(schema, rows[first])
    counts = np.bincount(inverse)
    iu = np.triu_indices(x.shape[0], k=1)
    dist = np.append(np.sqrt(sq_distances(x, x)[iu]), 0.0)
    repeats = np.append(counts[iu[0]] * counts[iu[1]], (counts * (counts - 1) // 2).sum())
    return float(np.median(np.repeat(dist, repeats), overwrite_input=True))


def run_kliep(source: TabularDataset, target: TabularDataset,
              centers: int = 100) -> tuple[KernelWeight, dict, np.ndarray]:
    """Gaussian-kernel density-ratio fit of w(x), assuming covariate shift.

    Centers sit on evenly spaced target rows; the bandwidth is the median
    pairwise distance over a bounded subsample of the pooled data. Both
    sides enter through their distinct rows (their ``row_key``), weighted
    by count, so each kernel has one column or row per distinct row. The
    log-likelihood is fitted by sees-c's ``_newton_ascent`` at eta 0 under
    the unit source mean, and ``stationarity`` and ``non_convergence`` read
    as sees-c's do.
    Returns the weight, which keeps only the centres with positive alpha,
    the diagnostics and the weight's values on ``source`` (``weights_for``'s).
    """
    schema = source.schema
    sigma = _median_pairwise(schema, np.vstack([source.rows, target.rows]))
    if sigma <= 0:
        raise DegenerateKernel("median pairwise distance is 0")
    gamma = 1.0 / (2.0 * sigma * sigma)
    idx = np.unique(np.linspace(0, target.n - 1, num=min(centers, target.n))
                    .round().astype(int))
    ctr = one_hot(schema, target.rows[idx])

    first_s, inverse_s = source.row_key
    x_s = one_hot(schema, source.rows[first_s])
    # the constraint b . alpha = 1 is the unit source mean of the weight
    b = np.bincount(inverse_s).astype(float) @ gaussian_kernel(x_s, ctr, gamma) / source.n
    if not b.any():
        raise DegenerateKernel("no source row reaches any centre")
    first_t, inverse_t = target.row_key
    x_t = one_hot(schema, target.rows[first_t])
    problem = _Problem(gaussian_kernel(ctr, x_t, gamma), np.bincount(inverse_t).astype(float), b)
    alpha, value, stationarity, iterations = _newton_ascent(problem, SeesCConfig(eta=0.0))
    nz = np.flatnonzero(alpha)
    weight = KernelWeight(centers=ctr[nz], alphas=alpha[nz], gamma=gamma, schema=schema)
    diag = {"objective": value, "iterations": float(iterations), "bandwidth": sigma,
            "centers": float(ctr.shape[0]),
            "non_convergence": 1.0 if stationarity > KKT_TOL else 0.0,
            "stationarity": stationarity}
    return weight, diag, (gaussian_kernel(x_s, weight.centers, gamma) @ weight.alphas)[inverse_s]


def run_dlu(source: TabularDataset,
            target: TabularDataset) -> tuple[ModelRatioWeight, dict, np.ndarray]:
    """Discriminative reweighting: train a source-vs-target classifier on the
    union and convert its probability into a feature-only weight, scaled to
    source mean 1. Returns the weight, the diagnostics and the weight's
    values on ``source``."""
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
    raw = weight.weights_for(source)
    mean = float(np.mean(raw))
    if mean <= 0:
        raise ValidationError("cannot normalize: source mean weight is 0")
    weight = ModelRatioWeight(model, weight.prior_ratio, scale=1.0 / mean)
    diag = {
        "train_iterations": float(model.iterations),
        "train_converged": 1.0 if model.converged else 0.0,
        "calibration": 1.0,  # standard probability-ratio construction
    }
    return weight, diag, weight.scale * raw
