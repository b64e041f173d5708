"""Built-in source classifier and external prediction ingestion.

A small multinomial logistic regression keeps the estimators free of any
heavyweight ML stack; real deployments attach their own model's outputs
through :func:`load_predictions`.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .data import (DISCRETE, FeatureSchema, TabularDataset, check_columns, open_input,
                   refine_key)
from .errors import MalformedRow, RowCountMismatch, ValidationError

GRAD_TOL = 1e-8  # the logistic fit's one stop test, on the gradient norm
ARMIJO = 1e-4  # sufficient-decrease fraction of the line search
ROUNDING = 1e-12  # a predicted decrease below this fraction of the loss is untestable


def one_hot(schema: FeatureSchema, rows: np.ndarray, drop_first: bool = False) -> np.ndarray:
    """One indicator column per category of each discrete column (each
    column's first category left out if ``drop_first``); continuous columns
    pass through."""
    parts = []
    for j, col in enumerate(schema.columns):
        vals = rows[:, j]
        if col.kind == DISCRETE:
            codes = vals.astype(int)
            for c in range(2 if drop_first else 1, col.cardinality + 1):
                parts.append((codes == c).astype(float))
        else:
            parts.append(vals.astype(float))
    return np.column_stack(parts)


def design_matrix(schema: FeatureSchema, rows: np.ndarray) -> np.ndarray:
    """The logistic design: :func:`one_hot` with each first category dropped,
    to keep the intercept full-rank, and the intercept appended."""
    return np.column_stack([one_hot(schema, rows, drop_first=True), np.ones(rows.shape[0])])


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax of each row of ``z``, reduced across its L columns, since numpy
    reduces short rows slowly. The max is exact in any order; the sum runs
    left to right, which is numpy's order for a row of fewer than 8, so below
    8 columns the bits are those of the row-wise formula, and from 8 on they
    can differ from numpy's pairwise row sum in the last bit."""
    top = z[:, 0].copy()
    for col in z.T[1:]:
        np.maximum(top, col, out=top)
    e = np.exp(z - top[:, None])
    total = e[:, 0].copy()
    for col in e.T[1:]:
        total += col
    return e / total[:, None]


def logistic_loss_grad(w_flat: np.ndarray, x: np.ndarray, y_idx: np.ndarray,
                       counts: np.ndarray, l2_lambda: float) -> tuple[float, np.ndarray]:
    """Mean cross-entropy + (lambda/2)||W||^2 over non-intercept rows.

    Row ``i`` of ``x`` and ``y_idx`` stands for ``counts[i]`` equal rows, and
    the mean is over all of them. ``w_flat`` is the (p, L) coefficient matrix
    flattened; the last design column is the intercept and is left
    unregularized.
    """
    return _loss_grad_probs(w_flat, x, y_idx, counts, l2_lambda)[:2]


def _loss_grad_probs(w_flat, x, y_idx, counts, l2_lambda):
    """:func:`logistic_loss_grad` and the class probabilities of each row."""
    m, p = x.shape
    L = w_flat.size // p
    w = w_flat.reshape(p, L)
    n = counts.sum()
    probs = _softmax(x @ w)
    picked = np.log(np.maximum(probs[np.arange(m), y_idx], 1e-300))
    nll = -float((counts * picked).sum()) / n
    loss = nll + 0.5 * l2_lambda * float((w[:-1] * w[:-1]).sum())
    resid = probs.copy()
    resid[np.arange(m), y_idx] -= 1.0
    grad = x.T @ (resid * counts[:, None]) / n
    grad[:-1] += l2_lambda * w[:-1]
    return loss, grad.reshape(-1), probs


@dataclass(frozen=True)
class LogisticModel:
    schema: FeatureSchema
    coef: np.ndarray  # (p, L)
    converged: bool
    iterations: int

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=float).copy()
        if not np.isfinite(coef).all():
            raise ValidationError("logistic coefficients are not finite")
        coef.setflags(write=False)
        object.__setattr__(self, "coef", coef)


def _hessian(probs: np.ndarray, x: np.ndarray, counts: np.ndarray,
             l2_lambda: float) -> np.ndarray:
    """Hessian of :func:`logistic_loss_grad` at the point where each row's
    class probabilities are ``probs``: ``sum_i (c_i/n) kron(x_i x_i^T,
    diag(p_i) - p_i p_i^T)`` plus the ridge on the non-intercept coordinates."""
    p, L = x.shape[1], probs.shape[1]
    s = counts / counts.sum()
    h = np.empty((p * L, p * L))
    for c in range(L):  # one (p, p) block per pair of classes
        for d in range(L):
            h[c::L, d::L] = (x * (s * probs[:, c] * ((c == d) - probs[:, d]))[:, None]).T @ x
    h[np.diag_indices(p * L - L)] += l2_lambda  # the intercept row comes last
    return h


def train_logistic(ds: TabularDataset, l2_lambda: float = 1e-4,
                   max_iters: int = 100) -> LogisticModel:
    """Damped Newton steps from zero init, on the distinct (row, label) pairs
    of ``ds`` weighted by their counts.

    The loss is flat along one direction, the same constant added to every
    intercept. Each step pins it by holding the most frequent class's
    intercept still (never an absent class's, whose intercept heads to -inf
    as its curvature fades), then recentres the intercepts on 0. Armijo
    backtracking keeps the loss from rising; a predicted decrease below
    ``ROUNDING`` times the loss is lost in rounding, so the full step is
    taken there. One test ends the loop and sets ``converged``: gradient norm
    at most ``GRAD_TOL``. The same dataset always yields the same model.
    """
    if ds.labels is None:
        raise ValidationError("training needs labels")
    L = ds.schema.n_labels
    if ds.n < L:
        raise ValidationError(f"need at least L={L} rows to train")
    # the fit reads the data only through its distinct (row, label) pairs
    first, inverse = refine_key(ds, ds.labels)
    counts = np.bincount(inverse).astype(float)
    x = design_matrix(ds.schema, ds.rows[first])
    y_idx = ds.labels[first] - 1
    w = np.zeros(x.shape[1] * L)
    free = np.arange(w.size) != w.size - L + np.argmax(np.bincount(y_idx, counts, L))
    loss, grad, probs = _loss_grad_probs(w, x, y_idx, counts, l2_lambda)
    it = 0
    while np.linalg.norm(grad) > GRAD_TOL and it < max_iters:
        it += 1
        h = _hessian(probs, x, counts, l2_lambda)[np.ix_(free, free)]
        step = np.zeros_like(w)
        step[free] = -np.linalg.solve(h, grad[free])
        step[-L:] -= step[-L:].mean()
        slope = float(grad @ step)
        t = 1.0
        for _ in range(50):
            loss_new, grad_new, probs_new = _loss_grad_probs(w + t * step, x, y_idx, counts,
                                                             l2_lambda)
            if loss_new <= loss + ARMIJO * t * slope or abs(slope) <= ROUNDING * loss:
                w, loss, grad, probs = w + t * step, loss_new, grad_new, probs_new
                break
            t *= 0.5
        else:
            break
    return LogisticModel(
        schema=ds.schema,
        coef=w.reshape(x.shape[1], L),
        converged=bool(np.linalg.norm(grad) <= GRAD_TOL),
        iterations=it,
    )


def _distinct_probs(model: LogisticModel, ds: TabularDataset) -> tuple[np.ndarray, np.ndarray]:
    """The class probabilities of each distinct row of ``ds``, and each row's
    position among them (``ds.row_key``'s inverse)."""
    check_columns(model.schema, ds.schema, "model", "dataset")
    first, inverse = ds.row_key
    return _softmax(design_matrix(ds.schema, ds.rows[first]) @ model.coef), inverse


def predict_probs(model: LogisticModel, ds: TabularDataset) -> np.ndarray:
    """Class probabilities of every row, evaluated once per distinct row."""
    probs, inverse = _distinct_probs(model, ds)
    return probs[inverse]


def predict(model: LogisticModel, ds: TabularDataset) -> TabularDataset:
    """Attach hard predictions (argmax, lowest class index on ties) and
    row-stochastic probabilities, both evaluated once per distinct row."""
    probs, inverse = _distinct_probs(model, ds)
    return ds.with_outputs(predictions=(probs.argmax(axis=1) + 1)[inverse],
                           pred_probs=probs[inverse])


def load_predictions(ds: TabularDataset, path) -> TabularDataset:
    """Attach an external model's outputs from a ``pred,p_1,...,p_L`` CSV.

    Probability rows are renormalized; a warning is issued when a row is
    off the simplex by more than 1e-6.
    """
    L = ds.schema.n_labels
    preds, probs = [], []
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        expected = ["pred"] + [f"p_{i}" for i in range(1, L + 1)]
        if header is None or [h.strip() for h in header] != expected:
            raise MalformedRow(1, f"expected header {','.join(expected)}")
        for line_no, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != L + 1:
                raise MalformedRow(line_no, f"expected {L + 1} fields, got {len(rec)}")
            try:
                pred = int(rec[0])
                row = [float(v) for v in rec[1:]]
            except ValueError as exc:
                raise MalformedRow(line_no, str(exc)) from exc
            if not 1 <= pred <= L:
                raise MalformedRow(line_no, f"prediction {pred} outside 1..{L}")
            if any(v < 0 for v in row):
                raise MalformedRow(line_no, "negative probability")
            total = sum(row)
            if total <= 0:
                raise MalformedRow(line_no, "probability row sums to 0")
            if abs(total - 1.0) > 1e-6:
                warnings.warn(
                    f"{path} line {line_no}: probability row sums to {total}; renormalized"
                )
            preds.append(pred)
            probs.append([v / total for v in row])
    if len(preds) != ds.n:
        raise RowCountMismatch(f"{path}: {len(preds)} prediction rows for {ds.n} data rows")
    return ds.with_outputs(predictions=np.array(preds), pred_probs=np.array(probs))
