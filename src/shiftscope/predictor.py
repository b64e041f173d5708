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

from .data import DISCRETE, FeatureSchema, TabularDataset, check_columns
from .errors import MalformedRow, RowCountMismatch, ValidationError
from .tabulate import distinct_first


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
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def logistic_loss_grad(w_flat: np.ndarray, x: np.ndarray, y_idx: np.ndarray,
                       counts: np.ndarray, l2_lambda: float) -> tuple[float, np.ndarray]:
    """Mean cross-entropy + (lambda/2)||W||^2 over non-intercept rows.

    Row ``i`` of ``x`` and ``y_idx`` stands for ``counts[i]`` equal rows, and
    the mean is over all of them. ``w_flat`` is the (p, L) coefficient matrix
    flattened; the last design column is the intercept and is left
    unregularized.
    """
    m, p = x.shape
    L = w_flat.size // p
    w = w_flat.reshape(p, L)
    n = counts.sum()
    probs = _softmax(x @ w)
    picked = np.log(np.maximum(probs[np.arange(m), y_idx], 1e-300))
    nll = -float((counts * picked).sum()) / n
    reg_mask = np.ones((p, 1))
    reg_mask[-1] = 0.0
    loss = nll + 0.5 * l2_lambda * float(((w * w) * reg_mask).sum())
    resid = probs  # probs is not read again
    resid[np.arange(m), y_idx] -= 1.0
    grad = x.T @ (resid * counts[:, None]) / n + l2_lambda * (w * reg_mask)
    return loss, grad.reshape(-1)


@dataclass(frozen=True)
class LogisticModel:
    schema: FeatureSchema
    coef: np.ndarray  # (p, L)
    l2_lambda: float
    converged: bool
    iterations: int

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=float).copy()
        if not np.isfinite(coef).all():
            raise ValidationError("logistic coefficients are not finite")
        coef.setflags(write=False)
        object.__setattr__(self, "coef", coef)


def train_logistic(ds: TabularDataset, l2_lambda: float = 1e-4,
                   max_iters: int = 2000) -> LogisticModel:
    """Full-batch gradient descent with backtracking from zero init, on the
    distinct (row, label) pairs of ``ds`` weighted by their counts.

    Deterministic: the same dataset always yields the same model. If the
    gradient norm still exceeds 1e-4 at ``max_iters`` the model is returned
    with ``converged=False``.
    """
    if ds.labels is None:
        raise ValidationError("training needs labels")
    L = ds.schema.n_labels
    if ds.n < L:
        raise ValidationError(f"need at least L={L} rows to train")
    # the fit reads the data only through its distinct (row, label) pairs
    first, inverse = distinct_first([*ds.rows.T, ds.labels])
    counts = np.bincount(inverse).astype(float)
    x = design_matrix(ds.schema, ds.rows[first])
    y_idx = ds.labels[first] - 1
    w = np.zeros(x.shape[1] * L)
    loss, grad = logistic_loss_grad(w, x, y_idx, counts, l2_lambda)
    step = 1.0
    it = 0
    for it in range(1, max_iters + 1):
        gnorm = float(np.linalg.norm(grad))
        if gnorm < 1e-6:
            break
        accepted = False
        for _ in range(50):
            w_new = w - step * grad
            loss_new, grad_new = logistic_loss_grad(w_new, x, y_idx, counts, l2_lambda)
            if loss_new <= loss:
                w, loss, grad = w_new, loss_new, grad_new
                step = min(step * 2.0, 1e4)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    gnorm = float(np.linalg.norm(grad))
    return LogisticModel(
        schema=ds.schema,
        coef=w.reshape(x.shape[1], L),
        l2_lambda=l2_lambda,
        converged=gnorm <= 1e-4,
        iterations=it,
    )


def predict_probs(model: LogisticModel, ds: TabularDataset) -> np.ndarray:
    check_columns(model.schema, ds.schema, "model", "dataset")
    return _softmax(design_matrix(ds.schema, ds.rows) @ model.coef)


def predict(model: LogisticModel, ds: TabularDataset) -> TabularDataset:
    """Attach hard predictions (argmax, lowest class index on ties) and
    row-stochastic probabilities."""
    probs = predict_probs(model, ds)
    preds = probs.argmax(axis=1) + 1
    return ds.with_outputs(predictions=preds, pred_probs=probs)


def load_predictions(ds: TabularDataset, path) -> TabularDataset:
    """Attach an external model's outputs from a ``pred,p_1,...,p_L`` CSV.

    Probability rows are renormalized; a warning is issued when a row is
    off the simplex by more than 1e-6.
    """
    L = ds.schema.n_labels
    preds, probs = [], []
    with open(path, newline="") as fh:
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
