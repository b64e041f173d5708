"""Importance-weight representations.

A weight function assigns w(x, y) >= 0 to each row of a dataset; the
estimators return these objects, and each is evaluated once on its source:
kliep and dlu return those values from their fit, and the method runner
evaluates the others. Lookup-table weights (over a small feature subset and
the label) and basis-expansion weights follow the two canonical
parameterizations; kernel and classifier-ratio weights carry the
feature-only baselines, which ignore y by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .data import FeatureSchema, TabularDataset, refine_key
from .errors import ValidationError
from .predictor import one_hot, predict_probs
from .tabulate import LABEL, cell_index

CLIP_HI = 100.0  # cap on a classifier-ratio weight


def sq_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, m) squared Euclidean distances between the rows of ``x`` and of
    ``centers``, clipped at 0 against rounding, built in one buffer."""
    sq = x @ centers.T
    sq *= -2.0
    sq += (x * x).sum(axis=1)[:, None]
    sq += (centers * centers).sum(axis=1)[None, :]
    return np.maximum(sq, 0.0, out=sq)


def gaussian_kernel(x: np.ndarray, centers: np.ndarray, gamma: float) -> np.ndarray:
    """(n, m) matrix exp(-gamma * ||x_i - c_j||^2), built in one buffer."""
    k = sq_distances(x, centers)
    k *= -gamma
    return np.exp(k, out=k)


class WeightFunction:
    """Shared surface: per-row evaluation."""

    def weights_for(self, ds: TabularDataset) -> np.ndarray:
        raise NotImplementedError


def _require_labels(ds: TabularDataset) -> np.ndarray:
    if ds.labels is None:
        raise ValidationError("weight evaluation needs labels on this dataset")
    return ds.labels


@dataclass(frozen=True)
class TableWeight(WeightFunction):
    """Lookup table over (x_J, y) with a neutral fallback for unseen keys.

    ``index_set`` holds sorted 1-based feature indices of discrete columns;
    keys are ``(x_J value tuple, y)``. Rows are evaluated by indexing a dense
    (*cardinalities of J, L) array filled from the table, so a column with
    no cardinality raises ``MissingAxis`` and an array of more than
    ``MAX_TABLE_CELLS`` cells raises ``ValidationError``. Unseen keys
    evaluate to 1.0 (absent source mass gives no evidence of shift) and are
    counted by :meth:`fallback_hits`; keys outside the schema match no row.
    """

    index_set: tuple[int, ...]
    table: dict

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.index_set))
        if idx != tuple(self.index_set):
            raise ValidationError("index_set must be sorted")
        object.__setattr__(self, "index_set", idx)
        tbl = {}
        for (xj, y), w in self.table.items():
            if w < 0:
                raise ValidationError(f"negative weight for {(xj, y)}: {w}")
            if len(xj) != len(idx):
                raise ValidationError(f"key {(xj, y)} does not match index_set {idx}")
            tbl[tuple(int(v) for v in xj), int(y)] = float(w)
        object.__setattr__(self, "table", MappingProxyType(tbl))

    def _dense(self, ds: TabularDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The table as flat dense values (1.0 at unseen keys) and a flat mask
        of seen keys, and each row's position in both."""
        _require_labels(ds)
        flat, cards = cell_index(ds, (*self.index_set, LABEL))
        keys = np.array([(*xj, y) for xj, y in self.table], dtype=int).reshape(-1, len(cards)) - 1
        inside = ((keys >= 0) & (keys < cards)).all(axis=1)
        at = tuple(keys[inside].T)
        values, seen = np.ones(cards), np.zeros(cards, dtype=bool)
        values[at] = np.fromiter(self.table.values(), float, len(self.table))[inside]
        seen[at] = True
        return values.ravel(), seen.ravel(), flat

    def weights_for(self, ds: TabularDataset) -> np.ndarray:
        values, _, flat = self._dense(ds)
        return values[flat]

    def fallback_hits(self, ds: TabularDataset) -> int:
        _, seen, flat = self._dense(ds)
        return int(np.count_nonzero(~seen[flat]))

    def value(self, x_j, y: int) -> float:
        return self.table.get((tuple(int(v) for v in x_j), int(y)), 1.0)


@dataclass(frozen=True)
class BasisWeight(WeightFunction):
    """w(x, y) = sum_k a[k, y-1] * phi_k(x) for a nonnegative K x L matrix: the
    bases read the features alone, and the label picks the coefficient column."""

    coefficients: np.ndarray
    basis: object  # BasisSet; duck-typed to avoid an import cycle

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=float)
        if (a < 0).any():
            raise ValidationError("basis coefficients must be nonnegative")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "coefficients", a)

    def weights_for(self, ds: TabularDataset) -> np.ndarray:
        """Evaluated once per distinct (row, label) pair."""
        first, inverse = refine_key(ds, _require_labels(ds))
        labels = ds.labels[first]
        w = np.empty(first.size)
        for y in np.unique(labels):
            mask = labels == y
            w[mask] = self.basis.design(ds.rows[first[mask]]) @ self.coefficients[:, int(y) - 1]
        return w[inverse]


@dataclass(frozen=True)
class KernelWeight(WeightFunction):
    """Gaussian-kernel mixture w(x) = sum_b alpha_b k(x, c_b)."""

    centers: np.ndarray
    alphas: np.ndarray
    gamma: float
    schema: FeatureSchema  # rows are compared in its one-hot encoding

    def weights_for(self, ds: TabularDataset) -> np.ndarray:
        """Evaluated once per distinct row."""
        first, inverse = ds.row_key
        x = one_hot(self.schema, ds.rows[first])
        return (gaussian_kernel(x, self.centers, self.gamma) @ self.alphas)[inverse]


@dataclass(frozen=True)
class ModelRatioWeight(WeightFunction):
    """w(x) = scale * clip(rho/(1-rho) * prior_ratio, 0, CLIP_HI) from a domain classifier."""

    model: object  # predictor.LogisticModel scoring P(target | x)
    prior_ratio: float
    scale: float = 1.0

    def weights_for(self, ds: TabularDataset) -> np.ndarray:
        rho = predict_probs(self.model, ds)[:, 1]
        raw = rho / np.maximum(1.0 - rho, 1e-12) * self.prior_ratio
        return self.scale * np.clip(raw, 0.0, CLIP_HI)
