"""Importance-weight representations.

A weight function assigns w(x, y) >= 0 to each row of a dataset; the
estimators exchange these objects. Lookup-table weights (over a small
feature subset and the label) and basis-expansion weights follow the two
canonical parameterizations; kernel and classifier-ratio weights carry the
feature-only baselines, which ignore y by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from .data import FeatureSchema, TabularDataset
from .errors import ValidationError
from .predictor import one_hot, predict_probs
from .tabulate import distinct_rows

CLIP_HI = 100.0  # cap on a classifier-ratio weight


def sq_distances(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, m) squared Euclidean distances between the rows of ``x`` and of
    ``centers``, clipped at 0 against rounding."""
    sq = (x * x).sum(axis=1)[:, None] - 2.0 * x @ centers.T
    sq += (centers * centers).sum(axis=1)[None, :]
    return np.maximum(sq, 0.0, out=sq)


def gaussian_kernel(x: np.ndarray, centers: np.ndarray, gamma: float) -> np.ndarray:
    """(n, m) matrix exp(-gamma * ||x_i - c_j||^2)."""
    return np.exp(-gamma * sq_distances(x, centers))


class WeightFunction:
    """Shared surface: per-row evaluation plus source-mean normalization."""

    def weights_for(self, ds: TabularDataset) -> np.ndarray:
        raise NotImplementedError

    def normalized(self, source: TabularDataset) -> "WeightFunction":
        """Rescale so the empirical source expectation of the weight is 1."""
        mean = float(np.mean(self.weights_for(source)))
        if mean <= 0:
            raise ValidationError("cannot normalize: source mean weight is 0")
        return self._scaled(1.0 / mean)

    def _scaled(self, factor: float) -> "WeightFunction":
        raise NotImplementedError


def _require_labels(ds: TabularDataset) -> np.ndarray:
    if ds.labels is None:
        raise ValidationError("weight evaluation needs labels on this dataset")
    return ds.labels


@dataclass(frozen=True)
class TableWeight(WeightFunction):
    """Lookup table over (x_J, y) with a neutral fallback for unseen keys.

    ``index_set`` holds sorted 1-based feature indices; keys are
    ``(x_J value tuple, y)``. Unseen keys evaluate to ``fallback`` (1.0 by
    default: absent source mass gives no evidence of shift) and are counted
    by :meth:`fallback_hits`.
    """

    index_set: tuple[int, ...]
    table: dict
    fallback: float = 1.0

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.index_set))
        if idx != tuple(self.index_set):
            raise ValidationError("index_set must be sorted")
        object.__setattr__(self, "index_set", idx)
        tbl = {}
        for (xj, y), w in self.table.items():
            if w < 0:
                raise ValidationError(f"negative weight for {(xj, y)}: {w}")
            tbl[tuple(int(v) for v in xj), int(y)] = float(w)
        object.__setattr__(self, "table", MappingProxyType(tbl))

    def _cell_lookup(self, ds: TabularDataset) -> tuple[list, np.ndarray]:
        """Each distinct (x_J, y) key of ``ds`` with its table entry (None
        if unseen), and each row's position among them."""
        cols = [ds.column_values(j).astype(int) for j in self.index_set]
        keys, inverse = distinct_rows([*cols, _require_labels(ds)])
        return [self.table.get((k[:-1], k[-1])) for k in keys], inverse

    def weights_for(self, ds: TabularDataset) -> np.ndarray:
        found, inverse = self._cell_lookup(ds)
        return np.array([self.fallback if w is None else w for w in found], dtype=float)[inverse]

    def fallback_hits(self, ds: TabularDataset) -> int:
        found, inverse = self._cell_lookup(ds)
        return int(np.array([w is None for w in found], dtype=bool)[inverse].sum())

    def value(self, x_j, y: int) -> float:
        return self.table.get((tuple(int(v) for v in x_j), int(y)), self.fallback)

    def _scaled(self, factor: float) -> "TableWeight":
        return replace(self, table={k: w * factor for k, w in self.table.items()})


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
        labels = _require_labels(ds)
        w = np.empty(ds.n)
        for y in np.unique(labels):
            mask = labels == y
            w[mask] = self.basis.design(ds.rows[mask]) @ self.coefficients[:, int(y) - 1]
        return w

    def _scaled(self, factor: float) -> "BasisWeight":
        return replace(self, coefficients=self.coefficients * factor)


@dataclass(frozen=True)
class KernelWeight(WeightFunction):
    """Gaussian-kernel mixture w(x) = scale * sum_b alpha_b k(x, c_b)."""

    centers: np.ndarray
    alphas: np.ndarray
    gamma: float
    schema: FeatureSchema  # rows are compared in its one-hot encoding
    scale: float = 1.0

    def weights_for(self, ds: TabularDataset) -> np.ndarray:
        k = gaussian_kernel(one_hot(self.schema, ds.rows), self.centers, self.gamma)
        return self.scale * (k @ self.alphas)

    def _scaled(self, factor: float) -> "KernelWeight":
        return replace(self, scale=self.scale * factor)


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

    def _scaled(self, factor: float) -> "ModelRatioWeight":
        return replace(self, scale=self.scale * factor)
