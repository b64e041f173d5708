"""Probability tables and quantile discretization.

:class:`EmpiricalPmf` is the one table type: the distinct cells of a joint
with their weights. Sample mode is population mode on ``estimate_pmf``
joints, and only :attr:`EmpiricalPmf.mass` materializes a dense table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CONTINUOUS, DISCRETE, Column, FeatureSchema, TabularDataset, check_columns
from .errors import MissingAxis, TooFewDistinctValues, ValidationError

PREDICTION = "prediction"
LABEL = "label"

MAX_TABLE_CELLS = 10**7


@dataclass(frozen=True)
class EmpiricalPmf:
    """Mass over a tuple of axes, kept as weighted cells.

    Each axis is a 1-based feature index, or one of the sentinels
    ``PREDICTION`` / ``LABEL``. ``cells`` has one row per axis and one
    column per cell, holding 0-based codes; a cell's mass is its weight
    divided by ``total``.
    """

    axes: tuple
    cardinalities: tuple[int, ...]
    cells: np.ndarray
    weights: np.ndarray
    total: float

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "cardinalities", tuple(self.cardinalities))
        object.__setattr__(self, "cells", np.asarray(self.cells, dtype=np.intp))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        shape = (len(self.axes), self.weights.size)
        if len(self.cardinalities) != shape[0] or self.cells.shape != shape:
            raise ValidationError(f"cells {self.cells.shape} do not fit {shape[0]} axes "
                                  f"and {shape[1]} weights")

    def marginal(self, axes) -> "EmpiricalPmf":
        """The same cells over ``axes`` alone, in the given order."""
        axes = tuple(axes)
        try:
            keep = [self.axes.index(a) for a in axes]
        except ValueError as exc:
            raise MissingAxis(f"axis not in table: {exc}") from exc
        return EmpiricalPmf(axes=axes, cardinalities=tuple(self.cardinalities[i] for i in keep),
                            cells=self.cells[keep], weights=self.weights, total=self.total)

    @property
    def mass(self) -> np.ndarray:
        """The dense normalized table, shaped by ``cardinalities``."""
        n_cells = math.prod(self.cardinalities)
        if n_cells > MAX_TABLE_CELLS:
            raise ValidationError(f"refusing to materialize table with {n_cells} cells")
        flat = (np.ravel_multi_index(tuple(self.cells), self.cardinalities) if self.axes
                else np.zeros(self.weights.size, dtype=np.intp))
        counts = np.bincount(flat, weights=self.weights, minlength=n_cells)
        return (counts / self.total).reshape(self.cardinalities)


def distinct_first(columns) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct row of one or more equal-length
    columns, as ascending row indices (so in order of first appearance),
    and each row's position in that index.

    One stable lexsort groups equal rows; the sorted columns are compared
    one at a time, so no stacked copy of the rows is made.
    """
    columns = [np.asarray(c) for c in columns]
    n = columns[0].shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    order = np.lexsort(columns)
    new = np.zeros(n, dtype=bool)
    new[0] = True
    for col in columns:
        ordered = col[order]
        new[1:] |= ordered[1:] != ordered[:-1]
    # the sort is stable, so each group opens with its first row
    firsts = order[new]
    rank = np.empty(firsts.size, dtype=np.intp)
    rank[np.argsort(firsts)] = np.arange(firsts.size)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = rank[np.cumsum(new) - 1]
    firsts.sort()
    return firsts, inverse


def distinct_rows(columns) -> tuple[list[tuple], np.ndarray]:
    """Distinct rows of one or more equal-length columns, as tuples in order
    of first appearance, and each row's position in that list
    (:func:`distinct_first` with the keys spelled out)."""
    columns = [np.asarray(c) for c in columns]
    firsts, inverse = distinct_first(columns)
    return list(zip(*(col[firsts].tolist() for col in columns))), inverse


def _axis_column(ds: TabularDataset, axis) -> tuple[np.ndarray, int]:
    """Resolve one axis to (0-based codes, cardinality)."""
    if axis == PREDICTION:
        if ds.predictions is None:
            raise MissingAxis("dataset has no predictions")
        return ds.predictions - 1, ds.schema.n_labels
    if axis == LABEL:
        if ds.labels is None:
            raise MissingAxis("dataset has no labels")
        return ds.labels - 1, ds.schema.n_labels
    col = ds.schema.column(int(axis))
    if col.kind != DISCRETE:
        raise MissingAxis(f"column {col.name!r} is continuous; discretize first")
    return ds.column_values(int(axis)).astype(int) - 1, col.cardinality


def estimate_pmf(ds: TabularDataset, axes) -> EmpiricalPmf:
    """Empirical joint of the requested axes: each distinct row weighted by
    its count, over the row count."""
    axes = tuple(axes)
    if not axes:
        return EmpiricalPmf((), (), cells=np.zeros((0, 1)), weights=[1.0], total=1.0)
    codes, cards = zip(*(_axis_column(ds, a) for a in axes))
    if ds.n == 0:
        raise ValidationError("cannot estimate a pmf from an empty dataset")
    firsts, inverse = distinct_first(codes)
    return EmpiricalPmf(axes, cards, cells=[c[firsts] for c in codes],
                        weights=np.bincount(inverse).astype(float), total=float(ds.n))


@dataclass(frozen=True)
class Discretizer:
    """Per-column quantile bin edges for the continuous columns of a schema.

    Edges are interior boundaries; value ``v`` lands in bin
    ``1 + #{edges <= v}`` so a value equal to an edge goes to the higher
    bin, and out-of-range values clamp to the end bins.
    """

    schema: FeatureSchema
    edges: dict


def fit_discretizer(ds: TabularDataset, bins: int = 5) -> Discretizer:
    """Equal-frequency edges for every continuous column of ``ds``."""
    if bins < 2:
        raise ValidationError("bins must be >= 2")
    edges: dict[int, np.ndarray] = {}
    for j, col in enumerate(ds.schema.columns, start=1):
        if col.kind != CONTINUOUS:
            continue
        vals = ds.rows[:, j - 1]
        if np.unique(vals).size < bins:
            raise TooFewDistinctValues(col.name, int(np.unique(vals).size), bins)
        qs = np.arange(1, bins) / bins
        e = np.unique(np.quantile(vals, qs))
        e.setflags(write=False)
        edges[j] = e
    return Discretizer(schema=ds.schema, edges=edges)


def apply_discretizer(disc: Discretizer, ds: TabularDataset) -> TabularDataset:
    """Replace continuous columns by their bin codes.

    Idempotent on already-discrete datasets (no continuous columns means
    nothing to do).
    """
    check_columns(disc.schema, ds.schema, "discretizer", "dataset")
    if not disc.edges:
        return ds
    rows = np.array(ds.rows)
    new_cols = []
    for j, col in enumerate(ds.schema.columns, start=1):
        if col.kind != CONTINUOUS:
            new_cols.append(col)
            continue
        e = disc.edges[j]
        binned = np.searchsorted(e, rows[:, j - 1], side="right") + 1
        rows[:, j - 1] = np.clip(binned, 1, len(e) + 1)
        new_cols.append(Column(col.name, DISCRETE, len(e) + 1))
    schema = FeatureSchema(
        columns=tuple(new_cols),
        label_cardinality=ds.schema.label_cardinality,
        label_name=ds.schema.label_name,
        label_categories=ds.schema.label_categories,
    )
    return TabularDataset(
        schema=schema,
        rows=rows,
        labels=ds.labels,
        predictions=ds.predictions,
        pred_probs=ds.pred_probs,
    )
