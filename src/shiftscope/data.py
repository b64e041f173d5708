"""Core table types: feature schemas, datasets, and shift reports.

Conventions used throughout the package:

* labels, predictions, and discrete cell values are 1-based integers in
  ``{1..cardinality}``;
* feature columns are addressed by 1-based index (column 1 is the first
  schema column), matching the ``X_1..X_d`` naming in reports;
* all types are immutable after construction and safe to share across
  threads.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InputError, MalformedRow, SchemaMismatch, ValidationError

DISCRETE = "discrete"
CONTINUOUS = "continuous"

PROB_ROW_TOL = 1e-9


@contextmanager
def open_input(path, newline=None):
    """Open an input file as UTF-8 text; bytes that do not decode raise
    InputError naming the file."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise InputError(f"{path}: not UTF-8 text: {exc}") from None


def _check_distinct(categories: tuple[str, ...] | None, owner: str) -> None:
    """Codes are looked up by category name, so the names must be distinct."""
    if categories is not None and len(set(categories)) != len(categories):
        raise ValidationError(f"{owner}: duplicate categories {list(categories)!r}")


@dataclass(frozen=True)
class Column:
    """One feature column: discrete with a known cardinality, or continuous.

    ``categories`` is the ingestion dictionary mapping raw CSV strings to
    the 1-based codes, kept so files written back use the original category
    names.
    """

    name: str
    kind: str
    cardinality: int | None = None
    categories: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in (DISCRETE, CONTINUOUS):
            raise ValidationError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == DISCRETE:
            if self.cardinality is None or self.cardinality < 2:
                raise ValidationError(
                    f"column {self.name!r}: discrete cardinality must be >= 2"
                )
            if self.categories is not None and len(self.categories) != self.cardinality:
                raise ValidationError(
                    f"column {self.name!r}: {len(self.categories)} categories for "
                    f"cardinality {self.cardinality}"
                )
            _check_distinct(self.categories, f"column {self.name!r}")
        elif self.cardinality is not None:
            raise ValidationError(f"column {self.name!r}: continuous column has cardinality")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature columns plus the label space size L."""

    columns: tuple[Column, ...]
    label_cardinality: int
    label_name: str = "label"
    label_categories: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        names = [c.name for c in self.columns]
        if not names:
            raise ValidationError("schema has no columns")
        if any(not n for n in names):
            raise ValidationError("schema has an empty column name")
        if len(set(names)) != len(names):
            raise ValidationError("schema column names are not unique")
        if self.label_cardinality < 2:
            raise ValidationError("label cardinality must be >= 2")
        if (
            self.label_categories is not None
            and len(self.label_categories) != self.label_cardinality
        ):
            raise ValidationError("label categories do not match label cardinality")
        _check_distinct(self.label_categories, "label")

    @property
    def d(self) -> int:
        return len(self.columns)

    @property
    def n_labels(self) -> int:
        return self.label_cardinality

    def column(self, index: int) -> Column:
        """Column by 1-based feature index."""
        if not 1 <= index <= self.d:
            raise ValidationError(f"feature index {index} outside 1..{self.d}")
        return self.columns[index - 1]

    def index_of(self, name: str) -> int:
        for i, c in enumerate(self.columns, start=1):
            if c.name == name:
                return i
        raise ValidationError(f"unknown column {name!r}")

    def all_discrete(self) -> bool:
        return all(c.kind == DISCRETE for c in self.columns)


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TabularDataset:
    """An n x d value table with optional labels and model outputs.

    ``rows`` is float64; discrete columns hold integral codes in
    ``{1..cardinality}``. ``labels`` / ``predictions`` are 1-based class
    indices, ``pred_probs`` is row-stochastic with L columns.
    """

    schema: FeatureSchema
    rows: np.ndarray
    labels: np.ndarray | None = None
    predictions: np.ndarray | None = None
    pred_probs: np.ndarray | None = None

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if rows.size == 0:
            rows = rows.reshape(0, self.schema.d)
        if rows.shape[1] != self.schema.d:
            raise ValidationError(
                f"rows have {rows.shape[1]} columns, schema has {self.schema.d}"
            )
        object.__setattr__(self, "rows", _frozen_array(rows, float))
        for name in ("labels", "predictions"):
            vec = getattr(self, name)
            if vec is not None:
                vec = np.asarray(vec, dtype=int).reshape(-1)
                if vec.shape[0] != rows.shape[0]:
                    raise ValidationError(f"{name} length {vec.shape[0]} != n {rows.shape[0]}")
                object.__setattr__(self, name, _frozen_array(vec, int))
        if self.pred_probs is not None:
            probs = np.atleast_2d(np.asarray(self.pred_probs, dtype=float))
            if probs.shape != (rows.shape[0], self.schema.n_labels):
                raise ValidationError(
                    f"pred_probs shape {probs.shape} != "
                    f"({rows.shape[0]}, {self.schema.n_labels})"
                )
            object.__setattr__(self, "pred_probs", _frozen_array(probs, float))

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    def column_values(self, index: int) -> np.ndarray:
        """Values of the 1-based feature column ``index``."""
        self.schema.column(index)
        return self.rows[:, index - 1]

    def with_outputs(self, predictions, pred_probs) -> "TabularDataset":
        return replace(self, predictions=predictions, pred_probs=pred_probs)

    def without_labels(self) -> "TabularDataset":
        return replace(self, labels=None)

    def take(self, indices) -> "TabularDataset":
        idx = np.asarray(indices, dtype=int)
        return TabularDataset(
            schema=self.schema,
            rows=self.rows[idx],
            labels=None if self.labels is None else self.labels[idx],
            predictions=None if self.predictions is None else self.predictions[idx],
            pred_probs=None if self.pred_probs is None else self.pred_probs[idx],
        )


def validate_dataset(ds: TabularDataset) -> list[str]:
    """Check all dataset invariants; returns one finding per violation.

    An empty list means the dataset is well formed. Findings name the
    offending row (0-based data row) and column.
    """
    findings: list[str] = []
    L = ds.schema.n_labels
    for j, col in enumerate(ds.schema.columns, start=1):
        if col.kind != DISCRETE:
            continue
        vals = ds.rows[:, j - 1]
        bad = np.flatnonzero(
            (vals != np.round(vals)) | (vals < 1) | (vals > col.cardinality)
        )
        for i in bad[:20]:
            findings.append(
                f"row {i}: column {col.name!r} value {vals[i]!r} outside 1..{col.cardinality}"
            )
    for name in ("labels", "predictions"):
        vec = getattr(ds, name)
        if vec is None:
            continue
        bad = np.flatnonzero((vec < 1) | (vec > L))
        for i in bad[:20]:
            findings.append(f"row {i}: {name[:-1]} value {vec[i]} outside 1..{L}")
    if ds.pred_probs is not None:
        neg = np.flatnonzero((ds.pred_probs < 0).any(axis=1))
        for i in neg[:20]:
            findings.append(f"row {i}: pred_probs has a negative entry")
        sums = ds.pred_probs.sum(axis=1)
        off = np.flatnonzero(np.abs(sums - 1.0) > PROB_ROW_TOL)
        for i in off[:20]:
            findings.append(f"row {i}: pred_probs sums to {sums[i]!r}, not 1")
    return findings


def check_columns(a: FeatureSchema, b: FeatureSchema, a_name: str, b_name: str) -> None:
    """Raise SchemaMismatch naming the first column where ``a`` and ``b``
    differ in name, kind or cardinality, else return."""
    for i in range(max(a.d, b.d)):
        if i >= b.d:
            raise SchemaMismatch(f"{b_name} missing column {i + 1} ({a.columns[i].name!r})")
        if i >= a.d:
            raise SchemaMismatch(f"{a_name} missing column {i + 1} ({b.columns[i].name!r})")
        ca, cb = a.columns[i], b.columns[i]
        if (ca.name, ca.kind, ca.cardinality) != (cb.name, cb.kind, cb.cardinality):
            raise SchemaMismatch(
                f"column {i + 1}: {a_name} {ca.name!r}/{ca.kind}/{ca.cardinality} "
                f"!= {b_name} {cb.name!r}/{cb.kind}/{cb.cardinality}"
            )


def align_schemas(source: TabularDataset, target: TabularDataset) -> None:
    """Raise SchemaMismatch naming the first differing column, else return."""
    a, b = source.schema, target.schema
    check_columns(a, b, "source", "target")
    if a.label_cardinality != b.label_cardinality:
        raise SchemaMismatch(
            f"label cardinality {a.label_cardinality} != {b.label_cardinality}"
        )


@dataclass(frozen=True)
class ShiftReport:
    """Outcome of one estimator run.

    ``delta_hat`` is the estimated accuracy change, positive when target
    accuracy exceeds source accuracy. ``accuracy_drop`` (the negated value)
    is also emitted because shift reports are usually quoted as drops.
    """

    method: str
    delta_hat: float
    source_accuracy: float
    selected_features: tuple[int, ...]
    diagnostics: dict = field(default_factory=dict)
    weight_metrics: dict | None = None

    def __post_init__(self):
        if not 0.0 <= self.source_accuracy <= 1.0:
            raise ValidationError(f"source accuracy {self.source_accuracy} outside [0,1]")
        object.__setattr__(self, "selected_features", tuple(self.selected_features))

    @property
    def estimated_target_accuracy(self) -> float:
        # rounding in weights of source mean 1 can carry the sum past 1
        return min(1.0, max(0.0, self.source_accuracy + self.delta_hat))

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "delta_hat": self.delta_hat,
            "source_accuracy": self.source_accuracy,
            "estimated_target_accuracy": self.estimated_target_accuracy,
            "accuracy_drop": -self.delta_hat,
            "selected_features": list(self.selected_features),
            "diagnostics": dict(self.diagnostics),
            "weight_metrics": None if self.weight_metrics is None else dict(self.weight_metrics),
        }


# ---------------------------------------------------------------------------
# File ingestion: schema JSON + CSV datasets.

def _schema_categories(owner: dict) -> tuple[str, ...]:
    if not isinstance(owner["categories"], list):
        raise ValueError(f"categories of {owner.get('name')!r} must be a list")
    return tuple(str(v) for v in owner["categories"])


def load_schema(path) -> FeatureSchema:
    """Anything malformed in the schema file raises ValidationError naming it."""
    try:
        with open_input(path) as fh:
            raw = json.load(fh)
        cols = []
        for c in raw["columns"]:
            if c["kind"] == DISCRETE:
                cats = _schema_categories(c)
                cols.append(Column(c["name"], DISCRETE, len(cats), cats))
            else:
                cols.append(Column(c["name"], c["kind"]))
        lab = raw["label"]
        cats = _schema_categories(lab)
        return FeatureSchema(
            columns=tuple(cols),
            label_cardinality=len(cats),
            label_name=lab["name"],
            label_categories=cats,
        )
    except KeyError as exc:
        raise ValidationError(f"schema file {path}: missing key {exc}") from exc
    except (ValidationError, ValueError, TypeError) as exc:
        raise ValidationError(f"schema file {path}: {exc}") from exc


def save_schema(schema: FeatureSchema, path) -> None:
    cols = []
    for c in schema.columns:
        if c.kind == DISCRETE:
            cats = c.categories or tuple(str(v) for v in range(1, c.cardinality + 1))
            cols.append({"name": c.name, "kind": DISCRETE, "categories": list(cats)})
        else:
            cols.append({"name": c.name, "kind": CONTINUOUS})
    lab_cats = schema.label_categories or tuple(
        str(v) for v in range(1, schema.label_cardinality + 1)
    )
    doc = {"columns": cols, "label": {"name": schema.label_name, "categories": list(lab_cats)}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def decode_code(raw, categories: tuple[str, ...] | None, cardinality: int) -> int:
    """1-based code of a category written as its name or as its code.

    Raises ValueError with a short reason for anything else.
    """
    raw = str(raw).strip()
    if categories is not None and raw in categories:
        return categories.index(raw) + 1
    try:
        code = int(raw)
    except ValueError:
        raise ValueError(f"unknown category {raw!r}") from None
    if not 1 <= code <= cardinality:
        raise ValueError(f"code {code} outside 1..{cardinality}")
    return code


def encode_code(code: int, categories: tuple[str, ...] | None) -> str:
    """Category name of a 1-based code, or the code itself without a dictionary."""
    return categories[code - 1] if categories is not None else str(code)


def _decode_cell(col: Column, raw: str, line_no: int) -> float:
    raw = raw.strip()
    if raw == "":
        raise MalformedRow(line_no, f"missing value in column {col.name!r}")
    if col.kind == DISCRETE:
        try:
            return float(decode_code(raw, col.categories, col.cardinality))
        except ValueError as exc:
            raise MalformedRow(line_no, f"column {col.name!r}: {exc}") from None
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRow(line_no, f"column {col.name!r}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(line_no, f"column {col.name!r}: non-finite value {raw!r}")
    return value


def _decode_label(schema: FeatureSchema, raw: str, line_no: int) -> int:
    try:
        return decode_code(raw, schema.label_categories, schema.label_cardinality)
    except ValueError as exc:
        raise MalformedRow(line_no, f"label: {exc}") from None


def load_dataset(path, schema: FeatureSchema) -> TabularDataset:
    """Read a CSV against ``schema``; the label column may be absent."""
    with open_input(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file")
        header = [h.strip() for h in header]
        for i, name in enumerate(header):
            if name in header[:i]:
                raise SchemaMismatch(f"{path}: column {name!r} appears twice in the header")
        positions = {}
        for c in schema.columns:
            if c.name not in header:
                raise SchemaMismatch(f"{path}: missing column {c.name!r}")
            positions[c.name] = header.index(c.name)
        label_pos = header.index(schema.label_name) if schema.label_name in header else None
        rows, labels = [], []
        for line_no, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != len(header):
                raise MalformedRow(line_no, f"expected {len(header)} fields, got {len(rec)}")
            rows.append(
                [_decode_cell(c, rec[positions[c.name]], line_no) for c in schema.columns]
            )
            if label_pos is not None:
                labels.append(_decode_label(schema, rec[label_pos], line_no))
    return TabularDataset(
        schema=schema,
        rows=np.array(rows, dtype=float).reshape(len(rows), schema.d),
        labels=np.array(labels, dtype=int) if label_pos is not None else None,
    )


def _encode_cell(col: Column, value: float) -> str:
    if col.kind == DISCRETE:
        return encode_code(int(round(value)), col.categories)
    return repr(float(value))


def save_dataset(ds: TabularDataset, path, include_labels: bool = True) -> None:
    """Write a CSV that round-trips through load_dataset.

    Continuous values are written with ``repr`` so reloads are bit-exact;
    discrete codes are written through the category dictionary.
    """
    schema = ds.schema
    labeled = include_labels and ds.labels is not None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = [c.name for c in schema.columns]
        if labeled:
            header.append(schema.label_name)
        writer.writerow(header)
        for i in range(ds.n):
            rec = [_encode_cell(c, ds.rows[i, j]) for j, c in enumerate(schema.columns)]
            if labeled:
                rec.append(encode_code(int(ds.labels[i]), schema.label_categories))
            writer.writerow(rec)
