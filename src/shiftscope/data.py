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
from itertools import chain, islice, repeat

import numpy as np

from .errors import InputError, MalformedRow, SchemaMismatch, ValidationError

DISCRETE = "discrete"
CONTINUOUS = "continuous"

PROB_ROW_TOL = 1e-9

# Rows per block when reading or writing CSV: large enough to amortize the
# per-column work, small enough that a block of Python strings stays small.
CHUNK_ROWS = 4096


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

    ``row_key`` keys the rows once, on first use; ``with_outputs`` and
    ``without_labels`` keep the rows, so they carry the key over. It is a
    deterministic function of the rows, so threads that race on it can at
    most compute it twice.
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

    @property
    def row_key(self) -> tuple[np.ndarray, np.ndarray]:
        """``distinct_first`` of the feature rows: the first row of each
        distinct row and each row's position among them. A consumer that
        keys rows together with labels or probabilities refines this key,
        passing ``inverse`` as the first column, which folds by counting."""
        key = self.__dict__.get("_row_key")
        if key is None:
            key = distinct_first(self.rows.T)
            for part in key:
                part.setflags(write=False)
            object.__setattr__(self, "_row_key", key)
        return key

    def _same_rows(self, **changes) -> "TabularDataset":
        ds = replace(self, **changes)
        if "_row_key" in self.__dict__:
            object.__setattr__(ds, "_row_key", self._row_key)
        return ds

    def with_outputs(self, predictions, pred_probs) -> "TabularDataset":
        return self._same_rows(predictions=predictions, pred_probs=pred_probs)

    def without_labels(self) -> "TabularDataset":
        return self._same_rows(labels=None)

    def take(self, indices) -> "TabularDataset":
        idx = np.asarray(indices, dtype=int)
        return TabularDataset(
            schema=self.schema,
            rows=self.rows[idx],
            labels=None if self.labels is None else self.labels[idx],
            predictions=None if self.predictions is None else self.predictions[idx],
            pred_probs=None if self.pred_probs is None else self.pred_probs[idx],
        )


def _offsets(col: np.ndarray, bound: int) -> tuple[np.ndarray, int] | None:
    """``col`` as int64 offsets from its least value, and its span; None
    unless it holds only integers (floats too, ``-0.0`` as 0) over a span
    of at most ``bound``. Spans are Python ints, so int64 bit views of
    floats cannot overflow them."""
    with np.errstate(invalid="ignore"):  # NaN, inf and big floats fail the check below
        v = col.astype(np.int64)
    if col.dtype.kind == "f" and not (v == col).all():
        return None
    lo, hi = int(v.min()), int(v.max())
    if hi - lo >= bound:
        return None
    v -= lo
    return v, hi - lo + 1


def distinct_first(columns) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct row of one or more equal-length
    columns, as ascending row indices (so in order of first appearance),
    and each row's position in that index. Rows are equal when every
    column is equal under ``==``, so ``-0.0`` equals ``0.0`` and a row with
    a NaN equals no row.

    Each column of integers (or integral floats) over a span of at most
    4n folds into one int64 code by mixed radix, as long as the code's
    range stays within 4n. If some column does not fold, one lexsort runs
    over those columns with the code as its first key, and the runs of
    equal sorted rows number the code anew. Rows are then grouped by counting on
    the code, with no sort.
    """
    columns = [np.asarray(c) for c in columns]
    n = columns[0].shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    bound = 4 * n
    code, size, rest = np.zeros(n, dtype=np.int64), 1, []
    for col in columns:
        folded = _offsets(col, bound)
        if folded is None or size * folded[1] > bound:
            rest.append(col)
            continue
        v, span = folded
        code *= span
        code += v
        size *= span
    if rest:  # the sorted runs of equal rows become the code
        keys = [*rest, code] if size > 1 else rest
        order = np.lexsort(keys)
        new = np.zeros(n, dtype=bool)
        for key in keys:
            ordered = key[order]
            new[1:] |= ordered[1:] != ordered[:-1]
        code[order] = np.cumsum(new)
        size = int(code[order[-1]]) + 1
    first = np.full(size, n, dtype=np.intp)
    np.minimum.at(first, code, np.arange(n))
    new = np.zeros(n, dtype=bool)
    new[first[first < n]] = True
    firsts = np.flatnonzero(new)
    first[code[firsts]] = np.arange(firsts.size)  # now each code's rank
    return firsts, first[code]


def refine_key(ds: TabularDataset, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``distinct_first`` of the rows of ``ds`` together with ``values``, one
    entry or one row of entries per row (labels, probabilities), from
    ``ds.row_key``: its ``inverse`` goes first and folds by counting. Values
    that are equal on each distinct row leave the key as it is."""
    first, inverse = ds.row_key
    if (values[first][inverse] == values).all():
        return first, inverse
    return distinct_first([inverse, *values.reshape(ds.n, -1).T])


def validate_dataset(ds: TabularDataset) -> list[str]:
    """Check all dataset invariants; returns one finding per violation.

    An empty list means the dataset is well formed. Findings name the
    offending row (0-based data row) and column.
    """
    findings: list[str] = []
    L = ds.schema.n_labels
    for col, vals in zip(ds.schema.columns, ds.rows.T):
        if col.kind == DISCRETE:
            bad = np.flatnonzero(
                (vals != np.round(vals)) | (vals < 1) | (vals > col.cardinality)
            )
            reason = f"outside 1..{col.cardinality}"
        else:
            bad = np.flatnonzero(~np.isfinite(vals))
            reason = "is not finite"
        for i in bad[:20]:
            findings.append(f"row {i}: column {col.name!r} value {float(vals[i])!r} {reason}")
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
    Rounding in weights of source mean 1 can carry the estimate past the
    unit interval, so ``delta_hat`` is clipped to
    ``[-source_accuracy, 1 - source_accuracy]`` on construction.
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
        acc = self.source_accuracy
        object.__setattr__(self, "delta_hat", float(np.clip(self.delta_hat, -acc, 1.0 - acc)))
        object.__setattr__(self, "selected_features", tuple(self.selected_features))

    @property
    def estimated_target_accuracy(self) -> float:
        # the sum of the clipped delta_hat and source_accuracy can still round past 1
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


def _decode_records(schema, recs, start, width, positions, label_pos):
    """Decode records row by row, raising the first bad record's error in
    file order. Returns (rows, labels) arrays; labels is None when the file
    has no label column. A chunk can also land here without a bad record:
    ``str.strip`` removes the separators U+001C-U+001F around a number,
    while ``float`` refuses them."""
    rows, labels = [], []
    for line_no, rec in enumerate(recs, start=start):
        if not rec:
            continue
        if len(rec) != width:
            raise MalformedRow(line_no, f"expected {width} fields, got {len(rec)}")
        rows.append([_decode_cell(c, rec[p], line_no) for c, p in zip(schema.columns, positions)])
        if label_pos is not None:
            labels.append(_decode_label(schema, rec[label_pos], line_no))
    return (np.array(rows, dtype=float).reshape(len(rows), schema.d),
            None if label_pos is None else np.array(labels, dtype=int))


def _lookup(cache: dict, raws, decode, dtype) -> np.ndarray | None:
    """Codes of ``raws``, decoding each string not yet in ``cache`` once;
    None if any string does not decode."""
    for raw in set(raws).difference(cache):
        try:
            cache[raw] = decode(raw)
        except MalformedRow:
            return None
    return np.fromiter(map(cache.__getitem__, raws), dtype, len(raws))


def _floats(raws) -> np.ndarray | None:
    """Finite floats of ``raws``; None if any string is not one."""
    try:
        vals = np.fromiter(map(float, raws), float, len(raws))
    except ValueError:
        return None
    return vals if np.isfinite(vals).all() else None


def _decode_fields(schema, field, n, positions, label_pos, caches):
    """Decode ``n`` records column by column, ``field(p)`` holding the
    strings of field position ``p``; None if any check fails. ``caches``
    holds one string -> code dict per discrete column and the label, kept
    across chunks."""
    rows = np.empty((n, schema.d))
    # the line number 0 passed to the decoders is never shown: a failure
    # sends the chunk to _decode_records, which names the real line
    for j, (c, p) in enumerate(zip(schema.columns, positions)):
        if c.kind == DISCRETE:
            vals = _lookup(caches[j], field(p), lambda raw: _decode_cell(c, raw, 0), float)
        else:
            vals = _floats(field(p))
        if vals is None:
            return None
        rows[:, j] = vals
    if label_pos is None:
        return rows, None
    labels = _lookup(caches[-1], field(label_pos),
                     lambda raw: _decode_label(schema, raw, 0), int)
    return None if labels is None else (rows, labels)


def _decode_columns(schema, recs, width, positions, label_pos, caches):
    """Decode csv records column by column; None if any check fails."""
    recs = [rec for rec in recs if rec]
    if any(len(rec) != width for rec in recs):
        return None
    fields = list(zip(*recs)) or [()] * width
    return _decode_fields(schema, fields.__getitem__, len(recs), positions, label_pos, caches)


def _decode_lines(schema, lines, width, positions, label_pos, caches):
    """Decode physical lines, each distinct line once; None if a line holds
    a quote, has other than ``width - 1`` commas or is longer than the csv
    field limit, or if any cell fails to decode.

    Such a line is one csv record whose fields lie between its commas, so
    the distinct lines are split in one pass. The last field keeps the
    line ending, which every decoder strips; a blank line is no record to
    csv, and here it has the wrong width or an empty cell.
    """
    distinct = dict.fromkeys(lines)
    joined = ",".join(distinct)
    if ('"' in joined or max(map(len, distinct), default=0) > csv.field_size_limit()
            or set(map(str.count, distinct, repeat(","))) - {width - 1}):
        return None
    flat = joined.split(",") if distinct else []
    block = _decode_fields(schema, lambda p: flat[p::width], len(distinct),
                           positions, label_pos, caches)
    if block is None or len(distinct) == len(lines):
        return block
    for k, line in enumerate(distinct):
        distinct[line] = k
    inverse = np.fromiter(map(distinct.__getitem__, lines), np.intp, len(lines))
    rows, labels = block
    return rows[inverse], None if labels is None else labels[inverse]


def _chunks(items):
    """Lists of up to CHUNK_ROWS lines or records. An error from the file or
    the csv reader (bad UTF-8 or bad CSV) is raised only after the items
    read before it are handed out, so a bad cell earlier in the file is
    still reported first: ``list.extend`` keeps the items it read before
    the error."""
    items = iter(items)
    while True:
        chunk = []
        try:
            chunk.extend(islice(items, CHUNK_ROWS))
        except (csv.Error, UnicodeDecodeError):
            yield chunk
            raise
        yield chunk
        if len(chunk) < CHUNK_ROWS:
            return


def _blocks(schema, fh, layout, caches):
    """(rows, labels) blocks of the data lines left in ``fh``, in file order.

    Chunks of lines go through :func:`_decode_lines` until one fails it;
    from that chunk on the csv reader parses records (a quoted one may span
    lines and chunks), each chunk decoded column by column and, if that
    fails, row by row, so the error names the first bad line.
    """
    lines, start = _chunks(fh), 2
    for chunk in lines:
        block = _decode_lines(schema, chunk, *layout, caches)
        if block is None:
            break
        yield block
        start += len(chunk)
    else:
        return
    try:
        for recs in _chunks(csv.reader(chain(chunk, chain.from_iterable(lines)))):
            yield (_decode_columns(schema, recs, *layout, caches)
                   or _decode_records(schema, recs, start, *layout))
            start += len(recs)
    except csv.Error as exc:
        raise MalformedRow(start, str(exc)) from None


def load_dataset(path, schema: FeatureSchema) -> TabularDataset:
    """Read a CSV against ``schema``; the label column may be absent.

    Lines are read in chunks of CHUNK_ROWS, each distinct line parsed and
    decoded once and each distinct category string decoded once; see
    :func:`_blocks`. A csv error exits as MalformedRow naming its record.
    """
    with open_input(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ValidationError(f"{path}: empty file")
        except csv.Error as exc:
            raise MalformedRow(1, str(exc)) from None
        header = [h.strip() for h in header]
        for i, name in enumerate(header):
            if name in header[:i]:
                raise SchemaMismatch(f"{path}: column {name!r} appears twice in the header")
        positions = []
        for c in schema.columns:
            if c.name not in header:
                raise SchemaMismatch(f"{path}: missing column {c.name!r}")
            positions.append(header.index(c.name))
        label_pos = header.index(schema.label_name) if schema.label_name in header else None
        layout = (len(header), positions, label_pos)
        blocks = list(_blocks(schema, fh, layout, [{} for _ in range(schema.d + 1)]))
    return TabularDataset(
        schema=schema,
        rows=np.concatenate([rows for rows, _ in blocks]),
        labels=None if label_pos is None else np.concatenate([lab for _, lab in blocks]),
    )


class _Lines(list):
    write = list.append  # so csv.writer appends one formatted row per item


def save_dataset(ds: TabularDataset, path, include_labels: bool = True) -> None:
    """Write a CSV that round-trips through load_dataset.

    Continuous values are written with ``repr`` so reloads are bit-exact;
    discrete codes are written through the category dictionary. A code
    outside its column's range, or a continuous value that is not finite
    (``load_dataset`` refuses one), raises ValidationError before anything is
    written. Rows go out in chunks of CHUNK_ROWS: the rows of a chunk that
    are equal in every code and in every bit of every continuous value (so
    ``0.0`` and ``-0.0`` differ) are formatted once, column by column, and
    the chunk is written as one string.
    """
    schema = ds.schema
    labels = ds.labels if include_labels else None
    findings = validate_dataset(TabularDataset(schema=schema, rows=ds.rows, labels=labels))
    if findings:
        raise ValidationError(f"cannot write {path}: {findings[0]}")
    names = [None if c.kind != DISCRETE else
             [encode_code(k, c.categories) for k in range(1, c.cardinality + 1)]
             for c in schema.columns]
    if labels is not None:
        names.append([encode_code(k, schema.label_categories)
                      for k in range(1, schema.label_cardinality + 1)])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        header = [c.name for c in schema.columns]
        if labels is not None:
            header.append(schema.label_name)
        csv.writer(fh).writerow(header)
        for lo in range(0, ds.n, CHUNK_ROWS):
            block = ds.rows[lo:lo + CHUNK_ROWS]
            if labels is not None:
                block = np.column_stack([block, labels[lo:lo + CHUNK_ROWS]])
            # codes key by value, continuous values by bits: -0.0 prints apart from 0.0
            firsts, inverse = distinct_first([bits if cats is None else col for col, bits, cats
                                              in zip(block.T, block.view(np.int64).T, names)])
            cols = [map(repr, col.tolist()) if cats is None else
                    map(cats.__getitem__, (col.astype(int) - 1).tolist())
                    for col, cats in zip(block[firsts].T, names)]
            formatted = _Lines()
            csv.writer(formatted).writerows(zip(*cols))
            fh.write("".join(map(formatted.__getitem__, inverse.tolist())))
