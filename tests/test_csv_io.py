"""The chunked CSV reader and writer against the per-row loops they replaced.

The reference reader and writer below are the per-row versions of
``load_dataset`` and ``save_dataset``. The chunked ones must give the same
arrays, the same bytes, and the same exception type and message.
"""

import csv
import io
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftscope import data
from shiftscope.data import (
    Column,
    FeatureSchema,
    TabularDataset,
    _decode_cell,
    _decode_label,
    encode_code,
    load_dataset,
    open_input,
    save_dataset,
)
from shiftscope.errors import MalformedRow, SchemaMismatch, ValidationError


def reference_load(path, schema):
    """Per-row reader: every cell through ``_decode_cell``, in file order."""
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


def reference_save(ds, path, include_labels=True):
    """Per-row writer: one ``writerow`` per row, each cell encoded on its own."""
    schema = ds.schema
    labeled = include_labels and ds.labels is not None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = [c.name for c in schema.columns]
        if labeled:
            header.append(schema.label_name)
        writer.writerow(header)
        for i in range(ds.n):
            rec = [encode_code(int(round(ds.rows[i, j])), c.categories)
                   if c.kind == "discrete" else repr(float(ds.rows[i, j]))
                   for j, c in enumerate(schema.columns)]
            if labeled:
                rec.append(encode_code(int(ds.labels[i]), schema.label_categories))
            writer.writerow(rec)


def outcome(load, path, schema):
    """(rows bytes, labels) or (exception type, message)."""
    try:
        ds = load(path, schema)
    except Exception as exc:  # compared as a value below
        return type(exc), str(exc)
    labels = None if ds.labels is None else ds.labels.tolist()
    return ds.rows.shape, ds.rows.tobytes(), labels


# ---------------------------------------------------------------------------
# Generated files.

# a space, a comma, and a quote with a line break inside names: a record
# holding the last spans two lines, and so chunk boundaries
CATS = ("a", "bb", "c c", "d,d", 'e"\ne')
FAULTS = ("unknown", "empty", "blank", "nan", "inf", "text", "bad_label", "width")


@st.composite
def schemas(draw):
    cols = []
    for j in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("named", "codes", "continuous")))
        k = draw(st.integers(2, 5))
        if kind == "continuous":
            cols.append(Column(f"x{j}", "continuous"))
        else:
            cols.append(Column(f"x{j}", "discrete", k, CATS[:k] if kind == "named" else None))
    L = draw(st.integers(2, 5))
    label_cats = draw(st.sampled_from((None, CATS[:L])))
    return FeatureSchema(columns=tuple(cols), label_cardinality=L, label_categories=label_cats)


def _pad(draw, text):
    return (draw(st.sampled_from(("", " ", "\t", "\x1c", "\u3000"))) + text
            + draw(st.sampled_from(("", "  ", "\x1f"))))


def _code_text(draw, categories, k):
    code = draw(st.integers(1, k))
    if categories is not None and draw(st.booleans()):
        return _pad(draw, categories[code - 1])
    return _pad(draw, str(code))


def _value_text(draw):
    x = draw(st.floats(allow_nan=False, allow_infinity=False)
             | st.sampled_from((0.0, -0.0, 5e-324, 1e300, 3.0)))
    return _pad(draw, draw(st.sampled_from((repr(x), f"{x:.3g}", f"{x:e}"))))


def _cell_fault(draw, kind, col):
    """Bad text for ``col``, or None when the fault does not apply to it."""
    if kind == "empty":
        return ""
    if kind == "blank":
        return "  "
    if col.kind == "discrete":
        if kind == "unknown":
            return draw(st.sampled_from(("zz", "0", str(col.cardinality + 1), "1.0")))
        return None
    return {"nan": draw(st.sampled_from(("nan", "NaN"))),
            "inf": draw(st.sampled_from(("inf", "-Infinity"))),
            "text": draw(st.sampled_from(("1..2", "x1", "1,5")))}.get(kind)


@st.composite
def csv_files(draw):
    """(schema, file text, chunk size): a valid table with up to three
    faults, half the time with its records drawn from a pool of up to three
    so that lines repeat."""
    schema = draw(schemas())
    names = [c.name for c in schema.columns]
    if draw(st.booleans()):
        names.append(schema.label_name)
    if draw(st.booleans()):
        names.append("extra")
    header = draw(st.permutations(names))
    n = draw(st.integers(0, 14))
    recs = []
    for _ in range(n):
        cells = {c.name: (_code_text(draw, c.categories, c.cardinality) if c.kind == "discrete"
                          else _value_text(draw)) for c in schema.columns}
        cells[schema.label_name] = _code_text(draw, schema.label_categories,
                                              schema.label_cardinality)
        cells["extra"] = "anything"
        recs.append([cells[h] for h in header])
    for _ in range(draw(st.integers(0, 3)) if n else 0):
        i = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(FAULTS))
        if kind == "width":
            recs[i] = recs[i] + ["1"] if draw(st.booleans()) else recs[i][:-1]
            continue
        if kind == "bad_label":
            if schema.label_name in header and header.index(schema.label_name) < len(recs[i]):
                recs[i][header.index(schema.label_name)] = draw(st.sampled_from(("0", "no", "")))
            continue
        j = draw(st.integers(0, schema.d - 1))
        bad = _cell_fault(draw, kind, schema.columns[j])
        if bad is not None and len(recs[i]) == len(header):
            recs[i][header.index(schema.columns[j].name)] = bad
    if n and draw(st.booleans()):
        pool = recs[:draw(st.integers(1, 3))]
        recs = [draw(st.sampled_from(pool)) for _ in range(n)]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for rec in recs:
        if draw(st.integers(0, 5)) == 0:
            buf.write("\r\n")  # a blank line: skipped, but still counted
        writer.writerow(rec)
    return schema, buf.getvalue(), draw(st.integers(1, 5))


@settings(deadline=None, max_examples=300)
@given(csv_files())
def test_reader_matches_per_row_reference(tmp_path_factory, case):
    schema, text, chunk = case
    path = tmp_path_factory.getbasetemp() / "generated.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(data, "CHUNK_ROWS", chunk):
        got = outcome(load_dataset, path, schema)
    assert got == outcome(reference_load, path, schema)


# ---------------------------------------------------------------------------
# Fixed files: faults across real chunk boundaries.

SCHEMA = FeatureSchema(
    columns=(Column("c", "discrete", 3, ("lo", "mid", "hi")), Column("v", "continuous")),
    label_cardinality=2,
    label_name="y",
    label_categories=("neg", "pos"),
)


def _lines(n):
    return ["c,v,y"] + [f"{('lo', 'mid', 'hi')[i % 3]},{i * 0.25!r},{('neg', 'pos')[i % 2]}"
                        for i in range(n)]


def _load_both(tmp_path, lines, name="f.csv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return outcome(load_dataset, path, SCHEMA), outcome(reference_load, path, SCHEMA)


def test_first_fault_in_a_later_chunk_is_named(tmp_path):
    lines = _lines(2 * data.CHUNK_ROWS + 100)
    first = data.CHUNK_ROWS + 50  # a data line in the second chunk
    lines[first] = "lo,oops,neg"
    lines[first + data.CHUNK_ROWS] = "up,1.0,neg"
    got, want = _load_both(tmp_path, lines)
    assert got == want
    assert got == (MalformedRow, f"line {first + 1}: column 'v': not a number: 'oops'")


def test_faults_in_two_columns_report_the_earlier_line(tmp_path):
    lines = _lines(50)
    lines[30] = "lo,1.0,maybe"
    lines[20] = "sideways,1.0,neg"
    got, want = _load_both(tmp_path, lines)
    assert got == want == (MalformedRow, "line 21: column 'c': unknown category 'sideways'")


def test_bad_cell_wins_over_a_later_wrong_width_row_in_its_chunk(tmp_path):
    lines = _lines(50)
    lines[10] = "mid,inf,pos"
    lines[40] = "mid,1.0"
    got, want = _load_both(tmp_path, lines)
    assert got == want == (MalformedRow, "line 11: column 'v': non-finite value 'inf'")


@pytest.mark.parametrize("tail", [b"hi,\xff,pos\n", b"hi," + b"9" * 200_000 + b",pos\n"],
                         ids=["not-utf8", "field-over-csv-limit"])
def test_bad_cell_wins_over_a_later_reader_error(tmp_path, tail):
    lines = _lines(2500)
    lines[5] = "mid,,pos"
    path = tmp_path / "mixed.csv"
    path.write_bytes(("\n".join(lines) + "\n").encode() + tail)
    got, want = outcome(load_dataset, path, SCHEMA), outcome(reference_load, path, SCHEMA)
    assert got == want == (MalformedRow, "line 6: missing value in column 'v'")


@pytest.mark.parametrize("bad", [0, data.CHUNK_ROWS + 50], ids=["header", "second-chunk"])
def test_field_over_the_csv_limit_names_its_record(tmp_path, bad):
    lines = _lines(2 * data.CHUNK_ROWS + 100)
    lines[bad] = "c,v," + "9" * (csv.field_size_limit() + 1)
    path = tmp_path / "long.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert outcome(load_dataset, path, SCHEMA) == (
        MalformedRow, f"line {bad + 1}: field larger than field limit "
                      f"({csv.field_size_limit()})")


@pytest.fixture
def small_field_limit():
    old = csv.field_size_limit(40)
    yield
    csv.field_size_limit(old)


def test_quote_free_line_over_the_field_limit_takes_the_record_path(tmp_path,
                                                                    small_field_limit):
    """A line longer than the limit whose fields are all within it: the
    line split cannot know, so the chunk goes to the csv reader."""
    lines = _lines(30)
    lines[12] = "lo," + "1" * 33 + ".5,neg"  # 42 characters, no field over 40
    with mock.patch.object(data, "_decode_columns", wraps=data._decode_columns) as records:
        got, want = _load_both(tmp_path, lines)
    assert got == want and got[0] == (30, 2)
    assert records.call_count == 1


def test_quoted_field_reads_as_its_csv_value(tmp_path):
    """``"a"`` is the category a to csv, not the category named with quotes."""
    schema = FeatureSchema(columns=(Column("c", "discrete", 2, ("a", '"a"')),),
                           label_cardinality=2)
    path = tmp_path / "quoted.csv"
    path.write_text('c\n"a"\na\n', encoding="utf-8")
    got = outcome(load_dataset, path, schema)
    assert got == outcome(reference_load, path, schema)
    assert got[1] == np.array([1.0, 1.0]).tobytes()


def test_each_chunk_decodes_only_its_distinct_lines(tmp_path):
    """30,000 lines with at most 144 distinct ones (five named columns and
    a label): no column of a chunk decodes more strings than the chunk has
    distinct lines."""
    rng = np.random.default_rng(5)
    cats = (("north", "south", "east"), ("young", "mid", "old"),
            ("no", "yes"), ("no", "yes"), ("no", "yes"))
    schema = FeatureSchema(
        columns=tuple(Column(f"f{j}", "discrete", len(c), c) for j, c in enumerate(cats)),
        label_cardinality=2, label_name="outcome", label_categories=("neg", "pos"))
    rows = np.column_stack([rng.integers(1, len(c) + 1, 30000) for c in cats])
    ds = TabularDataset(schema=schema, rows=rows, labels=rng.integers(1, 3, 30000))
    save_dataset(ds, tmp_path / "base.csv")
    lines = (tmp_path / "base.csv").read_text(encoding="utf-8").splitlines()[1:]
    distinct = [len(set(lines[lo:lo + data.CHUNK_ROWS]))
                for lo in range(0, len(lines), data.CHUNK_ROWS)]
    assert max(distinct) <= 144
    with mock.patch.object(data, "_lookup", wraps=data._lookup) as lookup:
        back = load_dataset(tmp_path / "base.csv", schema)
    assert np.array_equal(back.rows, ds.rows) and np.array_equal(back.labels, ds.labels)
    sizes = [len(call.args[1]) for call in lookup.call_args_list]
    per_chunk = [sizes[i:i + schema.d + 1] for i in range(0, len(sizes), schema.d + 1)]
    assert len(per_chunk) == len(distinct)
    for k, chunk in zip(distinct, per_chunk):
        assert max(chunk) <= k


def test_number_wrapped_in_separators_is_read_as_before(tmp_path):
    lines = _lines(20)
    lines[7] = "hi,\x1c2.5\x1f,pos"  # str.strip removes these, float does not
    got, want = _load_both(tmp_path, lines)
    assert got == want and got[0] == (20, 2)


def test_clean_file_spanning_chunks_matches_reference(tmp_path):
    lines = _lines(data.CHUNK_ROWS + 7)
    lines.insert(data.CHUNK_ROWS, "")  # a blank line on the boundary
    got, want = _load_both(tmp_path, lines)
    assert got == want and got[0] == (data.CHUNK_ROWS + 7, 2)


def test_load_keeps_its_memory_peak_below_the_per_row_reader(tmp_path):
    """30,000 rows of five named discrete columns and a label: the per-row
    reader peaked at 10.1 MiB here and an unchunked columnar one at 18.9."""
    rng = np.random.default_rng(3)
    cats = (("north", "south", "east"), ("young", "mid", "old"),
            ("no", "yes"), ("no", "yes"), ("no", "yes"))
    schema = FeatureSchema(
        columns=tuple(Column(f"f{j}", "discrete", len(c), c) for j, c in enumerate(cats)),
        label_cardinality=2, label_name="outcome", label_categories=("neg", "pos"))
    rows = np.column_stack([rng.integers(1, len(c) + 1, 30000) for c in cats])
    ds = TabularDataset(schema=schema, rows=rows, labels=rng.integers(1, 3, 30000))
    save_dataset(ds, tmp_path / "base.csv")
    tracemalloc.start()
    try:
        back = load_dataset(tmp_path / "base.csv", schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.rows, ds.rows) and np.array_equal(back.labels, ds.labels)
    assert peak < 10 * 2**20, f"load_dataset peaked at {peak / 2**20:.1f} MiB"


# ---------------------------------------------------------------------------
# Writer.

FLOATS = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from((0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, 3.0, 1e16)))


@st.composite
def datasets(draw):
    schema = draw(schemas())
    n = draw(st.integers(0, 12))
    cols = [draw(st.lists(FLOATS if c.kind == "continuous" else
                          st.integers(1, c.cardinality).map(float), min_size=n, max_size=n))
            for c in schema.columns]
    labels = draw(st.none() | st.lists(st.integers(1, schema.label_cardinality),
                                       min_size=n, max_size=n))
    rows = np.array(cols, dtype=float).T.reshape(n, schema.d)
    return TabularDataset(schema=schema, rows=rows, labels=labels)


@settings(deadline=None, max_examples=200)
@given(datasets(), st.booleans(), st.integers(1, 5))
def test_writer_matches_per_row_reference(tmp_path_factory, ds, include_labels, chunk):
    root = tmp_path_factory.getbasetemp()
    with mock.patch.object(data, "CHUNK_ROWS", chunk):
        save_dataset(ds, root / "new.csv", include_labels=include_labels)
    reference_save(ds, root / "ref.csv", include_labels=include_labels)
    assert (root / "new.csv").read_bytes() == (root / "ref.csv").read_bytes()
    back = load_dataset(root / "new.csv", ds.schema)
    assert back.rows.tobytes() == ds.rows.tobytes()


def test_writer_keeps_zero_and_negative_zero_apart(tmp_path):
    """Rows equal but for the sign of a zero are formatted apart."""
    schema = FeatureSchema(columns=(Column("v", "continuous"), Column("c", "discrete", 2)),
                           label_cardinality=2)
    ds = TabularDataset(schema=schema, rows=[[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0]],
                        labels=[1, 1, 1, 1])
    save_dataset(ds, tmp_path / "new.csv")
    reference_save(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert (tmp_path / "new.csv").read_text().splitlines()[1:] == ["0.0,1,1", "-0.0,1,1"] * 2


@pytest.mark.parametrize("rows,labels,finding", [
    ([[0.0], [1.0]], [1, 2], "row 0: column 'x' value 0.0 outside 1..2"),
    ([[1.0], [3.0]], [1, 2], "row 1: column 'x' value 3.0 outside 1..2"),
    ([[1.0], [1.5]], [1, 2], "row 1: column 'x' value 1.5 outside 1..2"),
    ([[1.0], [2.0]], [0, 1], "row 0: label value 0 outside 1..2"),
    ([[1.0], [2.0]], [1, 3], "row 1: label value 3 outside 1..2"),
])
def test_writer_refuses_codes_outside_the_dictionary(tmp_path, rows, labels, finding):
    schema = FeatureSchema(columns=(Column("x", "discrete", 2, ("x", "y")),),
                           label_cardinality=2, label_categories=("n", "p"))
    ds = TabularDataset(schema=schema, rows=rows, labels=labels)
    path = tmp_path / "out.csv"
    with pytest.raises(ValidationError, match=re.escape(finding)):
        save_dataset(ds, path)
    assert not path.exists()
    if "label" in finding:  # labels that are not written are not checked
        save_dataset(ds, path, include_labels=False)
        assert path.read_text().splitlines() == ["x", "x", "y"]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_writer_refuses_non_finite_continuous_values(tmp_path, value):
    schema = FeatureSchema(columns=(Column("v", "continuous"),), label_cardinality=2)
    ds = TabularDataset(schema=schema, rows=[[1.0], [value]], labels=[1, 2])
    path = tmp_path / "out.csv"
    with pytest.raises(ValidationError, match=re.escape(f"row 1: column 'v' value {value!r} "
                                                        "is not finite")) as err:
        save_dataset(ds, path)
    assert (err.value.category, err.value.exit_code) == ("VALIDATION_ERROR", 2)
    assert not path.exists()
