"""``distinct_first`` against the single-lexsort keyer it replaced, kept
here as the reference: both returns must be equal exactly, on columns that
fold into the integer code, columns that do not, and mixes of the two. And
how often one ``estimate`` keys a dataset's raw rows."""

import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftscope import data
from shiftscope.cli import main
from shiftscope.data import load_dataset, load_schema
from shiftscope.tabulate import distinct_first

I64 = np.iinfo(np.int64)
ODD_FLOATS = (0.0, -0.0, 1.0, 2.0, -1.0, 0.5, np.nan, np.inf, -np.inf, 1e300, 2.0**63)


def lexsort_reference(columns):
    """One stable lexsort over every column, equal neighbours compared
    column by column."""
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
    firsts = order[new]
    rank = np.empty(firsts.size, dtype=np.intp)
    rank[np.argsort(firsts)] = np.arange(firsts.size)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = rank[np.cumsum(new) - 1]
    firsts.sort()
    return firsts, inverse


def column(kind, n):
    """A strategy for one length-``n`` column of the given kind."""
    if kind == "small":
        return st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(np.array)
    if kind == "codes":  # integral floats, -0.0 among them
        return st.lists(st.sampled_from((1.0, 2.0, 3.0, 0.0, -0.0)),
                        min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))
    if kind == "wide":  # spans past 4n, up to the full int64 range
        ends = st.sampled_from((I64.min, I64.max, I64.min + 1, I64.max - 1, 0, 10**6, -(10**6)))
        return st.lists(st.one_of(ends, st.integers(-5, 5)), min_size=n,
                        max_size=n).map(lambda v: np.array(v, dtype=np.int64))
    if kind == "halves":  # fractions over a small span
        return st.lists(st.sampled_from((0.0, -0.0, 0.5, -0.5, 1.0, 1.5)), min_size=n,
                        max_size=n).map(lambda v: np.array(v, dtype=float))
    if kind == "values":  # ±0.0, NaN, ±inf, fractions and floats past int64
        return st.lists(st.sampled_from(ODD_FLOATS), min_size=n,
                        max_size=n).map(lambda v: np.array(v, dtype=float))
    if kind == "bits":  # int64 bit views, 0.0 and -0.0 apart
        return column("values", n).map(lambda v: v.view(np.int64))
    raise ValueError(kind)


KINDS = ("small", "codes", "wide", "halves", "values", "bits")


@st.composite
def column_sets(draw):
    n = draw(st.integers(0, 30))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=4))
    if draw(st.booleans()):  # enough small columns that the code would pass 4n
        kinds += ["small"] * draw(st.integers(3, 8))
    return [draw(column(kind, n)) for kind in draw(st.permutations(kinds))]


def assert_same(columns):
    firsts, inverse = distinct_first(columns)
    ref_firsts, ref_inverse = lexsort_reference(columns)
    assert np.array_equal(firsts, ref_firsts)
    assert np.array_equal(inverse, ref_inverse)


@settings(deadline=None, max_examples=400)
@given(column_sets())
def test_distinct_first_matches_the_lexsort_keyer(columns):
    assert_same(columns)


@given(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5), st.integers(0, 1), st.data())
def test_distinct_first_of_zero_and_one_rows(kinds, n, data):
    assert_same([data.draw(column(kind, n)) for kind in kinds])


def test_signed_zeros_fold_together_and_nan_rows_stay_apart():
    values = np.array([0.0, -0.0, np.nan, np.nan, 0.0, 0.5])
    firsts, inverse = distinct_first([values, np.array([1, 1, 1, 1, 1, 1])])
    assert firsts.tolist() == [0, 2, 3, 5]
    assert inverse.tolist() == [0, 0, 1, 2, 0, 3]
    firsts, _ = distinct_first([values.view(np.int64)])  # both NaNs here have one bit pattern
    assert firsts.tolist() == [0, 1, 2, 5]


def test_small_columns_past_the_code_bound_go_to_the_sort():
    rng = np.random.default_rng(0)
    columns = [rng.integers(0, 3, 50) for _ in range(12)]  # 3**12 codes against 4n = 200
    assert_same(columns)
    assert_same([*columns, rng.random(50)])


def test_an_estimate_keys_each_side_once(benchmark_job, monkeypatch):
    """One ``estimate --method all`` on the benchmark's continuous input keys
    the raw feature rows of the source once and of the target once: every
    other consumer refines those keys."""
    job = benchmark_job("estimate-continuous", 1)
    schema = load_schema(job.inp.schema_path)
    sides = {name: load_dataset(path, schema).rows for name, path in
             (("source", job.inp.source_path), ("target", job.inp.target_path))}
    keyed = {name: 0 for name in sides}
    real = data.distinct_first

    def counted(columns):
        columns = list(columns)
        for name, rows in sides.items():
            if (len(columns) >= rows.shape[1]
                    and all(np.shape(col) == rows[:, j].shape and np.array_equal(col, rows[:, j])
                            for j, col in enumerate(columns[:rows.shape[1]]))):
                keyed[name] += 1
        return real(columns)

    for name, mod in list(sys.modules.items()):
        if name.startswith("shiftscope") and getattr(mod, "distinct_first", None) is real:
            monkeypatch.setattr(mod, "distinct_first", counted)
    assert main(job.argv) == 0
    assert keyed == {"source": 1, "target": 1}
