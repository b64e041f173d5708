"""Property tests for the cell coder: ``distinct_rows`` and the cell keyers
built on it, each checked against a per-row reference written here."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftscope.data import Column, FeatureSchema, TabularDataset
from shiftscope.synth import empirical_marginal
from shiftscope.tabulate import distinct_rows
from shiftscope.weights import TableWeight

LABELS = 2


def first_appearance(rows):
    """Per-row reference: distinct rows in first-appearance order and each
    row's position among them."""
    keys, position, inverse = [], {}, []
    for row in rows:
        if row not in position:
            position[row] = len(keys)
            keys.append(row)
        inverse.append(position[row])
    return keys, inverse


@st.composite
def columns(draw):
    k = draw(st.integers(1, 3))
    n = draw(st.integers(0, 40))
    values = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return [np.array(draw(values), dtype=int) for _ in range(k)]


@st.composite
def datasets(draw):
    cards = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    n = draw(st.integers(0, 40))
    rows = [[draw(st.integers(1, c)) for c in cards] for _ in range(n)]
    labels = draw(st.lists(st.integers(1, LABELS), min_size=n, max_size=n))
    schema = FeatureSchema(
        columns=tuple(Column(f"x{j}", "discrete", c) for j, c in enumerate(cards, start=1)),
        label_cardinality=LABELS,
    )
    return TabularDataset(schema=schema, rows=np.array(rows, dtype=float).reshape(n, len(cards)),
                          labels=np.array(labels, dtype=int))


def row_keys(ds, indices):
    return [
        (tuple(int(ds.rows[i, j - 1]) for j in indices), int(ds.labels[i]))
        for i in range(ds.n)
    ]


@settings(deadline=None)
@given(columns())
def test_distinct_rows_matches_first_appearance(cols):
    rows = list(zip(*(c.tolist() for c in cols)))
    keys, inverse = distinct_rows(cols)
    ref_keys, ref_inverse = first_appearance(rows)
    assert keys == ref_keys
    assert inverse.tolist() == ref_inverse
    assert [keys[p] for p in inverse] == rows


def test_distinct_rows_of_empty_columns():
    keys, inverse = distinct_rows([np.array([], dtype=int), np.array([], dtype=int)])
    assert keys == []
    assert inverse.shape == (0,)


@settings(deadline=None)
@given(datasets(), st.data())
def test_table_weight_matches_per_row_lookup(ds, data):
    d = ds.schema.d
    index_set = tuple(j for j in range(1, d + 1) if data.draw(st.booleans()))
    cells = itertools.product(
        itertools.product(*(range(1, ds.schema.column(j).cardinality + 1) for j in index_set)),
        range(1, LABELS + 1),
    )
    # every key may be left out of the table, so rows hit the fallback of 1.0
    table = {key: data.draw(st.floats(0.0, 10.0)) for key in cells if data.draw(st.booleans())}
    w = TableWeight(index_set=index_set, table=table)
    keys = row_keys(ds, index_set)
    assert w.weights_for(ds).tolist() == [w.table.get(k, 1.0) for k in keys]
    assert w.fallback_hits(ds) == sum(k not in w.table for k in keys)


@settings(deadline=None)
@given(datasets(), st.data())
def test_empirical_marginal_keeps_first_appearance_order(ds, data):
    indices = tuple(j for j in range(1, ds.schema.d + 1) if data.draw(st.booleans()))
    counts: dict = {}
    for key in row_keys(ds, indices):
        counts[key] = counts.get(key, 0) + 1
    expected = [(k, c / ds.n) for k, c in counts.items()]
    assert list(empirical_marginal(ds, indices).items()) == expected
