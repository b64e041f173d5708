"""Property tests for the cell coders, ``distinct_first`` and
``cell_index``, and for the cell keyers and resamplers built on them, each
checked against a per-row reference written here."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shiftscope.tabulate
from shiftscope.data import CONTINUOUS, Column, FeatureSchema, TabularDataset
from shiftscope.errors import ValidationError
from shiftscope.synth import ShiftSpec, apply_shift, empirical_marginal, pure_covariate_shift
from shiftscope.tabulate import LABEL, cell_index, distinct_first
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
def test_distinct_first_matches_first_appearance(cols):
    rows = list(zip(*(c.tolist() for c in cols)))
    firsts, inverse = distinct_first(cols)
    ref_keys, ref_inverse = first_appearance(rows)
    assert [rows[i] for i in firsts] == ref_keys
    assert firsts.tolist() == [rows.index(k) for k in ref_keys]
    assert inverse.tolist() == ref_inverse
    assert [rows[firsts[p]] for p in inverse] == rows


def test_distinct_first_of_empty_columns():
    firsts, inverse = distinct_first([np.array([], dtype=int), np.array([], dtype=int)])
    assert firsts.shape == (0,)
    assert inverse.shape == (0,)


@settings(deadline=None)
@given(datasets(), st.data())
def test_cell_index_matches_per_row_c_order(ds, data):
    indices = tuple(j for j in range(1, ds.schema.d + 1) if data.draw(st.booleans()))
    flat, cards = cell_index(ds, (*indices, LABEL))
    assert cards == (*(ds.schema.column(j).cardinality for j in indices), LABELS)
    expected = []
    for xv, y in row_keys(ds, indices):
        cell = 0
        for v, card in zip((*xv, y), cards):
            cell = cell * card + v - 1
        expected.append(cell)
    assert flat.tolist() == expected


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


def test_table_weight_refuses_a_cell_space_above_the_bound(small_base, monkeypatch):
    # (x1, x2, y) spans 8 cells; the bound is lowered so nothing large is allocated
    monkeypatch.setattr(shiftscope.tabulate, "MAX_TABLE_CELLS", 7)
    wide = TableWeight(index_set=(1, 2), table={((1, 1), 1): 2.0})
    with pytest.raises(ValidationError, match="8 cells"):
        wide.weights_for(small_base)
    with pytest.raises(ValidationError, match="8 cells"):
        wide.fallback_hits(small_base)
    narrow = TableWeight(index_set=(1,), table={((1,), 1): 2.0})
    assert narrow.fallback_hits(small_base) == np.count_nonzero(
        (small_base.rows[:, 0] != 1) | (small_base.labels != 1))


@settings(deadline=None)
@given(datasets(), st.data())
def test_empirical_marginal_keeps_first_appearance_order(ds, data):
    indices = tuple(j for j in range(1, ds.schema.d + 1) if data.draw(st.booleans()))
    counts: dict = {}
    for key in row_keys(ds, indices):
        counts[key] = counts.get(key, 0) + 1
    expected = [(k, c / ds.n) for k, c in counts.items()]
    assert list(empirical_marginal(ds, indices).items()) == expected


def with_row_ids(ds):
    """``ds`` with a continuous last column holding each row's index, so a
    resample shows which base rows it drew."""
    schema = FeatureSchema(columns=(*ds.schema.columns, Column("id", CONTINUOUS)),
                           label_cardinality=ds.schema.label_cardinality)
    rows = np.column_stack([ds.rows, np.arange(ds.n, dtype=float)])
    return TabularDataset(schema=schema, rows=rows, labels=ds.labels)


def reference_draws(keys, cells, n, seed):
    """Base row indices drawn as the per-cell resampler drew them: the drawn
    cells in sorted order, a cell per row by ``searchsorted`` on their
    cumulative masses, then for each drawn cell in turn a uniform pick
    among the rows whose key is that cell."""
    drawn = sorted(k for k, m in cells.items() if m > 0)
    probs = np.array([cells[k] for k in drawn])
    cum = np.cumsum(probs / probs.sum())
    cum[-1] = 1.0
    rng = np.random.default_rng(seed)
    cell_idx = np.searchsorted(cum, rng.random(n), side="right")
    chosen = np.empty(n, dtype=int)
    for ci, key in enumerate(drawn):
        mask = cell_idx == ci
        if mask.any():
            pool = np.flatnonzero([k == key for k in keys])
            chosen[mask] = pool[rng.integers(0, len(pool), size=int(mask.sum()))]
    return chosen.tolist()


def draw_masses(data, present, absent):
    """Normalized masses on the cells in ``present`` (some may be 0), with
    zero masses on some cells in ``absent``."""
    raw = {k: data.draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])) for k in present}
    assume(sum(raw.values()) > 0)
    total = sum(raw.values())
    masses = {k: m / total for k, m in raw.items()}
    masses.update({k: 0.0 for k in absent if data.draw(st.booleans())})
    return masses


def shares(keys):
    counts: dict = {}
    for key in keys:
        counts[key] = counts.get(key, 0) + 1
    return {k: c / len(keys) for k, c in counts.items()}


@settings(deadline=None)
@given(datasets(), st.data(), st.integers(0, 30), st.integers(0, 2**32 - 1))
def test_apply_shift_draws_as_the_per_cell_reference(ds, data, n, seed):
    assume(ds.n)
    indices = tuple(j for j in range(1, ds.schema.d + 1) if data.draw(st.booleans()))
    keys = row_keys(ds, indices)
    space = itertools.product(
        itertools.product(*(range(1, ds.schema.column(j).cardinality + 1) for j in indices)),
        range(1, LABELS + 1),
    )
    present = list(dict.fromkeys(keys))
    spec = ShiftSpec(shifted=indices,
                     cells=draw_masses(data, present, [k for k in space if k not in keys]))
    sample, truth = apply_shift(with_row_ids(ds), spec, n, seed)
    assert sample.rows[:, -1].astype(int).tolist() == reference_draws(keys, spec.cells, n, seed)
    expected = {k: spec.cells.get(k, 0.0) / share for k, share in shares(keys).items()}
    assert dict(truth.true_weights.table) == expected


@settings(deadline=None)
@given(datasets(), st.data(), st.integers(0, 30), st.integers(0, 2**32 - 1))
def test_pure_covariate_shift_draws_as_the_per_cell_reference(ds, data, n, seed):
    assume(ds.n)
    feature = data.draw(st.integers(1, ds.schema.d))
    keys = [(int(v),) for v in ds.column_values(feature)]
    space = [(v,) for v in range(1, ds.schema.column(feature).cardinality + 1)]
    masses = draw_masses(data, list(dict.fromkeys(keys)), [k for k in space if k not in keys])
    marginal = {v: m for (v,), m in masses.items()}
    total = float(sum(marginal.values()))
    cells = {(v,): m / total for v, m in marginal.items()}
    sample, truth = pure_covariate_shift(with_row_ids(ds), feature, marginal, n, seed)
    assert sample.rows[:, -1].astype(int).tolist() == reference_draws(keys, cells, n, seed)
    expected = {(xv, y): cells.get(xv, 0.0) / share
                for xv, share in shares(keys).items() for y in range(1, LABELS + 1)}
    assert dict(truth.true_weights.table) == expected
