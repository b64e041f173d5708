import numpy as np
import pytest

from shiftscope.data import Column, FeatureSchema, TabularDataset
from shiftscope.errors import MissingAxis, TooFewDistinctValues, ValidationError
from shiftscope.sees_d import SeesDConfig, run_sees_d
from shiftscope.synth import stump, counterexample_fixture, population_joint
from shiftscope.tabulate import (
    LABEL,
    PREDICTION,
    apply_discretizer,
    estimate_pmf,
    fit_discretizer,
)


def one_cont_schema():
    return FeatureSchema(
        columns=(Column("v", "continuous"), Column("g", "discrete", 2)),
        label_cardinality=2,
    )


class TestDiscretizer:
    def test_uniform_grid_quantile_edges(self):
        rows = np.column_stack([np.arange(1.0, 101.0), np.ones(100)])
        ds = TabularDataset(schema=one_cont_schema(), rows=rows)
        disc = fit_discretizer(ds, bins=5)
        # linear-interpolation quantiles of 1..100 at 20/40/60/80%
        assert np.allclose(disc.edges[1], [20.8, 40.6, 60.4, 80.2])

    def test_all_discrete_gives_empty_edges(self):
        schema = FeatureSchema(columns=(Column("g", "discrete", 3),), label_cardinality=2)
        ds = TabularDataset(schema=schema, rows=[[1], [2], [3]])
        assert fit_discretizer(ds, bins=5).edges == {}

    def test_constant_column_rejected(self):
        rows = np.column_stack([np.full(50, 3.3), np.ones(50)])
        ds = TabularDataset(schema=one_cont_schema(), rows=rows)
        with pytest.raises(TooFewDistinctValues):
            fit_discretizer(ds, bins=2)

    def test_clamping_and_edge_tie_rule(self):
        rows = np.column_stack([np.arange(1.0, 101.0), np.ones(100)])
        ds = TabularDataset(schema=one_cont_schema(), rows=rows)
        disc = fit_discretizer(ds, bins=5)
        probe = TabularDataset(
            schema=one_cont_schema(),
            rows=np.column_stack([[-50.0, 1e6, 40.6, 40.599999], np.ones(4)]),
        )
        binned = apply_discretizer(disc, probe)
        assert binned.rows[0, 0] == 1.0  # below range clamps to bin 1
        assert binned.rows[1, 0] == 5.0  # above range clamps to bin B
        assert binned.rows[2, 0] == 3.0  # exactly on an edge goes up
        assert binned.rows[3, 0] == 2.0

    def test_idempotent_on_discrete(self, small_base):
        disc = fit_discretizer(small_base, bins=5)
        assert apply_discretizer(disc, small_base) is small_base


class TestEstimatePmf:
    def test_direct_counts(self):
        schema = FeatureSchema(columns=(Column("x1", "discrete", 2),), label_cardinality=2)
        ds = TabularDataset(schema=schema, rows=[[1], [1], [2], [2]])
        pmf = estimate_pmf(ds, (1,))
        assert np.allclose(pmf.mass, [0.5, 0.5])

    def test_counterexample_population_marginal(self):
        source, _, _ = counterexample_fixture()
        joint = population_joint(source, stump(2))
        marg = joint.marginal((1, LABEL))
        # joint of (x1 high, second class): 0.5 * 0.1
        assert marg.mass[1, 1] == pytest.approx(0.05, abs=1e-15)

    def test_scalar_pmf(self, small_base):
        pmf = estimate_pmf(small_base, ())
        assert pmf.mass.shape == () and pmf.mass == 1.0

    def test_missing_axes_raise(self, small_base):
        with pytest.raises(MissingAxis):
            estimate_pmf(small_base, (PREDICTION,))
        unlabeled = small_base.without_labels()
        with pytest.raises(MissingAxis):
            estimate_pmf(unlabeled, (LABEL,))

    def test_marginal_consistency(self, small_scored):
        full = estimate_pmf(small_scored, (1, 2, LABEL))
        reduced = estimate_pmf(small_scored, (2, LABEL))
        assert np.array_equal(full.marginal((2, LABEL)).mass, reduced.mass)

    def test_row_permutation_invariance(self, small_base):
        rng = np.random.default_rng(3)
        shuffled = small_base.take(rng.permutation(small_base.n))
        a = estimate_pmf(small_base, (1, 2))
        b = estimate_pmf(shuffled, (1, 2))
        assert np.array_equal(a.mass, b.mass)

    def test_table_size_guard(self):
        cols = tuple(Column(f"c{i}", "discrete", 100) for i in range(4))
        schema = FeatureSchema(columns=cols, label_cardinality=2)
        ds = TabularDataset(schema=schema, rows=[[1, 1, 1, 1]])
        with pytest.raises(ValidationError, match="refusing"):
            estimate_pmf(ds, (1, 2, 3, 4)).mass

    def test_wide_schema_keeps_distinct_cells_only(self):
        """10 features of 5 categories: the full joint with prediction and
        label spans 39,062,500 cells, but only the observed ones are kept."""
        rng = np.random.default_rng(5)
        cols = tuple(Column(f"c{i}", "discrete", 5) for i in range(1, 11))
        schema = FeatureSchema(columns=cols, label_cardinality=2)
        rows = rng.integers(1, 6, size=(400, 10)).astype(float)
        source = TabularDataset(schema=schema, rows=rows, labels=rng.integers(1, 3, size=400),
                                predictions=rng.integers(1, 3, size=400))
        joint = estimate_pmf(source, (*range(1, 11), PREDICTION, LABEL))
        assert joint.cells.shape == (12, 400) and joint.weights.sum() == joint.total == 400
        with pytest.raises(ValidationError, match="refusing"):
            joint.mass
        assert joint.marginal((3, LABEL)).mass.sum() == pytest.approx(1.0)
        target = source.take(np.arange(200)).without_labels()
        weight, selected, diag = run_sees_d(source, target, SeesDConfig(sparsity=1))
        assert len(selected) == 1 and diag["candidates"] == 10.0
