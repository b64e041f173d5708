import numpy as np
import pytest

from shiftscope.data import (
    Column,
    FeatureSchema,
    ShiftReport,
    TabularDataset,
    align_schemas,
    load_dataset,
    save_dataset,
    save_schema,
    load_schema,
    validate_dataset,
)
from shiftscope.errors import MissingAxis, SchemaMismatch, ValidationError
from shiftscope.sees_d import SeesDConfig, run_sees_d, sample_joints
from shiftscope.weights import TableWeight


def binary_schema(d=2, L=2):
    return FeatureSchema(
        columns=tuple(Column(f"x{i}", "discrete", 2) for i in range(1, d + 1)),
        label_cardinality=L,
    )


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValidationError):
            FeatureSchema(
                columns=(Column("a", "discrete", 2), Column("a", "discrete", 2)),
                label_cardinality=2,
            )

    def test_cardinality_bounds(self):
        with pytest.raises(ValidationError):
            Column("a", "discrete", 1)
        with pytest.raises(ValidationError):
            FeatureSchema(columns=(Column("a", "discrete", 2),), label_cardinality=1)

    def test_continuous_has_no_cardinality(self):
        with pytest.raises(ValidationError):
            Column("a", "continuous", 3)


class TestValidateDataset:
    def test_out_of_range_label_names_row(self):
        ds = TabularDataset(
            schema=binary_schema(),
            rows=[[1, 1], [2, 2]],
            labels=[1, 3],  # L = 2
        )
        findings = validate_dataset(ds)
        assert len(findings) == 1
        assert "row 1" in findings[0] and "label" in findings[0]

    def test_well_formed_dataset_is_clean(self):
        ds = TabularDataset(schema=binary_schema(), rows=[[1, 2], [2, 1]], labels=[1, 2])
        assert validate_dataset(ds) == []

    def test_broken_probability_row(self):
        ds = TabularDataset(
            schema=binary_schema(),
            rows=[[1, 1]],
            predictions=[1],
            pred_probs=[[0.5, 0.3]],  # sums to 0.8
        )
        findings = validate_dataset(ds)
        assert len(findings) == 1
        assert "sums to" in findings[0]

    def test_discrete_value_outside_range(self):
        ds = TabularDataset(schema=binary_schema(), rows=[[1, 5]])
        findings = validate_dataset(ds)
        assert len(findings) == 1 and "x2" in findings[0]


class TestAlignSchemas:
    def test_identical_ok(self):
        a = TabularDataset(schema=binary_schema(), rows=[[1, 1]])
        b = TabularDataset(schema=binary_schema(), rows=[[2, 2]])
        align_schemas(a, b)  # no raise

    def test_missing_column(self):
        a = TabularDataset(schema=binary_schema(2), rows=[[1, 1]])
        b = TabularDataset(schema=binary_schema(1), rows=[[1]])
        with pytest.raises(SchemaMismatch, match="missing column"):
            align_schemas(a, b)

    def test_cardinality_mismatch_names_column(self):
        cols = (
            Column("x1", "discrete", 2),
            Column("x2", "discrete", 2),
            Column("x3", "discrete", 2),
        )
        cols_b = (
            Column("x1", "discrete", 2),
            Column("x2", "discrete", 2),
            Column("x3", "discrete", 3),
        )
        a = TabularDataset(
            schema=FeatureSchema(columns=cols, label_cardinality=2), rows=[[1, 1, 1]]
        )
        b = TabularDataset(
            schema=FeatureSchema(columns=cols_b, label_cardinality=2), rows=[[1, 1, 1]]
        )
        with pytest.raises(SchemaMismatch, match="column 3"):
            align_schemas(a, b)


class TestRoundTrip:
    def test_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        schema = FeatureSchema(
            columns=(
                Column("cat", "discrete", 4, ("a", "b", "c", "d")),
                Column("val", "continuous"),
                Column("flag", "discrete", 2),
            ),
            label_cardinality=3,
            label_categories=("neg", "mid", "pos"),
        )
        for trial in range(20):
            n = int(rng.integers(1, 40))
            rows = np.column_stack([
                rng.integers(1, 5, size=n).astype(float),
                rng.standard_normal(n) * rng.uniform(1e-6, 1e6),
                rng.integers(1, 3, size=n).astype(float),
            ])
            ds = TabularDataset(schema=schema, rows=rows,
                                labels=rng.integers(1, 4, size=n))
            path = tmp_path / f"ds{trial}.csv"
            save_dataset(ds, path)
            back = load_dataset(path, schema)
            assert back.rows.tobytes() == ds.rows.tobytes()
            assert np.array_equal(back.labels, ds.labels)

    def test_schema_round_trip(self, tmp_path):
        schema = FeatureSchema(
            columns=(Column("cat", "discrete", 2, ("x", "y")), Column("v", "continuous")),
            label_cardinality=2,
            label_name="outcome",
            label_categories=("no", "yes"),
        )
        save_schema(schema, tmp_path / "schema.json")
        assert load_schema(tmp_path / "schema.json") == schema


class TestTableWeightFallback:
    def test_unseen_key_returns_neutral(self):
        w = TableWeight(index_set=(1,), table={((1,), 1): 2.0})
        ds = TabularDataset(schema=binary_schema(), rows=[[1, 1], [2, 1]], labels=[1, 1])
        vals = w.weights_for(ds)
        assert vals[0] == 2.0 and vals[1] == 1.0
        assert w.fallback_hits(ds) == 1

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            TableWeight(index_set=(1,), table={((1,), 1): -0.5})

    def test_key_must_match_index_set(self):
        with pytest.raises(ValidationError, match="does not match index_set"):
            TableWeight(index_set=(1,), table={((1, 2), 1): 2.0})

    def test_key_outside_schema_matches_no_row(self):
        w = TableWeight(index_set=(1,), table={((3,), 1): 2.0, ((2,), 1): 3.0})
        ds = TabularDataset(schema=binary_schema(), rows=[[1, 1], [2, 1]], labels=[1, 1])
        assert w.weights_for(ds).tolist() == [1.0, 3.0]
        assert w.fallback_hits(ds) == 1

    def test_continuous_column_is_refused(self):
        # a float value must not be truncated to a table key
        schema = FeatureSchema(columns=(Column("c", "discrete", 2), Column("v", "continuous")),
                               label_cardinality=2)
        ds = TabularDataset(schema=schema, rows=[[1, 1.7], [2, 1.2]], labels=[1, 2])
        w = TableWeight(index_set=(2,), table={((1,), 1): 2.0})
        for evaluate in (w.weights_for, w.fallback_hits):
            with pytest.raises(MissingAxis, match="'v'.*discretize first"):
                evaluate(ds)

    def test_normalization_hits_unit_mean(self, small_scored):
        # sees-d rescales its winner over the (x_J, y) source marginal
        rng = np.random.default_rng(5)
        target = small_scored.take(rng.integers(0, small_scored.n, size=1500))
        joints = sample_joints(small_scored, target)
        for s in range(small_scored.schema.d + 1):
            w, _, _ = run_sees_d(*joints, SeesDConfig(sparsity=s))
            assert abs(np.mean(w.weights_for(small_scored)) - 1.0) < 1e-12


class TestShiftReport:
    def test_target_accuracy_identity(self):
        r = ShiftReport(method="sees-d", delta_hat=-0.1, source_accuracy=0.8,
                        selected_features=(1,))
        assert abs(r.estimated_target_accuracy - 0.7) < 1e-12
        assert r.to_dict()["accuracy_drop"] == 0.1

    def test_source_accuracy_range_checked(self):
        with pytest.raises(ValidationError):
            ShiftReport(method="bbse", delta_hat=0.0, source_accuracy=1.2,
                        selected_features=())
