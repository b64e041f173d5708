import json

import pytest

from shiftscope.cli import main
from shiftscope.data import save_dataset, save_schema
from shiftscope.synth import (
    binary_base,
    boosted_marginal,
    correlation_boost,
    empirical_marginal,
)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Base CSV + schema + a single-feature shift spec, shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    base = binary_base(4, 8000, 2024)
    save_dataset(base, root / "base.csv")
    save_schema(base.schema, root / "schema.json")
    marg = boosted_marginal(empirical_marginal(base, (1,)), correlation_boost((1,), 2.2))
    spec = {
        "shifted_features": ["x1"],
        "cells": [
            {"x": [str(x[0])], "y": str(y), "mass": mass}
            for (x, y), mass in sorted(marg.items())
        ],
    }
    (root / "spec.json").write_text(json.dumps(spec))
    return root


def run_simulate(root, seed=7, n=4000, prefix="sim"):
    return main([
        "simulate",
        "--spec-path", str(root / "spec.json"),
        "--base-path", str(root / "base.csv"),
        "--schema-path", str(root / "schema.json"),
        "--n", str(n),
        "--seed", str(seed),
        "--out-prefix", str(root / prefix),
    ])


class TestSimulate:
    def test_writes_pair_and_truth(self, workspace):
        assert run_simulate(workspace) == 0
        source = (workspace / "sim.source.csv").read_text().splitlines()
        target = (workspace / "sim.target.csv").read_text().splitlines()
        assert len(source) == 4001 and len(target) == 4001
        assert source[0].endswith(",y")
        assert "y" not in target[0].split(",")
        truth = json.loads((workspace / "sim.truth.json").read_text())
        assert truth["shifted_features"] == ["x1"]
        assert 0.0 <= truth["true_target_accuracy"] <= 1.0
        assert len(truth["weights"]) == 4

    def test_seed_reuse_is_byte_identical(self, workspace):
        run_simulate(workspace, prefix="rep1")
        run_simulate(workspace, prefix="rep2")
        for part in ("source.csv", "target.csv", "truth.json"):
            a = (workspace / f"rep1.{part}").read_bytes()
            b = (workspace / f"rep2.{part}").read_bytes()
            assert a == b

    def test_spec_wider_than_schema_fails_cleanly(self, workspace, tmp_path, capsys):
        spec = {
            "shifted_features": ["x1", "no_such_column"],
            "cells": [{"x": ["1", "1"], "y": "1", "mass": 1.0}],
        }
        bad = tmp_path / "bad_spec.json"
        bad.write_text(json.dumps(spec))
        code = main([
            "simulate",
            "--spec-path", str(bad),
            "--base-path", str(workspace / "base.csv"),
            "--schema-path", str(workspace / "schema.json"),
            "--n", "10",
            "--seed", "0",
            "--out-prefix", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "ERROR" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"shifted_features": ["x1"], "cells": [{"x": ["maybe"], "y": "1", "mass": 1.0}]}',
        '{"shifted_features": ["x1"], "cells": [{"x": ["1"], "y": "maybe", "mass": 1.0}]}',
        '{"shifted_features": ["x1"]}',
        '{"shifted_features": ["x1"], "cells": [',
        '{"shifted_features": [true], "cells": [{"x": ["1"], "y": "1", "mass": 1.0}]}',
    ], ids=["unknown-category", "unknown-label", "no-cells-key", "invalid-json",
            "bool-feature"])
    def test_malformed_spec_is_an_input_error(self, workspace, tmp_path, capsys, text):
        bad = tmp_path / "bad_spec.json"
        bad.write_text(text)
        code = main([
            "simulate",
            "--spec-path", str(bad),
            "--base-path", str(workspace / "base.csv"),
            "--schema-path", str(workspace / "schema.json"),
            "--n", "10",
            "--out-prefix", str(tmp_path / "x"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"ERROR VALIDATION_ERROR: {bad}: ")
        assert err.count("\n") == 1


class TestEstimate:
    def estimate(self, root, out, method="sees-d", extra=()):
        return main([
            "estimate",
            "--source-path", str(root / "sim.source.csv"),
            "--target-path", str(root / "sim.target.csv"),
            "--schema-path", str(root / "schema.json"),
            "--output-path", str(out),
            "--method", method,
            "--sparsity", "1",
            *extra,
        ])

    def test_sees_d_recovers_the_shifted_feature(self, workspace, tmp_path):
        run_simulate(workspace)
        out = tmp_path / "report.json"
        assert self.estimate(workspace, out) == 0
        report = json.loads(out.read_text())
        for key in ("method", "delta_hat", "source_accuracy", "selected_features",
                    "diagnostics", "weight_metrics"):
            assert key in report
        assert report["method"] == "sees-d"
        assert report["selected_features"] == [1]
        assert abs(report["estimated_target_accuracy"]
                   - report["source_accuracy"] - report["delta_hat"]) < 1e-12

    def test_truth_path_adds_weight_metrics(self, workspace, tmp_path):
        run_simulate(workspace)
        out = tmp_path / "report.json"
        code = self.estimate(workspace, out,
                             extra=("--truth-path", str(workspace / "sim.truth.json")))
        assert code == 0
        report = json.loads(out.read_text())
        assert report["weight_metrics"] is not None
        assert report["weight_metrics"]["mse"] < 0.05
        assert "gap_sq_error" in report["diagnostics"]

    def test_malformed_truth_is_an_input_error(self, workspace, tmp_path, capsys):
        run_simulate(workspace)
        truth = json.loads((workspace / "sim.truth.json").read_text())
        truth["weights"][0]["y"] = "maybe"
        bad = tmp_path / "bad_truth.json"
        bad.write_text(json.dumps(truth))
        code = self.estimate(workspace, tmp_path / "report.json", extra=("--truth-path", str(bad)))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"ERROR VALIDATION_ERROR: {bad}: ")

    def test_method_all_emits_one_entry_per_method(self, workspace, tmp_path):
        run_simulate(workspace)
        out = tmp_path / "all.json"
        assert self.estimate(workspace, out, method="all") == 0
        reports = json.loads(out.read_text())
        assert [r["method"] for r in reports] == [
            "sees-d", "sees-c", "bbse", "kliep", "dlu"
        ]
        assert all(isinstance(r["delta_hat"], float) for r in reports)

    def test_method_all_keeps_the_methods_that_succeed(self, workspace, tmp_path):
        # a constant external predictor leaves bbse's confusion matrix singular
        run_simulate(workspace)
        preds = tmp_path / "preds.csv"
        preds.write_text("pred,p_1,p_2\n" + "1,0.9,0.1\n" * 4000)
        out = tmp_path / "all.json"
        code = self.estimate(workspace, out, method="all",
                             extra=("--predictions-path", f"{preds},{preds}"))
        assert code == 0
        entries = json.loads(out.read_text())
        assert [e["method"] for e in entries] == ["sees-d", "sees-c", "bbse", "kliep", "dlu"]
        failed = entries.pop(2)
        assert set(failed) == {"method", "error"}
        assert failed["error"]["category"] == "SINGULAR_CONFUSION"
        assert failed["error"]["message"].startswith("confusion matrix condition number")
        assert all(isinstance(e["delta_hat"], float) for e in entries)

    def test_method_all_fails_when_every_method_fails(self, workspace, tmp_path, capsys,
                                                      monkeypatch):
        import shiftscope.cli
        from shiftscope.errors import SingularConfusion

        def fail(method, *args):
            raise SingularConfusion(f"{method} failed")

        monkeypatch.setattr(shiftscope.cli, "run_method", fail)
        run_simulate(workspace)
        out = tmp_path / "all.json"
        assert self.estimate(workspace, out, method="all") == 1
        assert capsys.readouterr().err == "ERROR SINGULAR_CONFUSION: sees-d failed\n"
        assert not out.exists()

    def test_estimate_and_bench_score_each_method_alike(self, workspace, tmp_path):
        from shiftscope.bench import evaluate_method
        from shiftscope.cli import load_truth
        from shiftscope.data import load_dataset, load_schema
        from shiftscope.predictor import predict, train_logistic

        run_simulate(workspace)
        truth_path = workspace / "sim.truth.json"
        out = tmp_path / "all.json"
        assert self.estimate(workspace, out, method="all",
                             extra=("--truth-path", str(truth_path))) == 0
        schema = load_schema(workspace / "schema.json")
        source = load_dataset(workspace / "sim.source.csv", schema)
        target = load_dataset(workspace / "sim.target.csv", schema).without_labels()
        model = train_logistic(source)
        source, target = predict(model, source), predict(model, target)
        truth = load_truth(truth_path, schema)
        for report in json.loads(out.read_text()):
            row = evaluate_method(report["method"], source, target, truth, 1)
            assert report["delta_hat"] == row["delta_hat"]
            assert report["diagnostics"]["gap_sq_error"] == row["gap_sq_error"]
            assert report["weight_metrics"] == {"mse": row["weight_mse"],
                                                "pcc": row["weight_pcc"]}
            assert row["recovered"] == int(
                tuple(report["selected_features"]) == truth.true_shift_set)

    @pytest.mark.parametrize("method", ["all", "bbse"])
    @pytest.mark.parametrize("flag,value", [
        ("--sparsity", "5"),  # the workspace has 4 features
        ("--sparsity", "-1"),
        ("--eta", "-0.1"),
        ("--weight-bound", "0.5"),
        ("--kliep-iters", "0"),
        ("--kliep-iters", "-3"),
        ("--bins", "1"),  # rejected although every column is discrete
    ])
    def test_bad_flag_is_rejected_for_any_method(self, workspace, tmp_path, capsys,
                                                 method, flag, value):
        run_simulate(workspace)
        out = tmp_path / "report.json"
        assert self.estimate(workspace, out, method=method, extra=(flag, value)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR VALIDATION_ERROR: {flag} must ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag,path,category", [
        ("--output-path", None, "FILE_NOT_FOUND"),  # an empty path
        ("--output-path", ".", "FILE_ERROR"),  # an existing directory
        ("--output-path", "missing/report.json", "FILE_NOT_FOUND"),
        ("--source-path", ".", "FILE_ERROR"),
        ("--schema-path", ".", "FILE_ERROR"),
    ])
    def test_bad_path_fails_before_any_method_runs(self, workspace, tmp_path, capsys,
                                                   monkeypatch, flag, path, category):
        import shiftscope.cli

        calls = []
        real = shiftscope.cli.run_method

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(shiftscope.cli, "run_method", counted)
        run_simulate(workspace)
        value = "" if path is None else str(tmp_path / path)
        code = self.estimate(workspace, tmp_path / "report.json", method="all",
                             extra=(flag, value))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"ERROR {category}: ")
        assert err.count("\n") == 1
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_missing_target_file(self, workspace, tmp_path, capsys):
        code = main([
            "estimate",
            "--source-path", str(workspace / "sim.source.csv"),
            "--target-path", str(workspace / "nope.csv"),
            "--schema-path", str(workspace / "schema.json"),
            "--output-path", str(tmp_path / "r.json"),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR FILE_NOT_FOUND")
        assert err.count("\n") == 1

    def test_estimate_is_deterministic(self, workspace, tmp_path, monkeypatch):
        monkeypatch.setenv("SHIFTSCOPE_THREADS", "1")
        run_simulate(workspace)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert self.estimate(workspace, a) == 0
        assert self.estimate(workspace, b) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["simulate", "--n", "0"],
    ["simulate", "--n", "-5"],
    ["bench", "--suite", "sensitivity", "--seeds", "0"],
    ["bench", "--suite", "tradeoff", "--seeds", "-1"],
])
def test_count_flag_below_one_is_rejected_up_front(tmp_path, capsys, argv):
    # the input files do not exist, so reading any of them would fail differently
    paths = {"simulate": ["--spec-path", "--base-path", "--schema-path", "--out-prefix"],
             "bench": ["--out"]}[argv[0]]
    code = main(argv + [arg for flag in paths for arg in (flag, str(tmp_path / flag[2:]))])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"ERROR VALIDATION_ERROR: {argv[-2]} must be >= 1\n"
    assert list(tmp_path.iterdir()) == []


class TestMixedSchema:
    def test_estimate_with_continuous_column(self, tmp_path):
        # continuous columns go through quantile binning for the subset
        # matcher while sees-c and kliep see the raw values
        import numpy as np

        from shiftscope.data import Column, FeatureSchema, TabularDataset

        rng = np.random.default_rng(6)
        n = 3000
        y = rng.integers(1, 3, size=n)
        x1 = np.where(y == 2, rng.normal(1.0, 1.0, n), rng.normal(-1.0, 1.0, n))
        x2 = 1 + (rng.random(n) < np.where(y == 2, 0.7, 0.3))
        schema = FeatureSchema(
            columns=(Column("v", "continuous"), Column("g", "discrete", 2)),
            label_cardinality=2,
        )
        source = TabularDataset(schema=schema, rows=np.column_stack([x1, x2]), labels=y)
        # target: shift the label marginal by keeping mostly class-2 rows
        keep = (y == 2) | (rng.random(n) < 0.4)
        target = source.take(np.flatnonzero(keep))
        save_dataset(source, tmp_path / "src.csv")
        save_dataset(target.without_labels(), tmp_path / "tgt.csv")
        save_schema(schema, tmp_path / "schema.json")
        out = tmp_path / "report.json"
        code = main([
            "estimate",
            "--source-path", str(tmp_path / "src.csv"),
            "--target-path", str(tmp_path / "tgt.csv"),
            "--schema-path", str(tmp_path / "schema.json"),
            "--output-path", str(out),
            "--method", "all",
            "--sparsity", "1",
            "--bins", "4",
        ])
        assert code == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 5
        # dropping class-1 rows raises accuracy on the target for this model
        for r in reports:
            assert -1.0 <= r["delta_hat"] <= 19.0


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_continuous_cell_is_rejected(self, tmp_path, capsys, value):
        import numpy as np

        from shiftscope.data import Column, FeatureSchema, TabularDataset

        rng = np.random.default_rng(3)
        n = 400
        y = rng.integers(1, 3, size=n)
        rows = np.column_stack([rng.normal(y - 1.5, 1.0), 1 + (rng.random(n) < 0.5)])
        schema = FeatureSchema(
            columns=(Column("v", "continuous"), Column("g", "discrete", 2)),
            label_cardinality=2,
        )
        ds = TabularDataset(schema=schema, rows=rows, labels=y)
        save_dataset(ds, tmp_path / "src.csv")
        save_dataset(ds.without_labels(), tmp_path / "tgt.csv")
        save_schema(schema, tmp_path / "schema.json")
        lines = (tmp_path / "src.csv").read_text().splitlines()
        lines[5] = ",".join([value] + lines[5].split(",")[1:])
        (tmp_path / "src.csv").write_text("\n".join(lines) + "\n")
        code = main([
            "estimate",
            "--source-path", str(tmp_path / "src.csv"),
            "--target-path", str(tmp_path / "tgt.csv"),
            "--schema-path", str(tmp_path / "schema.json"),
            "--output-path", str(tmp_path / "report.json"),
            "--method", "all",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ERROR MALFORMED_ROW: line 6: column 'v': non-finite value")
        assert err.count("\n") == 1


class TestBench:
    def test_sensitivity_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SHIFTSCOPE_THREADS", "2")
        out = tmp_path / "bench.csv"
        assert main(["bench", "--suite", "sensitivity", "--seeds", "1",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("suite,param,seed,method,delta_hat,delta_true,"
                            "gap_sq_error,weight_mse,weight_pcc,recovered")
        assert len(lines) == 9  # header + one sees-d row per configured s in 0..7
        assert all(line.startswith("sensitivity,") for line in lines[1:])

    @pytest.mark.parametrize("suite, rows", [
        ("tradeoff", 15),  # 5 sample sizes x (sees-d, bbse, kliep)
        ("sparsity", 12),  # true shift sizes 0-3 x (sees-d, bbse, kliep)
        ("robustness", 15),  # label / covariate / joint shift x all five methods
    ])
    def test_other_suites_smoke(self, suite, rows, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--suite", suite, "--seeds", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("suite,param,seed,method,delta_hat,delta_true,"
                            "gap_sq_error,weight_mse,weight_pcc,recovered")
        assert len(lines) == rows + 1
        assert all(line.startswith(f"{suite},") for line in lines[1:])
