import json

import pytest

import shiftscope.tabulate
from shiftscope.cli import load_shift_spec, main
from shiftscope.data import Column, FeatureSchema, save_dataset, save_schema
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


    def test_spec_above_the_cell_bound_is_an_input_error(self, workspace, capsys,
                                                         monkeypatch):
        # the spec's (x1, y) space has 4 cells
        monkeypatch.setattr(shiftscope.tabulate, "MAX_TABLE_CELLS", 3)
        code = run_simulate(workspace, prefix="too_wide")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ERROR VALIDATION_ERROR: refusing to materialize table with 4 cells")
        assert err.count("\n") == 1
        assert not list(workspace.glob("too_wide.*"))


def test_spec_features_out_of_schema_order(tmp_path):
    schema = FeatureSchema(columns=(Column("a", "discrete", 2, ("a1", "a2")),
                                    Column("b", "discrete", 3, ("b1", "b2", "b3"))),
                           label_cardinality=2)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"shifted_features": ["b", "a"],
                                "cells": [{"x": ["b2", "a1"], "y": "1", "mass": 1.0}]}))
    spec = load_shift_spec(path, schema)
    assert spec.shifted == (1, 2)
    assert dict(spec.cells) == {((1, 2), 1): 1.0}


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

    def test_truth_above_the_cell_bound_is_an_input_error(self, workspace, tmp_path, capsys,
                                                          monkeypatch):
        run_simulate(workspace)
        truth = json.loads((workspace / "sim.truth.json").read_text())
        truth["shifted_features"] = ["x1", "x2", "x3"]
        for cell in truth["weights"]:
            cell["x"] = cell["x"] * 3
        wide = tmp_path / "wide_truth.json"
        wide.write_text(json.dumps(truth))
        # the truth's (x1, x2, x3, y) space has 16 cells, bbse's tables at most 4
        monkeypatch.setattr(shiftscope.tabulate, "MAX_TABLE_CELLS", 8)
        code = self.estimate(workspace, tmp_path / "report.json", method="bbse",
                             extra=("--truth-path", str(wide)))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("ERROR VALIDATION_ERROR: refusing to materialize table with 16 cells")
        assert err.count("\n") == 1

    def test_method_all_emits_one_entry_per_method(self, workspace, tmp_path):
        run_simulate(workspace)
        out = tmp_path / "all.json"
        assert self.estimate(workspace, out, method="all") == 0
        reports = json.loads(out.read_text())
        assert [r["method"] for r in reports] == [
            "sees-d", "sees-c", "bbse", "kliep", "dlu"
        ]
        assert all(isinstance(r["delta_hat"], float) for r in reports)

    def test_method_all_builds_the_joints_once(self, workspace, tmp_path, pmf_calls):
        run_simulate(workspace)
        assert self.estimate(workspace, tmp_path / "all.json", method="all") == 0
        assert len(pmf_calls) == 2  # sees-d's two joints; bbse reads their marginals

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
        from shiftscope.estimator import Pair
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
        pair = Pair(source, target, truth)
        for report in json.loads(out.read_text()):
            row = evaluate_method(report["method"], pair, 1)
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

    @pytest.mark.parametrize("method", ["sees-c", "all"])
    def test_eta_zero_with_an_unbounded_sees_c_fit(self, workspace, tmp_path, capsys, method):
        # drop every source row with x1 = 2 and y = 2; target rows still have x1 = 2
        run_simulate(workspace)
        lines = (workspace / "sim.source.csv").read_text().splitlines(keepends=True)
        header = lines[0].strip().split(",")
        x1, y = header.index("x1"), header.index("y")
        kept = [ln for ln in lines[1:]
                if [ln.strip().split(",")[i] for i in (x1, y)] != ["2", "2"]]
        assert len(kept) < len(lines) - 1
        (tmp_path / "sim.source.csv").write_text("".join(lines[:1] + kept))
        for name in ("sim.target.csv", "schema.json"):
            (tmp_path / name).write_bytes((workspace / name).read_bytes())
        out = tmp_path / "report.json"
        code = self.estimate(tmp_path, out, method=method, extra=("--eta", "0"))
        err = capsys.readouterr().err
        message = ("sees-c with eta 0 is unbounded: target rows reach basis cell (x1=2, y=2), "
                   "which no source row weights")
        if method == "sees-c":
            assert code == 2
            assert err == f"ERROR VALIDATION_ERROR: {message}\n"
            assert not out.exists()
        else:
            assert code == 0
            entries = json.loads(out.read_text())
            assert entries.pop(1) == {"method": "sees-c", "error": {
                "category": "VALIDATION_ERROR", "message": message}}
            assert [e["method"] for e in entries] == ["sees-d", "bbse", "kliep", "dlu"]
            assert all(isinstance(e["delta_hat"], float) for e in entries)

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


@pytest.mark.parametrize("argv,path,category", [
    (["simulate"], "missing/sim", "FILE_NOT_FOUND"),
    (["simulate"], "taken", "FILE_ERROR"),  # taken.truth.json is a directory
    (["bench", "--suite", "robustness", "--seeds", "1"], "missing/x.csv", "FILE_NOT_FOUND"),
    (["bench", "--suite", "robustness", "--seeds", "1"], "", "FILE_ERROR"),  # a directory
], ids=["simulate-missing-dir", "simulate-dir", "bench-missing-dir", "bench-dir"])
def test_bad_output_path_fails_before_any_work(workspace, tmp_path, capsys, monkeypatch,
                                               argv, path, category):
    import shiftscope.bench
    import shiftscope.cli

    calls = []
    for module, name in ((shiftscope.cli, "draw_pair"), (shiftscope.bench, "run_suite")):
        def counted(*args, _name=name, _real=getattr(module, name)):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    (tmp_path / "taken.truth.json").mkdir()
    before = sorted(tmp_path.rglob("*"))
    out = str(tmp_path / path)
    if argv[0] == "simulate":
        argv = argv + ["--spec-path", str(workspace / "spec.json"),
                       "--base-path", str(workspace / "base.csv"),
                       "--schema-path", str(workspace / "schema.json"),
                       "--n", "500", "--out-prefix", out]
    else:
        argv = argv + ["--out", out]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"ERROR {category}: ")
    assert err.count("\n") == 1
    assert calls == []
    assert sorted(tmp_path.rglob("*")) == before


def _first_column(doc, key, value):
    doc["columns"][0][key] = value
    return doc


def _label(doc, key, value):
    doc["label"][key] = value
    return doc


@pytest.mark.parametrize("edit", [
    lambda doc: [],
    lambda doc: {**doc, "columns": 5},
    lambda doc: {**doc, "label": "y"},
    lambda doc: _first_column(doc, "kind", "Discrete"),
    lambda doc: _first_column(doc, "categories", "12"),
    lambda doc: _first_column(doc, "categories", ["1", "1"]),
    lambda doc: _label(doc, "categories", ["1", "1"]),
], ids=["top-level-list", "columns-not-a-list", "label-not-an-object", "kind-case",
        "categories-string", "duplicate-categories", "duplicate-label-categories"])
def test_malformed_schema_is_a_validation_error(workspace, tmp_path, capsys, edit):
    run_simulate(workspace)
    bad = tmp_path / "schema.json"
    bad.write_text(json.dumps(edit(json.loads((workspace / "schema.json").read_text()))))
    code = main([
        "estimate",
        "--source-path", str(workspace / "sim.source.csv"),
        "--target-path", str(workspace / "sim.target.csv"),
        "--schema-path", str(bad),
        "--output-path", str(tmp_path / "report.json"),
        "--method", "bbse",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"ERROR VALIDATION_ERROR: schema file {bad}: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("part", ["source", "schema", "predictions", "truth"])
def test_non_utf8_input_is_an_input_error(workspace, tmp_path, capsys, part):
    run_simulate(workspace)
    paths = {"source": workspace / "sim.source.csv", "schema": workspace / "schema.json",
             "truth": workspace / "sim.truth.json"}
    preds = tmp_path / "preds.csv"
    preds.write_text("pred,p_1,p_2\n" + "1,0.9,0.1\n" * 4000)
    paths["predictions"] = preds
    bad = tmp_path / f"bad.{paths[part].name}"
    text = paths[part].read_bytes()
    cut = len(text) // 2
    bad.write_bytes(text[:cut] + b"\xff" + text[cut:])
    paths[part] = bad
    code = main([
        "estimate",
        "--source-path", str(paths["source"]),
        "--target-path", str(workspace / "sim.target.csv"),
        "--schema-path", str(paths["schema"]),
        "--predictions-path", f"{paths['predictions']},{preds}",
        "--truth-path", str(paths["truth"]),
        "--output-path", str(tmp_path / "report.json"),
        "--method", "bbse",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"ERROR INVALID_INPUT: {bad}: not UTF-8 text: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("name", ["x1", "y"])
def test_duplicate_header_column_is_rejected(workspace, tmp_path, capsys, name):
    run_simulate(workspace)
    lines = (workspace / "sim.source.csv").read_text().splitlines()
    first = lines[0].split(",").index(name)
    bad = tmp_path / "source.csv"
    bad.write_text("\n".join(f"{line},{line.split(',')[first]}" for line in lines) + "\n")
    code = main([
        "estimate",
        "--source-path", str(bad),
        "--target-path", str(workspace / "sim.target.csv"),
        "--schema-path", str(workspace / "schema.json"),
        "--output-path", str(tmp_path / "report.json"),
        "--method", "bbse",
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        f"ERROR SCHEMA_MISMATCH: {bad}: column {name!r} appears twice in the header\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("line", [1, 6], ids=["header", "body"])
def test_field_over_the_csv_limit_is_a_malformed_row(workspace, tmp_path, capsys, line):
    """The csv reader's own error exits 2 naming the record, like a bad cell."""
    run_simulate(workspace)
    lines = (workspace / "sim.source.csv").read_text().splitlines()
    lines[line - 1] = ",".join(lines[line - 1].split(",")[:-1] + ["9" * 140_000])
    bad = tmp_path / "source.csv"
    bad.write_text("\n".join(lines) + "\n")
    code = main([
        "estimate",
        "--source-path", str(bad),
        "--target-path", str(workspace / "sim.target.csv"),
        "--schema-path", str(workspace / "schema.json"),
        "--output-path", str(tmp_path / "report.json"),
        "--method", "bbse",
    ])
    assert code == 2
    assert capsys.readouterr().err == (
        f"ERROR MALFORMED_ROW: line {line}: field larger than field limit (131072)\n")
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("method,empty", [
    ("sees-c", "target"),
    ("all", "target"),
    ("all", "source"),
])
def test_file_without_data_rows_is_rejected_before_any_method_runs(
        workspace, tmp_path, capsys, method, empty):
    run_simulate(workspace)
    paths = {part: workspace / f"sim.{part}.csv" for part in ("source", "target")}
    header = paths[empty].read_text().splitlines()[0]
    paths[empty] = tmp_path / f"{empty}.csv"
    paths[empty].write_text(header + "\n")
    out = tmp_path / "report.json"
    code = main([
        "estimate",
        "--source-path", str(paths["source"]),
        "--target-path", str(paths["target"]),
        "--schema-path", str(workspace / "schema.json"),
        "--output-path", str(out),
        "--method", method,
    ])
    assert code == 2
    assert capsys.readouterr().err == f"ERROR VALIDATION_ERROR: {empty} file has no data rows\n"
    assert not out.exists()


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

    @pytest.mark.parametrize("method", ["kliep", "all"])
    def test_kliep_kernel_missing_the_source_is_an_internal_fault(self, tmp_path, capsys,
                                                                 far_apart_pair, method):
        source, target = far_apart_pair
        save_dataset(source, tmp_path / "src.csv")
        save_dataset(target, tmp_path / "tgt.csv")
        save_schema(source.schema, tmp_path / "schema.json")
        out = tmp_path / "report.json"
        code = main([
            "estimate",
            "--source-path", str(tmp_path / "src.csv"),
            "--target-path", str(tmp_path / "tgt.csv"),
            "--schema-path", str(tmp_path / "schema.json"),
            "--output-path", str(out),
            "--method", method,
        ])
        message = "no source row reaches any centre"
        if method == "kliep":
            assert code == 1
            assert capsys.readouterr().err == f"ERROR DEGENERATE_KERNEL: {message}\n"
            assert not out.exists()
            return
        assert code == 0
        entries = json.loads(out.read_text())
        assert [e["method"] for e in entries] == ["sees-d", "sees-c", "bbse", "kliep", "dlu"]
        assert entries.pop(3) == {"method": "kliep", "error": {
            "category": "DEGENERATE_KERNEL", "message": message}}
        assert all(isinstance(e["delta_hat"], float) for e in entries)

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
