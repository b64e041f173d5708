"""The four workloads: inputs, the timed operation, and its output check.

Each workload object is built in three steps, all outside the timed loop:
``prepare`` writes the inputs and works out the truth the checks need,
``fixture`` (if any) is what the program builds before its first
operation and counts towards ``setup_s``, and ``op`` is one closed-loop
operation through the program's public entry point.
"""

from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from perfbench import checks, inputs


def _quiet(fn, *args):
    """Run ``fn`` with the program's progress lines sent to stderr, so the
    benchmark's last stdout line stays its JSON result."""
    with contextlib.redirect_stdout(sys.stderr):
        return fn(*args)


class Estimate:
    """``shiftscope estimate --method all`` on one seeded source/target pair."""

    def __init__(self, n_bin: int, n_cont: int, n_shifted: int):
        self.shape = (n_bin, n_cont, n_shifted)

    def prepare(self, workdir: Path, seed: int) -> None:
        from shiftscope.data import load_dataset, load_schema
        from shiftscope.predictor import predict, train_logistic

        n_bin, n_cont, n_shifted = self.shape
        self.inp = inputs.estimate_inputs(workdir, seed, n_bin, n_cont, n_shifted)
        # True target accuracy: the same deterministic classifier the CLI
        # trains, scored against the target labels held back from the file.
        schema = load_schema(self.inp.schema_path)
        model = train_logistic(load_dataset(self.inp.source_path, schema))
        preds = predict(model, load_dataset(self.inp.target_path, schema)).predictions
        self.true_acc = float(np.mean(preds == self.inp.target_labels))
        inputs.write_estimate_truth(self.inp, self.true_acc)
        self.report = workdir / "report.json"
        self.argv = [
            "estimate",
            "--source-path", str(self.inp.source_path),
            "--target-path", str(self.inp.target_path),
            "--schema-path", str(self.inp.schema_path),
            "--truth-path", str(self.inp.truth_path),
            "--output-path", str(self.report),
            "--method", "all",
            "--sparsity", str(len(self.inp.shifted)),
        ]

    fixture = None

    def op(self):
        import shiftscope.cli

        return _quiet(shiftscope.cli.main, self.argv)

    def check(self, rc) -> tuple[list[str], dict]:
        """(problems, per-method gap errors)."""
        if rc != 0:
            return [f"exit code {rc}"], {}
        payload = json.loads(self.report.read_text())
        problems = checks.check_estimate(payload, self.inp.shifted, self.true_acc)
        gaps = {} if problems else checks.gap_errors(payload, self.true_acc)
        return problems, gaps


class Simulate:
    """``shiftscope simulate --n 20000`` from a 30,000-row base, one seed per run."""

    def prepare(self, workdir: Path, seed: int) -> None:
        self.inp = inputs.simulate_inputs(workdir, seed)
        self.prefix = workdir / "sim"
        self.argv = [
            "simulate",
            "--spec-path", str(self.inp.spec_path),
            "--base-path", str(self.inp.base_path),
            "--schema-path", str(self.inp.schema_path),
            "--n", str(self.inp.n),
            "--seed", str(self.inp.sim_seed),
            "--out-prefix", str(self.prefix),
        ]
        self.first = None

    fixture = None

    def op(self):
        import shiftscope.cli

        return _quiet(shiftscope.cli.main, self.argv)

    def check(self, rc) -> tuple[list[str], dict]:
        if rc != 0:
            return [f"exit code {rc}"], {}
        files = {k: Path(f"{self.prefix}.{k}.{ext}").read_bytes()
                 for k, ext in (("source", "csv"), ("target", "csv"), ("truth", "json"))}
        problems = checks.check_simulate(files, self.inp, self.first)
        if self.first is None:
            self.first = files
        return problems, {}


class SuiteSensitivity:
    """``bench.run_suite("sensitivity", 1, out)``: in memory, no CSV input.

    The suite draws its pairs from the program's bundled base with trial
    seed 0, so the benchmark seed does not change its inputs.
    """

    SEEDS = 1

    def prepare(self, workdir: Path, seed: int) -> None:
        self.out = workdir / "suite.csv"

    @staticmethod
    def fixture():
        from shiftscope import bench

        clear = getattr(bench.suite_fixture, "cache_clear", None)
        if clear is not None:
            clear()
        bench.suite_fixture(7)

    def op(self):
        from shiftscope import bench

        return _quiet(bench.run_suite, "sensitivity", self.SEEDS, str(self.out))

    def check(self, rows) -> tuple[list[str], dict]:
        text = self.out.read_text()
        problems = checks.check_suite(text, self.SEEDS)
        if rows != checks.SUITE_CONFIGS * self.SEEDS:
            problems.append(f"run_suite returned {rows} rows")
        gaps = {} if problems else {"sees-d": checks.suite_gap_error(text)}
        return problems, gaps


WORKLOADS = {
    # 7 binary features, label shifted jointly with 2 of them
    "estimate-discrete": lambda: Estimate(n_bin=7, n_cont=0, n_shifted=2),
    # 4 binary and 3 continuous features, one-feature joint shift
    "estimate-continuous": lambda: Estimate(n_bin=4, n_cont=3, n_shifted=1),
    "simulate": Simulate,
    "suite-sensitivity": SuiteSensitivity,
}
