"""Each output check fails on a deliberately wrong output.

    python3 -m pytest -q perfbench/test_checks.py

The simulate cases run the real ``simulate`` command on a small base, so
the unmodified output is known to pass; the estimate and suite cases start
from hand-built correct outputs.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, inputs, spans  # noqa: E402

SHIFTED = (2, 5)
TRUE_ACC = 0.91


def _report(method, src=0.85, delta=0.06, selected=()):
    return {
        "method": method, "delta_hat": delta, "source_accuracy": src,
        "estimated_target_accuracy": src + delta, "accuracy_drop": -delta,
        "selected_features": list(selected), "diagnostics": {}, "weight_metrics": None,
    }


@pytest.fixture
def payload():
    return [_report("sees-d", selected=SHIFTED)] + [_report(m) for m in checks.METHODS[1:]]


def test_estimate_correct_output_passes(payload):
    assert checks.check_estimate(payload, SHIFTED, TRUE_ACC) == []


@pytest.mark.parametrize("mutate", [
    lambda p: p.pop(),  # four reports
    lambda p: p.__setitem__(4, _report("sees-d", selected=SHIFTED)),  # duplicate method
    lambda p: p[1].pop("weight_metrics"),  # missing key
    lambda p: p[2].__setitem__("extra", 1),  # unexpected key
    lambda p: p[3].__setitem__("estimated_target_accuracy", 0.5),
    lambda p: p[1].__setitem__("accuracy_drop", 0.06),
    lambda p: p[0].__setitem__("selected_features", [2, 6]),
    lambda p: p[0].__setitem__("selected_features", [2]),
    lambda p: p[0].update(delta_hat=0.2, estimated_target_accuracy=1.05, accuracy_drop=-0.2),
    lambda p: p.__setitem__(0, []),  # malformed entry
])
def test_estimate_wrong_output_fails(payload, mutate):
    mutate(payload)
    assert checks.check_estimate(payload, SHIFTED, TRUE_ACC)


def test_estimate_not_a_list_fails(payload):
    assert checks.check_estimate(payload[0], SHIFTED, TRUE_ACC)


# -- simulate ---------------------------------------------------------------

@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    """Small simulate run through the real CLI: (inputs, output bytes)."""
    from shiftscope.cli import main

    work = tmp_path_factory.mktemp("sim")
    inp = inputs.simulate_inputs(work, seed=3, n_base=3000, n=2000)
    rc = main(["simulate", "--spec-path", str(inp.spec_path), "--base-path",
               str(inp.base_path), "--schema-path", str(inp.schema_path), "--n",
               str(inp.n), "--seed", str(inp.sim_seed), "--out-prefix", str(work / "o")])
    assert rc == 0
    files = {k: (work / f"o.{k}.{ext}").read_bytes()
             for k, ext in (("source", "csv"), ("target", "csv"), ("truth", "json"))}
    return inp, files


def _check_sim(inp, files, reference=None):
    return checks.check_simulate(files, inp, reference)


def _lines(data: bytes) -> list[str]:
    return data.decode().splitlines(keepends=True)


def test_simulate_correct_output_passes(simulated):
    inp, files = simulated
    assert _check_sim(inp, files) == []
    assert _check_sim(inp, files, reference=dict(files)) == []


def test_simulate_not_byte_identical_fails(simulated):
    inp, files = simulated
    ref = dict(files, truth=files["truth"] + b" ")
    assert any("differs" in p for p in _check_sim(inp, files, reference=ref))


def test_simulate_row_count_fails(simulated):
    inp, files = simulated
    for key in ("source", "target"):
        short = dict(files, **{key: "".join(_lines(files[key])[:-1]).encode()})
        assert any(f"{key} has" in p for p in _check_sim(inp, short))


def test_simulate_row_not_in_base_fails(simulated):
    inp, files = simulated
    # drop every base row with the first output row's features from the base
    first = next(csv.reader(io.StringIO(_lines(files["target"])[1])))
    codes = [c[1].index(v) for c, v in zip(inputs.SIM_COLUMNS, first)]
    keep = ~np.all(inp.base_rows == codes, axis=1)
    thinner = dataclasses.replace(inp, base_rows=inp.base_rows[keep],
                                  base_labels=inp.base_labels[keep])
    problems = _check_sim(thinner, files)
    assert any("target row is not a row of the base" in p for p in problems)


def test_simulate_unknown_category_fails(simulated):
    inp, files = simulated
    lines = _lines(files["source"])
    lines[1] = "nowhere" + lines[1][lines[1].index(","):]
    assert _check_sim(inp, dict(files, source="".join(lines).encode()))


def test_simulate_wrong_truth_weight_fails(simulated):
    inp, files = simulated
    truth = json.loads(files["truth"])
    truth["weights"][0]["w"] *= 1.001
    problems = _check_sim(inp, dict(files, truth=json.dumps(truth).encode()))
    assert any("truth weight" in p for p in problems)


def test_simulate_missing_truth_cell_fails(simulated):
    inp, files = simulated
    truth = json.loads(files["truth"])
    truth["weights"].pop()
    problems = _check_sim(inp, dict(files, truth=json.dumps(truth).encode()))
    assert any("populated cells" in p for p in problems)


def test_simulate_source_marginal_fails(simulated):
    inp, files = simulated
    lines = _lines(files["source"])
    # a third of the rows replaced by copies of one base row
    lines[1:1 + inp.n // 3] = [lines[1]] * (inp.n // 3)
    problems = _check_sim(inp, dict(files, source="".join(lines).encode()))
    assert any("source (x_I, y) marginal" in p for p in problems)


def test_simulate_target_marginal_fails(simulated):
    inp, files = simulated
    # the source's features follow the base marginal, not the spec
    src = _lines(files["source"])
    tgt = [_lines(files["target"])[0]] + [ln.rsplit(",", 1)[0] + "\r\n" for ln in src[1:]]
    problems = _check_sim(inp, dict(files, target="".join(tgt).encode()))
    assert any("target x_I marginal" in p for p in problems)


# -- suite ------------------------------------------------------------------

FIELDS = ["suite", "param", "seed", "method", "delta_hat", "delta_true",
          "gap_sq_error", "weight_mse", "weight_pcc", "recovered"]


def _suite_rows():
    return [{"suite": "sensitivity", "param": str(s), "seed": "0", "method": "sees-d",
             "delta_hat": "0.07", "delta_true": "0.0676", "gap_sq_error": "4.7e-06",
             "weight_mse": "0.01", "weight_pcc": "0.9", "recovered": str(int(s == 3))}
            for s in range(8)]


def _suite_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=FIELDS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def test_suite_correct_output_passes():
    assert checks.check_suite(_suite_csv(_suite_rows()), 1) == []


@pytest.mark.parametrize("mutate", [
    lambda r: r.pop(),
    lambda r: r.append(dict(r[0])),
    lambda r: r[3].update(recovered="0"),
    lambda r: r[3].update(gap_sq_error="0.01"),
    lambda r: r[5].update(delta_true="0.05"),
    lambda r: r[3].update(param="9"),
])
def test_suite_wrong_output_fails(mutate):
    rows = _suite_rows()
    mutate(rows)
    assert checks.check_suite(_suite_csv(rows), 1)


# -- BENCHMARK.json ---------------------------------------------------------

def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.run import END_TO_END

    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.PER_LAYER)


# -- tracer -----------------------------------------------------------------

def test_tracer_self_and_inclusive_time():
    a, b, c = "cli.main", "tabulate.estimate_pmf", "data.load_dataset"
    tracer = spans.Tracer()
    tracer.spans = [
        {"name": a, "op": "op1", "parent": None, "start": 0.0, "end": 10.0},
        {"name": b, "op": "op1", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": b, "op": "op1", "parent": 1, "start": 2.0, "end": 3.0},  # recursive
        {"name": c, "op": "op1", "parent": 0, "start": 5.0, "end": 7.0},
        {"name": a, "op": "op2", "parent": None, "start": 20.0, "end": 21.0},
    ]
    per = tracer.per_op("op1")
    assert per["inclusive_s"] == {a: 10.0, b: 3.0, c: 2.0}
    assert per["self_s"] == {a: 5.0, b: 3.0, c: 2.0}
    metrics = tracer.layer_metrics(["op1", "op2"])
    assert metrics[f"{a}.s"] == 5.5 and metrics[f"{c}.s"] == 1.0


def test_tracer_wraps_and_restores_every_reference():
    import shiftscope.cli
    import shiftscope.tabulate

    orig = shiftscope.tabulate.estimate_pmf
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert shiftscope.tabulate.estimate_pmf is not orig
        assert shiftscope.sees_d.estimate_pmf is shiftscope.tabulate.estimate_pmf
    finally:
        tracer.uninstall()
    assert shiftscope.tabulate.estimate_pmf is orig
    assert shiftscope.sees_d.estimate_pmf is orig
