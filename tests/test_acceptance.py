"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``).

The heavy Monte-Carlo criteria share session fixtures so the whole module
stays inside the ten-minute budget.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from shiftscope.baselines import run_bbse
from shiftscope.bench import (
    MULTI_AMPS,
    covariate_trial,
    evaluate_method,
    joint_trial,
    label_trial,
    suite_fixture,
)
from shiftscope.cli import main
from shiftscope.data import save_dataset, save_schema
from shiftscope.estimator import Pair, estimate_gap, score_weights
from shiftscope.predictor import predict, train_logistic
from shiftscope.sees_c import SeesCConfig, default_basis, run_sees_c, sees_c_objective
from shiftscope.sees_d import SeesDConfig, run_sees_d, sample_joints
from shiftscope.synth import (
    binary_base,
    boosted_marginal,
    correlation_boost,
    age_case_pair,
    age_case_base,
    empirical_marginal,
    label_shifted,
    population_joint,
    stump,
    counterexample_fixture,
)
from shiftscope.weights import TableWeight


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name}{suffix}"


@pytest.fixture(scope="module")
def base6():
    return suite_fixture(6)


@pytest.fixture(scope="module")
def base7():
    return suite_fixture(7)


def test_criterion_01_counterexample_fixture_exactness():
    source, target, _ = counterexample_fixture()
    ok = (
        target.label_given((2, 2), 2) == Fraction(1, 3)
        and source.label_given((2, 2), 2) == Fraction(1, 22)
    )
    report(1, "fixture conditionals are exactly 1/3 and 1/22", ok)


def test_criterion_02_population_identifiability():
    source, target, truth = counterexample_fixture()
    clf = stump(2)
    sj = population_joint(source, clf)
    tj = population_joint(target, clf, include_label=False)
    weight, selected, diag = run_sees_d(sj, tj, SeesDConfig(sparsity=1))
    cell_err = max(
        abs(weight.value((x1,), y) - truth.true_weights.value((x1,), y))
        for x1 in (1, 2)
        for y in (1, 2)
    )
    ok = selected == (1,) and diag["selected_distance"] < 1e-12 and cell_err < 1e-9
    report(2, "population matcher recovers the shifted feature and weights", ok,
           f"distance {diag['selected_distance']:.2e}, cell err {cell_err:.2e}")


def test_criterion_03_bbse_exact_under_label_shift():
    source, _, _ = counterexample_fixture()
    target = label_shifted(source, {1: Fraction(1, 5), 2: Fraction(4, 5)})
    sj = population_joint(source, stump(2))
    tj = population_joint(target, stump(2), include_label=False)
    weight, _ = run_bbse(sj, tj)
    err = max(abs(weight.value((), 1) - 0.4), abs(weight.value((), 2) - 1.6))
    report(3, "label-shift weights match exact class ratios", err < 1e-9,
           f"max err {err:.2e}")


def test_criterion_04_gap_calculator_identities(base6):
    base, model = base6
    scored = predict(model, binary_base(6, 4000, 77))
    unit = TableWeight(index_set=(), table={((), 1): 1.0, ((), 2): 1.0})
    exact_zero = estimate_gap(scored, unit.weights_for(scored)) == 0.0

    rng = np.random.default_rng(40)
    keys = [((v,), y) for v in (1, 2) for y in (1, 2)]
    max_dev = 0.0
    for _ in range(100):
        t1 = {k: rng.uniform(0, 4) for k in keys}
        t2 = {k: rng.uniform(0, 4) for k in keys}
        al = rng.uniform()
        blend = {k: al * t1[k] + (1 - al) * t2[k] for k in keys}
        d1, d2, db = (estimate_gap(scored, TableWeight(index_set=(1,), table=t).weights_for(scored))
                      for t in (t1, t2, blend))
        max_dev = max(max_dev, abs(db - (al * d1 + (1 - al) * d2)))
    ok = exact_zero and max_dev < 1e-12
    report(4, "unit weights give zero gap; gap is linear in the weights", ok,
           f"max linearity dev {max_dev:.2e}")


def test_criterion_05_sees_c_numerical_soundness(base6):
    base, model = base6
    source, target, _ = joint_trial(base, model, (1,), 4000, 5)
    basis = default_basis(source.schema)
    cfg = SeesCConfig()

    rng = np.random.default_rng(17)
    h = 1e-6
    worst_rel = 0.0
    for _ in range(20):
        a = rng.uniform(0.2, 2.0, size=(basis.size, 2))
        _, grad = sees_c_objective(a, source, target, basis, cfg)
        k, y = rng.integers(0, basis.size), rng.integers(0, 2)
        ap, am = a.copy(), a.copy()
        ap[k, y] += h
        am[k, y] -= h
        vp, _ = sees_c_objective(ap, source, target, basis, cfg)
        vm, _ = sees_c_objective(am, source, target, basis, cfg)
        fd = (vp - vm) / (2 * h)
        worst_rel = max(worst_rel, abs(grad[k, y] - fd) / max(abs(fd), 1e-8))
    grad_ok = worst_rel < 1e-5

    weight, diag = run_sees_c(source, target, basis, cfg)
    feasible_ok = (
        (weight.coefficients >= 0).all()
        and abs(float(np.mean(weight.weights_for(source))) - 1.0) < 1e-6
    )

    objectives = [
        run_sees_c(source, target, basis, SeesCConfig(max_iters=k))[1]["objective"]
        for k in (1, 8, 64, 512)
    ]
    monotone_ok = all(b >= a - 1e-12 for a, b in zip(objectives, objectives[1:]))

    ok = grad_ok and feasible_ok and monotone_ok
    report(5, "analytic gradient, feasibility, and monotone ascent", ok,
           f"max grad rel err {worst_rel:.2e}")


def test_criterion_06_finite_sample_recovery(base6):
    base, model = base6
    cfg = SeesDConfig(sparsity=1)
    hits = 0
    for seed in range(100):
        shifted = (1 + seed % 6,)
        source, target, truth = joint_trial(base, model, shifted, 10000, seed)
        _, selected, _ = run_sees_d(*sample_joints(source, target), cfg)
        hits += int(selected == truth.true_shift_set)

    rmse = {2500: [], 40000: []}
    for n in rmse:
        for seed in range(50):
            shifted = (1 + seed % 6,)
            source, target, truth = joint_trial(base, model, shifted, n, seed)
            weight, _, _ = run_sees_d(*sample_joints(source, target), cfg)
            mse = score_weights(weight.weights_for(source),
                                truth.true_weights.weights_for(source))["mse"]
            rmse[n].append(float(np.sqrt(mse)))
    factor = float(np.mean(rmse[2500]) / np.mean(rmse[40000]))
    ok = hits >= 90 and 1.5 <= factor <= 6.0
    report(6, "shifted feature recovered >= 90/100; weight error shrinks with n",
           ok, f"recovered {hits}/100, shrink factor {factor:.2f}")


def test_criterion_07_age_case_pair_ordering():
    base = age_case_base(seed=7_041_776)
    model = train_logistic(base)
    mse = {m: [] for m in ("sees-d", "bbse", "kliep")}
    gap = {m: [] for m in ("sees-d", "bbse", "kliep")}
    for seed in range(20):
        pair = Pair(*age_case_pair(model, 5000, seed, base=base))
        for m in mse:
            r = evaluate_method(m, pair, 1)
            mse[m].append(r["weight_mse"])
            gap[m].append(abs(r["delta_hat"] - r["delta_true"]))
    mse_mean = {m: float(np.mean(v)) for m, v in mse.items()}
    gap_mean = {m: float(np.mean(v)) for m, v in gap.items()}
    ok = (
        mse_mean["sees-d"] < mse_mean["bbse"] < mse_mean["kliep"]
        and gap_mean["sees-d"] < gap_mean["bbse"]
        and gap_mean["sees-d"] < gap_mean["kliep"]
    )
    report(7, "matcher beats label/covariate baselines on the case study", ok,
           "MSE " + " < ".join(f"{mse_mean[m]:.3g}" for m in ("sees-d", "bbse", "kliep")))


def test_criterion_08_robustness_matrix(base6):
    base, model = base6
    methods = ("sees-d", "bbse", "kliep")
    builders = {
        "label": lambda seed: label_trial(base, model, 10000, seed, n_source=20000),
        "covariate": lambda seed: covariate_trial(base, model, 1, 10000, seed,
                                                  n_source=20000),
        "joint": lambda seed: joint_trial(base, model, (1,), 10000, seed,
                                          n_source=20000),
    }
    errs = {kind: {m: [] for m in methods} for kind in builders}
    for kind, build in builders.items():
        for seed in range(20):
            pair = Pair(*build(seed))
            for m in methods:
                errs[kind][m].append(evaluate_method(m, pair, 1)["gap_sq_error"])
    mean = {kind: {m: float(np.mean(v)) for m, v in per.items()}
            for kind, per in errs.items()}
    within_two = all(
        mean[kind]["sees-d"] <= 2.0 * min(mean[kind].values()) for kind in mean
    )
    bbse_fails_joint = mean["joint"]["bbse"] > 3.0 * mean["label"]["bbse"]
    kliep_fails_joint = mean["joint"]["kliep"] > 3.0 * mean["covariate"]["kliep"]
    ok = within_two and bbse_fails_joint and kliep_fails_joint
    detail = ", ".join(
        f"{kind}: sees-d/best {mean[kind]['sees-d'] / min(mean[kind].values()):.2f}x"
        for kind in mean
    )
    report(8, "reliable across label/covariate/joint while baselines break", ok, detail)


def test_criterion_09_sparsity_sensitivity(base7):
    base, model = base7
    errs = {0: [], 2: [], 3: [], 4: []}
    for seed in range(20):
        pair = Pair(*joint_trial(base, model, (1, 2, 3), 10000, seed,
                                 amp=MULTI_AMPS, n_source=20000))
        for s in errs:
            errs[s].append(evaluate_method("sees-d", pair, s)["gap_sq_error"])
    mean = {s: float(np.mean(v)) for s, v in errs.items()}
    ok = (
        mean[2] <= 3.0 * mean[3]
        and mean[4] <= 3.0 * mean[3]
        and mean[0] >= 3.0 * mean[3]
    )
    report(9, "tolerates small sparsity mismatch, collapses only at s=0", ok,
           f"errors s0 {mean[0]:.2g}, s2 {mean[2]:.2g}, s3 {mean[3]:.2g}, s4 {mean[4]:.2g}")


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    monkeypatch.setenv("SHIFTSCOPE_THREADS", "1")
    base = binary_base(4, 6000, 51)
    save_dataset(base, tmp_path / "base.csv")
    save_schema(base.schema, tmp_path / "schema.json")
    marg = boosted_marginal(empirical_marginal(base, (2,)), correlation_boost((2,), 2.0))
    spec = {
        "shifted_features": ["x2"],
        "cells": [{"x": [str(x[0])], "y": str(y), "mass": m}
                  for (x, y), m in sorted(marg.items())],
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))

    def simulate(prefix):
        assert main([
            "simulate", "--spec-path", str(tmp_path / "spec.json"),
            "--base-path", str(tmp_path / "base.csv"),
            "--schema-path", str(tmp_path / "schema.json"),
            "--n", "3000", "--seed", "9", "--out-prefix", str(tmp_path / prefix),
        ]) == 0

    def estimate(prefix, out):
        assert main([
            "estimate", "--source-path", str(tmp_path / f"{prefix}.source.csv"),
            "--target-path", str(tmp_path / f"{prefix}.target.csv"),
            "--schema-path", str(tmp_path / "schema.json"),
            "--output-path", str(tmp_path / out),
            "--method", "sees-d", "--sparsity", "1",
        ]) == 0

    simulate("a")
    simulate("b")
    same_sim = all(
        (tmp_path / f"a.{p}").read_bytes() == (tmp_path / f"b.{p}").read_bytes()
        for p in ("source.csv", "target.csv", "truth.json")
    )
    estimate("a", "r1.json")
    estimate("a", "r2.json")
    same_est = (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()
    report(10, "simulate and estimate are byte-deterministic under a fixed seed",
           same_sim and same_est)
