"""Benchmark suites over the bundled synthetic bases.

Each suite draws seeded source/target pairs with generator-known truth,
runs the requested estimators, and emits one CSV row per (cell, seed,
method) with the per-run metrics; averaging is left to the consumer.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

from .baselines import run_bbse, run_dlu, run_kliep
from .estimator import estimate_gap, score_gap, score_weights, select_features, source_accuracy
from .predictor import train_logistic
from .sees_c import SeesCConfig, default_basis, run_sees_c
from .sees_d import SeesDConfig, run_sees_d
from .synth import (
    binary_base,
    boosted_marginal,
    correlation_boost,
    covariate_pair,
    empirical_marginal,
    label_boost,
    shifted_pair,
)

TRADEOFF_SIZES = (2500, 5000, 10000, 20000, 40000)
SPARSITY_LEVELS = (0, 1, 2, 3)
ROBUSTNESS_KINDS = ("label", "covariate", "joint")

JOINT_AMP = 2.2
MULTI_AMPS = (1.5, 1.35, 1.18)  # unequal factor strengths for multi-feature shifts
LABEL_AMP = 1.8
COVARIATE_TWO_MASS = 0.78

_BASE_SEED = 20_220_516


def thread_cap() -> int:
    """Worker threads for the suite pool: ``SHIFTSCOPE_THREADS`` if a
    positive integer, else the CPU count."""
    raw = os.environ.get("SHIFTSCOPE_THREADS", "")
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    return cap if cap > 0 else (os.cpu_count() or 1)


def evaluate_method(method: str, source, target, truth, sparsity: int,
                    eta: float = 0.001, weight_bound: float = 20.0) -> dict:
    """Run one estimator on a prepared pair and score it against truth."""
    if method == "sees-d":
        cfg = SeesDConfig(sparsity=sparsity, weight_bound=weight_bound)
        weight, selected, _ = run_sees_d(source, target, cfg)
    elif method == "sees-c":
        basis = default_basis(source.schema, reference=source)
        weight, _ = run_sees_c(source, target, basis, SeesCConfig(eta=eta))
        selected = select_features(weight, sparsity)
    elif method == "bbse":
        weight, _ = run_bbse(source, target)
        selected = select_features(weight, sparsity)
    elif method == "kliep":
        weight, _ = run_kliep(source, target)
        selected = ()
    elif method == "dlu":
        weight, _ = run_dlu(source, target)
        selected = ()
    else:
        raise ValueError(f"unknown method {method!r}")
    delta = estimate_gap(source, weight)
    acc = source_accuracy(source)
    metrics = score_weights(weight, truth, source)
    return {
        "method": method,
        "delta_hat": delta,
        "delta_true": truth.true_target_accuracy - acc,
        "gap_sq_error": score_gap(delta, truth, acc),
        "weight_mse": metrics["mse"],
        "weight_pcc": metrics["pcc"],
        "recovered": int(tuple(selected) == truth.true_shift_set),
    }


def joint_trial(base, model, shifted, n: int, seed: int, amp: float = JOINT_AMP,
                n_source: int | None = None):
    marginal = boosted_marginal(
        empirical_marginal(base, shifted), correlation_boost(shifted, amp)
    )
    return shifted_pair(base, model, shifted, marginal, n_source or n, n, seed)


def label_trial(base, model, n: int, seed: int, amp: float = LABEL_AMP,
                n_source: int | None = None):
    marginal = boosted_marginal(empirical_marginal(base, ()), label_boost(amp))
    return shifted_pair(base, model, (), marginal, n_source or n, n, seed)


def covariate_trial(base, model, feature: int, n: int, seed: int,
                    two_mass: float = COVARIATE_TWO_MASS,
                    n_source: int | None = None):
    return covariate_pair(
        base, model, feature, {1: 1.0 - two_mass, 2: two_mass}, n_source or n, n, seed
    )


@lru_cache(maxsize=4)
def suite_fixture(d: int):
    """Shared base population and the classifier trained on it."""
    base = binary_base(d, 30000, _BASE_SEED + d)
    model = train_logistic(base)
    return base, model


def _suite_cells(suite: str, seeds: int):
    """(param, seed, builder, methods, sparsity) work items, in output order."""
    if suite == "tradeoff":
        base, model = suite_fixture(6)
        methods = ("sees-d", "bbse", "kliep")
        for n in TRADEOFF_SIZES:
            for seed in range(seeds):
                shifted = (1 + seed % 6,)
                yield (
                    str(n), seed,
                    lambda n=n, seed=seed, shifted=shifted: joint_trial(
                        base, model, shifted, n, seed
                    ),
                    methods, 1,
                )
    elif suite == "sparsity":
        base, model = suite_fixture(7)
        methods = ("sees-d", "bbse", "kliep")
        for true_s in SPARSITY_LEVELS:
            for seed in range(seeds):
                shifted = tuple(1 + (seed + k) % 7 for k in range(true_s))
                shifted = tuple(sorted(shifted))
                if true_s == 0:
                    yield (
                        "0", seed,
                        lambda seed=seed: label_trial(base, model, 10000, seed),
                        methods, 0,
                    )
                else:
                    yield (
                        str(true_s), seed,
                        lambda seed=seed, shifted=shifted, true_s=true_s: joint_trial(
                            base, model, shifted, 10000, seed,
                            amp=MULTI_AMPS[:true_s]
                        ),
                        methods, true_s,
                    )
    elif suite == "robustness":
        base, model = suite_fixture(6)
        methods = ("sees-d", "sees-c", "bbse", "kliep", "dlu")
        # double-size source: the candidate fits are source-noise dominated
        builders = {
            "label": lambda seed: label_trial(base, model, 10000, seed, n_source=20000),
            "covariate": lambda seed: covariate_trial(base, model, 1, 10000, seed,
                                                      n_source=20000),
            "joint": lambda seed: joint_trial(base, model, (1,), 10000, seed,
                                              n_source=20000),
        }
        for kind in ROBUSTNESS_KINDS:
            for seed in range(seeds):
                yield kind, seed, (lambda kind=kind, seed=seed: builders[kind](seed)), methods, 1
    elif suite == "sensitivity":
        base, model = suite_fixture(7)
        shifted = (1, 2, 3)
        # the eight configured sparsities of a seed read one pair, drawn here
        pairs = [joint_trial(base, model, shifted, 10000, seed, amp=MULTI_AMPS, n_source=20000)
                 for seed in range(seeds)]
        for conf_s in range(0, 8):
            for seed in range(seeds):
                yield str(conf_s), seed, (lambda pair=pairs[seed]: pair), ("sees-d",), conf_s
    else:
        raise ValueError(f"unknown suite {suite!r}")


def run_suite(suite: str, seeds: int, out_path, parallel: bool = True) -> int:
    """Run a suite and write the per-run CSV; returns the row count."""
    cells = list(_suite_cells(suite, seeds))

    def work(item):
        param, seed, build, methods, sparsity = item
        source, target, truth = build()
        return [
            {"suite": suite, "param": param, "seed": seed,
             **evaluate_method(m, source, target, truth, sparsity)}
            for m in methods
        ]

    if parallel and thread_cap() > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=thread_cap()) as pool:
            chunks = list(pool.map(work, cells))
    else:
        chunks = [work(c) for c in cells]

    fields = ["suite", "param", "seed", "method", "delta_hat", "delta_true",
              "gap_sq_error", "weight_mse", "weight_pcc", "recovered"]
    count = 0
    with open(out_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for chunk in chunks:
            for row in chunk:
                writer.writerow({k: row[k] for k in fields})
                count += 1
    return count
