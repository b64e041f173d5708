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

from .estimator import Pair, run_method
from .predictor import train_logistic
from .synth import binary_base, boosted_pair, correlation_boost, covariate_pair, label_boost

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


def evaluate_method(method: str, pair: Pair, sparsity: int) -> dict:
    """Run one method on a ``Pair`` with truth, sharing what the pair caches
    with every other run on it; the report as a suite CSV row. An unknown
    method raises ValueError."""
    report = run_method(method, pair, sparsity)
    truth = pair.truth
    return {
        "method": method,
        "delta_hat": report.delta_hat,
        "delta_true": truth.true_target_accuracy - report.source_accuracy,
        "gap_sq_error": report.diagnostics["gap_sq_error"],
        "weight_mse": report.weight_metrics["mse"],
        "weight_pcc": report.weight_metrics["pcc"],
        "recovered": int(report.selected_features == truth.true_shift_set),
    }


def joint_trial(base, model, shifted, n: int, seed: int, amp: float = JOINT_AMP,
                n_source: int | None = None):
    return boosted_pair(base, model, shifted, correlation_boost(shifted, amp), n_source or n,
                        n, seed)


def label_trial(base, model, n: int, seed: int, amp: float = LABEL_AMP,
                n_source: int | None = None):
    return boosted_pair(base, model, (), label_boost(amp), n_source or n, n, seed)


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
    """(param, seed, builder, methods, sparsity) work items, in output order;
    a builder returns the cell's ``Pair``."""
    if suite == "tradeoff":
        base, model = suite_fixture(6)
        methods = ("sees-d", "bbse", "kliep")
        for n in TRADEOFF_SIZES:
            for seed in range(seeds):
                shifted = (1 + seed % 6,)
                yield (
                    str(n), seed,
                    lambda n=n, seed=seed, shifted=shifted: Pair(*joint_trial(
                        base, model, shifted, n, seed
                    )),
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
                        lambda seed=seed: Pair(*label_trial(base, model, 10000, seed)),
                        methods, 0,
                    )
                else:
                    yield (
                        str(true_s), seed,
                        lambda seed=seed, shifted=shifted, true_s=true_s: Pair(*joint_trial(
                            base, model, shifted, 10000, seed,
                            amp=MULTI_AMPS[:true_s]
                        )),
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
                yield (kind, seed, (lambda kind=kind, seed=seed: Pair(*builders[kind](seed))),
                       methods, 1)
    elif suite == "sensitivity":
        base, model = suite_fixture(7)
        shifted = (1, 2, 3)
        # the eight configured sparsities of a seed read one Pair, drawn here
        pairs = [Pair(*joint_trial(base, model, shifted, 10000, seed, amp=MULTI_AMPS,
                                   n_source=20000))
                 for seed in range(seeds)]
        for conf_s in range(0, 8):
            for seed in range(seeds):
                yield str(conf_s), seed, (lambda pair=pairs[seed]: pair), ("sees-d",), conf_s
    else:
        raise ValueError(f"unknown suite {suite!r}")


def run_suite(suite: str, seeds: int, out_path) -> int:
    """Run a suite and write the per-run CSV; returns the row count."""
    cells = list(_suite_cells(suite, seeds))

    def work(item):
        param, seed, build, methods, sparsity = item
        pair = build()
        return [
            {"suite": suite, "param": param, "seed": seed,
             **evaluate_method(m, pair, sparsity)}
            for m in methods
        ]

    if thread_cap() > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=thread_cap()) as pool:
            chunks = list(pool.map(work, cells))
    else:
        chunks = [work(c) for c in cells]

    fields = ["suite", "param", "seed", "method", "delta_hat", "delta_true",
              "gap_sq_error", "weight_mse", "weight_pcc", "recovered"]
    count = 0
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for chunk in chunks:
            for row in chunk:
                writer.writerow({k: row[k] for k in fields})
                count += 1
    return count
