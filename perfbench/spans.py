"""Span tracing from outside the program.

For a traced operation the tracer replaces selected functions of
``shiftscope`` with timing wrappers, at every module attribute (and class
attribute) that holds them, so calls made through ``cli``, ``bench`` and the
estimators' own module globals are all seen. Nothing in ``src/`` changes.
The wrappers are removed again after the operation, so untraced operations
run the program's own functions.

Spans are kept in memory and written out once, when the run ends. A span's
self time is its duration minus the part covered by its child spans.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Target:
    module: str  # e.g. "shiftscope.data"
    attr: str  # function name, or "Class.method"
    span: str  # span name; several targets may share one
    # (bound arguments, result) -> {counter: number to add, or a key whose
    # distinct values are counted}
    count: Callable | None = None


def _distinct(rows, labels=None) -> int:
    mat = rows if labels is None else np.column_stack([rows, labels])
    return int(np.unique(mat, axis=0).shape[0])


def _pair_key(b) -> tuple:
    return (tuple(b.arguments["shifted"]), b.arguments["n_source"], b.arguments["n_target"],
            b.arguments["seed"], tuple(sorted(b.arguments["target_marginal"].items())))


TARGETS = (
    Target("shiftscope.cli", "main", "cli.main"),
    Target("shiftscope.data", "load_dataset", "data.load_dataset",
           lambda b, r: {"data.load_dataset.rows": r.n}),
    Target("shiftscope.data", "validate_dataset", "data.validate_dataset"),
    Target("shiftscope.data", "save_dataset", "data.save_dataset",
           lambda b, r: {"data.save_dataset.rows": b.arguments["ds"].n}),
    Target("shiftscope.predictor", "train_logistic", "predictor.train_logistic",
           lambda b, r: {
               "predictor.train_logistic.iterations": r.iterations,
               "predictor.train_logistic.rows": b.arguments["ds"].n,
               "predictor.train_logistic.distinct_rows":
                   _distinct(b.arguments["ds"].rows, b.arguments["ds"].labels),
           }),
    Target("shiftscope.predictor", "predict", "predictor.predict"),
    Target("shiftscope.tabulate", "fit_discretizer", "tabulate.discretize"),
    Target("shiftscope.tabulate", "apply_discretizer", "tabulate.discretize"),
    Target("shiftscope.tabulate", "estimate_pmf", "tabulate.estimate_pmf",
           lambda b, r: {"tabulate.estimate_pmf.calls": 1}),
    Target("shiftscope.sees_d", "run_sees_d", "sees_d.run_sees_d",
           lambda b, r: {"sees_d.candidates": r[2]["candidates"],
                         "sees_d.solver_iterations": r[2]["solver_iterations"]}),
    Target("shiftscope.sees_c", "run_sees_c", "sees_c.run_sees_c",
           lambda b, r: {"sees_c.iterations": r[1]["iterations"],
                         "sees_c.objective": r[1]["objective"],
                         "sees_c.distinct_target_rows": _distinct(b.arguments["target"].rows)}),
    Target("shiftscope.baselines", "run_dlu", "baselines.run_dlu",
           lambda b, r: {"baselines.run_dlu.iterations": r[1]["train_iterations"]}),
    Target("shiftscope.baselines", "run_kliep", "baselines.run_kliep",
           lambda b, r: {"baselines.run_kliep.iterations": r[1]["iterations"]}),
    Target("shiftscope.baselines", "run_bbse", "baselines.run_bbse"),
    Target("shiftscope.weights", "TableWeight.weights_for", "weights.weights_for",
           lambda b, r: {"weights.weights_for.rows": b.arguments["ds"].n}),
    Target("shiftscope.estimator", "estimate_gap", "estimator.estimate_gap"),
    Target("shiftscope.estimator", "score_weights", "estimator.score_weights"),
    Target("shiftscope.synth", "apply_shift", "synth.apply_shift",
           lambda b, r: {"synth.rows_drawn": b.arguments["n"]}),
    Target("shiftscope.synth", "empirical_marginal", "synth.empirical_marginal"),
    Target("shiftscope.synth", "shifted_pair", "synth.shifted_pair",
           lambda b, r: {"bench.pairs_built": 1, "bench.distinct_pairs": _pair_key(b)}),
    Target("shiftscope.bench", "run_suite", "bench.run_suite",
           lambda b, r: {"bench.threads": sys.modules["shiftscope.bench"].thread_cap()}),
)

# Spans whose inclusive time per operation is a per-layer metric.
SPAN_METRICS = tuple(dict.fromkeys(t.span for t in TARGETS))
METHODS = ("sees-d", "sees-c", "bbse", "kliep", "dlu")
# Every per-layer metric a traced run prints, with its unit: span times,
# the counters above, the gap-error guard and the tracing overhead.
PER_LAYER = (
    *((f"{name}.s", "s") for name in SPAN_METRICS),
    ("data.load_dataset.rows", "count"),
    ("data.save_dataset.rows", "count"),
    ("predictor.train_logistic.iterations", "count"),
    ("predictor.train_logistic.rows", "count"),
    ("predictor.train_logistic.distinct_rows", "count"),
    ("tabulate.estimate_pmf.calls", "count"),
    ("sees_d.candidates", "count"),
    ("sees_d.solver_iterations", "count"),
    ("sees_c.iterations", "count"),
    ("sees_c.objective", "nat"),
    ("sees_c.distinct_target_rows", "count"),
    ("baselines.run_dlu.iterations", "count"),
    ("baselines.run_kliep.iterations", "count"),
    ("weights.weights_for.rows", "count"),
    ("synth.rows_drawn", "count"),
    ("bench.pairs_built", "count"),
    ("bench.distinct_pairs", "count"),
    ("bench.threads", "count"),
    *((f"estimator.gap_abs_err.{m}", "fraction") for m in METHODS),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """In-memory span recorder with per-operation counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self.keys: dict = defaultdict(lambda: defaultdict(set))
        self.op: str | None = None
        self._local = threading.local()
        self._lock = threading.Lock()  # run_suite may call in from a pool
        self._installed: list = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, target: Target):
        tracer = self
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            span = {"name": target.span, "op": tracer.op,
                    "parent": stack[-1] if stack else None,
                    "start": time.perf_counter(), "end": None}
            with tracer._lock:
                tracer.spans.append(span)
                stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if target.count is not None:
                tracer._count(target.count(sig.bind(*args, **kwargs), result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, values: dict) -> None:
        with self._lock:
            for name, v in values.items():
                if isinstance(v, tuple):
                    self.keys[self.op][name].add(v)
                else:
                    self.counters[self.op][name] += float(v)

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Replace every target at every shiftscope attribute that holds it."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "shiftscope" or name.startswith("shiftscope."))]
        for target in TARGETS:
            owner = sys.modules[target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._installed.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, target))
                continue
            orig = getattr(owner, target.attr)
            wrapped = self._wrap(orig, target)
            for mod in mods:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._installed.append((mod, name, orig))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for holder, name, orig in reversed(self._installed):
            setattr(holder, name, orig)
        self._installed.clear()

    def traced(self, op_id: str, fn):
        """Call ``fn()`` with the wrappers installed, as operation ``op_id``."""
        self.op = op_id
        self.install()
        try:
            return fn()
        finally:
            self.uninstall()
            self.op = None

    # -- summaries ---------------------------------------------------------

    def per_op(self, op_id: str) -> dict:
        """Inclusive and self seconds per span name for one operation.

        Inclusive time counts only spans without an ancestor of the same
        name, so a recursive call is not counted twice.
        """
        idx = [i for i, s in enumerate(self.spans) if s["op"] == op_id]
        child_time = defaultdict(float)
        for i in idx:
            p = self.spans[i]["parent"]
            if p is not None:
                child_time[p] += self.spans[i]["end"] - self.spans[i]["start"]
        incl, self_t = defaultdict(float), defaultdict(float)
        for i in idx:
            s = self.spans[i]
            dur = s["end"] - s["start"]
            self_t[s["name"]] += dur - child_time[i]
            p, nested = s["parent"], False
            while p is not None:
                if self.spans[p]["name"] == s["name"]:
                    nested = True
                    break
                p = self.spans[p]["parent"]
            if not nested:
                incl[s["name"]] += dur
        return {"inclusive_s": dict(incl), "self_s": dict(self_t)}

    def layer_metrics(self, op_ids) -> dict:
        """Median over operations of each span's inclusive time and counter."""
        if not op_ids:
            return {}
        per = [self.per_op(o) for o in op_ids]
        out = {}
        for name in SPAN_METRICS:
            out[f"{name}.s"] = statistics.median(p["inclusive_s"].get(name, 0.0) for p in per)
        for name in {n for o in op_ids for n in self.counters[o]}:
            out[name] = statistics.median(self.counters[o].get(name, 0.0) for o in op_ids)
        for name in {n for o in op_ids for n in self.keys[o]}:
            out[name] = statistics.median(len(self.keys[o][name]) for o in op_ids)
        return out

    def write(self, path, extra: dict) -> None:
        ops = sorted({s["op"] for s in self.spans}, key=str)
        doc = {
            **extra,
            "spans": self.spans,
            "per_op": {o: {**self.per_op(o), "counters": dict(self.counters[o])} for o in ops},
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
