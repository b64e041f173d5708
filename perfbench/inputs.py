"""Seeded input generators for the benchmark workloads.

Everything here is plain numpy and ``csv``: the benchmark never asks the
program under test to make its own inputs. Each generator returns the
files it wrote plus the truth the output checks need (the shifted set, the
held-back target labels, the exact target marginal).

All generators draw features that are conditionally independent given the
label, then impose a chosen (x_I, y) marginal on the target. Because the
remaining features depend on (x_I, y) only through y, the pair is under an
exact |I|-sparse joint shift.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# P(x_j = 2 | y) for y = 1, 2: one strong feature, the rest moderate, so
# accuracy differs across label and feature groups and a shift moves it.
_BIN_P2 = (
    (0.30, 0.80), (0.45, 0.72), (0.40, 0.76), (0.45, 0.80),
    (0.40, 0.72), (0.45, 0.76), (0.40, 0.80),
)
_CONT_MU = ((0.0, 0.8), (0.0, 0.6), (0.0, 1.0))  # N(mu_y, 1) continuous features
LABEL_P2 = 0.5
JOINT_AMP = 2.0
N_SOURCE, N_TARGET = 20000, 10000

LABEL_CATS = ("neg", "pos")
BIN_CATS = ("no", "yes")


@dataclass(frozen=True)
class EstimateInputs:
    source_path: Path
    target_path: Path
    schema_path: Path
    truth_path: Path
    shifted: tuple[int, ...]  # 1-based feature indices
    target_labels: np.ndarray  # held back from the target file, 1-based
    true_weights: dict  # (x_I codes, y) -> exact q/p population ratio


@dataclass(frozen=True)
class SimulateInputs:
    base_path: Path
    schema_path: Path
    spec_path: Path
    n: int
    sim_seed: int
    shifted: tuple[int, ...]
    base_rows: np.ndarray  # (n_base, d) 0-based category codes
    base_labels: np.ndarray  # 1-based
    spec_mass: dict  # (x_I codes 1-based tuple, y) -> mass


def _boost(cell_x, y, amp: float) -> float:
    """amp per feature whose value is high (code > 1) exactly when y is
    positive, 1 / amp per feature that disagrees."""
    out = 1.0
    for v in cell_x:
        out *= amp if (v > 1) == (y == 2) else 1.0 / amp
    return out


def _cells(shifted, cards):
    """All (x_I, y) cells in lexicographic order, 1-based codes."""
    xs = itertools.product(*[range(1, cards[j - 1] + 1) for j in shifted])
    return [(x, y) for x in xs for y in (1, 2)]


def _draw_binary(rng, y: np.ndarray, j: int) -> np.ndarray:
    p2 = np.where(y == 2, _BIN_P2[j][1], _BIN_P2[j][0])
    return 1 + (rng.random(y.size) < p2).astype(int)


def _draw_pair(rng, n_source: int, n_target: int, n_bin: int, n_cont: int,
               shifted: tuple[int, ...]):
    """Source and target value matrices (binary codes 1/2, then continuous)
    with labels; the target's (x_I, y) marginal is boosted by JOINT_AMP."""
    cards = [2] * n_bin
    cells = _cells(shifted, cards)
    p = np.array([
        (LABEL_P2 if y == 2 else 1 - LABEL_P2)
        * np.prod([_BIN_P2[j - 1][y - 1] if v == 2 else 1 - _BIN_P2[j - 1][y - 1]
                   for j, v in zip(shifted, x)])
        for x, y in cells
    ])
    q = p * np.array([_boost(x, y, JOINT_AMP) for x, y in cells])
    q /= q.sum()

    def sample(n, probs):
        idx = rng.choice(len(cells), size=n, p=probs)
        y = np.array([cells[i][1] for i in idx], dtype=int)
        rows = np.empty((n, n_bin + n_cont))
        for j in range(n_bin):
            if j + 1 in shifted:
                k = shifted.index(j + 1)
                rows[:, j] = [cells[i][0][k] for i in idx]
            else:
                rows[:, j] = _draw_binary(rng, y, j)
        for c in range(n_cont):
            mu = np.where(y == 2, _CONT_MU[c][1], _CONT_MU[c][0])
            rows[:, n_bin + c] = np.round(rng.normal(mu, 1.0), 6)
        return rows, y

    src_rows, src_y = sample(n_source, p)
    tgt_rows, tgt_y = sample(n_target, q)
    weights = {cell: float(qc / pc) for cell, qc, pc in zip(cells, q, p)}
    return src_rows, src_y, tgt_rows, tgt_y, weights


def _write_schema(path: Path, n_bin: int, n_cont: int, names) -> None:
    cols = [{"name": names[j], "kind": "discrete", "categories": list(BIN_CATS)}
            for j in range(n_bin)]
    cols += [{"name": names[n_bin + c], "kind": "continuous"} for c in range(n_cont)]
    doc = {"columns": cols, "label": {"name": "outcome", "categories": list(LABEL_CATS)}}
    path.write_text(json.dumps(doc, indent=2) + "\n")


def _write_csv(path: Path, header, rows: np.ndarray, n_bin: int, labels=None) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(header) + (["outcome"] if labels is not None else []))
        for i in range(rows.shape[0]):
            rec = [BIN_CATS[int(v) - 1] for v in rows[i, :n_bin]]
            rec += [repr(float(v)) for v in rows[i, n_bin:]]
            if labels is not None:
                rec.append(LABEL_CATS[labels[i] - 1])
            w.writerow(rec)


def estimate_inputs(workdir: Path, seed: int, n_bin: int, n_cont: int,
                    n_shifted: int) -> EstimateInputs:
    """Labeled source and unlabeled target CSVs under a sparse joint shift.

    The shifted set is ``n_shifted`` binary features chosen by the seed;
    the target's labels are kept in memory only.
    """
    rng = np.random.default_rng(seed)
    shifted = tuple(sorted(int(j) + 1 for j in rng.choice(n_bin, n_shifted, replace=False)))
    src_rows, src_y, tgt_rows, tgt_y, weights = _draw_pair(
        rng, N_SOURCE, N_TARGET, n_bin, n_cont, shifted)
    names = [f"b{j + 1}" for j in range(n_bin)] + [f"c{c + 1}" for c in range(n_cont)]
    out = EstimateInputs(
        source_path=workdir / "source.csv",
        target_path=workdir / "target.csv",
        schema_path=workdir / "schema.json",
        truth_path=workdir / "truth.json",
        shifted=shifted,
        target_labels=tgt_y,
        true_weights=weights,
    )
    _write_schema(out.schema_path, n_bin, n_cont, names)
    _write_csv(out.source_path, names, src_rows, n_bin, labels=src_y)
    _write_csv(out.target_path, names, tgt_rows, n_bin)
    return out


def write_estimate_truth(inp: EstimateInputs, true_target_accuracy: float) -> None:
    """Truth file in the layout ``simulate`` writes, for ``--truth-path``."""
    doc = {
        "shifted_features": [f"b{j}" for j in inp.shifted],
        "weights": [{"x": [BIN_CATS[v - 1] for v in x], "y": LABEL_CATS[y - 1], "w": w}
                    for (x, y), w in sorted(inp.true_weights.items())],
        "true_target_accuracy": true_target_accuracy,
    }
    inp.truth_path.write_text(json.dumps(doc, indent=2) + "\n")


# Base for `simulate`: named categories, two three-level features and three
# binary ones. P(code | y) per feature, rows y = 1, 2.
SIM_COLUMNS = (
    ("region", ("north", "south", "east"), ((0.5, 0.3, 0.2), (0.2, 0.3, 0.5))),
    ("age", ("young", "mid", "old"), ((0.4, 0.4, 0.2), (0.2, 0.3, 0.5))),
    ("smoker", ("no", "yes"), ((0.7, 0.3), (0.4, 0.6))),
    ("cough", ("no", "yes"), ((0.6, 0.4), (0.3, 0.7))),
    ("fever", ("no", "yes"), ((0.55, 0.45), (0.35, 0.65))),
)
SIM_AMP = 1.8


def simulate_inputs(workdir: Path, seed: int, n_base: int = 30000,
                    n: int = 20000) -> SimulateInputs:
    """Base CSV, schema and a two-feature shift spec for ``simulate``.

    The spec boosts the base's own empirical (x_I, y) marginal, so every
    cell with spec mass is populated in the base.
    """
    rng = np.random.default_rng(seed)
    d = len(SIM_COLUMNS)
    shifted = tuple(sorted(int(j) + 1 for j in rng.choice(d, 2, replace=False)))
    y = 1 + (rng.random(n_base) < LABEL_P2).astype(int)
    codes = np.empty((n_base, d), dtype=int)
    for j, (_, cats, probs) in enumerate(SIM_COLUMNS):
        cum = np.cumsum(np.array(probs), axis=1)[y - 1]
        codes[:, j] = (rng.random(n_base)[:, None] > cum[:, :-1]).sum(axis=1)

    cards = [len(c[1]) for c in SIM_COLUMNS]
    cells = _cells(shifted, cards)
    flat = np.ravel_multi_index(
        [codes[:, j - 1] for j in shifted] + [y - 1], [cards[j - 1] for j in shifted] + [2])
    freq = np.bincount(flat, minlength=len(cells)) / n_base
    mass = freq * np.array([_boost(x, yy, SIM_AMP) for x, yy in cells])
    mass /= mass.sum()
    spec_mass = {cell: float(m) for cell, m in zip(cells, mass)}

    names = [c[0] for c in SIM_COLUMNS]
    schema = {
        "columns": [{"name": nm, "kind": "discrete", "categories": list(cats)}
                    for nm, cats, _ in SIM_COLUMNS],
        "label": {"name": "outcome", "categories": list(LABEL_CATS)},
    }
    spec = {
        "shifted_features": [names[j - 1] for j in shifted],
        "cells": [
            {"x": [SIM_COLUMNS[j - 1][1][v - 1] for j, v in zip(shifted, x)],
             "y": LABEL_CATS[yy - 1], "mass": spec_mass[(x, yy)]}
            for x, yy in cells
        ],
    }
    out = SimulateInputs(
        base_path=workdir / "base.csv",
        schema_path=workdir / "schema.json",
        spec_path=workdir / "spec.json",
        n=n,
        sim_seed=int(rng.integers(0, 2**31 - 1)),
        shifted=shifted,
        base_rows=codes,
        base_labels=y,
        spec_mass=spec_mass,
    )
    out.schema_path.write_text(json.dumps(schema, indent=2) + "\n")
    out.spec_path.write_text(json.dumps(spec, indent=2) + "\n")
    with open(out.base_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(names + ["outcome"])
        for i in range(n_base):
            w.writerow([SIM_COLUMNS[j][1][codes[i, j]] for j in range(d)]
                       + [LABEL_CATS[y[i] - 1]])
    return out
