"""Ground-truth shift generators.

Two layers live here: exact rational fixture distributions for population
oracle tests, and seeded resampling generators that impose a chosen
(shifted features, label) marginal on a base dataset while preserving the
conditional distribution of everything else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .data import DISCRETE, Column, FeatureSchema, TabularDataset
from .errors import EmptyCell, ValidationError
from .estimator import GroundTruth
from .tabulate import LABEL, PREDICTION, EmpiricalPmf, distinct_rows
from .weights import TableWeight


@dataclass(frozen=True)
class AnalyticDistribution:
    """Exact joint pmf over (x, y), stored as rationals.

    Keys are ``(x value tuple, y)`` with 1-based codes. The cell masses sum
    to exactly 1.
    """

    schema: FeatureSchema
    cells: dict

    def __post_init__(self):
        total = sum(self.cells.values())
        if total != 1:
            raise ValidationError(f"analytic pmf sums to {total}, not 1")
        object.__setattr__(self, "cells", MappingProxyType(dict(self.cells)))

    def prob(self, x, y: int) -> Fraction:
        return self.cells.get((tuple(x), y), Fraction(0))

    def feature_prob(self, x) -> Fraction:
        x = tuple(x)
        return sum(
            (m for (xv, _), m in self.cells.items() if xv == x), start=Fraction(0)
        )

    def label_given(self, x, y: int) -> Fraction:
        """Exact conditional p(y | x)."""
        denom = self.feature_prob(x)
        if denom == 0:
            raise ValidationError(f"feature cell {x} has zero mass")
        return self.prob(x, y) / denom

    def marginal_xy(self, indices) -> dict:
        """Exact marginal over (x_I, y); I may be empty."""
        indices = tuple(indices)
        out: dict = {}
        for (x, y), m in self.cells.items():
            key = (tuple(x[i - 1] for i in indices), y)
            out[key] = out.get(key, Fraction(0)) + m
        return out


def _binary_schema(d: int, names=None) -> FeatureSchema:
    cols = tuple(
        Column(names[j] if names else f"x{j + 1}", DISCRETE, 2) for j in range(d)
    )
    return FeatureSchema(columns=cols, label_cardinality=2, label_name="y")


def _conditional_bernoulli(label_mass, feature_two_probs) -> AnalyticDistribution:
    """Joint of conditionally independent binary features.

    ``label_mass[y]`` is P(Y=y); ``feature_two_probs[j][y]`` is
    P(X_{j+1} = 2 | Y = y), all exact Fractions.
    """
    d = len(feature_two_probs)
    cells = {}
    for x in itertools.product((1, 2), repeat=d):
        for y in (1, 2):
            m = label_mass[y]
            for j, v in enumerate(x):
                p2 = feature_two_probs[j][y]
                m *= p2 if v == 2 else 1 - p2
            cells[(x, y)] = m
    return AnalyticDistribution(schema=_binary_schema(d), cells=cells)


def _ratio_truth(source: AnalyticDistribution, target: AnalyticDistribution,
                 shifted) -> GroundTruth:
    shifted = tuple(shifted)
    p = source.marginal_xy(shifted)
    q = target.marginal_xy(shifted)
    table = {}
    for key, mass in p.items():
        xj, y = key
        if mass > 0:
            table[(xj, y)] = float(q.get(key, Fraction(0)) / mass)
    return GroundTruth(
        true_weights=TableWeight(index_set=shifted, table=table),
        true_shift_set=shifted,
    )


def counterexample_fixture():
    """Two-feature pair that is a joint shift but neither label nor
    covariate shift.

    Source: Y ~ Bern(1/2); given Y the two binary features are independent
    with source success probabilities (0.7, 0.6) / (0.1, 0.2) and target
    probabilities (0.5, 0.6) / (0.5, 0.2) under target Y ~ Bern(0.6). Only
    feature 1 shifts jointly with the label; low/high values carry codes
    1/2.
    """
    half = Fraction(1, 2)
    source = _conditional_bernoulli(
        label_mass={1: half, 2: half},
        feature_two_probs=[
            {1: Fraction(7, 10), 2: Fraction(1, 10)},
            {1: Fraction(6, 10), 2: Fraction(2, 10)},
        ],
    )
    target = _conditional_bernoulli(
        label_mass={1: Fraction(2, 5), 2: Fraction(3, 5)},
        feature_two_probs=[
            {1: half, 2: half},
            {1: Fraction(6, 10), 2: Fraction(2, 10)},
        ],
    )
    return source, target, _ratio_truth(source, target, (1,))


def identifiable_fixture():
    """Three-feature single-shift pair whose matching marginals are
    linearly independent.

    With d=3 and s=1 the matching marginals keep a free coordinate beyond
    the candidate set, so the candidate distance is strictly positive for
    every wrong candidate; the two-feature fixture cannot provide that.
    """
    half = Fraction(1, 2)
    source = _conditional_bernoulli(
        label_mass={1: half, 2: half},
        feature_two_probs=[
            {1: Fraction(7, 10), 2: Fraction(1, 10)},
            {1: Fraction(6, 10), 2: Fraction(2, 10)},
            {1: Fraction(11, 20), 2: Fraction(1, 4)},
        ],
    )
    target = _conditional_bernoulli(
        label_mass={1: Fraction(2, 5), 2: Fraction(3, 5)},
        feature_two_probs=[
            {1: half, 2: half},
            {1: Fraction(6, 10), 2: Fraction(2, 10)},
            {1: Fraction(11, 20), 2: Fraction(1, 4)},
        ],
    )
    return source, target, _ratio_truth(source, target, (1,))


def label_shifted(dist: AnalyticDistribution, label_mass) -> AnalyticDistribution:
    """Exact pure label shift of ``dist``: q(x, y) = p(x | y) * q(y)."""
    old = {y: Fraction(0) for y in range(1, dist.schema.n_labels + 1)}
    for (_, y), m in dist.cells.items():
        old[y] += m
    cells = {}
    for (x, y), m in dist.cells.items():
        if old[y] == 0:
            continue
        cells[(x, y)] = m / old[y] * label_mass[y]
    return AnalyticDistribution(schema=dist.schema, cells=cells)


def stump(feature_index: int):
    """Deterministic classifier predicting the value of one feature."""

    def classify(x) -> int:
        return int(x[feature_index - 1])

    return classify


def population_joint(dist: AnalyticDistribution, classifier,
                     include_label: bool = True) -> EmpiricalPmf:
    """Exact joint over (features..., prediction[, label]), with its cells
    in ascending order.

    ``classifier`` maps a 1-based value tuple to a class in {1..L}.
    """
    d = dist.schema.d
    L = dist.schema.n_labels
    cards = [c.cardinality for c in dist.schema.columns] + [L] + ([L] if include_label else [])
    mass: dict[tuple, float] = {}
    for (x, y), m in dist.cells.items():
        f = classifier(x)
        if not 1 <= f <= L:
            raise ValidationError(f"classifier returned {f} outside 1..{L}")
        idx = tuple(v - 1 for v in x) + (f - 1,)
        if include_label:
            idx = idx + (y - 1,)
        mass[idx] = mass.get(idx, 0.0) + float(m)
    keys = sorted(mass)
    axes = tuple(range(1, d + 1)) + (PREDICTION,) + ((LABEL,) if include_label else ())
    return EmpiricalPmf(axes=axes, cardinalities=tuple(cards),
                        cells=np.array(keys).T,
                        weights=[mass[k] for k in keys], total=1.0)


def sample_analytic(dist: AnalyticDistribution, n: int, seed: int,
                    with_labels: bool = True) -> TabularDataset:
    """n i.i.d. rows via inverse CDF over the flattened cell table."""
    if n < 0:
        raise ValidationError("n must be >= 0")
    keys = sorted(dist.cells.keys())
    probs = np.array([float(dist.cells[k]) for k in keys])
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    rng = np.random.default_rng(seed)
    idx = np.searchsorted(cum, rng.random(n), side="right")
    xs = np.array([x for x, _ in keys], dtype=float).reshape(len(keys), dist.schema.d)
    ys = np.array([y for _, y in keys], dtype=int)
    return TabularDataset(
        schema=dist.schema,
        rows=xs[idx],
        labels=ys[idx] if with_labels else None,
    )


# ---------------------------------------------------------------------------
# Resampling generators.

@dataclass(frozen=True)
class ShiftSpec:
    """A simulated shift: which features move, and the new (x_I, y) marginal.

    ``cells`` maps ``(x_I value tuple, y)`` to mass; the masses must sum to
    1 within 1e-9 (they are renormalized exactly). ``shifted`` may be empty
    for a label-only shift.
    """

    shifted: tuple[int, ...]
    cells: dict

    def __post_init__(self):
        shifted = tuple(sorted(int(i) for i in self.shifted))
        object.__setattr__(self, "shifted", shifted)
        total = float(sum(self.cells.values()))
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(f"spec marginal sums to {total}, not 1")
        cells = {}
        for (xv, y), m in self.cells.items():
            if m < 0:
                raise ValidationError("negative spec mass")
            if len(tuple(xv)) != len(shifted):
                raise ValidationError("spec cell arity does not match shifted set")
            cells[(tuple(int(v) for v in xv), int(y))] = float(m) / total
        object.__setattr__(self, "cells", MappingProxyType(cells))


def _cells(base: TabularDataset, indices, labeled: bool = True):
    """Distinct ``(x_I value tuple, y)`` cells of ``base`` (``x_I`` tuples
    when not ``labeled``) in order of first appearance, each cell's share of
    the rows, and each row's position among the cells."""
    cols = [base.column_values(j).astype(int) for j in indices]
    keys, inverse = distinct_rows([*cols, base.labels] if labeled else cols)
    if labeled:
        keys = [(k[:-1], k[-1]) for k in keys]
    return keys, (np.bincount(inverse, minlength=len(keys)) / base.n).tolist(), inverse


def empirical_marginal(base: TabularDataset, indices) -> dict:
    """Empirical (x_I, y) marginal of a labeled dataset."""
    if base.labels is None:
        raise ValidationError("base dataset needs labels")
    keys, shares, _ = _cells(base, tuple(indices))
    return dict(zip(keys, shares))


def _resample_by_cells(keys: list, inverse: np.ndarray, cells, n: int,
                       seed: int) -> np.ndarray:
    """Draw n base-row indices: first a cell from ``cells``, then a uniform
    row among that cell's members. ``keys`` are the base's cells and
    ``inverse`` each base row's position among them."""
    if n == 0:
        return np.array([], dtype=int)
    position = {k: i for i, k in enumerate(keys)}
    drawn = sorted(k for k, m in cells.items() if m > 0)
    for key in drawn:
        if key not in position:
            raise EmptyCell(key)
    probs = np.array([cells[k] for k in drawn])
    cum = np.cumsum(probs / probs.sum())
    cum[-1] = 1.0
    rng = np.random.default_rng(seed)
    cell_idx = np.searchsorted(cum, rng.random(n), side="right")
    chosen = np.empty(n, dtype=int)
    for ci, key in enumerate(drawn):
        mask = cell_idx == ci
        m = int(mask.sum())
        if m:
            pool = np.flatnonzero(inverse == position[key])
            chosen[mask] = pool[rng.integers(0, len(pool), size=m)]
    return chosen


def apply_shift(base: TabularDataset, spec: ShiftSpec, n: int, seed: int):
    """Resample ``base`` so the (x_I, y) marginal matches ``spec``.

    The conditional of everything else given (x_I, y) is preserved by
    construction. Truth weights are spec mass over base empirical mass,
    cellwise.
    """
    if base.labels is None:
        raise ValidationError("apply_shift needs a labeled base")
    if any(not 1 <= j <= base.schema.d for j in spec.shifted):
        raise ValidationError("shifted feature index outside schema")
    keys, shares, inverse = _cells(base, spec.shifted)
    table = {key: spec.cells.get(key, 0.0) / mass for key, mass in zip(keys, shares)}
    truth = GroundTruth(
        true_weights=TableWeight(index_set=spec.shifted, table=table),
        true_shift_set=spec.shifted,
    )
    return base.take(_resample_by_cells(keys, inverse, spec.cells, n, seed)), truth


def pure_label_shift(base: TabularDataset, label_marginal: dict, n: int, seed: int):
    """Label-only shift: apply_shift with an empty shifted set."""
    spec = ShiftSpec(shifted=(), cells={((), y): m for y, m in label_marginal.items()})
    return apply_shift(base, spec, n, seed)


def pure_covariate_shift(base: TabularDataset, feature: int,
                         feature_marginal: dict, n: int, seed: int):
    """Covariate-only shift on one feature: resample by x_I alone, which
    preserves p(y | x_I); truth weights ignore y."""
    if base.labels is None:
        raise ValidationError("pure_covariate_shift needs a labeled base")
    keys, shares, inverse = _cells(base, (feature,), labeled=False)
    base_marg = dict(zip(keys, shares))
    total = float(sum(feature_marginal.values()))
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"feature marginal sums to {total}")
    cells = {}
    for v, m in feature_marginal.items():
        key = (int(v),)
        if m > 0 and key not in base_marg:
            raise EmptyCell((key,))
        cells[key] = float(m) / total
    table = {
        (xv, y): cells.get(xv, 0.0) / mass
        for xv, mass in base_marg.items()
        for y in range(1, base.schema.n_labels + 1)
    }
    truth = GroundTruth(
        true_weights=TableWeight(index_set=(feature,), table=table),
        true_shift_set=(feature,),
    )
    return base.take(_resample_by_cells(keys, inverse, cells, n, seed)), truth


# ---------------------------------------------------------------------------
# Bundled synthetic bases for benchmarks and acceptance runs.

def binary_base(d: int, n: int, seed: int) -> TabularDataset:
    """Labeled base with d binary features, each correlated with the label.

    Feature 1 separates the classes strongly and the class-2 conditionals
    are sharper than class-1's, so accuracy differs across both label and
    feature-1 groups; marginal shifts then move accuracy for real instead
    of canceling out.
    """
    rng = np.random.default_rng(seed)
    y = rng.integers(1, 3, size=n)
    rows = np.empty((n, d))
    for j in range(d):
        if j == 0:
            p2 = np.where(y == 2, 0.80, 0.30)
        else:
            p2 = np.where(y == 2, 0.72 + 0.04 * (j % 3), 0.45 - 0.05 * (j % 2))
        rows[:, j] = 1 + (rng.random(n) < p2)
    return TabularDataset(schema=_binary_schema(d), rows=rows, labels=y)


def boosted_marginal(marginal: dict, boost) -> dict:
    """Reweight a cell marginal by ``boost(cell)`` and renormalize."""
    out = {key: mass * float(boost(key)) for key, mass in marginal.items()}
    total = sum(out.values())
    return {k: v / total for k, v in out.items()}


def correlation_boost(shifted: tuple[int, ...], amp):
    """Multiplicative per-feature boost strengthening x_j = y agreement.

    Each shifted feature contributes its amplitude when its value agrees
    with the label (both high or both low) and the inverse otherwise, so
    the (x_I, y) correlation moves while the plain marginals barely do.
    ``amp`` is one float for all features or a per-feature sequence.
    """
    amps = [amp] * len(shifted) if np.isscalar(amp) else list(amp)
    if len(amps) != len(shifted):
        raise ValidationError("one amplitude per shifted feature required")

    def boost(cell) -> float:
        xv, y = cell
        out = 1.0
        for v, a in zip(xv, amps):
            out *= a if (v == 2) == (y == 2) else 1.0 / a
        return out

    return boost


def label_boost(amp: float):
    def boost(cell) -> float:
        _, y = cell
        return amp if y == 2 else 1.0 / amp

    return boost


def _child_seeds(seed: int, k: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.integers(0, 2**31 - 1, size=k)]


def draw_pair(base: TabularDataset, spec: ShiftSpec, n_source: int, n_target: int,
              seed: int):
    """Draw a labeled (source, target) pair from one base under ``spec``.

    The source is a plain resample (the base's own (x_I, y) marginal), the
    target follows ``spec``; both keep the base conditionals, so the pair is
    under exact |I|-sparse joint shift with the returned truth weights.
    """
    s1, s2 = _child_seeds(seed, 2)
    identity = ShiftSpec(shifted=spec.shifted, cells=empirical_marginal(base, spec.shifted))
    source, _ = apply_shift(base, identity, n_source, s1)
    target, truth = apply_shift(base, spec, n_target, s2)
    return source, target, truth


def score_target(model, target: TabularDataset, truth: GroundTruth):
    """Record the true accuracy of ``model`` on the labeled ``target`` in
    the truth; returns (target scored and without labels, truth)."""
    from .predictor import predict

    target = predict(model, target)
    acc = float(np.mean(target.predictions == target.labels)) if target.n else 0.0
    return target.without_labels(), replace(truth, true_target_accuracy=acc)


def _scored_pair(model, source: TabularDataset, target: TabularDataset,
                 truth: GroundTruth):
    """The pair scored by ``model``, with the target as :func:`score_target` leaves it."""
    from .predictor import predict

    return (predict(model, source), *score_target(model, target, truth))


def shifted_pair(base: TabularDataset, model, shifted: tuple[int, ...],
                 target_marginal: dict, n_source: int, n_target: int, seed: int):
    """:func:`draw_pair` under the (x_I, y) marginal ``target_marginal``,
    scored by ``model``. The returned target is unlabeled; its true
    accuracy under ``model`` is recorded on the ground truth.
    """
    spec = ShiftSpec(shifted=shifted, cells=target_marginal)
    return _scored_pair(model, *draw_pair(base, spec, n_source, n_target, seed))


def covariate_pair(base: TabularDataset, model, feature: int,
                   target_feature_marginal: dict, n_source: int, n_target: int,
                   seed: int):
    """Like shifted_pair but moving a single feature's marginal only, which
    keeps p(y | x) fixed across the pair."""
    s1, s2 = _child_seeds(seed, 2)
    keys, shares, _ = _cells(base, (feature,), labeled=False)
    base_marg = {v: m for (v,), m in zip(keys, shares)}
    source, _ = pure_covariate_shift(base, feature, base_marg, n_source, s1)
    target, truth = pure_covariate_shift(base, feature, target_feature_marginal, n_target, s2)
    return _scored_pair(model, source, target, truth)


# ---------------------------------------------------------------------------
# Health-screening case study: binary age group, shifted positive rates.

AGED = 1  # feature index of the age-group column

AGE_CASE_SOURCE_MARGINAL = {
    ((1,), 1): 0.3, ((1,), 2): 0.2,  # young: 40% positive
    ((2,), 1): 0.3, ((2,), 2): 0.2,  # aged: 40% positive
}
AGE_CASE_TARGET_MARGINAL = {
    ((1,), 1): 0.25, ((1,), 2): 0.25,  # young: 50% positive
    ((2,), 1): 0.1, ((2,), 2): 0.4,    # aged: 80% positive
}


def age_case_base(seed: int, n: int = 20000, symptoms: int = 5) -> TabularDataset:
    """Base population for the case study: exact 50/50 age split with an
    exact 40% positive rate in both groups, plus symptom features whose
    conditionals depend on (age group, label)."""
    if n % 20:
        raise ValidationError("base size must be a multiple of 20 for exact cells")
    per_cell = {k: int(round(m * n)) for k, m in AGE_CASE_SOURCE_MARGINAL.items()}
    aged, y = [], []
    for (xv, lab), count in sorted(per_cell.items()):
        aged.extend([xv[0]] * count)
        y.extend([lab] * count)
    aged = np.array(aged, dtype=float)
    y = np.array(y, dtype=int)
    rng = np.random.default_rng(seed)
    cols = [aged]
    names = ["aged"]
    for j in range(symptoms):
        # positives present much more coherent symptoms, so per-class and
        # per-age accuracies differ and the shift moves accuracy for real
        p2 = np.where(y == 2, 0.74 + 0.04 * (j % 2), 0.46 - 0.05 * (j % 3))
        p2 = p2 + 0.04 * (aged == 2)
        cols.append(1.0 + (rng.random(n) < p2))
        names.append(f"s{j + 1}")
    schema = _binary_schema(1 + symptoms, names=names)
    return TabularDataset(schema=schema, rows=np.column_stack(cols), labels=y)


def age_case_pair(model, n_per_group: int, seed: int, base: TabularDataset | None = None):
    """Source at 40% positive in both age groups; target at 80% (aged) and
    50% (young). True weights are the exact marginal ratios, e.g. 2.0 on
    (aged, positive)."""
    if base is None:
        base = age_case_base(seed=7_041_776)
    n = 2 * n_per_group
    return shifted_pair(base, model, (AGED,), AGE_CASE_TARGET_MARGINAL, n, n, seed)
