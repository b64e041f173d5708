"""The prepared pair, the one method runner, gap calculation,
shifted-feature selection, and evaluation metrics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baselines import run_bbse, run_dlu, run_kliep
from .data import ShiftReport, TabularDataset
from .errors import MissingTruth, ValidationError
from .sees_c import SeesCConfig, default_basis, feature_scores, run_sees_c
from .sees_d import SeesDConfig, run_sees_d, sample_joints
from .tabulate import EmpiricalPmf
from .weights import BasisWeight, TableWeight, WeightFunction

METHODS = ("sees-d", "sees-c", "bbse", "kliep", "dlu")


@dataclass(frozen=True)
class GroundTruth:
    """Generator-side description of a simulated shift."""

    true_weights: WeightFunction
    true_shift_set: tuple[int, ...]
    true_target_accuracy: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "true_shift_set", tuple(sorted(self.true_shift_set)))


def source_accuracy(ds: TabularDataset) -> float:
    if ds.labels is None or ds.predictions is None:
        raise ValidationError("accuracy needs labels and predictions")
    if ds.n == 0:
        return 0.0
    return float(np.mean(ds.predictions == ds.labels))


def estimate_gap(source: TabularDataset, weights: np.ndarray) -> float:
    """Estimated accuracy change, positive when target accuracy is higher.

    Reweights the per-row correctness indicator: mean of
    ``(w_i - 1) * 1{f(x_i) = y_i}`` over the labeled source, where
    ``weights`` holds w(x_i, y_i) for each source row.
    """
    if source.labels is None or source.predictions is None:
        raise ValidationError("gap estimation needs source labels and predictions")
    correct = (source.predictions == source.labels).astype(float)
    delta = float(np.mean((weights - 1.0) * correct))
    acc = float(np.mean(correct))
    assert delta >= -acc - 1e-9, "weighted accuracy went negative"
    return delta


def select_features(w: WeightFunction, s: int) -> tuple[int, ...]:
    """Shifted-feature explanation: the table's own index set, or the top-s
    features by group score for basis weights (lower index wins ties)."""
    if isinstance(w, TableWeight):
        return w.index_set
    if isinstance(w, BasisWeight):
        if s <= 0:
            return ()
        beta = feature_scores(w.coefficients, w.basis)
        order = sorted(range(1, len(beta) + 1), key=lambda i: (-beta[i - 1], i))
        return tuple(sorted(order[:s]))
    return ()


def score_weights(est: np.ndarray, ref: np.ndarray) -> dict:
    """MSE and Pearson correlation between estimated and true per-row weights.

    PCC is reported as 0 (with a warning) when either side is constant.
    """
    est, ref = np.asarray(est, dtype=float), np.asarray(ref, dtype=float)
    mse = float(np.mean((est - ref) ** 2))
    if np.std(est) == 0.0 or np.std(ref) == 0.0:
        warnings.warn("degenerate weight vector: PCC undefined, reporting 0")
        pcc = 0.0
    else:
        pcc = float(np.corrcoef(est, ref)[0, 1])
    return {"mse": mse, "pcc": pcc}


def score_gap(delta_hat: float, truth: GroundTruth, source_acc: float) -> float:
    """Squared error of the estimated gap against the generator's truth."""
    if truth.true_target_accuracy is None:
        raise MissingTruth("ground truth has no target accuracy")
    delta_true = truth.true_target_accuracy - source_acc
    return float((delta_hat - delta_true) ** 2)


@dataclass(frozen=True, eq=False)
class Pair:
    """A labeled, predicted source and a predicted target with optional
    truth, prepared once for every method and sparsity run on them.
    ``discretized``, the raw pair by default, is what dlu reads and what
    ``joints``, the two joints sees-d and bbse run on, are built from. Each
    cached value lives on the pair, never longer, as each dataset's
    ``row_key`` lives on the dataset; each is a deterministic function of
    frozen fields, so threads that race on it can at most compute it
    twice."""

    source: TabularDataset
    target: TabularDataset
    truth: GroundTruth | None = None
    discretized: tuple[TabularDataset, TabularDataset] | None = None

    def __post_init__(self):
        if self.discretized is None:
            object.__setattr__(self, "discretized", (self.source, self.target))

    @cached_property
    def joints(self) -> tuple[EmpiricalPmf, EmpiricalPmf]:
        """sees-d's two joints; bbse reads their marginals."""
        return sample_joints(*self.discretized)

    @cached_property
    def accuracy(self) -> float:
        return source_accuracy(self.source)

    @cached_property
    def truth_weights(self) -> np.ndarray:
        return self.truth.true_weights.weights_for(self.source)


def run_method(method: str, pair: Pair, sparsity: int, eta: float = SeesCConfig.eta,
               weight_bound: float = SeesDConfig.weight_bound) -> ShiftReport:
    """Fit one method's weight on ``pair``, evaluate it once on the source
    the method read (kliep and dlu return those values from their fit),
    estimate the gap from those weights, and score them against the pair's
    truth, if any: weight MSE/PCC and, when the truth has a target
    accuracy, ``gap_sq_error``. The joints sees-d and bbse read, the
    source accuracy and the truth weights are the pair's, computed once.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    raw = method in ("sees-c", "kliep")
    source, target = (pair.source, pair.target) if raw else pair.discretized
    w = None
    if method == "sees-d":
        cfg = SeesDConfig(sparsity=sparsity, weight_bound=weight_bound)
        weight, _, diag = run_sees_d(*pair.joints, cfg)
    elif method == "sees-c":
        basis = default_basis(source.schema, reference=source)
        weight, diag = run_sees_c(source, target, basis, SeesCConfig(eta=eta))
    elif method == "bbse":
        weight, diag = run_bbse(*pair.joints)
    elif method == "kliep":
        weight, diag, w = run_kliep(source, target)
    else:
        weight, diag, w = run_dlu(source, target)
    if w is None:
        w = weight.weights_for(source)
    delta = estimate_gap(source, w)
    weight_metrics = None
    if pair.truth is not None:
        weight_metrics = score_weights(w, pair.truth_weights)
        if pair.truth.true_target_accuracy is not None:
            diag = {**diag, "gap_sq_error": score_gap(delta, pair.truth, pair.accuracy)}
    return ShiftReport(method=method, delta_hat=delta, source_accuracy=pair.accuracy,
                       selected_features=select_features(weight, sparsity),
                       diagnostics=diag, weight_metrics=weight_metrics)
