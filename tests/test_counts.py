"""Equivalence tests for the fits that run on distinct rows with counts.

``train_logistic`` (and dlu through it), sees-c and kliep read their data
only through its distinct rows, each weighted by its count. Every
count-weighted quantity here is checked against a per-row reference written
in this file, on data where rows repeat.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftscope import sees_c
from shiftscope.baselines import EPS, run_kliep
from shiftscope.cli import main
from shiftscope.data import (
    Column,
    FeatureSchema,
    TabularDataset,
    load_dataset,
    load_schema,
    save_dataset,
    save_schema,
)
from shiftscope.estimator import estimate_gap
from shiftscope.predictor import (
    ARMIJO,
    GRAD_TOL,
    ROUNDING,
    design_matrix,
    load_predictions,
    logistic_loss_grad,
    one_hot,
    train_logistic,
)
from shiftscope.sees_c import SeesCConfig, default_basis, run_sees_c, sees_c_objective
from shiftscope.tabulate import distinct_first

CONTINUOUS_VALUES = (-1.5, 0.25, 2.0)  # few values, so continuous rows repeat too
PROBS = ((0.5, 0.5), (0.9, 0.1), (0.2, 0.8))


@st.composite
def datasets(draw, n_labels=st.integers(2, 3)):
    """Small labeled datasets of discrete and (repeating) continuous columns."""
    L = draw(n_labels)
    cards = draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
    continuous = draw(st.integers(0, 1))
    n = draw(st.integers(L, 40))
    cols = [np.array(draw(st.lists(st.integers(1, c), min_size=n, max_size=n)), dtype=float)
            for c in cards]
    cols += [np.array(draw(st.lists(st.sampled_from(CONTINUOUS_VALUES), min_size=n,
                                    max_size=n)))
             for _ in range(continuous)]
    schema = FeatureSchema(
        columns=tuple(Column(f"x{j}", "discrete", c) for j, c in enumerate(cards, start=1))
        + tuple(Column(f"v{j}", "continuous") for j in range(continuous)),
        label_cardinality=L,
    )
    labels = np.array(draw(st.lists(st.integers(1, L), min_size=n, max_size=n)), dtype=int)
    return TabularDataset(schema=schema, rows=np.column_stack(cols), labels=labels)


def repeated_shuffled(ds: TabularDataset, k: int, seed: int) -> TabularDataset:
    """``ds`` with every row repeated ``k`` times, in a shuffled order."""
    order = np.random.default_rng(seed).permutation(ds.n * k)
    return TabularDataset(schema=ds.schema, rows=np.repeat(ds.rows, k, axis=0)[order],
                          labels=np.repeat(ds.labels, k)[order])


# ---------------------------------------------------------------------------
# Per-row references

def per_row_loss_grad(w_flat, x, y_idx, l2_lambda):
    """Mean cross-entropy and its gradient, accumulated one row at a time."""
    n, p = x.shape
    w = w_flat.reshape(p, -1)
    loss, grad = 0.0, np.zeros_like(w)
    for xi, yi in zip(x, y_idx):
        z = xi @ w
        prob = np.exp(z - z.max())
        prob /= prob.sum()
        loss -= np.log(prob[yi])
        prob[yi] -= 1.0
        grad += np.outer(xi, prob)
    reg = w.copy()
    reg[-1] = 0.0
    loss = loss / n + 0.5 * l2_lambda * float((reg * reg).sum())
    return loss, (grad / n + l2_lambda * reg).reshape(-1)


def per_row_train(ds, l2_lambda=1e-4, max_iters=100):
    """``train_logistic``'s damped Newton with the loss, gradient and Hessian
    summed over every row."""
    x = design_matrix(ds.schema, ds.rows)
    y_idx = ds.labels - 1
    n, p = x.shape
    L = ds.schema.n_labels
    reg = np.full((p, L), l2_lambda)
    reg[-1] = 0.0
    # every coordinate but the most frequent class's intercept
    free = np.arange(p * L) != p * L - L + np.argmax(np.bincount(y_idx, minlength=L))

    def hessian(w_flat):
        w = w_flat.reshape(p, L)
        h = np.zeros((p * L, p * L))
        for xi in x:
            z = xi @ w
            prob = np.exp(z - z.max())
            prob /= prob.sum()
            h += np.kron(np.outer(xi, xi), np.diag(prob) - np.outer(prob, prob))
        return h / n + np.diag(reg.reshape(-1))

    w = np.zeros(p * L)
    loss, grad = per_row_loss_grad(w, x, y_idx, l2_lambda)
    it = 0
    while np.linalg.norm(grad) > GRAD_TOL and it < max_iters:
        it += 1
        h = hessian(w)[np.ix_(free, free)]
        step = np.zeros(p * L)
        step[free] = -np.linalg.solve(h, grad[free])
        step[-L:] -= step[-L:].mean()
        slope = float(grad @ step)
        for t in 0.5 ** np.arange(50):
            loss_new, grad_new = per_row_loss_grad(w + t * step, x, y_idx, l2_lambda)
            if loss_new <= loss + ARMIJO * t * slope or abs(slope) <= ROUNDING * loss:
                w, loss, grad = w + t * step, loss_new, grad_new
                break
        else:
            break
    return w.reshape(p, L), it


def per_row_sees_c(a, phi, probs, groups, cfg):
    """sees-c's penalized objective and gradient with every target row
    entering on its own: ``phi`` is the (n, K) basis design of all rows."""
    n = probs.shape[0]
    inner = sum(probs[:, y] * (phi @ a[:, y]) for y in range(probs.shape[1]))
    floored = inner < sees_c.PROB_FLOOR
    safe = np.maximum(inner, sees_c.PROB_FLOOR)
    value = float(np.mean(np.log(safe)))
    coef = np.where(floored, 0.0, 1.0 / safe) / n
    grad = np.column_stack([phi.T @ (coef * probs[:, y]) for y in range(probs.shape[1])])
    for g in groups:
        norm = float(np.sqrt((a[g] ** 2).sum()))
        value -= cfg.eta * norm
        if norm > 0:
            grad[g] -= cfg.eta * a[g] / norm
    return value, grad


class PerRowProblem(sees_c._Problem):
    """sees-c's problem with its value and gradient taken over every target row."""

    def __init__(self, source, target, basis):
        super().__init__(source, target, basis)
        self.all_phi = basis.design(target.rows)
        self.all_probs = target.pred_probs

    def value_grad(self, a, cfg):
        return per_row_sees_c(a, self.all_phi, self.all_probs, self.groups, cfg)


def with_probs(ds: TabularDataset, seed: int) -> TabularDataset:
    """``ds`` with binary predictions whose probabilities come from a short
    list, so equal rows carry equal and different probabilities."""
    picks = np.random.default_rng(seed).integers(0, len(PROBS), ds.n)
    probs = np.array(PROBS)[picks]
    return ds.with_outputs(predictions=probs.argmax(axis=1) + 1, pred_probs=probs)


# ---------------------------------------------------------------------------
# Logistic regression

@settings(deadline=None, max_examples=60)
@given(datasets(), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-3, 0.5]))
def test_count_weighted_loss_grad_equals_per_row(ds, seed, l2_lambda):
    first, inverse = distinct_first([*ds.rows.T, ds.labels])
    counts = np.bincount(inverse).astype(float)
    x = design_matrix(ds.schema, ds.rows[first])
    w = np.random.default_rng(seed).standard_normal(x.shape[1] * ds.schema.n_labels)
    loss, grad = logistic_loss_grad(w, x, ds.labels[first] - 1, counts, l2_lambda)
    ref_loss, ref_grad = per_row_loss_grad(w, design_matrix(ds.schema, ds.rows),
                                           ds.labels - 1, l2_lambda)
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)


@st.composite
def generic_datasets(draw):
    """Small labeled datasets with one continuous column of generic values.

    Tiny all-discrete sets can hold exact symmetries (two classes with
    mirror-image rows, say) that a change of summation order keeps or breaks
    in rounding; a broken one sent gradient descent along a direction whose
    only curvature is the ridge, and its path changed. Newton steps scale
    each direction by its own curvature, and the regression test of that
    case lives in ``test_predictor.py``; generic values hold no such
    symmetry, so this test sees only what the counts change.
    """
    L = draw(st.integers(2, 3))
    cards = draw(st.lists(st.integers(2, 3), min_size=0, max_size=2))
    n = draw(st.integers(L, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = [rng.integers(1, c + 1, n).astype(float) for c in cards] + [rng.standard_normal(n)]
    schema = FeatureSchema(
        columns=tuple(Column(f"x{j}", "discrete", c) for j, c in enumerate(cards, start=1))
        + (Column("v", "continuous"),),
        label_cardinality=L,
    )
    return TabularDataset(schema=schema, rows=np.column_stack(cols),
                          labels=rng.integers(1, L + 1, n))


@settings(deadline=None, max_examples=25)
@given(generic_datasets(), st.integers(2, 4), st.integers(0, 2**32 - 1))
def test_train_logistic_ignores_row_order_and_repetition(ds, k, seed):
    model = train_logistic(ds)
    copy = train_logistic(repeated_shuffled(ds, k, seed))
    assert copy.iterations == model.iterations
    np.testing.assert_allclose(copy.coef, model.coef, rtol=0, atol=1e-10)


def test_train_logistic_takes_the_per_row_path(small_base):
    # 2000 rows of 3 binary features: at most 16 distinct (row, label) pairs
    model = train_logistic(small_base)
    coef, iterations = per_row_train(small_base)
    assert model.iterations == iterations
    np.testing.assert_allclose(model.coef, coef, rtol=0, atol=1e-10)


def test_design_is_the_one_hot_encoding_less_first_categories(small_base):
    full = one_hot(small_base.schema, small_base.rows)
    design = design_matrix(small_base.schema, small_base.rows)
    # binary columns: drop every other indicator, keep the second category
    assert np.array_equal(design[:, :-1], full[:, 1::2])
    assert (design[:, -1] == 1.0).all()


# ---------------------------------------------------------------------------
# sees-c and kliep

@settings(deadline=None, max_examples=40)
@given(datasets(n_labels=st.just(2)), st.integers(0, 2**32 - 1),
       st.sampled_from([0.0, 0.01]))
def test_sees_c_objective_equals_per_row(ds, seed, eta):
    scored = with_probs(ds, seed)
    basis = default_basis(ds.schema, reference=ds)
    cfg = SeesCConfig(eta=eta)
    a = np.random.default_rng(seed).uniform(0.0, 2.0, size=(basis.size, 2))
    value, grad = sees_c_objective(a, scored, scored, basis, cfg)
    ref_value, ref_grad = per_row_sees_c(a, basis.design(ds.rows),
                                         scored.pred_probs, basis.groups(), cfg)
    assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)


def kliep_pair():
    """A discrete/continuous pair with many repeated target rows."""
    schema = FeatureSchema(
        columns=(Column("g", "discrete", 3), Column("v", "continuous")),
        label_cardinality=2,
    )
    rng = np.random.default_rng(5)

    def draw(n, p):
        rows = np.column_stack([rng.choice([1, 2, 3], n, p=p),
                                rng.choice(CONTINUOUS_VALUES, n)])
        return TabularDataset(schema=schema, rows=rows, labels=rng.integers(1, 3, n))

    return draw(600, [0.5, 0.3, 0.2]), draw(400, [0.2, 0.3, 0.5])


def test_kliep_objective_equals_per_row():
    source, target = kliep_pair()
    weight, diag = run_kliep(source, target, centers=20)
    x = one_hot(target.schema, target.rows)
    per_row = [
        np.log(max(float(np.exp(-weight.gamma * ((xi - weight.centers) ** 2).sum(axis=1))
                          @ weight.alphas), EPS))
        for xi in x
    ]
    assert diag["objective"] == pytest.approx(float(np.mean(per_row)), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# External predictions: equal rows, different probabilities

def test_sees_c_with_external_predictions_matches_per_row(tmp_path, monkeypatch):
    schema = FeatureSchema(
        columns=(Column("a", "discrete", 2), Column("b", "discrete", 3)),
        label_cardinality=2,
    )
    rng = np.random.default_rng(11)
    for name, n, p in (("source", 500, [0.6, 0.4]), ("target", 400, [0.3, 0.7])):
        rows = np.column_stack([rng.choice([1, 2], n, p=p), rng.integers(1, 4, n)])
        ds = TabularDataset(schema=schema, rows=rows.astype(float),
                            labels=rng.integers(1, 3, n))
        save_dataset(ds, tmp_path / f"{name}.csv", include_labels=True)
        # at most 6 distinct rows, so every row repeats with differing probabilities
        probs = np.array(PROBS)[rng.integers(0, len(PROBS), n)]
        lines = ["pred,p_1,p_2"] + [f"{int(q.argmax()) + 1},{q[0]},{q[1]}" for q in probs]
        (tmp_path / f"{name}.preds.csv").write_text("\n".join(lines) + "\n")
    save_schema(schema, tmp_path / "schema.json")
    out = tmp_path / "report.json"
    code = main([
        "estimate",
        "--source-path", str(tmp_path / "source.csv"),
        "--target-path", str(tmp_path / "target.csv"),
        "--schema-path", str(tmp_path / "schema.json"),
        "--output-path", str(out),
        "--method", "sees-c",
        "--predictions-path",
        f"{tmp_path / 'source.preds.csv'},{tmp_path / 'target.preds.csv'}",
    ])
    assert code == 0
    report = json.loads(out.read_text())

    loaded = load_schema(tmp_path / "schema.json")
    source = load_predictions(load_dataset(tmp_path / "source.csv", loaded),
                              tmp_path / "source.preds.csv")
    target = load_predictions(load_dataset(tmp_path / "target.csv", loaded).without_labels(),
                              tmp_path / "target.preds.csv")
    basis = default_basis(source.schema, reference=source)
    weight, diag = run_sees_c(source, target, basis)
    monkeypatch.setattr(sees_c, "_Problem", PerRowProblem)
    ref_weight, ref_diag = run_sees_c(source, target, basis)

    assert diag["iterations"] == ref_diag["iterations"]
    np.testing.assert_allclose(weight.coefficients, ref_weight.coefficients,
                               rtol=1e-9, atol=1e-12)
    ref_delta = estimate_gap(source, ref_weight)
    assert report["delta_hat"] == pytest.approx(ref_delta, rel=1e-9, abs=1e-12)
    assert report["diagnostics"]["iterations"] == ref_diag["iterations"]
