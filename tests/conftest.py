import sys
from pathlib import Path

import numpy as np
import pytest

from shiftscope.predictor import predict, train_logistic
from shiftscope.synth import binary_base


@pytest.fixture(scope="session")
def small_base():
    """2000-row, 3-feature labeled base shared by cheap sample-mode tests."""
    return binary_base(3, 2000, 1234)


@pytest.fixture(scope="session")
def small_model(small_base):
    return train_logistic(small_base)


@pytest.fixture(scope="session")
def small_scored(small_base, small_model):
    return predict(small_model, small_base)


@pytest.fixture
def pmf_calls(monkeypatch):
    """The axes of every ``estimate_pmf`` call, through whichever shiftscope
    module makes it."""
    import shiftscope.tabulate

    calls, real = [], shiftscope.tabulate.estimate_pmf

    def counted(ds, axes):
        calls.append(axes)
        return real(ds, axes)

    for name, mod in list(sys.modules.items()):
        if name.startswith("shiftscope") and getattr(mod, "estimate_pmf", None) is real:
            monkeypatch.setattr(mod, "estimate_pmf", counted)
    return calls


@pytest.fixture
def far_apart_pair():
    """One continuous column: 200 labeled source rows at 1e3 + N(0, 1) and
    800 target rows at N(0, 1), so no source row is near a target row."""
    from shiftscope.data import Column, FeatureSchema, TabularDataset

    schema = FeatureSchema(columns=(Column("v", "continuous"),), label_cardinality=2)
    rng = np.random.default_rng(0)
    source = TabularDataset(schema=schema, rows=1e3 + rng.normal(size=(200, 1)),
                            labels=rng.integers(1, 3, 200))
    return source, TabularDataset(schema=schema, rows=rng.normal(size=(800, 1)))


@pytest.fixture(scope="session")
def benchmark_job(tmp_path_factory):
    """``make(workload, seed)``: the benchmark's workload of that name, its
    inputs written for that seed in a fresh directory."""
    root = str(Path(__file__).resolve().parent.parent)
    if root not in sys.path:  # perfbench.workloads writes the inputs
        sys.path.insert(0, root)
    from perfbench.workloads import WORKLOADS

    def make(workload, seed):
        job = WORKLOADS[workload]()
        job.prepare(tmp_path_factory.mktemp(workload), seed)
        return job

    return make


@pytest.fixture(scope="session")
def benchmark_pair(benchmark_job):
    """``make(workload, seed)``: the benchmark's estimate input of that name
    and seed as a scored (source, target) pair, read, fitted and predicted
    as ``estimate`` does without external predictions."""
    from shiftscope.data import load_dataset, load_schema

    def make(workload, seed):
        job = benchmark_job(workload, seed)
        schema = load_schema(job.inp.schema_path)
        source = load_dataset(job.inp.source_path, schema)
        model = train_logistic(source)
        target = load_dataset(job.inp.target_path, schema).without_labels()
        return predict(model, source), predict(model, target)

    return make


def make_rng(seed=0):
    return np.random.default_rng(seed)
