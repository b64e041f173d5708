import sys

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


def make_rng(seed=0):
    return np.random.default_rng(seed)
