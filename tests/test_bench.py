import sys

import pytest

from shiftscope import bench
from shiftscope.bench import _suite_cells, evaluate_method, suite_fixture
from shiftscope.errors import ValidationError


class TestSuiteLayout:
    @pytest.mark.parametrize("suite,cells", [
        ("tradeoff", 5),      # one cell per sample size
        ("sparsity", 4),      # true shift size 0..3
        ("robustness", 3),    # label / covariate / joint
        ("sensitivity", 8),   # configured sparsity 0..7
    ])
    def test_cell_counts_at_one_seed(self, suite, cells):
        items = list(_suite_cells(suite, 1))
        assert len(items) == cells
        params = [item[0] for item in items]
        assert len(set(params)) == cells
        assert all(item[1] == 0 for item in items)  # the single seed

    def test_sparsity_cells_draw_their_own_shift_size(self):
        # build after the generator is spent, as run_suite does
        for param, _, build, _, sparsity in list(_suite_cells("sparsity", 1)):
            assert len(build().truth.true_shift_set) == int(param) == sparsity

    def test_seeds_multiply_cells(self):
        assert len(list(_suite_cells("robustness", 3))) == 9

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            list(_suite_cells("nope", 1))

    def test_fixture_is_cached(self):
        assert suite_fixture(6) is suite_fixture(6)


class TestEvaluateMethod:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            evaluate_method("magic", None, 1)


@pytest.mark.parametrize("trial", [
    lambda base, model: bench.joint_trial(base, model, (1, 2), 500, 0, amp=(1.5, 1.2)),
    lambda base, model: bench.label_trial(base, model, 500, 0),
], ids=["joint", "label"])
def test_a_trial_keys_its_base_once(monkeypatch, trial):
    """The boosted target marginal and both draws read one keying of the base."""
    import shiftscope.synth as synth

    calls = []
    real_cells = synth._cells

    def cells(*args, **kwargs):
        calls.append(args[1:])
        return real_cells(*args, **kwargs)

    base, model = suite_fixture(6)
    monkeypatch.setattr(synth, "_cells", cells)
    trial(base, model)
    assert len(calls) == 1


def test_a_joint_trial_refuses_features_out_of_order():
    """Each amplitude belongs to the feature in its place, and the cells are
    keyed in ascending feature order, so an unsorted set is refused."""
    base, model = suite_fixture(6)
    with pytest.raises(ValidationError, match="ascending"):
        bench.joint_trial(base, model, (2, 1), 500, 0, amp=(1.5, 1.2))


class TestSensitivityPairs:
    def test_cells_of_a_seed_share_one_drawn_pair(self, monkeypatch):
        drawn = {}
        trial = bench.joint_trial

        def recording_trial(base, model, shifted, n, seed, **kwargs):
            assert seed not in drawn  # one draw per seed
            drawn[seed] = trial(base, model, shifted, n, seed, **kwargs)
            return drawn[seed]

        monkeypatch.setattr(bench, "joint_trial", recording_trial)
        items = list(_suite_cells("sensitivity", 2))
        assert sorted(drawn) == [0, 1]
        pairs = {seed: build() for _, seed, build, _, _ in items}
        for _, seed, build, _, _ in items:
            pair = build()
            assert pair is pairs[seed]  # one Pair, so one set of cached joints
            assert all(a is b for a, b in zip((pair.source, pair.target, pair.truth),
                                              drawn[seed]))

    def test_one_seed_builds_the_joints_and_the_truth_weights_once(self, monkeypatch,
                                                                   tmp_path, pmf_calls):
        from shiftscope.weights import TableWeight

        drawn, truth_calls = [], []
        trial, real_weights = bench.joint_trial, TableWeight.weights_for

        def recording_trial(*args, **kwargs):
            drawn.append(trial(*args, **kwargs))
            return drawn[-1]

        def counted_weights(self, ds):
            if any(self is truth.true_weights and ds is source for source, _, truth in drawn):
                truth_calls.append(ds)
            return real_weights(self, ds)

        monkeypatch.setattr(bench, "joint_trial", recording_trial)
        monkeypatch.setattr(TableWeight, "weights_for", counted_weights)
        assert bench.run_suite("sensitivity", 1, tmp_path / "sensitivity.csv") == 8
        assert len(drawn) == 1
        assert len(pmf_calls) == 2  # sees-d's two joints, read at all eight sparsities
        assert len(truth_calls) == 1

    def test_the_pool_writes_the_same_bytes_as_one_thread(self, monkeypatch, tmp_path):
        # four threads switching often, so cells that share a Pair race on
        # its cached fields
        out = {}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for threads in ("1", "4"):
                monkeypatch.setenv("SHIFTSCOPE_THREADS", threads)
                path = tmp_path / f"sensitivity-{threads}.csv"
                assert bench.run_suite("sensitivity", 2, path) == 16
                out[threads] = path.read_bytes()
        finally:
            sys.setswitchinterval(interval)
        assert out["1"] == out["4"]
