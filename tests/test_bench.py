import pytest

from shiftscope import bench
from shiftscope.bench import _suite_cells, evaluate_method, suite_fixture


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
            _, _, truth = build()
            assert len(truth.true_shift_set) == int(param) == sparsity

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
            evaluate_method("magic", None, None, None, 1)


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
        for _, seed, build, _, _ in items:
            assert build() is drawn[seed]
