"""Unit tests for the two bundled experiment drivers (small instances).

The full-scale comparisons live in the acceptance suite; these tests check
the mechanics at a size that runs in a couple of seconds.
"""

import numpy as np
import pytest

from lagtime.datasets import sample_sqrt_model
from lagtime.errors import InvalidArgument
from lagtime.experiments import (
    BICKLEY_METHODS,
    SQRT_METHODS,
    run_bickley_experiment,
    run_sqrt_experiment,
    sqrt_decision_feature,
)


class TestSqrtDecisionFeature:
    def test_every_method_yields_one_value_per_frame(self):
        obs, _ = sample_sqrt_model(300, seed=0)
        for method in SQRT_METHODS:
            feature = sqrt_decision_feature(method, obs)
            assert feature.shape == (300,)
            assert np.all(np.isfinite(feature))

    def test_backtransform_feature_tracks_the_hidden_state(self):
        obs, hidden = sample_sqrt_model(500, seed=1)
        feature = sqrt_decision_feature("backtransform", obs)
        signed = np.where(hidden == 0, 1.0, -1.0)
        corr = abs(np.corrcoef(feature, signed)[0, 1])
        assert corr > 0.95

    def test_unknown_method_is_rejected(self):
        obs, _ = sample_sqrt_model(100, seed=0)
        with pytest.raises(InvalidArgument):
            sqrt_decision_feature("divination", obs)


class TestRunSqrtExperiment:
    def test_result_structure_and_ranges(self):
        results = run_sqrt_experiment(
            ("tica", "backtransform"), n_frames=400, n_folds=4, seed=0
        )
        assert set(results["methods"]) == {"tica", "backtransform"}
        assert results["observations"].shape == (400, 2)
        assert results["hidden"].shape == (400,)
        assert results["wall_time_seconds"] > 0
        for entry in results["methods"].values():
            assert 0.5 <= entry["accuracy"] <= 1.0
            # Two orthonormal whitened components bound the VAMP-2 score by 2.
            assert 1.0 <= entry["vamp2_mean"] <= 2.0 + 1e-9
            assert entry["fold_scores"].shape == (4,)
            assert entry["decision_feature"].shape == (400,)
            assert set(np.unique(entry["assignments"])) <= {0, 1}

    def test_same_seed_reproduces_everything(self):
        a = run_sqrt_experiment(("tica",), n_frames=300, n_folds=3, seed=5)
        b = run_sqrt_experiment(("tica",), n_frames=300, n_folds=3, seed=5)
        assert a["methods"]["tica"]["vamp2_mean"] == b["methods"]["tica"]["vamp2_mean"]
        assert a["methods"]["tica"]["accuracy"] == b["methods"]["tica"]["accuracy"]
        np.testing.assert_array_equal(
            a["methods"]["tica"]["decision_feature"],
            b["methods"]["tica"]["decision_feature"],
        )

    def test_nonlinear_method_beats_linear_on_the_warped_data(self):
        results = run_sqrt_experiment(
            ("tica", "backtransform"), n_frames=1000, n_folds=5, seed=0
        )
        assert (
            results["methods"]["backtransform"]["accuracy"]
            > results["methods"]["tica"]["accuracy"]
        )

    def test_unknown_method_is_rejected(self):
        with pytest.raises(InvalidArgument):
            run_sqrt_experiment(("tea-leaves",), n_frames=200)


@pytest.fixture(scope="module")
def small_run():
    return run_bickley_experiment(
        ("vamp",), n_particles=200, n_sets=3, restarts=5,
        rounds=2, round_size=100, seed=0, t1=2.0,
    )


class TestRunBickleyExperiment:
    def test_parameters_are_recorded(self, small_run):
        params = small_run["parameters"]
        assert params["n_particles"] == 200
        assert params["n_sets"] == 3
        assert params["rounds"] == 2
        assert params["seed"] == 0
        assert "ansatz_seed" in params

    def test_per_method_statistics(self, small_run):
        entry = small_run["methods"]["vamp"]
        for stat in ("coherence", "vamp2", "kvad"):
            assert entry[stat]["values"].shape == (2,)
            assert entry[stat]["mean"] == pytest.approx(
                float(np.mean(entry[stat]["values"]))
            )
        assert 0.0 <= entry["coherence"]["mean"] <= 1.0
        # The operator fit on mean-removed covariances keeps all n_sets
        # informative components.
        assert entry["train_projection"].shape == (200, 3)
        assert entry["centers"].shape == (3, 3)

    def test_unknown_method_is_rejected(self):
        with pytest.raises(InvalidArgument):
            run_bickley_experiment(("scrying",), n_particles=50)

    @pytest.mark.parametrize("kwargs", [
        {"rounds": 0}, {"n_sets": 1}, {"n_particles": 2, "n_sets": 3},
        {"noise": -0.1}, {"noise": float("nan")}, {"noise": float("inf")},
        {"t1": float("nan")}, {"t1": float("inf")},
    ])
    def test_bad_parameters_are_rejected(self, kwargs):
        with pytest.raises(InvalidArgument):
            run_bickley_experiment(("vamp",), **{"n_particles": 50, **kwargs})

    def test_density_methods_project_to_informative_components(self):
        results = run_bickley_experiment(
            ("kvad", "kernel_cca"), n_particles=150, n_sets=3, restarts=3,
            rounds=1, round_size=80, seed=1, t1=1.0,
        )
        # The leading singular pair of a density-propagation model is the
        # trivial stationary one, leaving n_sets - 1 usable coordinates.
        assert results["methods"]["kvad"]["train_projection"].shape == (150, 2)
        assert results["methods"]["kernel_cca"]["train_projection"].shape == (150, 2)
