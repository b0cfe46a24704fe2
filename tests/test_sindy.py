"""Tests for sparse identification of dynamics from trajectory data."""

import numpy as np
import pytest
from scipy.linalg import expm

from lagtime.basis import IdentityFeatures, MonomialFeatures
from lagtime.datasets import rossler
from lagtime.decomposition import dmd_fit
from lagtime.errors import DivergenceError, InvalidArgument, UndefinedScore
from lagtime.sindy import (
    SINDyModel,
    finite_difference,
    sindy_fit,
    sindy_predict,
    sindy_score,
    sindy_simulate,
    stlsq,
)


def rossler_rhs(frames, a=0.1, b=0.1, c=14.0):
    """Analytic right-hand side evaluated along a trajectory."""
    x1, x2, x3 = frames[:, 0], frames[:, 1], frames[:, 2]
    return np.column_stack([-x2 - x3, x1 + a * x2, b + x3 * (x1 - c)])


class TestFiniteDifference:
    def test_linear_ramp_is_exact_everywhere(self):
        t = np.linspace(0.0, 1.0, 11)
        X = np.column_stack([3.0 * t, -2.0 * t + 1.0])
        dX = finite_difference(X, 0.1)
        np.testing.assert_allclose(dX[:, 0], 3.0, atol=1e-12)
        np.testing.assert_allclose(dX[:, 1], -2.0, atol=1e-12)

    def test_one_dimensional_input_gets_column_shape(self):
        out = finite_difference(np.array([0.0, 1.0]), 1.0)
        assert out.shape == (2, 1)

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            finite_difference(np.array([1.0]), 0.1)
        with pytest.raises(InvalidArgument):
            finite_difference(np.array([1.0, 2.0]), 0.0)


class TestStlsq:
    def test_exact_sparse_recovery(self):
        rng = np.random.default_rng(1)
        Theta = rng.normal(size=(200, 6))
        xi_true = np.array([
            [1.5, 0.0, 0.0, -2.0, 0.0, 0.0],
            [0.0, 0.7, 0.0, 0.0, 0.0, 3.0],
        ])
        targets = Theta @ xi_true.T
        xi, emptied = stlsq(Theta, targets, threshold=0.1)
        np.testing.assert_allclose(xi, xi_true, atol=1e-10)
        assert not emptied.any()

    def test_small_coefficients_are_dropped_and_rest_refit(self):
        rng = np.random.default_rng(2)
        Theta = rng.normal(size=(500, 2))
        targets = Theta @ np.array([2.0, 0.01])
        xi, emptied = stlsq(Theta, targets, threshold=0.1)
        assert xi[0, 1] == 0.0
        # The surviving coefficient is refit on its own, staying near 2.
        assert abs(xi[0, 0] - 2.0) < 0.01
        assert not emptied[0]

    def test_everything_below_threshold_empties_the_dimension(self):
        rng = np.random.default_rng(3)
        Theta = rng.normal(size=(100, 3))
        targets = 1e-6 * rng.normal(size=100)
        xi, emptied = stlsq(Theta, targets, threshold=0.5)
        assert emptied[0]
        np.testing.assert_array_equal(xi, np.zeros((1, 3)))

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            stlsq(np.ones((5, 2)), np.ones(4), threshold=0.1)
        with pytest.raises(InvalidArgument):
            stlsq(np.ones((5, 2)), np.ones(5), threshold=-0.1)


class TestSINDyModelPresentation:
    def test_equations_render_named_terms(self):
        lib = MonomialFeatures(2, 2)
        xi = np.zeros((2, lib.dimension_out))
        xi[0, 1] = -1.0   # x0
        xi[0, 4] = 0.25   # x0 x1
        xi[1, 0] = 0.5    # constant
        model = SINDyModel(xi=xi, library=lib)
        eqs = model.equations()
        assert eqs[0] == "dx0/dt = -1.000 x0 +0.250 x0 x1"
        assert eqs[1] == "dx1/dt = +0.500"
        assert model.n_terms == 3

    def test_discrete_time_and_custom_names(self):
        lib = MonomialFeatures(1, 1)
        xi = np.array([[0.0, 0.9]])
        model = SINDyModel(
            xi=xi, library=lib, discrete_time=True, variable_names=["u"]
        )
        assert model.equations() == ["u[k+1] = +0.900 u"]

    def test_zero_row_renders_zero(self):
        lib = MonomialFeatures(1, 1)
        model = SINDyModel(xi=np.zeros((1, 2)), library=lib)
        assert model.equations() == ["dx0/dt = 0"]


class TestSindyFit:
    def test_linear_system_with_exact_derivatives(self):
        A = np.array([[-0.5, 1.0], [-1.0, -0.5]])
        rng = np.random.default_rng(5)
        X = rng.normal(size=(400, 2))
        model = sindy_fit(
            X, library=MonomialFeatures(2, 1), derivatives=X @ A.T, threshold=0.05
        )
        np.testing.assert_allclose(model.xi[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(model.xi[:, 1:], A, atol=1e-10)

    def test_discrete_time_linear_library_matches_dmd(self):
        rng = np.random.default_rng(6)
        A = np.array([[0.9, 0.1, 0.0], [0.0, 0.8, 0.05], [0.02, 0.0, 0.7]])
        X = rng.normal(size=(300, 3))
        traj = np.empty((301, 3))
        traj[0] = X[0]
        for k in range(300):
            traj[k + 1] = traj[k] @ A.T + 0.01 * rng.normal(size=3)
        model = sindy_fit(
            traj, library=IdentityFeatures(3), discrete_time=True, threshold=0.0
        )
        dmd = dmd_fit(traj[:-1], traj[1:])
        np.testing.assert_allclose(model.xi, dmd.K.T, atol=1e-10)

    def test_finite_difference_fallback_needs_time(self):
        X = np.random.default_rng(7).normal(size=(50, 2))
        with pytest.raises(InvalidArgument):
            sindy_fit(X, library=MonomialFeatures(2, 1))
        with pytest.raises(InvalidArgument):
            sindy_fit(X, library=None, t=0.1)

    def test_derivative_shape_must_match(self):
        X = np.zeros((10, 2))
        with pytest.raises(InvalidArgument):
            sindy_fit(X, library=MonomialFeatures(2, 1), derivatives=np.zeros((9, 2)))


    def test_non_finite_frame_is_named(self):
        X = np.random.default_rng(8).normal(size=(60, 2))
        X[33, 0] = np.nan
        with pytest.raises(InvalidArgument, match="X row 34 "):
            sindy_fit(X, t=0.1, library=MonomialFeatures(2, 2))


class TestRosslerRecovery:
    """Degree-2 monomials on the standard chaotic benchmark flow."""

    TRUE_TERMS = {
        (0, "x1"): -1.0,
        (0, "x2"): -1.0,
        (1, "x0"): 1.0,
        (1, "x1"): 0.1,
        (2, "1"): 0.1,
        (2, "x2"): -14.0,
        (2, "x0 x2"): 1.0,
    }

    def coefficient_table(self, model):
        names = model.library.feature_names()
        table = {}
        for dim in range(model.xi.shape[0]):
            for j, c in enumerate(model.xi[dim]):
                if c != 0.0:
                    table[(dim, names[j])] = c
        return table

    def test_exact_derivatives_recover_seven_terms(self):
        traj = rossler(t1=40.0, dt=1e-3)
        frames = traj.frames
        model = sindy_fit(
            frames,
            library=MonomialFeatures(3, 2),
            derivatives=rossler_rhs(frames),
            threshold=0.05,
        )
        table = self.coefficient_table(model)
        assert model.n_terms == 7
        assert set(table) == set(self.TRUE_TERMS)
        for key, value in self.TRUE_TERMS.items():
            assert table[key] == pytest.approx(value, abs=1e-2)

    def test_finite_differences_recover_seven_terms(self):
        traj = rossler(t1=40.0, dt=1e-3)
        model = sindy_fit(
            traj.frames, t=1e-3, library=MonomialFeatures(3, 2), threshold=0.05
        )
        table = self.coefficient_table(model)
        assert model.n_terms == 7
        assert set(table) == set(self.TRUE_TERMS)
        for key, value in self.TRUE_TERMS.items():
            assert table[key] == pytest.approx(value, abs=5e-2)


class TestSimulationAndScoring:
    def linear_model(self):
        A = np.array([[-0.2, 1.0], [-1.0, -0.2]])
        rng = np.random.default_rng(8)
        X = rng.normal(size=(200, 2))
        model = sindy_fit(
            X, library=MonomialFeatures(2, 1), derivatives=X @ A.T, threshold=0.01
        )
        return A, model

    def test_predict_evaluates_rhs(self):
        A, model = self.linear_model()
        probe = np.array([[1.0, 0.0], [0.3, -0.7]])
        np.testing.assert_allclose(sindy_predict(model, probe), probe @ A.T, atol=1e-9)

    def test_continuous_simulation_tracks_matrix_exponential(self):
        A, model = self.linear_model()
        t = np.linspace(0.0, 2.0, 201)
        x0 = np.array([1.0, -0.5])
        sim = sindy_simulate(model, x0, t)
        exact = np.stack([expm(A * ti) @ x0 for ti in t])
        np.testing.assert_allclose(sim, exact, atol=1e-6)

    def test_discrete_simulation_iterates_the_map(self):
        lib = IdentityFeatures(2)
        K = np.array([[0.9, 0.1], [0.0, 0.8]])
        model = SINDyModel(xi=K, library=lib, discrete_time=True)
        sim = sindy_simulate(model, np.array([1.0, 1.0]), 5)
        state = np.array([1.0, 1.0])
        for k in range(5):
            np.testing.assert_allclose(sim[k], state, atol=1e-12)
            state = K @ state

    def test_divergence_is_reported_with_step(self):
        lib = MonomialFeatures(1, 2)
        model = SINDyModel(
            xi=np.array([[0.0, 0.0, 2.0]]), library=lib, discrete_time=True
        )
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            sindy_simulate(model, np.array([10.0]), 50)

    def test_simulation_time_validation(self):
        _, model = self.linear_model()
        with pytest.raises(InvalidArgument):
            sindy_simulate(model, np.zeros(2), np.array([0.0, 0.0, 1.0]))
        with pytest.raises(InvalidArgument):
            sindy_simulate(model, np.zeros(2), np.array([]))
        lib = IdentityFeatures(1)
        discrete = SINDyModel(xi=np.eye(1), library=lib, discrete_time=True)
        with pytest.raises(InvalidArgument):
            sindy_simulate(discrete, np.zeros(1), 0)

    def test_score_is_one_for_perfect_model_and_lower_for_wrong(self):
        A, model = self.linear_model()
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 2))
        assert sindy_score(model, X, X @ A.T) == pytest.approx(1.0, abs=1e-9)
        noisy = X @ A.T + rng.normal(size=(100, 2))
        assert sindy_score(model, X, noisy) < 1.0

    def test_zero_variance_targets_are_undefined(self):
        _, model = self.linear_model()
        X = np.random.default_rng(10).normal(size=(50, 2))
        with pytest.raises(UndefinedScore):
            sindy_score(model, X, np.ones((50, 2)))

    def test_target_shape_mismatch(self):
        _, model = self.linear_model()
        with pytest.raises(InvalidArgument):
            sindy_score(model, np.zeros((10, 2)), np.zeros((9, 2)))
