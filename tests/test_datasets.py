"""Tests for the synthetic data generators and their field definitions."""

import math
import os
import shutil
import tempfile

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lagtime import _native, datasets
from lagtime.datasets import (
    QUADWELL_MINIMA,
    SQRT_MODEL_TRANSITION_MATRIX,
    SdeSystem,
    Trajectory,
    benchmark_steps_per_second,
    bickley_flow,
    double_well_2d,
    double_well_system,
    euler_maruyama,
    jet_stream_function,
    jet_velocity,
    quadwell_1d,
    quadwell_drift,
    quadwell_potential,
    quadwell_system,
    read_trajectory,
    rossler,
    sample_sqrt_model,
    sqrt_backtransform,
    sqrt_transform,
    write_trajectory,
)
from lagtime.errors import DivergenceError, InvalidArgument


class TestTrajectory:
    def test_one_dimensional_frames_get_column_shape(self):
        traj = Trajectory(frames=np.arange(4.0), dt_effective=0.1)
        assert traj.frames.shape == (4, 1)
        assert len(traj) == 4

    def test_non_finite_frames_are_rejected(self):
        with pytest.raises(DivergenceError):
            Trajectory(frames=np.array([0.0, np.inf]), dt_effective=0.1)


class TestSdeSystem:
    def test_validation(self):
        drift = lambda t, x: -x
        with pytest.raises(InvalidArgument):
            SdeSystem(dimension=2, drift=drift, diffusion=np.eye(3), step=0.1)
        with pytest.raises(InvalidArgument):
            SdeSystem(dimension=1, drift=drift, diffusion=np.eye(1), step=0.0)
        with pytest.raises(InvalidArgument):
            SdeSystem(dimension=1, drift=drift, diffusion=np.eye(1), step=0.1,
                      n_substeps=0)


class TestEulerMaruyama:
    def test_noiseless_integration_is_the_euler_map(self):
        system = SdeSystem(
            dimension=1,
            drift=lambda t, x: -2.0 * x,
            diffusion=np.zeros((1, 1)),
            step=0.01,
            n_substeps=3,
        )
        traj = euler_maruyama(system, np.array([1.0]), n_frames=5, seed=0)
        # Every substep multiplies by (1 - 2 h); frames skip 3 substeps.
        factor = (1.0 - 0.02) ** 3
        expected = np.array([factor**k for k in range(5)])
        np.testing.assert_allclose(traj.frames.ravel(), expected, rtol=1e-12)
        assert traj.dt_effective == pytest.approx(0.03)

    def test_seeded_runs_are_bit_identical(self):
        system = double_well_system(n_substeps=5)
        a = euler_maruyama(system, np.zeros(2), n_frames=50, seed=123)
        b = euler_maruyama(system, np.zeros(2), n_frames=50, seed=123)
        c = euler_maruyama(system, np.zeros(2), n_frames=50, seed=124)
        np.testing.assert_array_equal(a.frames, b.frames)
        assert not np.array_equal(a.frames, c.frames)

    def test_first_frame_is_the_initial_condition(self):
        system = quadwell_system()
        traj = euler_maruyama(system, np.array([0.4]), n_frames=3, seed=0)
        assert traj.frames[0, 0] == 0.4

    def test_divergence_reports_the_step(self):
        system = SdeSystem(
            dimension=1,
            drift=lambda t, x: x**3,
            diffusion=np.zeros((1, 1)),
            step=1.0,
            n_substeps=1,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as excinfo:
                euler_maruyama(system, np.array([2.0]), n_frames=100, seed=0)
        assert excinfo.value.step >= 1

    def test_validation(self):
        system = quadwell_system()
        with pytest.raises(InvalidArgument):
            euler_maruyama(system, np.zeros(2), n_frames=10, seed=0)
        with pytest.raises(InvalidArgument):
            euler_maruyama(system, np.zeros(1), n_frames=0, seed=0)


class TestCompiledParity:
    """The C steppers must reproduce the reference integrator bit for bit."""

    def test_backend_is_c_with_a_compiler(self):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        assert benchmark_steps_per_second(n_steps=100)["backend"] == "c"

    def test_double_well_matches_reference(self):
        for seed, n_frames, n_substeps in [
            (7, 40, 10),
            (7, 2_001, 100),  # the benchmark's 2e5 steps
            (300, 2_001, 100),
            (7, 700, 100),  # 7e4 steps: a 65,536-step noise block ends mid-frame
        ]:
            reference = euler_maruyama(
                double_well_system(n_substeps=n_substeps), np.zeros(2),
                n_frames=n_frames, seed=seed,
            )
            fast = double_well_2d(seed=seed, n_frames=n_frames, n_substeps=n_substeps)
            np.testing.assert_array_equal(fast.frames, reference.frames)

    def test_quadwell_matches_reference(self):
        for seed, n_frames, h, n_substeps in [
            (3, 40, 1e-3, 10),
            (300, 100_000, 2e-3, 5),  # the benchmark's walk: eight noise blocks
        ]:
            reference = euler_maruyama(
                quadwell_system(h=h, n_substeps=n_substeps), np.array([0.0]),
                n_frames=n_frames, seed=seed,
            )
            fast = quadwell_1d(seed=seed, n_frames=n_frames, h=h, n_substeps=n_substeps)
            np.testing.assert_array_equal(fast.frames, reference.frames)

    def test_divergence_reports_the_same_step(self, backends):
        # The walk leaves the floating-point range at step 4, inside the
        # first frame of 100 steps.
        start = np.array([1e6, 0.0])
        for _ in backends:
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DivergenceError) as reference:
                    euler_maruyama(double_well_system(), start, n_frames=3, seed=0)
                with pytest.raises(DivergenceError) as fast:
                    datasets._integrate(double_well_system(), start, 3, 0,
                                        datasets._double_well_steps)
            assert fast.value.step == reference.value.step == 4

    def test_without_a_compiler_the_reference_path_runs(self, backends):
        runs = {backend: (quadwell_1d(seed=5, n_frames=300, n_substeps=3),
                          benchmark_steps_per_second(n_steps=100)["backend"])
                for backend in backends}
        fallback, backend = runs.pop("python")
        assert backend.startswith("python")
        for compiled, _ in runs.values():
            np.testing.assert_array_equal(fallback.frames, compiled.frames)

    def test_failed_build_falls_back(self, monkeypatch, tmp_path, backends):
        broken = tmp_path / "_kernels.c"
        broken.write_text("this is not C\n")
        monkeypatch.setattr(_native, "_KERNEL_SOURCE", broken)
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        assert benchmark_steps_per_second(n_steps=100)["backend"] == "python (C build failed)"
        assert list((tmp_path / "__pycache__").iterdir()) == []

    def test_read_only_install_never_loads_from_the_shared_temp_dir(
            self, monkeypatch, tmp_path, backends):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler on PATH")
        package = tmp_path / "package"
        package.mkdir()
        source = package / "_kernels.c"
        shutil.copy(_native._KERNEL_SOURCE, source)
        # A file where the cache directory belongs blocks the cache for any
        # user, root included.
        (package / "__pycache__").write_text("")
        monkeypatch.setattr(_native, "_KERNEL_SOURCE", source)
        shared = tmp_path / "shared"
        shared.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(shared))
        planted = shared / _native._cached_build().name
        planted.write_bytes(b"planted by another user")
        planted.chmod(0o666)
        assert benchmark_steps_per_second(n_steps=100)["backend"] == "c"
        assert planted.read_bytes() == b"planted by another user"
        assert list(shared.iterdir()) == [planted]  # the private build is gone


class TestQuadwellPotential:
    def test_minima_are_exact_drift_zeros(self):
        minima = np.array(QUADWELL_MINIMA)
        np.testing.assert_array_equal(quadwell_potential(minima), np.zeros(4))
        np.testing.assert_array_equal(quadwell_drift(minima), np.zeros(4))

    def test_drift_is_negative_potential_gradient(self):
        x = np.linspace(-2.5, 2.6, 200)
        eps = 1e-6
        numeric = -(quadwell_potential(x + eps) - quadwell_potential(x - eps)) / (2 * eps)
        np.testing.assert_allclose(quadwell_drift(x), numeric, atol=1e-5)

    def test_potential_is_positive_between_wells(self):
        probes = np.array([-1.3, 0.0, 1.5])
        assert np.all(quadwell_potential(probes) > 0)

    def test_long_trajectory_stays_in_the_well_region(self):
        traj = quadwell_1d(seed=0, n_frames=5000)
        x = traj.frames.ravel()
        assert x.min() > -3.5 and x.max() < 3.6
        # The walker leaves the central barrier and spends time in wells.
        assert np.mean(np.abs(x) > 0.4) > 0.5


def three_wave_velocity(t, points):
    """Reference: the jet velocity as the direct sum over the three waves,
    one cosine and one sine of ``k_i*x - rho_i*t`` per wave."""
    x, y = points[:, 0], points[:, 1]
    u0, L = datasets._JET_U0, datasets._JET_L
    sech2 = 1.0 / np.cosh(y / L) ** 2
    tanh = np.tanh(y / L)
    wave_cos = np.zeros_like(x)
    wave_ksin = np.zeros_like(x)
    for amp, k, rho in zip(datasets._JET_AMPLITUDES, datasets._JET_WAVENUMBERS,
                           datasets._JET_PHASE_RATES):
        wave_cos += amp * np.cos(k * x - rho * t)
        wave_ksin += amp * k * np.sin(k * x - rho * t)
    u = -datasets._JET_C3 + u0 * sech2 * (1.0 + 2.0 * tanh * wave_cos)
    v = -u0 * L * sech2 * wave_ksin
    return np.column_stack([u, v])


class TestJetField:
    def probe_points(self, seed=0, n=50):
        rng = np.random.default_rng(seed)
        pts = np.column_stack([rng.uniform(0, 20, n), rng.uniform(-2.5, 2.5, n)])
        times = rng.uniform(0, 40, 5)
        return pts, times

    def test_velocity_is_divergence_free(self):
        pts, times = self.probe_points()
        eps = 1e-5
        for t in times:
            dx = np.array([eps, 0.0])
            dy = np.array([0.0, eps])
            du_dx = (jet_velocity(t, pts + dx)[:, 0] - jet_velocity(t, pts - dx)[:, 0]) / (2 * eps)
            dv_dy = (jet_velocity(t, pts + dy)[:, 1] - jet_velocity(t, pts - dy)[:, 1]) / (2 * eps)
            np.testing.assert_allclose(du_dx + dv_dy, 0.0, atol=1e-6)

    def test_velocity_derives_from_the_stream_function(self):
        pts, times = self.probe_points(seed=1)
        eps = 1e-6
        for t in times:
            dx = np.array([eps, 0.0])
            dy = np.array([0.0, eps])
            dpsi_dx = (jet_stream_function(t, pts + dx) - jet_stream_function(t, pts - dx)) / (2 * eps)
            dpsi_dy = (jet_stream_function(t, pts + dy) - jet_stream_function(t, pts - dy)) / (2 * eps)
            vel = jet_velocity(t, pts)
            np.testing.assert_allclose(vel[:, 0], -dpsi_dy, atol=1e-6)
            np.testing.assert_allclose(vel[:, 1], dpsi_dx, atol=1e-6)

    def test_field_is_exactly_periodic_in_x(self):
        pts, times = self.probe_points(seed=2)
        shifted = pts + np.array([20.0, 0.0])
        for t in times:
            np.testing.assert_allclose(
                jet_stream_function(t, pts), jet_stream_function(t, shifted),
                rtol=0, atol=1e-12,
            )
            np.testing.assert_allclose(
                jet_velocity(t, pts), jet_velocity(t, shifted), rtol=0, atol=1e-12
            )

    # The id stays as earlier versions named this case, so runs compare by test id.
    @pytest.mark.parametrize("seed", [5], ids=["config0"])
    def test_velocity_matches_three_wave_sum(self, seed):
        rng = np.random.default_rng(seed)
        pts = np.column_stack([rng.uniform(-25, 45, 400), rng.uniform(-4, 4, 400)])
        for t in np.concatenate([[-40.0, 0.0, 40.0], rng.uniform(-40, 40, 20)]):
            np.testing.assert_allclose(
                jet_velocity(t, pts), three_wave_velocity(t, pts), rtol=0, atol=1e-13,
            )

    def test_wave_speed_conventions(self):
        c1, c2, c3 = datasets._JET_C1, datasets._JET_C2, datasets._JET_C3
        assert c3 == pytest.approx(0.461 * datasets._JET_U0)
        assert c2 == pytest.approx(0.205 * datasets._JET_U0)
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        k1, k2, k3 = datasets._JET_WAVENUMBERS
        assert (k1, k2, k3) == pytest.approx(tuple(2 * np.pi * n / 20.0 for n in (1, 2, 3)))
        assert c1 == pytest.approx(c3 + golden * (k2 / k1) * (c2 - c3))
        # In the co-moving frame the third wave does not move.
        assert datasets._JET_PHASE_RATES[2] == 0.0


class TestBickleyFlow:
    def test_forward_backward_round_trip(self):
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(0, 20, 30), rng.uniform(-2, 2, 30)])
        fwd = bickley_flow(pts, t0=0.0, t1=2.0, dt=1e-2)
        back = bickley_flow(fwd, t0=2.0, t1=0.0, dt=1e-2)
        # Compare on the cylinder: wrap the x-difference.
        dx = np.abs(back[:, 0] - pts[:, 0])
        dx = np.minimum(dx, 20.0 - dx)
        assert dx.max() < 1e-6
        np.testing.assert_allclose(back[:, 1], pts[:, 1], atol=1e-6)

    def test_horizontal_coordinate_is_wrapped(self):
        pts = np.array([[19.9, 0.0], [0.05, 0.5]])
        out = bickley_flow(pts, t0=0.0, t1=5.0, dt=1e-2)
        assert np.all(out[:, 0] >= 0.0) and np.all(out[:, 0] < 20.0)

    def test_zero_span_returns_input(self):
        pts = np.array([[1.0, 0.5]])
        np.testing.assert_array_equal(bickley_flow(pts, 1.0, 1.0), pts)

    def test_validation(self):
        pts = np.zeros((2, 2))
        with pytest.raises(InvalidArgument):
            bickley_flow(pts, 0.0, 1.0, dt=-0.1)
        with pytest.raises(InvalidArgument):
            bickley_flow(pts, 0.0, 0.0305, dt=1e-2)
        # An infinite count, and 1e25 steps, which a 64-bit count would wrap.
        for t1, dt in ((1e308, 1e-2), (1e22, 1e-3)):
            with pytest.raises(InvalidArgument, match=r"fewer than 2\*\*63"):
                bickley_flow(pts, 0.0, t1, dt=dt)
        with pytest.raises(InvalidArgument):
            bickley_flow(np.zeros((2, 3)), 0.0, 1.0)

    @pytest.mark.parametrize("t0, t1, dt", [
        (0.0, np.nan, 1e-2), (0.0, np.inf, 1e-2), (0.0, -np.inf, 1e-2),
        (np.nan, 1.0, 1e-2), (0.0, 1.0, np.nan), (0.0, 1.0, np.inf),
    ])
    def test_non_finite_times_are_rejected(self, t0, t1, dt):
        with pytest.raises(InvalidArgument, match="finite"):
            bickley_flow(np.zeros((2, 2)), t0, t1, dt)

    # The ids stay as earlier versions named these cases, so runs compare by test id.
    @pytest.mark.parametrize("t0, t1, dt", [
        pytest.param(0.0, 40.0, 0.02, id="0.0-40.0-0.02-config0"),
        pytest.param(0.0, 40.0, 0.01, id="0.0-40.0-0.01-config1"),
        # Stage offsets too large for the series.
        pytest.param(0.0, 4.0, 0.2, id="0.0-4.0-0.2-config2"),
        pytest.param(40.0, 0.0, 0.02, id="40.0-0.0-0.02-config3"),
    ])
    def test_compiled_kernel_matches_the_reference(self, backends, t0, t1, dt):
        # The C kernel takes sin, cos and tanh from libm, not NumPy, and
        # rotates them between stages and from one step to the next, calling
        # libm again every 64 steps and where an offset is too large for the
        # rotation's series. So it agrees to rounding, not bit for bit. Over
        # one time unit every particle agrees to 1e-12. Over 40,
        # the chaotic part of the flow amplifies rounding differences to
        # 1e-7..5e-6 for a few particles in a thousand, as it does between
        # any two libm-accurate implementations: the median and the 99th
        # percentile are bounded there, not the maximum.
        start = np.random.default_rng(11).uniform([0.0, -4.0], [20.0, 4.0], size=(2500, 2))
        ends = {t0 + math.copysign(1.0, t1 - t0): {1.0: 1e-12}, t1: {0.5: 1e-12, 0.99: 1e-8}}
        runs = {backend: [bickley_flow(start, t0, end, dt) for end in ends]
                for backend in backends}
        reference = runs.pop("python")
        for compiled in runs.values():
            for fast, slow, bounds in zip(compiled, reference, ends.values()):
                deviation = np.abs(fast - slow)
                wrapped = datasets._JET_PERIOD - deviation[:, 0]
                deviation[:, 0] = np.minimum(deviation[:, 0], wrapped)
                for quantile, bound in bounds.items():
                    assert np.quantile(deviation.max(axis=1), quantile) <= bound, quantile

    @pytest.mark.parametrize("n, dt", [(2500, 0.1), (0, 0.01), (1, 0.01), (3, 0.01)])
    def test_any_batch_matches_the_reference_over_one_time_unit(self, monkeypatch, backends,
                                                                 n, dt):
        # The C kernel first steps every particle by the rotation's series
        # alone, then steps again through libm each particle whose offsets
        # left the series' range. At dt 0.1 most particles but not all leave
        # it at the first step, so both passes step particles in one step.
        # Batches of 1 and 3 in one call end in the vectorized pass's scalar
        # remainder; 100 steps of 0.01 cross the resync at step 64.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        start = np.random.default_rng(11).uniform([0.0, -4.0], [20.0, 4.0], size=(n, 2))
        step = dt * jet_velocity(0.0, start)
        leaves = ((np.abs(datasets._JET_WAVENUMBERS[0] * step[:, 0]) > 0.05)
                  | (np.abs(step[:, 1] / datasets._JET_L) > 0.05))
        assert n < 100 or 0.2 < leaves.mean() < 0.9
        runs = {backend: bickley_flow(start, 0.0, 1.0, dt) for backend in backends}
        reference = runs.pop("python")
        for compiled in runs.values():
            deviation = np.abs(compiled - reference)
            deviation[:, 0] = np.minimum(deviation[:, 0], datasets._JET_PERIOD - deviation[:, 0])
            assert deviation.shape == (n, 2) and np.all(deviation <= 1e-12)

    def test_splits_at_multiples_of_64_steps_change_no_byte(self, backends):
        # The C kernel takes every particle's sin, cos and tanh from libm at a
        # call's first step and every 64th after it, and carries them
        # between, so calls of 64 steps each give the bytes of one call.
        # Steps of 1/64 keep every stage time exact either way.
        start = np.random.default_rng(4).uniform([0.0, -4.0], [20.0, 4.0], size=(300, 2))
        for _ in backends:
            split = start
            for t in range(4):
                split = bickley_flow(split, float(t), t + 1.0, 1 / 64)
            assert bickley_flow(start, 0.0, 4.0, 1 / 64).tobytes() == split.tobytes()

    @pytest.mark.parametrize("bad", [[np.nan, 0.0], [1e308, 0.0], [0.0, np.inf]])
    def test_divergence_reports_the_same_step(self, monkeypatch, backends, bad):
        # The bad particle sits in the second of two chunks. x = 1e308 does
        # not diverge: both paths wrap it onto the cylinder.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        start = np.column_stack([np.linspace(0.0, 19.0, 10), np.linspace(-2.0, 2.0, 10)])
        start[7] = bad
        outcomes = {}
        for backend in backends:
            try:
                outcomes[backend] = bickley_flow(start, 0.0, 1.0, 0.01)
            except DivergenceError as exc:
                outcomes[backend] = exc.step
        reference = outcomes.pop("python")
        for compiled in outcomes.values():
            if isinstance(reference, int):
                assert compiled == reference == 1
            else:
                np.testing.assert_allclose(compiled, reference, rtol=0.0, atol=1e-9)

    def test_output_does_not_depend_on_the_core_count(self, monkeypatch, backends):
        start = np.random.default_rng(5).uniform([0.0, -4.0], [20.0, 4.0], size=(101, 2))
        for _ in backends:
            runs = []
            for cores in ({0}, {0, 1}):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
                runs.append(bickley_flow(start, 0.0, 2.0, 0.01).tobytes())
            assert runs[0] == runs[1]

    def test_reference_path_is_the_numpy_rk4_loop(self, backends):
        # The loop bickley_flow ran before the C kernel existed, verbatim.
        start = np.random.default_rng(2).uniform([0.0, -4.0], [20.0, 4.0], size=(200, 2))
        X, t0, h = start.copy(), 0.0, 0.01
        t = t0
        for step in range(200):
            k1 = jet_velocity(t, X)
            k2 = jet_velocity(t + 0.5 * h, X + (0.5 * h) * k1)
            k3 = jet_velocity(t + 0.5 * h, X + (0.5 * h) * k2)
            k4 = jet_velocity(t + h, X + h * k3)
            X += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            X[:, 0] %= datasets._JET_PERIOD
            t = t0 + (step + 1) * h
        runs = {backend: bickley_flow(start, 0.0, 2.0, h) for backend in backends}
        assert runs["python"].tobytes() == X.tobytes()


class TestSqrtModel:
    def test_transform_round_trip_is_exact(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 2)) * np.array([5.0, 1.0])
        np.testing.assert_allclose(sqrt_backtransform(sqrt_transform(X)), X, atol=1e-12)
        np.testing.assert_allclose(sqrt_transform(sqrt_backtransform(X)), X, atol=1e-12)

    def test_transform_only_shifts_second_coordinate(self):
        X = np.array([[4.0, 1.0], [-9.0, 0.0]])
        out = sqrt_transform(X)
        np.testing.assert_allclose(out[:, 0], X[:, 0])
        np.testing.assert_allclose(out[:, 1], [3.0, 3.0])

    def test_sampler_is_reproducible_and_labeled(self):
        obs, hidden = sample_sqrt_model(500, seed=0)
        obs2, hidden2 = sample_sqrt_model(500, seed=0)
        np.testing.assert_array_equal(obs, obs2)
        np.testing.assert_array_equal(hidden, hidden2)
        assert obs.shape == (500, 2)
        assert set(np.unique(hidden)) <= {0, 1}

    def test_unwarped_emissions_separate_the_states(self):
        obs, hidden = sample_sqrt_model(2000, seed=1)
        pre = sqrt_backtransform(obs)
        # State 0 sits at y = +1, state 1 at y = -1, both with tiny y-spread.
        sign_guess = (pre[:, 1] < 0).astype(int)
        assert np.mean(sign_guess == hidden) > 0.999

    def test_hidden_chain_matches_its_transition_matrix(self):
        _, hidden = sample_sqrt_model(100_000, seed=2)
        from lagtime.markov import count_transitions, msm_mle

        est = msm_mle(count_transitions(hidden, lag=1))
        np.testing.assert_allclose(
            est.transition_matrix, SQRT_MODEL_TRANSITION_MATRIX, atol=0.01
        )

    def test_frame_count_validation(self):
        with pytest.raises(InvalidArgument):
            sample_sqrt_model(0, seed=0)


class TestRossler:
    def test_frame_count_and_initial_state(self):
        traj = rossler(t1=1.0, dt=1e-3)
        assert traj.frames.shape == (1001, 3)
        np.testing.assert_allclose(traj.frames[0], [0.0, -6.78, 0.02])

    def test_matches_adaptive_reference_integration(self):
        def rhs(t, state):
            x1, x2, x3 = state
            return [-x2 - x3, x1 + 0.1 * x2, 0.1 + x3 * (x1 - 14.0)]

        traj = rossler(t1=10.0, dt=1e-3)
        ref = solve_ivp(
            rhs, (0.0, 10.0), [0.0, -6.78, 0.02], rtol=1e-11, atol=1e-11,
            dense_output=True,
        )
        np.testing.assert_allclose(traj.frames[-1], ref.sol(10.0), atol=1e-5)

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            rossler(t1=0.0)
        with pytest.raises(InvalidArgument):
            rossler(dt=0.0)
        with pytest.raises(InvalidArgument):
            rossler(x0=(1.0, 2.0))
        # More frames than an address space holds, so nothing is allocated.
        for t1, dt in ((1e300, 1e-3), (1e20, 1e-3), (1.0, 5e-324)):
            with pytest.raises(InvalidArgument, match=r"t1 / dt"):
                rossler(t1=t1, dt=dt)

    @pytest.mark.parametrize("arguments", [
        {"dt": np.nan}, {"dt": np.inf}, {"t1": np.nan}, {"t1": np.inf}, {"t1": -np.inf},
        {"x0": (0.0, np.nan, 0.02)}, {"x0": (np.inf, -6.78, 0.02)},
    ])
    def test_non_finite_arguments_are_rejected(self, arguments):
        with pytest.raises(InvalidArgument, match="finite"):
            rossler(**arguments)

    def test_compiled_steps_match_the_reference(self, backends):
        # The default start, and one the trajectory benchmark draws.
        perturbed = np.array([0.0, -6.78, 0.02]) + 0.01 * np.random.default_rng(3).standard_normal(3)
        runs = {backend: [rossler(t1=20.0).frames, rossler(x0=perturbed, t1=20.0).frames]
                for backend in backends}
        reference = runs.pop("python")
        for compiled in runs.values():
            for fast, slow in zip(compiled, reference):
                assert fast.tobytes() == slow.tobytes()

    def test_divergence_reports_the_same_step(self, backends):
        steps = set()
        for _ in backends:
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(DivergenceError) as caught:
                    rossler(x0=(1e4, 0.0, 1.0), t1=1.0)
            steps.add(caught.value.step)
        assert steps == {7}


class TestDoubleWell2d:
    def test_shapes_and_determinism(self):
        a = double_well_2d(seed=5, n_frames=100, n_substeps=10)
        b = double_well_2d(seed=5, n_frames=100, n_substeps=10)
        np.testing.assert_array_equal(a.frames, b.frames)
        assert a.frames.shape == (100, 2)
        assert a.dt_effective == pytest.approx(0.01)

    def test_walker_leaves_the_saddle_and_stays_bounded(self):
        traj = double_well_2d(seed=6, n_frames=2000, n_substeps=10)
        x = traj.frames[:, 0]
        assert np.abs(x).max() > 0.8  # reaches a well bottom
        assert np.all(np.abs(traj.frames) < 5.0)


class TestBenchmark:
    def test_reports_throughput(self):
        result = benchmark_steps_per_second(n_steps=20_000, seed=0)
        assert result["steps_per_second"] > 0
        assert result["n_steps"] >= 20_000 - 100
        assert result["backend"] == "c" or result["backend"].startswith("python (")
        assert result["elapsed_seconds"] > 0


class TestTrajectoryIO:
    def test_round_trip_preserves_frames_and_metadata(self, tmp_path):
        traj = quadwell_1d(seed=1, n_frames=50)
        path = tmp_path / "traj.csv"
        write_trajectory(traj, path, system="quadwell_1d")
        loaded, meta = read_trajectory(path)
        np.testing.assert_allclose(loaded.frames, traj.frames, rtol=1e-15)
        assert meta["system"] == "quadwell_1d"
        assert meta["parameters"] == {}
        assert meta["seed"] == 1
        assert loaded.dt_effective == pytest.approx(traj.dt_effective)
        assert loaded.seed == 1

    def test_missing_sidecar_defaults(self, tmp_path):
        path = tmp_path / "bare.csv"
        np.savetxt(path, np.ones((3, 2)), delimiter=",")
        loaded, meta = read_trajectory(path)
        assert meta == {}
        assert loaded.dt_effective == 1.0
        assert loaded.frames.shape == (3, 2)

    def test_single_row_file_keeps_two_dimensions(self, tmp_path):
        traj = Trajectory(frames=np.array([[1.0, 2.0]]), dt_effective=0.5)
        path = tmp_path / "one.csv"
        write_trajectory(traj, path)
        loaded, _ = read_trajectory(path)
        assert loaded.frames.shape == (1, 2)
