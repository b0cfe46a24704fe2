"""Synthetic dynamical systems and trajectory generators.

Provides stochastic differential equation integration (Euler-Maruyama), the
two-dimensional double-well diffusion, an asymmetric one-dimensional
four-well random walk, the one fixed, periodically perturbed Bickley jet
used for coherent-set studies (its constants are module constants, copied
by ``_kernels.c``), a two-state hidden-Markov sampler with a square-root
warped output space, and a chaotic three-dimensional attractor integrator.

All generators are deterministic per seed. The double-well and four-well
generators, :func:`rossler` and :func:`bickley_flow` each call one kernel of
``_kernels.c`` through :mod:`lagtime._native`, which runs the Python reference
registered with it where no C compiler is found. Each reference keeps its
kernel's arithmetic operation for operation, so both give the same bytes: the
steppers' reference is the loop of :func:`euler_maruyama`, which the C
steppers follow in one noise-block driver, and the jet's is the NumPy
transcription of its C loop, which takes sin, cos and tanh from libm, as C
does, through :mod:`math`.
"""

from __future__ import annotations

import json
import math
import threading
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from ._native import _compiled_kernels, _kernel
from .errors import DivergenceError, InvalidArgument
from .markov import sample_markov_chain
from .numerics import _as_frames, _checked, _integer, _over_cores, _rng

__all__ = [
    "SdeSystem",
    "Trajectory",
    "euler_maruyama",
    "double_well_system",
    "double_well_2d",
    "quadwell_system",
    "quadwell_drift",
    "quadwell_potential",
    "quadwell_1d",
    "QUADWELL_MINIMA",
    "jet_stream_function",
    "jet_velocity",
    "bickley_flow",
    "sample_sqrt_model",
    "sqrt_transform",
    "sqrt_backtransform",
    "SQRT_MODEL_TRANSITION_MATRIX",
    "rossler",
    "benchmark_steps_per_second",
    "write_trajectory",
    "read_trajectory",
]

# Steps of pre-generated Gaussian noise per block. Both integration paths
# draw noise in these exact block shapes so their random streams agree.
_NOISE_BLOCK_STEPS = 65536


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SdeSystem:
    """Time-homogeneous SDE ``dx = drift(t, x) dt + diffusion dW``.

    ``drift`` maps ``(t, x)`` to a vector; ``diffusion`` is a constant square
    matrix; ``step`` is the integrator step; ``n_substeps`` integrator steps
    are taken per emitted frame.
    """

    dimension: int
    drift: Callable[[float, NDArray], NDArray]
    diffusion: NDArray
    step: float
    n_substeps: int = 1

    def __post_init__(self):
        sigma = np.asarray(self.diffusion, dtype=np.float64)
        if sigma.shape != (self.dimension, self.dimension):
            raise InvalidArgument(
                f"diffusion must be {self.dimension}x{self.dimension}, got {sigma.shape}"
            )
        object.__setattr__(self, "diffusion", sigma)
        _checked("step", self.step, 0, open_low=True)
        _integer("n_substeps", self.n_substeps, 1)


@dataclass(frozen=True)
class Trajectory:
    """Frames in time order plus the metadata needed to regenerate them."""

    frames: NDArray
    dt_effective: float
    seed: Optional[int] = None

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.float64)
        if frames.ndim == 1:
            frames = frames[:, None]
        if not np.all(np.isfinite(frames)):
            raise DivergenceError("trajectory contains non-finite frames")
        object.__setattr__(self, "frames", frames)

    def __len__(self) -> int:
        return self.frames.shape[0]


# ---------------------------------------------------------------------------
# Euler-Maruyama integration
# ---------------------------------------------------------------------------


def euler_maruyama(system: SdeSystem, x0: NDArray, n_frames: int,
                   seed: Optional[int] = None) -> Trajectory:
    """Integrate an SDE from time 0, emitting every ``n_substeps``-th state.

    The first frame is the initial condition; each subsequent frame advances
    ``n_substeps`` steps of ``x <- x + drift(t, x) h + diffusion sqrt(h) xi``
    with independent standard-normal ``xi``. Reproducible per seed.

    Raises
    ------
    DivergenceError
        If the state leaves the finite floating-point range; the error
        carries the index of the first bad integrator step.
    """
    noise_scale = system.diffusion * math.sqrt(system.step)
    t = 0.0

    def steps(x, noise, h, scale, n_sub, n_frames, out):
        nonlocal t
        bad, t = _euler_maruyama_steps(system.drift, noise_scale, t, x, noise, h, n_sub, out)
        return bad

    return _integrate(system, x0, n_frames, seed, steps)


def _euler_maruyama_steps(drift, noise_scale, t, x, noise, h, n_sub, out) -> tuple:
    """Step ``y <- y + drift(t, y) h + noise_scale @ xi`` from ``x`` at time ``t``,
    one row of ``noise`` as ``xi`` per step, into ``out`` as ``_integrate`` asks;
    returns that stepper's result and the time reached."""
    y, row = x, 0
    for frame in out:
        for _ in range(n_sub):
            y = y + drift(t, y) * h + noise_scale @ noise[row]
            t += h
            if not np.all(np.isfinite(y)):
                return row, t
            row += 1
        frame[:] = y
    x[:] = y
    return -1, t


def _integrate(system: SdeSystem, x0, n_frames: int, seed: Optional[int],
               steps: Callable) -> Trajectory:
    """Check the start, then run a stepper with noise drawn in blocks.

    ``steps(x, noise, h, scale, n_substeps, n_frames, out)``, the compiled
    steppers' prototype, steps ``x`` at isotropic noise ``scale``, one noise row
    a step, into each ``n_substeps``-th of the ``n_frames`` rows of ``out``; it
    returns -1, or the noise row of the first non-finite step.
    """
    x = np.array(x0, dtype=np.float64).ravel()
    if x.size != system.dimension:
        raise InvalidArgument(
            f"x0 has dimension {x.size}, system expects {system.dimension}"
        )
    _integer("n_frames", n_frames, 1)
    h, n_sub = system.step, system.n_substeps
    scale = system.diffusion[0, 0] * math.sqrt(h)
    rng = _rng(seed)
    frames = np.empty((n_frames, system.dimension))
    frames[0] = x
    frames_per_block = max(1, _NOISE_BLOCK_STEPS // n_sub)
    written = 1
    while written < n_frames:
        m = min(frames_per_block, n_frames - written)
        noise = rng.standard_normal((m * n_sub, system.dimension))
        bad = steps(x, noise, h, scale, n_sub, m, frames[written:written + m])
        if bad >= 0:
            step = (written - 1) * n_sub + bad + 1
            raise DivergenceError(f"state diverged at integrator step {step}", step=step)
        written += m
    return Trajectory(frames=frames, dt_effective=system.step * n_sub, seed=seed)


# ---------------------------------------------------------------------------
# Double well in two dimensions
# ---------------------------------------------------------------------------

_DOUBLE_WELL_SIGMA = 0.7


def _double_well_drift(t: float, x: NDArray) -> NDArray:
    return np.array([-4.0 * x[0] * (x[0] * x[0] - 1.0), -2.0 * x[1]])


@_kernel("double_well_steps")
def _double_well_steps(x, noise, h, scale, n_sub, n_frames, out) -> int:
    """:func:`_euler_maruyama_steps` on the double-well drift at isotropic noise ``scale``."""
    return _euler_maruyama_steps(_double_well_drift, scale * np.eye(2), 0.0, x, noise, h, n_sub,
                                 out)[0]


def double_well_system(n_substeps: int = 100) -> SdeSystem:
    """Overdamped diffusion in ``V(x) = (x1^2 - 1)^2 + x2^2``.

    Drift is the negative potential gradient ``(-4 x1 (x1^2 - 1), -2 x2)``
    with isotropic diffusion of strength 0.7, stepped at ``h = 1e-3``.
    """
    return SdeSystem(
        dimension=2,
        drift=_double_well_drift,
        diffusion=_DOUBLE_WELL_SIGMA * np.eye(2),
        step=1e-3,
        n_substeps=n_substeps,
    )


def double_well_2d(seed: Optional[int] = None, n_frames: int = 10000,
                   n_substeps: int = 100) -> Trajectory:
    """Sample the two-dimensional double-well diffusion.

    Starts at the saddle ``(0, 0)`` and steps at ``h = 1e-3``, in C where
    :mod:`lagtime._native` loads the kernels; the result is bit-identical to
    :func:`euler_maruyama` on :func:`double_well_system` with the same seed.
    """
    system = double_well_system(n_substeps=n_substeps)
    return _integrate(system, np.zeros(2), n_frames, seed, _double_well_steps)


# ---------------------------------------------------------------------------
# Asymmetric four-well random walk in one dimension
# ---------------------------------------------------------------------------

# The stationary points of the shipped potential. The potential is the
# squared root-product  V(x) = amp * [(x-m1)(x-m2)(x-m3)(x-m4)]^2,
# so every listed point is an exact zero of the drift and a minimum of V;
# the asymmetric spacing gives the three barriers different heights.
QUADWELL_MINIMA = (-2.0, -0.7, 0.8, 2.1)
_QUADWELL_AMP = 0.25
_QUADWELL_SIGMA = 1.0


def quadwell_potential(x) -> NDArray:
    """Four-well potential ``amp * prod_i (x - m_i)^2`` (documented default)."""
    x = np.asarray(x, dtype=np.float64)
    m1, m2, m3, m4 = QUADWELL_MINIMA
    p = (x - m1) * (x - m2) * (x - m3) * (x - m4)
    return _QUADWELL_AMP * p * p


def quadwell_drift(x) -> NDArray:
    """Negative gradient of :func:`quadwell_potential`, exact zeros at minima."""
    x = np.asarray(x, dtype=np.float64)
    m1, m2, m3, m4 = QUADWELL_MINIMA
    d1 = x - m1
    d2 = x - m2
    d3 = x - m3
    d4 = x - m4
    p = d1 * d2 * d3 * d4
    dp = d2 * d3 * d4 + d1 * d3 * d4 + d1 * d2 * d4 + d1 * d2 * d3
    return (-2.0 * _QUADWELL_AMP) * (p * dp)


def _quadwell_drift_tx(t: float, x: NDArray) -> NDArray:
    return quadwell_drift(x)


@_kernel("quadwell_steps")
def _quadwell_steps(x, noise, h, scale, n_sub, n_frames, out) -> int:
    """:func:`_euler_maruyama_steps` on the four-well drift at isotropic noise ``scale``."""
    return _euler_maruyama_steps(_quadwell_drift_tx, scale * np.eye(1), 0.0, x, noise, h, n_sub,
                                 out)[0]


def quadwell_system(h: float = 1e-3, n_substeps: int = 10) -> SdeSystem:
    """One-dimensional diffusion in the asymmetric four-well potential."""
    _checked("h", h, 0, open_low=True)
    return SdeSystem(
        dimension=1,
        drift=_quadwell_drift_tx,
        diffusion=np.array([[_QUADWELL_SIGMA]]),
        step=h,
        n_substeps=n_substeps,
    )


def quadwell_1d(seed: Optional[int] = None, n_frames: int = 100000,
                h: float = 1e-3, n_substeps: int = 10) -> Trajectory:
    """Sample the one-dimensional four-well diffusion, starting at ``x = 0``.

    The shipped potential is ``0.25 * [(x+2)(x+0.7)(x-0.8)(x-2.1)]^2`` with
    unit diffusion: four minima at :data:`QUADWELL_MINIMA`, slightly
    asymmetric barrier heights, and three slow exchange processes. Steps in
    C where :mod:`lagtime._native` loads the kernels, bit-identical to
    :func:`euler_maruyama` on :func:`quadwell_system`.
    """
    system = quadwell_system(h=h, n_substeps=n_substeps)
    return _integrate(system, [0.0], n_frames, seed, _quadwell_steps)


# ---------------------------------------------------------------------------
# Periodically perturbed planar jet (coherent-set benchmark flow)
# ---------------------------------------------------------------------------


# The one flow this module advects. The stream function, in a frame
# co-moving with the third wave, is
#
#     psi(x, y, t) = c3*y - U0*L*tanh(y/L)
#                    + U0*L*sech(y/L)^2 * sum_i A_i*cos(k_i*x - rho_i*t)
#
# with wavenumbers k_n = 2*pi*n/period, so the field is exactly periodic on
# the cylinder of circumference period; wave speeds c3 = 0.461*U0,
# c2 = 0.205*U0, c1 = c3 + ((sqrt(5)-1)/2)*(k2/k1)*(c2-c3); and phase rates
# rho_i = k_i*(c_i - c3), so the third wave is stationary. Units are Mm and
# days. _kernels.c copies these constants.
_JET_U0 = 5.4138893066379419
_JET_L = 1.77
_JET_AMPLITUDES = (0.0075, 0.15, 0.3)
_JET_PERIOD = 20.0
_JET_WAVENUMBERS = tuple(2.0 * math.pi * n / _JET_PERIOD for n in (1, 2, 3))
_JET_C3 = 0.461 * _JET_U0
_JET_C2 = 0.205 * _JET_U0
_JET_C1 = (_JET_C3 + ((math.sqrt(5.0) - 1.0) / 2.0)
           * (_JET_WAVENUMBERS[1] / _JET_WAVENUMBERS[0]) * (_JET_C2 - _JET_C3))
_JET_PHASE_RATES = tuple(k * (c - _JET_C3) for k, c in
                         zip(_JET_WAVENUMBERS, (_JET_C1, _JET_C2, _JET_C3)))


def jet_stream_function(t: float, points: NDArray) -> NDArray:
    """Evaluate the jet stream function at (n, 2) points."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    x = points[:, 0]
    y = points[:, 1]
    sech2 = 1.0 / np.cosh(y / _JET_L) ** 2
    wave = np.zeros_like(x)
    for amp, k, rho in zip(_JET_AMPLITUDES, _JET_WAVENUMBERS, _JET_PHASE_RATES):
        wave += amp * np.cos(k * x - rho * t)
    return _JET_C3 * y - _JET_U0 * _JET_L * np.tanh(y / _JET_L) + _JET_U0 * _JET_L * sech2 * wave


def _jet_stage(t: float) -> list:
    """Each wave's ``amp*cos/sin(rho*t)`` and ``amp*k*cos/sin(rho*t)``, as ``jet_stage_at``."""
    stage = []
    for amp, k, rho in zip(_JET_AMPLITUDES, _JET_WAVENUMBERS, _JET_PHASE_RATES):
        cos_rt, sin_rt = math.cos(rho * t), math.sin(rho * t)
        stage.append((amp * cos_rt, amp * sin_rt, amp * k * cos_rt, amp * k * sin_rt))
    return stage


def _jet_field(stage: list, cos1, sin1, tanh) -> tuple:
    """The velocity ``(u, v)`` where ``cos/sin(k1*x)`` are ``cos1``, ``sin1`` and
    ``tanh(y/L)`` is ``tanh``, as ``jet_field``: the harmonics by angle addition,
    each wave's phase by rotating them through ``stage``, ``sech^2 = 1 - tanh^2``."""
    cos2, sin2 = cos1 * cos1 - sin1 * sin1, sin1 * cos1 + cos1 * sin1
    harmonics = ((cos1, sin1), (cos2, sin2),
                 (cos2 * cos1 - sin2 * sin1, sin2 * cos1 + cos2 * sin1))
    terms = [(ac * c + as_ * s, kc * s - ks * c)
             for (ac, as_, kc, ks), (c, s) in zip(stage, harmonics)]
    wave_cos, wave_ksin = (first + second + third for first, second, third in zip(*terms))
    sech2 = 1.0 - tanh * tanh
    u = -_JET_C3 + _JET_U0 * sech2 * (1.0 + 2.0 * tanh * wave_cos)
    v = -_JET_U0 * _JET_L * sech2 * wave_ksin
    return u, v


def jet_velocity(t: float, points: NDArray) -> NDArray:
    """Velocity field ``(-d(psi)/dy, d(psi)/dx)`` at (n, 2) points.

    The wavenumbers are ``k1``, ``2*k1`` and ``3*k1``, so the field needs
    one cosine and one sine per point, of ``k1*x``, and ``tanh(y/L)``.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    phase = _JET_WAVENUMBERS[0] * points[:, 0]
    return np.column_stack(_jet_field(_jet_stage(t), np.cos(phase), np.sin(phase),
                                      np.tanh(points[:, 1] / _JET_L)))


def bickley_flow(x0_batch: NDArray, t0: float, t1: float, dt: float = 1e-2) -> NDArray:
    """Advect a batch of particles under the jet flow from ``t0`` to ``t1``.

    Fixed-step classical Runge-Kutta integration of the one non-autonomous
    velocity field :func:`jet_velocity` defines; the horizontal coordinate
    is wrapped into ``[0, 20)`` after every step, the vertical one is
    unconstrained.
    ``t1 < t0`` integrates backward in time. The time span must be an
    integer number of steps, fewer than 2**63.

    Steps one contiguous chunk of particles per usable core, in C where
    :mod:`lagtime._native` loads the kernels and otherwise in the NumPy
    transcription of its loop; the two give the same bytes. Each particle
    carries ``cos/sin(k1*x)`` and ``tanh(y/L)`` from one step to the next by
    a Taylor rotation, and takes them from libm only every 64th step, where
    a step's offset is too large for the rotation's series, and where the
    wrap moves ``x`` by more than a period. Every chunk resyncs at the same
    steps, so the result does not depend on the core count. Each call
    resyncs at its own first step, so an advection split into calls agrees
    with one call to rounding. A particle that is not finite after a step
    raises :class:`DivergenceError` carrying that step.
    """
    _checked("t0", t0)
    _checked("t1", t1)
    _checked("dt", dt, 0, open_low=True)
    X = np.atleast_2d(np.asarray(x0_batch, dtype=np.float64)).copy()
    if X.shape[1] != 2:
        raise InvalidArgument(f"particles must be (n, 2), got {X.shape}")
    span = t1 - t0
    steps = abs(span) / dt
    # The C kernel counts steps in a 64-bit long, which ctypes would wrap.
    if not steps < 2.0**63:
        raise InvalidArgument(
            f"time span {span} at dt={dt} needs {steps:g} steps; fewer than 2**63 fit"
        )
    n_steps = int(round(steps))
    if abs(n_steps * dt - abs(span)) > 1e-9:
        raise InvalidArgument(
            f"time span {span} is not an integer multiple of dt={dt}"
        )
    h = math.copysign(dt, span)
    # Every particle's arithmetic is independent of the others, so the result
    # does not depend on the chunks; the earliest bad step of any chunk is reported.
    steps = _over_cores(
        lambda chunk: _jet_rk4(chunk, len(chunk), t0, h, n_steps, np.empty(6 * len(chunk))), X)
    step = min((step for step in steps if step >= 0), default=-1)
    if step >= 0:
        raise DivergenceError(f"particle state diverged at integrator step {step}", step=step)
    return X


# JET_RESYNC and SMALL of _kernels.c, and the lock that steps one chunk at a time.
_JET_RESYNC, _JET_SMALL, _JET_REFERENCE_LOCK = 64, 0.05, threading.Lock()


def _jet_sync(x: NDArray, y: NDArray) -> list:
    """``cos/sin(k1*x)`` and ``tanh(y/L)``, as ``jet_sync``: from libm through
    ``math``, for NumPy's own differ from libm's in the last bit."""
    phase = _JET_WAVENUMBERS[0] * x
    phase[np.isinf(phase)] = np.nan  # where math raises, libm gives NaN
    return [np.fromiter(map(function, values.tolist()), np.float64, len(values))
            for function, values in ((math.cos, phase), (math.sin, phase),
                                     (math.tanh, y / _JET_L))]


def _jet_shift(exact: bool, x, y, c0, s0, th0, xs, ys) -> tuple:
    """``jet_shift``: the stage-1 values ``(c0, s0, th0)`` at ``(x, y)``
    carried to ``(xs, ys)``, and where an offset is beyond the series' range."""
    e, f = _JET_WAVENUMBERS[0] * (xs - x), (ys - y) / _JET_L
    e2, f2 = e * e, f * f
    se = e * (1.0 + e2 * (-1.0 / 6.0 + e2 * (1.0 / 120.0 + e2 * (-1.0 / 5040.0
              + e2 * (1.0 / 362880.0)))))
    ce = 1.0 + e2 * (-1.0 / 2.0 + e2 * (1.0 / 24.0 + e2 * (-1.0 / 720.0
                     + e2 * (1.0 / 40320.0))))
    tf = f * (1.0 + f2 * (-1.0 / 3.0 + f2 * (2.0 / 15.0 + f2 * (-17.0 / 315.0
              + f2 * (62.0 / 2835.0 + f2 * (-1382.0 / 155925.0))))))
    c, s, th = c0 * ce - s0 * se, s0 * ce + c0 * se, (th0 + tf) / (1.0 + th0 * tf)
    far_x, far_y = ~(np.abs(e) <= _JET_SMALL), ~(np.abs(f) <= _JET_SMALL)
    if exact:
        c_libm, s_libm, th_libm = _jet_sync(xs, ys)
        c, s = np.where(far_x, c_libm, c), np.where(far_x, s_libm, s)
        th = np.where(far_y, th_libm, th)
    return c, s, th, far_x | far_y


def _jet_step(exact: bool, stages: list, h: float, x, y, c, s, th) -> tuple:
    """``jet_step``: the new points before the wrap, their stage-1 values, and
    the particles with an offset beyond the series' range."""
    u1, v1 = _jet_field(stages[0], c, s, th)
    c1, s1, th1, far1 = _jet_shift(exact, x, y, c, s, th, x + (0.5 * h) * u1, y + (0.5 * h) * v1)
    u2, v2 = _jet_field(stages[1], c1, s1, th1)
    c1, s1, th1, far2 = _jet_shift(exact, x, y, c, s, th, x + (0.5 * h) * u2, y + (0.5 * h) * v2)
    u3, v3 = _jet_field(stages[1], c1, s1, th1)
    c1, s1, th1, far3 = _jet_shift(exact, x, y, c, s, th, x + h * u3, y + h * v3)
    u4, v4 = _jet_field(stages[2], c1, s1, th1)
    x1 = x + (h / 6.0) * (u1 + 2.0 * u2 + 2.0 * u3 + u4)
    y1 = y + (h / 6.0) * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
    c1, s1, th1, far4 = _jet_shift(exact, x, y, c, s, th, x1, y1)
    return x1, y1, c1, s1, th1, far1 | far2 | far3 | far4


@_kernel("jet_rk4_steps")
def _jet_rk4(X: NDArray, n: int, t0: float, h: float, n_steps: int, scratch) -> int:
    """Advance the ``n`` particles ``X`` in place by ``n_steps`` RK4 steps of ``h`` from ``t0``.

    ``jet_rk4_steps`` in NumPy, pass for pass. Returns -1, or the first step
    (from 1) after which a particle is not finite; it then stops.
    """
    x, y = X[:, 0], X[:, 1]
    # Each NumPy operation on a chunk is too short to overlap another chunk's,
    # and two chunks at once hand the GIL over at every one: slower than in turn.
    # An infinite particle's offsets are NaN, as in C, and its step reports it.
    with _JET_REFERENCE_LOCK, np.errstate(invalid="ignore"):
        for step in range(n_steps):
            t = t0 + step * h
            stages = [_jet_stage(t), _jet_stage(t + 0.5 * h), _jet_stage(t + h)]
            if step % _JET_RESYNC == 0:
                c, s, th = _jet_sync(x, y)
            xn, yn, c, s, th, far = _jet_step(False, stages, h, x, y, c, s, th)
            if far.any():
                again = _jet_step(True, stages, h, x[far], y[far], *_jet_sync(x[far], y[far]))
                for values, value in zip((xn, yn, c, s, th), again):
                    values[far] = value
            wrapped = xn % _JET_PERIOD
            if not (np.isfinite(wrapped).all() and np.isfinite(yn).all()):
                return step + 1
            x[:], y[:] = wrapped, yn
            moved = ~((xn > -_JET_PERIOD) & (xn < 2.0 * _JET_PERIOD))
            c[moved], s[moved], th[moved] = _jet_sync(x[moved], y[moved])
    return -1


# ---------------------------------------------------------------------------
# Two-state hidden Markov sampler with square-root warped outputs
# ---------------------------------------------------------------------------

SQRT_MODEL_TRANSITION_MATRIX = np.array([[0.95, 0.05], [0.05, 0.95]])


# Emission design: pre-transform the states sit at y = +1 and y = -1 with a
# broad x-spread and a thin y-spread, so a horizontal line separates them
# cleanly. The warp lifts y by sqrt(|x|), bending both blobs into nested
# wedges that interlock along x: the outer arms of the lower wedge rise above
# the tip of the upper wedge, so no line separates the warped states and
# linear methods must misclassify one region or the other.
_SQRT_MODEL_MEANS = np.array([[0.0, 1.0], [0.0, -1.0]])
_SQRT_MODEL_COVS = np.stack([
    np.diag([4.0, 0.01]),
    np.diag([4.0, 0.01]),
])


def sqrt_transform(X: NDArray) -> NDArray:
    """Warp ``(x, y) -> (x, y + sqrt(|x|))``."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = X.copy()
    out[:, 1] += np.sqrt(np.abs(out[:, 0]))
    return out


def sqrt_backtransform(X: NDArray) -> NDArray:
    """Exact inverse of :func:`sqrt_transform`: ``(x, y) -> (x, y - sqrt(|x|))``."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = X.copy()
    out[:, 1] -= np.sqrt(np.abs(out[:, 0]))
    return out


def sample_sqrt_model(n_frames: int, seed: Optional[int] = None):
    """Sample the two-state chain and emit warped two-dimensional Gaussians.

    The hidden chain follows the transition matrix
    ``[[0.95, 0.05], [0.05, 0.95]]`` from a uniform initial state. Each
    hidden state emits an anisotropic Gaussian (documented module defaults),
    and emissions are warped by :func:`sqrt_transform`, which hides the
    linear separability of the two states.

    Returns
    -------
    (observations, hidden)
        Warped observations of shape (n_frames, 2) and the integer hidden
        sequence of length n_frames.
    """
    _integer("n_frames", n_frames, 1)
    hidden = sample_markov_chain(
        SQRT_MODEL_TRANSITION_MATRIX, n_frames, seed=seed,
        initial_distribution=np.array([0.5, 0.5]),
    )
    rng = _rng(seed, 1)
    eps = rng.standard_normal((n_frames, 2))
    chol = np.linalg.cholesky(_SQRT_MODEL_COVS)
    pre = _SQRT_MODEL_MEANS[hidden] + np.einsum("tij,tj->ti", chol[hidden], eps)
    return sqrt_transform(pre), hidden


# ---------------------------------------------------------------------------
# Chaotic attractor in three dimensions
# ---------------------------------------------------------------------------


# The one Roessler attractor this module integrates; _kernels.c copies these.
_ROSSLER_A = 0.1
_ROSSLER_B = 0.1
_ROSSLER_C = 14.0


def rossler(x0: NDArray = (0.0, -6.78, 0.02), t1: float = 100.0,
            dt: float = 1e-3) -> Trajectory:
    """Integrate ``(dx1, dx2, dx3) = (-x2 - x3, x1 + a x2, b + x3 (x1 - c))``.

    The parameters are fixed at ``a = 0.1``, ``b = 0.1`` and ``c = 14``.
    Fixed-step classical Runge-Kutta; the first frame is the initial state.
    Steps in C where :mod:`lagtime._native` loads the kernels, bit-identical
    to the Python loop. A ``t1 / dt`` whose frames cannot be allocated raises
    :class:`InvalidArgument`.
    """
    _checked("dt", dt, 0, open_low=True)
    _checked("t1", t1, 0, open_low=True)
    start = np.asarray(x0, dtype=np.float64).ravel()
    if start.size != 3:
        raise InvalidArgument(f"x0 must have dimension 3, got {start.size}")
    if not np.all(np.isfinite(start)):
        raise InvalidArgument(f"x0 must be finite, got {start}")

    try:
        frames = np.empty((int(round(t1 / dt)) + 1, 3))
    except (OverflowError, ValueError, MemoryError):
        raise InvalidArgument(
            f"t1 / dt = {t1} / {dt} is more steps than fit in memory"
        ) from None
    frames[0] = start
    step = _rossler_steps(frames, len(frames) - 1, dt)
    if step >= 0:
        raise DivergenceError(f"state diverged at step {step}", step=step)
    return Trajectory(frames=frames, dt_effective=dt, seed=None)


@_kernel("rossler_steps")
def _rossler_steps(frames: NDArray, n_steps: int, dt: float) -> int:
    """Fill ``frames[1:n_steps + 1]`` by RK4 steps of ``dt`` from ``frames[0]``.

    Returns -1, or the first step whose state is not finite; it then stops.
    """
    a, b, c = _ROSSLER_A, _ROSSLER_B, _ROSSLER_C
    x1, x2, x3 = frames[0]
    half = 0.5 * dt
    sixth = dt / 6.0
    for k in range(1, n_steps + 1):
        a1 = -x2 - x3
        a2 = x1 + a * x2
        a3 = b + x3 * (x1 - c)
        y1, y2, y3 = x1 + half * a1, x2 + half * a2, x3 + half * a3
        b1 = -y2 - y3
        b2 = y1 + a * y2
        b3 = b + y3 * (y1 - c)
        y1, y2, y3 = x1 + half * b1, x2 + half * b2, x3 + half * b3
        c1 = -y2 - y3
        c2 = y1 + a * y2
        c3 = b + y3 * (y1 - c)
        y1, y2, y3 = x1 + dt * c1, x2 + dt * c2, x3 + dt * c3
        d1 = -y2 - y3
        d2 = y1 + a * y2
        d3 = b + y3 * (y1 - c)
        x1 += sixth * (a1 + 2.0 * (b1 + c1) + d1)
        x2 += sixth * (a2 + 2.0 * (b2 + c2) + d2)
        x3 += sixth * (a3 + 2.0 * (b3 + c3) + d3)
        if not (math.isfinite(x1) and math.isfinite(x2) and math.isfinite(x3)):
            return k
        frames[k, 0] = x1
        frames[k, 1] = x2
        frames[k, 2] = x3
    return -1


# ---------------------------------------------------------------------------
# Benchmark harness
# ---------------------------------------------------------------------------


def benchmark_steps_per_second(n_steps: int = 1_000_000,
                               seed: int = 0) -> dict:
    """Time the double-well generator end to end.

    Runs one warm-up call (so one-time compilation is excluded), then times
    a generation of ``n_steps`` integrator steps including noise generation.
    """
    _integer("n_steps", n_steps, 1)
    n_substeps = 100
    n_frames = max(2, n_steps // n_substeps + 1)
    actual_steps = (n_frames - 1) * n_substeps
    double_well_2d(seed=seed, n_frames=2, n_substeps=n_substeps)
    start = time.perf_counter()
    double_well_2d(seed=seed, n_frames=n_frames, n_substeps=n_substeps)
    elapsed = time.perf_counter() - start
    return {
        "system": "double_well_2d",
        "backend": _compiled_kernels()[1],
        "n_steps": actual_steps,
        "elapsed_seconds": elapsed,
        "steps_per_second": actual_steps / elapsed,
    }


# ---------------------------------------------------------------------------
# Trajectory persistence: CSV frames + JSON sidecar
# ---------------------------------------------------------------------------


def write_trajectory(trajectory: Trajectory, path, system: str = "") -> None:
    """Write frames as CSV (one frame per row) plus a ``.json`` sidecar.

    The sidecar records the system name, seed, effective time step, frame
    count and dimension, so the file pair is self-describing. Its
    ``"parameters"`` entry is always ``{}``; it stays so that the format
    does not change.
    """
    path = Path(path)
    np.savetxt(path, trajectory.frames, delimiter=",")
    sidecar = {
        "system": system,
        "parameters": {},
        "seed": trajectory.seed,
        "dt_effective": trajectory.dt_effective,
        "n_frames": int(trajectory.frames.shape[0]),
        "dimension": int(trajectory.frames.shape[1]),
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar, indent=2) + "\n"
    )


def read_trajectory(path) -> tuple:
    """Read a CSV-plus-sidecar trajectory written by :func:`write_trajectory`.

    Returns ``(trajectory, metadata)``; metadata is the sidecar dictionary,
    empty when there is no sidecar, in which case ``dt_effective`` is 1.0.
    An empty file reads as zero frames; a file or sidecar that does not parse,
    or a frame holding a NaN or infinity, raises :class:`InvalidArgument`
    naming the file (and the row).
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():
            # An empty file is left to the caller to reject, as too few frames.
            warnings.simplefilter("ignore", UserWarning)
            frames = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InvalidArgument(f"could not parse {path}: {exc}") from exc
    frames = _as_frames(frames, f"{path}: data")
    sidecar_path = path.with_suffix(path.suffix + ".json")
    try:
        meta = json.loads(sidecar_path.read_text()) if sidecar_path.exists() else {}
        if not isinstance(meta, dict):
            raise TypeError("expected a JSON object")
        dt = float(meta.get("dt_effective", 1.0))
    except (ValueError, TypeError) as exc:
        raise InvalidArgument(f"could not parse {sidecar_path}: {exc}") from exc
    return Trajectory(frames=frames, dt_effective=dt, seed=meta.get("seed")), meta
