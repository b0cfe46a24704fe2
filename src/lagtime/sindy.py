"""Sparse identification of governing equations from data.

Fits ``dX ~= Theta(X) @ Xi^T`` where ``Theta`` evaluates a feature library
and ``Xi`` is made sparse by sequentially thresholded least squares. Works in
continuous time (derivatives supplied or taken by finite differences) and in
discrete time (the targets are the next frames).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .basis import FeatureMap
from .errors import DivergenceError, InvalidArgument, UndefinedScore
from .numerics import _as_frames

__all__ = [
    "SINDyModel",
    "finite_difference",
    "stlsq",
    "sindy_fit",
    "sindy_predict",
    "sindy_simulate",
    "sindy_score",
]


def finite_difference(X: NDArray, dt: float) -> NDArray:
    """First-order finite differences along axis 0, at a scalar time step ``dt``.

    Forward differences everywhere, a backward difference for the last row,
    so the output has the same shape as the input.
    """
    X = _as_frames(X)
    if X.shape[0] < 2:
        raise InvalidArgument("need at least two samples to differentiate")
    if dt <= 0:
        raise InvalidArgument(f"time step must be positive, got {dt}")
    out = np.empty_like(X)
    out[:-1] = (X[1:] - X[:-1]) / dt
    out[-1] = (X[-1] - X[-2]) / dt
    return out


# Least-squares passes per target dimension in :func:`stlsq`.
_STLSQ_PASSES = 20


def stlsq(Theta: NDArray, targets: NDArray, threshold: float) -> tuple[NDArray, NDArray]:
    """Sequentially thresholded least squares, one pass per target dimension.

    Repeatedly solves least squares on the active feature set and drops
    coefficients below ``threshold`` in magnitude, for at most 20 passes;
    the active set never grows.

    Returns
    -------
    (xi, emptied)
        ``xi`` of shape (n_targets, n_features); ``emptied[i]`` is True when
        dimension ``i`` lost all its features to the threshold, in which case
        its row is all zeros rather than an error.
    """
    Theta = _as_frames(Theta, "library features")
    targets = _as_frames(targets, "targets")
    if Theta.shape[0] != targets.shape[0]:
        raise InvalidArgument("Theta and targets must have matching rows")
    if not (np.isfinite(threshold) and threshold >= 0):
        raise InvalidArgument(f"threshold must be finite and non-negative, got {threshold}")
    n_features = Theta.shape[1]
    n_targets = targets.shape[1]
    xi = np.zeros((n_targets, n_features))
    emptied = np.zeros(n_targets, dtype=bool)

    for dim in range(n_targets):
        active = np.ones(n_features, dtype=bool)
        coeffs = np.zeros(n_features)
        for _ in range(_STLSQ_PASSES):
            if not active.any():
                break
            sol = np.linalg.lstsq(Theta[:, active], targets[:, dim], rcond=None)[0]
            coeffs = np.zeros(n_features)
            coeffs[active] = sol
            new_active = np.abs(coeffs) >= threshold
            if new_active.sum() == active.sum() and np.array_equal(new_active, active):
                break
            active = new_active
        coeffs[~active] = 0.0
        if not active.any():
            emptied[dim] = True
            coeffs = np.zeros(n_features)
        xi[dim] = coeffs
    return xi, emptied


@dataclass
class SINDyModel:
    """Sparse dynamics model ``rhs(x) = xi @ library(x)``.

    In continuous time ``rhs`` approximates the time derivative; in discrete
    time it approximates the next frame.
    """

    xi: NDArray
    library: FeatureMap
    discrete_time: bool = False
    emptied_dimensions: NDArray = field(default=None)  # type: ignore[assignment]
    variable_names: Optional[Sequence[str]] = None

    def __post_init__(self):
        if self.emptied_dimensions is None:
            self.emptied_dimensions = np.zeros(self.xi.shape[0], dtype=bool)

    @property
    def n_terms(self) -> int:
        """Number of nonzero coefficients."""
        return int(np.count_nonzero(self.xi))

    def equations(self) -> list[str]:
        """Human-readable right-hand sides, one per state dimension, with
        coefficients to three decimals."""
        names = self.library.feature_names(self.variable_names)
        var = (
            list(self.variable_names)
            if self.variable_names is not None
            else [f"x{i}" for i in range(self.xi.shape[0])]
        )
        lines = []
        for dim in range(self.xi.shape[0]):
            terms = [
                f"{c:+.3f} {names[j]}" if names[j] != "1" else f"{c:+.3f}"
                for j, c in enumerate(self.xi[dim])
                if c != 0.0
            ]
            rhs = " ".join(terms) if terms else "0"
            lhs = f"{var[dim]}[k+1]" if self.discrete_time else f"d{var[dim]}/dt"
            lines.append(f"{lhs} = {rhs}")
        return lines


def sindy_fit(X: NDArray, t=None, library: Optional[FeatureMap] = None,
              threshold: float = 0.1, derivatives: Optional[NDArray] = None,
              discrete_time: bool = False,
              variable_names: Optional[Sequence[str]] = None) -> SINDyModel:
    """Identify sparse dynamics from one trajectory.

    Parameters
    ----------
    X : ndarray of shape (n, d)
        Frames in time order.
    t : float, optional
        Time step between frames, one scalar; required in continuous time
        unless explicit ``derivatives`` are given.
    library : FeatureMap
        Feature library; required.
    threshold : float, default 0.1
        Sparsification threshold for :func:`stlsq`.
    derivatives : ndarray, optional
        Exact derivatives matching ``X``; skips finite differencing.
    discrete_time : bool, default False
        Fit ``x[k+1] ~= xi @ library(x[k])`` instead of a derivative model.
    """
    X = _as_frames(X)
    if library is None:
        raise InvalidArgument("a feature library is required")
    if discrete_time:
        if X.shape[0] < 2:
            raise InvalidArgument("need at least two frames in discrete time")
        inputs, targets = X[:-1], X[1:]
    else:
        if derivatives is not None:
            targets = _as_frames(derivatives, "derivatives")
            if targets.shape != X.shape:
                raise InvalidArgument("derivatives must match the shape of X")
        else:
            if t is None:
                raise InvalidArgument("continuous time needs t or explicit derivatives")
            targets = finite_difference(X, t)
        inputs = X
    Theta = library(inputs)
    xi, emptied = stlsq(Theta, targets, threshold=threshold)
    return SINDyModel(xi=xi, library=library, discrete_time=discrete_time,
                      emptied_dimensions=emptied, variable_names=variable_names)


def sindy_predict(model: SINDyModel, X: NDArray) -> NDArray:
    """Model right-hand side evaluated at the given states."""
    return model.library(X) @ model.xi.T


def sindy_simulate(model: SINDyModel, x0: NDArray, t) -> NDArray:
    """Integrate the identified dynamics from an initial state.

    Continuous-time models use classical fourth-order Runge-Kutta steps
    between consecutive sample times; discrete-time models iterate the map.
    ``t`` is an array of sample times (continuous) or a frame count
    (discrete).

    Raises
    ------
    DivergenceError
        If the state leaves the finite floating-point range, reporting the
        first bad step.
    """
    x0 = np.asarray(x0, dtype=np.float64).ravel()

    def rhs(state):
        return (model.library(state[None, :]) @ model.xi.T)[0]

    if model.discrete_time:
        n = int(t)
        if n < 1:
            raise InvalidArgument("need at least one frame")
        out = np.empty((n, x0.size))
        out[0] = x0
        for k in range(1, n):
            out[k] = rhs(out[k - 1])
            if not np.all(np.isfinite(out[k])):
                raise DivergenceError(f"state diverged at frame {k}", step=k)
        return out

    t = np.asarray(t, dtype=np.float64).ravel()
    if t.size < 1:
        raise InvalidArgument("need at least one sample time")
    if np.any(np.diff(t) <= 0):
        raise InvalidArgument("sample times must be strictly increasing")
    out = np.empty((t.size, x0.size))
    out[0] = x0
    state = x0
    for k in range(1, t.size):
        h = t[k] - t[k - 1]
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(state)):
            raise DivergenceError(f"state diverged at step {k}", step=k)
        out[k] = state
    return out


def sindy_score(model: SINDyModel, X: NDArray, targets: NDArray) -> float:
    """Coefficient of determination of the model's right-hand side.

    R-squared is computed per dimension against the supplied targets
    (derivatives or next frames) and averaged.

    Raises
    ------
    UndefinedScore
        If some target dimension has zero variance.
    """
    targets = _as_frames(targets, "targets")
    pred = sindy_predict(model, X)
    if pred.shape != targets.shape:
        raise InvalidArgument("targets do not match the model's output shape")
    ss_tot = np.sum((targets - targets.mean(axis=0)) ** 2, axis=0)
    if np.any(ss_tot == 0):
        raise UndefinedScore("a target dimension has zero variance")
    ss_res = np.sum((targets - pred) ** 2, axis=0)
    return float(np.mean(1.0 - ss_res / ss_tot))
