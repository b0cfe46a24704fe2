"""Streaming estimation of instantaneous and time-lagged covariance matrices.

Data convention: rows are frames (paired observations), columns are
dimensions. Pairs are built from trajectories as ``(x_i, x_{i+lag})`` with a
sliding window of stride one; pairs never cross trajectory boundaries.

The accumulator keeps running means and centered second-moment sums, so
chunks may arrive in any order and partial accumulators can be merged; any
chunking of the same pairs agrees with the single-batch result to about
1e-12 relative error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import InsufficientData, InvalidArgument
from .numerics import _as_frames, _integer

__all__ = [
    "CovarianceModel",
    "CovarianceAccumulator",
    "lagged_pairs",
    "estimate_covariances",
    "covariances_from_pairs",
]


# Rows that partial_fit centres and multiplies at a time.
_BLOCK_ROWS = 8192


def lagged_pairs(trajectory: NDArray, lag: int) -> tuple[NDArray, NDArray]:
    """Split one trajectory into instantaneous/time-lagged halves.

    Parameters
    ----------
    trajectory : ndarray of shape (n, d) or (n,)
        Frames in time order. A one-dimensional array is treated as n frames
        of a scalar signal.
    lag : int
        Positive frame offset between the two halves.

    Returns
    -------
    (X, Y)
        Views with ``X[i] = trajectory[i]`` and ``Y[i] = trajectory[i + lag]``,
        each with ``n - lag`` rows.
    """
    traj = _as_frames(trajectory, "trajectory")
    _integer("lag", lag, 1)
    if traj.shape[0] <= lag:
        raise InsufficientData(
            f"trajectory of length {traj.shape[0]} yields no pairs at lag {lag}"
        )
    return traj[:-lag], traj[lag:]


@dataclass(frozen=True)
class CovarianceModel:
    """Covariance matrices of paired observations.

    Attributes
    ----------
    mean_0, mean_t : ndarray of shape (d,)
        Empirical means of the instantaneous and lagged halves. Stored even
        when ``mean_removed`` is False.
    c00, c0t, ctt : ndarray of shape (d, d)
        Instantaneous, forward time-lagged, and lagged-instantaneous
        covariances, with divisor ``n_pairs - 1``.
    n_pairs : int
    lag : int
    symmetrized : bool
        Whether the reversibility symmetrization was applied.
    mean_removed : bool
        Whether the matrices are central (True) or raw second moments (False).
    """

    mean_0: NDArray
    mean_t: NDArray
    c00: NDArray
    c0t: NDArray
    ctt: NDArray
    n_pairs: int
    lag: int = 1
    symmetrized: bool = False
    mean_removed: bool = True

    @property
    def dim(self) -> int:
        return self.c00.shape[0]


class CovarianceAccumulator:
    """Mergeable accumulator for paired covariance estimation.

    Feed chunks with :meth:`partial_fit`, combine independent accumulators
    with :meth:`merge`, and produce a :class:`CovarianceModel` with
    :meth:`finalize`. Uses the pairwise update for centered moments, which
    keeps chunked results within about 1e-12 relative of the batch result.
    """

    def __init__(self, dim: int, lag: int = 1):
        self.dim = _integer("dim", dim, 1)
        self.lag = _integer("lag", lag, 1)
        self.n = 0
        self.mean_x = np.zeros(dim)
        self.mean_y = np.zeros(dim)
        # Centered second-moment sums: sum (x - mean_x)(x - mean_x)^T etc.
        self.m_xx = np.zeros((dim, dim))
        self.m_xy = np.zeros((dim, dim))
        self.m_yy = np.zeros((dim, dim))

    def partial_fit(self, X: NDArray, Y: NDArray) -> "CovarianceAccumulator":
        """Absorb one chunk of paired rows."""
        X, Y = _as_frames(X, "X"), _as_frames(Y, "Y")
        if X.shape != Y.shape:
            raise InvalidArgument(f"chunk shapes differ: {X.shape} vs {Y.shape}")
        if X.shape[1] != self.dim:
            raise InvalidArgument(f"expected {self.dim} columns, got {X.shape[1]}")
        m = X.shape[0]
        if m == 0:
            return self
        other = CovarianceAccumulator(self.dim, self.lag)
        other.n = m
        other.mean_x = X.mean(axis=0)
        other.mean_y = Y.mean(axis=0)
        # Centred copies of one block of rows at a time, so a long batch
        # costs no full-length temporaries; a chunk of one block sums as
        # a single product.
        for start in range(0, m, _BLOCK_ROWS):
            Xc = X[start : start + _BLOCK_ROWS] - other.mean_x
            Yc = Y[start : start + _BLOCK_ROWS] - other.mean_y
            other.m_xx += Xc.T @ Xc
            other.m_xy += Xc.T @ Yc
            other.m_yy += Yc.T @ Yc
        self.merge(other)
        return self

    def merge(self, other: "CovarianceAccumulator") -> "CovarianceAccumulator":
        """Fold another accumulator into this one (in place)."""
        if other.dim != self.dim:
            raise InvalidArgument(f"dimension mismatch: {self.dim} vs {other.dim}")
        if other.n == 0:
            return self
        na, nb = self.n, other.n
        n = na + nb
        dx = other.mean_x - self.mean_x
        dy = other.mean_y - self.mean_y
        w = na * nb / n
        self.m_xx += other.m_xx + w * np.outer(dx, dx)
        self.m_xy += other.m_xy + w * np.outer(dx, dy)
        self.m_yy += other.m_yy + w * np.outer(dy, dy)
        self.mean_x += dx * (nb / n)
        self.mean_y += dy * (nb / n)
        self.n = n
        return self

    def finalize(self, symmetrize: bool = False, remove_mean: bool = True) -> CovarianceModel:
        """Produce covariance matrices from the accumulated moments.

        Parameters
        ----------
        symmetrize : bool, default False
            Enforce the reversibility symmetry: both halves share the pooled
            mean, ``c00 = ctt = (C00 + Ctt) / 2`` and ``c0t`` is symmetrized.
        remove_mean : bool, default True
            If False, raw (uncentered) second moments are returned; means are
            still reported in the model.

        Raises
        ------
        InsufficientData
            If fewer than two pairs were accumulated.
        InvalidArgument
            If ``symmetrize`` is asked for without ``remove_mean``.
        """
        if self.n < 2:
            raise InsufficientData(f"need at least 2 pairs, have {self.n}")
        denom = self.n - 1
        if symmetrize:
            if not remove_mean:
                raise InvalidArgument("symmetrized covariances are always mean-free")
            pooled = 0.5 * (self.mean_x + self.mean_y)
            dx = self.mean_x - pooled
            dy = self.mean_y - pooled
            # Second moments about the pooled mean.
            c00 = self.m_xx + self.n * np.outer(dx, dx)
            ctt = self.m_yy + self.n * np.outer(dy, dy)
            c0t = self.m_xy + self.n * np.outer(dx, dy)
            c00 = 0.5 * (c00 + ctt)
            ctt = c00
            c0t = 0.5 * (c0t + c0t.T)
            mean_0 = mean_t = pooled
        else:
            c00, c0t, ctt = self.m_xx, self.m_xy, self.m_yy
            if not remove_mean:
                c00 = c00 + self.n * np.outer(self.mean_x, self.mean_x)
                c0t = c0t + self.n * np.outer(self.mean_x, self.mean_y)
                ctt = ctt + self.n * np.outer(self.mean_y, self.mean_y)
            c00 = 0.5 * (c00 + c00.T)
            ctt = 0.5 * (ctt + ctt.T)
            mean_0, mean_t = self.mean_x, self.mean_y
        return CovarianceModel(
            mean_0=np.array(mean_0),
            mean_t=np.array(mean_t),
            c00=c00 / denom,
            c0t=c0t / denom,
            ctt=ctt / denom,
            n_pairs=self.n,
            lag=self.lag,
            symmetrized=symmetrize,
            mean_removed=remove_mean,
        )


def estimate_covariances(
    trajectories: Sequence[NDArray] | NDArray,
    lag: int,
    symmetrize: bool = False,
    chunk_size: Optional[int] = None,
) -> CovarianceModel:
    """Estimate mean-free covariances from one or more trajectories at a given lag.

    Pairs are taken with a sliding window of stride one within each
    trajectory; no pairs cross trajectory boundaries. Raises
    ``InsufficientData`` if no trajectory is given or none yields a pair.
    """
    if isinstance(trajectories, np.ndarray) and trajectories.ndim <= 2:
        trajectories = [trajectories]
    trajectories = [_as_frames(traj, "trajectory") for traj in trajectories]
    if not trajectories:
        raise InsufficientData("no trajectories given")
    if chunk_size is not None:
        _integer("chunk_size", chunk_size, 1)
    acc = CovarianceAccumulator(trajectories[0].shape[1], lag=lag)
    for traj in trajectories:
        if traj.shape[0] <= lag:  # too short to yield a single pair
            continue
        X, Y = lagged_pairs(traj, lag)
        if chunk_size is None:
            acc.partial_fit(X, Y)
        else:
            for start in range(0, X.shape[0], chunk_size):
                acc.partial_fit(X[start : start + chunk_size], Y[start : start + chunk_size])
    return acc.finalize(symmetrize=symmetrize)


def covariances_from_pairs(
    X: NDArray,
    Y: NDArray,
    symmetrize: bool = False,
    remove_mean: bool = True,
) -> CovarianceModel:
    """Estimate covariances directly from pre-built pairs.

    The model records ``lag = 1``: the pairs do not say how far apart they are.
    """
    X = _as_frames(X, "X")
    acc = CovarianceAccumulator(X.shape[1])
    acc.partial_fit(X, Y)
    return acc.finalize(symmetrize=symmetrize, remove_mean=remove_mean)
