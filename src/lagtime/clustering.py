"""K-means clustering for discretizing continuous state spaces.

Lloyd iterations with k-means++ seeding and multiple restarts. Used to turn
trajectories of continuous observations into symbol sequences for Markov
model counting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from ._native import _kernel
from .errors import InsufficientData, InvalidArgument
from .numerics import _as_frames, _checked, _integer, _over_cores, _rng

__all__ = ["ClusteringModel", "kmeans_fit", "kmeans_assign"]

# The C loop counts iterations in a 64-bit long; no fit runs this many.
_MAX_ITER = 2**62


@dataclass(frozen=True)
class ClusteringModel:
    """Fitted cluster centers plus fit diagnostics."""

    centers: NDArray
    inertia: float
    n_iterations: int
    converged: bool

    def assign(self, X: NDArray) -> NDArray:
        """Index of the nearest center for each row."""
        return kmeans_assign(self.centers, X)


def _squared_distances(X: NDArray, centers: NDArray) -> NDArray:
    """All pairwise squared Euclidean distances, shape (n, k)."""
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2, clipped against roundoff.
    sq = (
        np.einsum("ij,ij->i", X, X)[:, None]
        - 2.0 * (X @ centers.T)
        + np.einsum("ij,ij->i", centers, centers)[None, :]
    )
    return np.maximum(sq, 0.0)


def _kmeans_plus_plus(X: NDArray, k: int, rng: np.random.Generator) -> NDArray:
    """k-means++ seeding: spread initial centers by D^2 sampling."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    first = int(rng.integers(n))
    centers[0] = X[first]
    closest = _squared_distances(X, centers[:1]).ravel()
    for i in range(1, k):
        total = closest.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen centers; fill uniformly.
            idx = int(rng.integers(n))
        else:
            probs = closest / total
            idx = int(rng.choice(n, p=probs))
        centers[i] = X[idx]
        new_d = _squared_distances(X, centers[i : i + 1]).ravel()
        np.minimum(closest, new_d, out=closest)
    return centers


def _lloyd(X: NDArray, centers: NDArray, max_iter: int, tol: float
           ) -> tuple[NDArray, int, bool]:
    """Lloyd iterations from given centers; returns (centers, iters, converged).

    The loop of one restart in :func:`_kmeans_lloyd`, the reference of
    ``kmeans_lloyd`` in ``_kernels.c``, with every sum in the C loop's order:
    distances over the dimensions, the inertia and each center's points
    (``np.bincount``) over the rows.
    """
    (n, d), k = X.shape, centers.shape[0]
    prev_inertia = np.inf
    converged = False
    iterations = 0
    for iteration in range(1, max_iter + 1):
        iterations = iteration
        diff = X.T[:, :, None] - centers.T[:, None, :]
        d2 = np.add.accumulate(diff * diff, axis=0)[-1]
        labels = np.argmin(d2, axis=1)
        mind = d2[np.arange(n), labels]
        inertia = float(np.cumsum(mind)[-1])
        counts = np.bincount(labels, minlength=k)
        new_centers = np.stack([np.bincount(labels, weights=X[:, e], minlength=k)
                                for e in range(d)], axis=1)
        for j in range(k):
            if counts[j] == 0:
                # Re-seed an empty cluster at the point farthest from its center,
                # whose distance then counts as zero so two empties don't collide.
                far = int(np.argmax(mind))
                new_centers[j] = X[far]
                mind[far] = 0.0
            else:
                new_centers[j] /= counts[j]
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift <= tol or (np.isfinite(prev_inertia)
                            and prev_inertia - inertia <= tol * max(1.0, abs(prev_inertia))):
            converged = True
            break
        prev_inertia = inertia
    return centers, iterations, converged


@_kernel("kmeans_lloyd")
def _kmeans_lloyd(X, n, d, k, n_restarts, max_iter, tol, centers, info, scratch, work) -> None:
    """:func:`_lloyd` from each start in ``centers`` (n_restarts, k, d), in place;
    ``info`` (n_restarts, 2) gets each one's iteration count and convergence."""
    for start, row in zip(centers, info):
        start[:], row[0], row[1] = _lloyd(X, start, max_iter, tol)


def _inertia(X: NDArray, centers: NDArray) -> float:
    """Sum of squared distances from each point to its nearest center."""
    d2 = _squared_distances(X, centers)
    return float(d2[np.arange(X.shape[0]), np.argmin(d2, axis=1)].sum())


def kmeans_fit(X: NDArray, n_clusters: int, seed: Optional[int] = None,
               n_restarts: int = 5, max_iter: int = 300,
               tol: float = 1e-8) -> ClusteringModel:
    """Fit k-means with k-means++ seeding and several restarts.

    Each restart ``r`` uses its own generator seeded with ``seed + r`` (when
    a seed is given), so individual restarts are reproducible in isolation.
    The best run by inertia wins; ties go to the earliest restart.

    Every restart is seeded in NumPy, in restart order. The Lloyd loops then
    run one contiguous block of restarts per usable core, in C or in NumPy as
    :mod:`lagtime._native` chooses; both give the same bytes. Restarts are
    independent and the inertia that ranks them is taken in NumPy, so the
    result does not depend on the core count.

    Raises
    ------
    InvalidArgument
        If ``n_clusters`` or ``n_restarts`` is below 1, ``max_iter`` or
        ``tol`` is negative, any of them is not finite, or ``X`` has no
        columns.
    InsufficientData
        If ``X`` has fewer rows than ``n_clusters``.
    """
    X = _as_frames(X)
    _integer("n_clusters", n_clusters, 1)
    if X.shape[0] < n_clusters:
        raise InsufficientData(
            f"{X.shape[0]} points cannot support {n_clusters} clusters"
        )
    if X.shape[1] == 0:
        raise InvalidArgument("X has no columns to cluster on")
    _integer("n_restarts", n_restarts, 1)
    _integer("max_iter", max_iter, 0)
    _checked("tol", tol, 0)

    starts = np.stack([
        _kmeans_plus_plus(X, n_clusters, _rng(seed, restart))
        for restart in range(n_restarts)
    ])
    points = np.ascontiguousarray(X)
    (n, d), k = X.shape, n_clusters

    def lloyd(block: NDArray) -> NDArray:
        info = np.empty((len(block), 2), dtype=np.int64)
        _kmeans_lloyd(points, n, d, k, len(block), min(max_iter, _MAX_ITER), tol, block,
                      info, np.empty(n + k, dtype=np.int64), np.empty(n + k * d))
        return info

    info = np.concatenate(_over_cores(lloyd, starts))
    inertias = [_inertia(X, centers) for centers in starts]
    best = int(np.argmin(inertias))
    return ClusteringModel(centers=starts[best], inertia=inertias[best],
                           n_iterations=int(info[best, 0]), converged=bool(info[best, 1]))


def kmeans_assign(centers: NDArray, X: NDArray) -> NDArray:
    """Nearest-center index for each row of ``X``.

    Raises
    ------
    InvalidArgument
        If ``centers`` is not a matrix of at least one row of finite numbers
        as wide as ``X``.
    """
    centers = np.asarray(centers, dtype=np.float64)
    X = _as_frames(X)
    if centers.ndim != 2:
        raise InvalidArgument("centers must be 2-d")
    if centers.shape[0] == 0 or not np.all(np.isfinite(centers)):
        raise InvalidArgument("centers must be at least one row of finite numbers")
    if X.shape[1] != centers.shape[1]:
        raise InvalidArgument(
            f"data dimension {X.shape[1]} does not match centers {centers.shape[1]}"
        )
    return np.argmin(_squared_distances(X, centers), axis=1)
