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
from .numerics import _as_frames, _over_cores, _rng

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
    ``kmeans_lloyd`` in ``_kernels.c``.
    """
    k = centers.shape[0]
    prev_inertia = np.inf
    converged = False
    iterations = 0
    for iteration in range(1, max_iter + 1):
        iterations = iteration
        d2 = _squared_distances(X, centers)
        labels = np.argmin(d2, axis=1)
        inertia = float(d2[np.arange(X.shape[0]), labels].sum())
        new_centers = np.empty_like(centers)
        counts = np.bincount(labels, minlength=k)
        for j in range(k):
            if counts[j] == 0:
                # Re-seed an empty cluster at the point farthest from its center.
                far = int(np.argmax(d2[np.arange(X.shape[0]), labels]))
                new_centers[j] = X[far]
                # Recompute that point's distance so two empties don't collide.
                d2[far] = 0.0
            else:
                new_centers[j] = X[labels == j].mean(axis=0)
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift <= tol:
            converged = True
            break
        if prev_inertia - inertia <= tol * max(1.0, abs(prev_inertia)) and np.isfinite(prev_inertia):
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
    :mod:`lagtime._native` chooses. Restarts are independent and the inertia
    is taken in NumPy for both, so the result does not depend on the core
    count.
    """
    X = _as_frames(X)
    if n_clusters < 1:
        raise InvalidArgument(f"n_clusters must be >= 1, got {n_clusters}")
    if X.shape[0] < n_clusters:
        raise InsufficientData(
            f"{X.shape[0]} points cannot support {n_clusters} clusters"
        )
    if X.shape[1] == 0:
        raise InvalidArgument("X has no columns to cluster on")
    if n_restarts < 1:
        raise InvalidArgument(f"n_restarts must be >= 1, got {n_restarts}")

    starts = np.stack([
        _kmeans_plus_plus(X, n_clusters, _rng(None if seed is None else seed + restart))
        for restart in range(n_restarts)
    ])
    points = np.ascontiguousarray(X)
    (n, d), k = X.shape, n_clusters

    def lloyd(block: NDArray) -> NDArray:
        info = np.empty((len(block), 2), dtype=np.int64)
        _kmeans_lloyd(points, n, d, k, len(block), min(max(max_iter, 0), _MAX_ITER), tol, block,
                      info, np.empty(n + 2 * k, dtype=np.int64), np.empty(2 * n + k * d))
        return info

    info = np.concatenate(_over_cores(lloyd, starts))
    best: Optional[tuple[NDArray, float, int, bool]] = None
    for centers, (iters, converged) in zip(starts, info):
        inertia = _inertia(X, centers)
        if best is None or inertia < best[1]:
            best = (centers, inertia, int(iters), bool(converged))
    assert best is not None
    centers, inertia, iters, converged = best
    return ClusteringModel(centers=centers, inertia=inertia,
                           n_iterations=iters, converged=converged)


def kmeans_assign(centers: NDArray, X: NDArray) -> NDArray:
    """Nearest-center index for each row of ``X``."""
    centers = np.asarray(centers, dtype=np.float64)
    X = _as_frames(X)
    if centers.ndim != 2:
        raise InvalidArgument("centers must be 2-d")
    if X.shape[1] != centers.shape[1]:
        raise InvalidArgument(
            f"data dimension {X.shape[1]} does not match centers {centers.shape[1]}"
        )
    return np.argmin(_squared_distances(X, centers), axis=1)
