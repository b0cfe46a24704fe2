"""Positive-definite kernels and blockwise Gram matrix assembly."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .basis import FeatureMap
from .errors import InvalidArgument
from .numerics import _as_frames

__all__ = [
    "Kernel",
    "GaussianKernel",
    "gram_matrix",
    "KernelSectionFeatures",
]

# Rows per Gram-matrix block; bounds the peak memory of intermediate products.
_BLOCK_ROWS = 512


class Kernel:
    """Base class for positive-definite kernels on R^d."""

    def pairwise(self, A: NDArray, B: NDArray) -> NDArray:
        """Kernel matrix with entries ``k(A[i], B[j])``."""
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    """``k(x, y) = exp(-||x - y||^2 / (2 sigma^2))``."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise InvalidArgument(f"sigma must be positive, got {self.sigma}")

    def pairwise(self, A, B):
        sq = (
            np.sum(A * A, axis=1)[:, None]
            + np.sum(B * B, axis=1)[None, :]
            - 2.0 * (A @ B.T)
        )
        np.maximum(sq, 0.0, out=sq)
        return np.exp(-sq / (2.0 * self.sigma**2))


def gram_matrix(kernel: Kernel, A: NDArray, B: Optional[NDArray] = None) -> NDArray:
    """Assemble the Gram matrix ``G[i, j] = k(A[i], B[j])`` in blocks of 512 rows.

    When ``B`` is omitted (or is ``A`` itself) the result is made exactly
    symmetric by mirroring the upper triangle, so ``G == G.T`` holds
    bit-for-bit.

    Parameters
    ----------
    kernel : Kernel
    A : ndarray of shape (m, d)
    B : ndarray of shape (n, d), optional
    """
    A = _as_frames(A, "A")
    symmetric = B is None or B is A
    B = A if symmetric else _as_frames(B, "B")
    if A.shape[1] != B.shape[1]:
        raise InvalidArgument(f"point dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    m, n = A.shape[0], B.shape[0]
    G = np.empty((m, n))
    for i in range(0, m, _BLOCK_ROWS):
        hi = min(i + _BLOCK_ROWS, m)
        for j in range(0, n, _BLOCK_ROWS):
            hj = min(j + _BLOCK_ROWS, n)
            if symmetric and j < i:
                G[i:hi, j:hj] = G[j:hj, i:hi].T
            else:
                G[i:hi, j:hj] = kernel.pairwise(A[i:hi], B[j:hj])
                if symmetric and j == i:
                    block = G[i:hi, j:hj]
                    block[...] = np.triu(block) + np.triu(block, 1).T
    return G


def _gram_means(G: NDArray) -> tuple[NDArray, float]:
    """Column means and grand mean of a Gram matrix, which center it."""
    return G.mean(axis=0), float(G.mean())


def _center_gram(G: NDArray, col_means: NDArray, grand_mean: float) -> NDArray:
    """Center a Gram matrix in place by the anchors' :func:`_gram_means` and
    its own row means; every caller centers in this one operation order."""
    row_means = G.mean(axis=1, keepdims=True)
    G -= col_means
    G -= row_means
    G += grand_mean
    return G


class KernelSectionFeatures(FeatureMap):
    """Kernel sections anchored at a fixed point set: ``x -> [k(x, z_j)]_j``.

    The constructor builds uncentered sections. :meth:`_centered_on` builds
    sections centered with respect to the anchor set's empirical
    distribution, which matches Gram-matrix centering: evaluating on the
    anchors themselves reproduces the centered Gram matrix.
    """

    def __init__(self, kernel: Kernel, points: NDArray):
        points = _as_frames(points, "points")
        if points.shape[0] == 0:
            raise InvalidArgument("need at least one anchor point")
        self.kernel = kernel
        self.points = points
        self.centered = False
        self.dimension_in = points.shape[1]
        self.dimension_out = points.shape[0]

    @classmethod
    def _centered_on(cls, kernel: Kernel, points: NDArray, col_means: NDArray,
                     grand_mean: float) -> "KernelSectionFeatures":
        """Centered sections from the :func:`_gram_means` of the anchors'
        Gram matrix, which the caller has assembled already."""
        sections = cls(kernel, points)
        sections.centered = True
        sections._col_means = col_means
        sections._grand_mean = grand_mean
        return sections

    def _evaluate(self, X):
        G = gram_matrix(self.kernel, X, self.points)
        if self.centered:
            _center_gram(G, self._col_means, self._grand_mean)
        return G
