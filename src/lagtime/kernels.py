"""Positive-definite kernels and blockwise Gram matrix assembly."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .basis import FeatureMap
from .errors import InvalidArgument
from .numerics import _as_frames, _over_cores

__all__ = [
    "Kernel",
    "GaussianKernel",
    "gram_matrix",
    "KernelSectionFeatures",
]

# Rows per Gram-matrix block; bounds the peak memory of intermediate products.
_BLOCK_ROWS = 512
# Rows of the Gaussian kernel's scratch for squared-norm sums.
_SCRATCH_ROWS = 64


class Kernel:
    """Base class for positive-definite kernels on R^d.

    A kernel supplies one method, ``_pairwise_into(A, B, out)``, which writes
    ``k(A[i], B[j])`` into ``out[i, j]``. Callers reach kernel values through
    :func:`gram_matrix`, which calls it from several threads at once, each
    with its own block of one matrix as ``out``; it is private because worker
    threads call no public function (``perfbench/spans.py`` wraps those and
    keeps one span stack).
    """

    def _pairwise_into(self, A: NDArray, B: NDArray, out: NDArray) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    """``k(x, y) = exp(-||x - y||^2 / (2 sigma^2))``."""

    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise InvalidArgument(f"sigma must be positive, got {self.sigma}")

    def _pairwise_into(self, A, B, out):
        # (|a|^2 + |b|^2) - 2 a.b, clipped, divided by -2 sigma^2, then exp,
        # in out. The norm sums pass through a scratch of a few rows, since
        # malloc keeps what a worker thread frees for that thread alone.
        np.matmul(A, B.T, out=out)
        out *= 2.0
        norms_a, norms_b = np.sum(A * A, axis=1), np.sum(B * B, axis=1)
        sums = np.empty((min(len(norms_a), _SCRATCH_ROWS), len(norms_b)))
        for r in range(0, len(norms_a), _SCRATCH_ROWS):
            rows = out[r:r + _SCRATCH_ROWS]
            np.add(norms_a[r:r + _SCRATCH_ROWS, None], norms_b, out=sums[:len(rows)])
            np.subtract(sums[:len(rows)], rows, out=rows)
        np.maximum(out, 0.0, out=out)
        np.negative(out, out=out)
        out /= 2.0 * self.sigma**2
        np.exp(out, out=out)


def gram_matrix(kernel: Kernel, A: NDArray, B: Optional[NDArray] = None) -> NDArray:
    """Assemble the Gram matrix ``G[i, j] = k(A[i], B[j])`` in blocks of 512 rows.

    When ``B`` is omitted (or is ``A`` itself) the result is made exactly
    symmetric by mirroring the upper triangle, so ``G == G.T`` holds
    bit-for-bit.

    The kernel writes each block straight into ``G``; the blocks run on one
    contiguous share per usable core (NumPy releases the GIL), and the worker
    of each upper block also writes its mirror, the one writer of that lower
    block. Each block is computed alone, so the result does not depend on
    the core count.

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
    m, n, b = A.shape[0], B.shape[0], _BLOCK_ROWS
    G = np.empty((m, n))
    blocks = np.array([(i, j) for i in range(0, m, b) for j in range(0, n, b)
                       if not (symmetric and j < i)], dtype=np.int64).reshape(-1, 2)

    def assemble(share):
        for i, j in share:
            kernel._pairwise_into(A[i:i + b], B[j:j + b], G[i:i + b, j:j + b])
            if symmetric and j > i:
                G[j:j + b, i:i + b] = G[i:i + b, j:j + b].T
            elif symmetric:  # a diagonal block mirrors its own upper triangle, row by row
                block = G[i:i + b, i:i + b]
                for r in range(1, len(block)):
                    block[r, :r] = block[:r, r]

    _over_cores(assemble, blocks)
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
