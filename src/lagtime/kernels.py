"""Positive-definite kernels and blockwise Gram matrix assembly."""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .basis import FeatureMap
from .errors import InvalidArgument
from .numerics import _as_frames, _checked, _cores, _over_cores

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
# OpenBLAS multiplies a product of at most 100^3 multiply-adds with its
# small-matrix kernels, and a single row by gemv, each summing in another
# order than its blocked kernel. Every row block of a kernel expansion makes
# a product of more than twice that, or the whole product is one block.
_SMALL_PRODUCT = 2 * 100**3


class Kernel:
    """Base class for positive-definite kernels on R^d.

    A kernel supplies one method, ``_pairwise_into(A, B, out)``, which writes
    ``k(A[i], B[j])`` into ``out[i, j]``. :func:`gram_matrix` and
    :meth:`KernelSectionFeatures._times` call it through :func:`_assemble`
    from several threads at once, each with its own tile as ``out``; it is
    private because worker threads call no public function
    (``perfbench/spans.py`` wraps those and keeps one span stack).
    """

    def _pairwise_into(self, A: NDArray, B: NDArray, out: NDArray) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    """``k(x, y) = exp(-||x - y||^2 / (2 sigma^2))``."""

    sigma: float

    def __post_init__(self):
        _checked("sigma", self.sigma, 0, open_low=True)

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
    G = np.empty((A.shape[0], B.shape[0]))
    tiles = np.array(_tiles(range(A.shape[0]), B.shape[0], symmetric), dtype=np.int64)
    _over_cores(lambda share: _assemble(kernel, A, B, share, G, symmetric), tiles.reshape(-1, 2))
    return G


def _tiles(rows: range, n: int, upper: bool = False) -> list[tuple[int, int]]:
    """Corners ``(i, j)`` of the tiles of Gram-matrix rows ``rows`` (from a
    multiple of ``_BLOCK_ROWS``) and ``n`` columns; with ``upper``, only the
    tiles on or above the diagonal."""
    b = _BLOCK_ROWS
    return [(i, j) for i in range(rows.start, rows.stop, b) for j in range(0, n, b)
            if not (upper and j < i)]


def _assemble(kernel: Kernel, A: NDArray, B: NDArray, tiles, out: NDArray, symmetric: bool,
              top: int = 0, scratch: Optional[NDArray] = None) -> None:
    """Tiles ``(i, j)`` of ``gram_matrix(kernel, A, B)`` into ``out``, whose row 0 is row ``top``.

    The one tile grid of Gram matrices: tiles of ``_BLOCK_ROWS`` rows and
    columns, each evaluated alone, so a tile's bytes do not depend on which
    other tiles are asked for. Where ``symmetric`` (``B`` is ``A``) the matrix
    is exactly symmetric: a diagonal tile mirrors its own upper triangle, and
    a tile ``(j, i)`` below the diagonal is the transpose of tile ``(i, j)``.
    Without ``scratch``, ``out`` is the whole matrix and the tiles are those
    on or above the diagonal, each of which writes its mirror; with it, a
    tile below the diagonal is made from the tile across, evaluated in
    ``scratch`` (one tile's room).
    """
    b = _BLOCK_ROWS
    for i, j in tiles:
        tile = out[i - top:i - top + b, j:j + b]
        if symmetric and j < i:
            across = scratch[:tile.shape[1], :tile.shape[0]]
            kernel._pairwise_into(B[j:j + b], A[i:i + b], across)
            tile[...] = across.T
            continue
        kernel._pairwise_into(A[i:i + b], B[j:j + b], tile)
        if symmetric and j == i:
            _mirror_upper(tile)
        elif symmetric and scratch is None:
            out[j:j + b, i:i + b] = tile.T


def _mapped(shape: tuple) -> NDArray:
    """An empty float64 array on an anonymous mapping of its own.

    The mapping goes back to the system as soon as the array is freed. Memory
    from malloc would not: once a block of this size has been freed, malloc
    serves the next ones from its arenas and keeps them.
    """
    size = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * max(size, 1)), count=size).reshape(shape)


def _mirror_upper(block: NDArray) -> None:
    """Copy a diagonal block's upper triangle onto its lower one, row by row."""
    for r in range(1, len(block)):
        block[r, :r] = block[:r, r]


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

    def _times(self, X: NDArray, W: NDArray) -> NDArray:
        """``self(X) @ W`` in row blocks over cores, byte for byte.

        A block is one or more whole row bands of :func:`gram_matrix`'s tiles,
        enough that its product with ``W`` exceeds ``_SMALL_PRODUCT``; rows
        left over, too few for that, join the last block. Its sections are
        assembled by :func:`_assemble`, mirrored tiles included where ``X``
        is the anchor array itself, then centered by :func:`_center_gram` and
        multiplied by ``W`` into the block's rows of the result. So every byte
        is that of the full-matrix path, and no section matrix larger than a
        block is held: each worker fills one block scratch, which this caller
        allocates.
        """
        X = self._checked(X)
        Z, m, n, b = self.points, X.shape[0], self.points.shape[0], _BLOCK_ROWS
        symmetric = X is Z
        rows = b * max(1, -(-_SMALL_PRODUCT // (b * n * W.shape[1])))
        # Rows past the last whole block are a block of their own only if
        # their product is large enough.
        large_tail = (m % rows) * n * W.shape[1] > _SMALL_PRODUCT
        edges = np.append(np.arange(max(1, m // rows + int(large_tail))) * rows, m)
        out = np.empty((m, W.shape[1]), dtype=np.result_type(X, W))
        scratch = [(_mapped((np.diff(edges).max(), n)), _mapped((b, b)) if symmetric else None)
                   for _ in range(min(_cores(), len(edges) - 1))]

        def evaluate(share):
            G, tile = scratch.pop()
            for start, stop in zip(edges[share], edges[share + 1]):
                block = G[:stop - start]
                _assemble(self.kernel, X, Z, _tiles(range(start, stop), n), block, symmetric,
                          start, tile)
                if self.centered:
                    _center_gram(block, self._col_means, self._grand_mean)
                np.matmul(block, W, out=out[start:stop])

        _over_cores(evaluate, np.arange(len(edges) - 1))
        return out
