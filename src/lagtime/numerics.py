"""Dense symmetric linear algebra used by the spectral estimators.

Every estimator takes data in one layout: rows are frames and columns are
dimensions, and a one-dimensional array is the frames of one scalar signal.
``_as_frames`` applies that rule for all of them: it converts to float64,
turns a vector into a column, rejects any other number of dimensions and
names the first row holding a NaN or infinity. ``_checked`` is the rule
for every scalar parameter: a finite number within its caller's bounds, and
an integer for ``_integer``'s counts and seeds, or an ``InvalidArgument``
that names it. ``_over_cores`` is the one place that spreads work over the
usable cores, on threads, at the caller's BLAS thread counts.

All routines share one regularization convention: ``epsilon`` is an absolute
eigenvalue cutoff. Eigenvalues less than or equal to ``epsilon`` are discarded
(rank truncation); nothing is added to the diagonal. Estimators that prefer
Tikhonov-style shifts implement them locally on their own matrices.

Sorting is descending and stable: ties keep the order in which the underlying
decomposition produced them.
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateInput, InvalidArgument

__all__ = [
    "SpectralDecomposition",
    "WhiteningTransform",
    "sym_inverse_sqrt",
    "generalized_eig_sym",
    "truncated_svd",
]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with matching eigenvectors, sorted descending.

    Attributes
    ----------
    eigenvalues : ndarray of shape (k,)
        Sorted descending; by value for symmetric problems, by modulus where a
        routine documents modulus ordering.
    eigenvectors : ndarray of shape (n, k)
        Right eigenvectors, one column per eigenvalue.
    left_eigenvectors : ndarray of shape (n, k), optional
        Populated by routines that also compute the left system.
    """

    eigenvalues: NDArray
    eigenvectors: NDArray
    left_eigenvectors: Optional[NDArray] = None


@dataclass(frozen=True)
class WhiteningTransform:
    """Affine map ``x -> transform @ (x - mean)`` that whitens a covariance.

    ``transform`` has shape (rank, d); applying it to data distributed with
    covariance C yields unit covariance on the retained subspace.
    """

    transform: NDArray
    mean: NDArray
    rank: int

    def apply(self, X: NDArray) -> NDArray:
        """Whiten rows of ``X``."""
        X = np.asarray(X, dtype=np.float64)
        return (X - self.mean) @ self.transform.T


def _as_frames(X, name: str = "X") -> NDArray:
    """``X`` as a float64 matrix with rows as frames, checked to be finite."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if X.ndim != 2:
        raise InvalidArgument(f"{name} must be a matrix with rows as frames, got ndim {X.ndim}")
    # A finite sum proves every value finite without a mask the size of X;
    # the rows are searched only when it is not (NaN, infinity or overflow).
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(X.sum())
    if not finite:
        bad = np.flatnonzero(~np.isfinite(X).all(axis=1))
        if bad.size:
            raise InvalidArgument(
                f"{name} row {bad[0] + 1} (counting from 1) holds a non-finite value"
            )
    return X


def _checked(name: str, value, low=-math.inf, high=math.inf, *, open_low: bool = False):
    """``value``, checked to be a finite number from ``low`` (excluded when
    ``open_low``) to ``high``.

    The one rule for every scalar parameter: NaN fails each comparison, so
    it is rejected with the infinities, and the message names ``name`` and
    ``value``.
    """
    finite = abs(value) < math.inf
    if not (finite and (value > low if open_low else value >= low) and value <= high):
        rules = [] if finite else ["finite"]
        if high < math.inf:
            rules.append(f"in {low}..{high}")
        elif low > -math.inf:
            rules.append(f"{'>' if open_low else '>='} {low}")
        raise InvalidArgument(f"{name} must be {' and '.join(rules)}, got {value}")
    return value


def _integer(name: str, value, low=-math.inf, high=math.inf) -> int:
    """``value`` as an ``int``, checked to be a Python or NumPy integer
    (``operator.index``, which no float passes) within :func:`_checked`'s range."""
    try:
        index = operator.index(value)
    except TypeError:
        raise InvalidArgument(f"{name} must be an integer, got {value}") from None
    return _checked(name, index, low, high)


def _rng(seed: Optional[int], offset: int = 0) -> np.random.Generator:
    """The generator for ``seed + offset``, or an unseeded one for no seed; a
    negative or fractional seed is an input error."""
    if seed is not None and _integer("seed", seed) < 0:
        raise InvalidArgument(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(None if seed is None else seed + offset)


def _by_modulus(evals: NDArray) -> NDArray:
    """Order of descending eigenvalue modulus, stable.

    Moduli equal to 12 decimals put the larger real part first, so a
    periodic chain's eigenvalue 1 comes before its -1 whichever one the
    solver rounded up, and then the positive imaginary part, so each
    conjugate pair sits together in one order whichever solver found it.
    """
    return np.lexsort((-np.imag(evals), -np.real(evals), -np.round(np.abs(evals), 12)))


def _cores() -> int:
    """The number of cores the process may use."""
    return len(os.sched_getaffinity(0))


def _over_cores(function: Callable, items) -> list:
    """``function`` of each contiguous chunk of ``items``, one chunk per usable core.

    ``items`` is split along its first axis into as many chunks as the
    process may use cores (``os.sched_getaffinity``), at most one per item;
    the results come back in chunk order. Each chunk runs on its own thread,
    so the work overlaps only where it releases the GIL, as the compiled
    kernels, large NumPy operations and the LAPACK calls of
    :mod:`lagtime._native` do. A pure-Python reference runs its chunks under
    a lock only where its NumPy calls are too short to overlap, so that two
    threads would trade the GIL at every call: the jet's does, while the
    k-means restarts' reference runs faster on threads than one chunk after
    the other. BLAS thread counts are left as the caller set them. A worker calls only private helpers, compiled kernels and
    functions of its caller's own layer: the span tracer of ``perfbench``
    keeps one stack for every thread.
    """
    chunks = np.array_split(items, max(1, min(_cores(), len(items))))
    if len(chunks) == 1:
        return [function(chunks[0])]
    with ThreadPoolExecutor(len(chunks)) as pool:
        return list(pool.map(function, chunks))


def _check_square_symmetric(C: NDArray, name: str, rtol: float = 1e-10) -> NDArray:
    C = np.asarray(C, dtype=np.float64)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise InvalidArgument(f"{name} must be a square matrix, got shape {C.shape}")
    scale = max(np.abs(C).max(), 1.0) if C.size else 1.0
    if not np.allclose(C, C.T, atol=rtol * scale, rtol=0.0):
        raise InvalidArgument(f"{name} must be symmetric within relative tolerance {rtol:g}")
    return C


def sym_inverse_sqrt(C: NDArray, epsilon: float = 1e-12) -> WhiteningTransform:
    """Inverse square root of a symmetric positive semi-definite matrix.

    Eigenvalues of ``C`` that are less than or equal to ``epsilon`` are
    discarded, so the returned transform spans only the numerically reliable
    subspace.

    Parameters
    ----------
    C : ndarray of shape (d, d)
        Symmetric positive semi-definite matrix.
    epsilon : float, default 1e-12
        Absolute eigenvalue cutoff.

    Returns
    -------
    WhiteningTransform
        With ``transform`` of shape (rank, d) such that
        ``transform @ C @ transform.T`` is the identity on the retained rank.

    Raises
    ------
    InvalidArgument
        If ``C`` is not square or not symmetric, or ``epsilon`` is negative
        or not finite.
    DegenerateInput
        If no eigenvalue survives the cutoff.
    """
    C = _check_square_symmetric(C, "C")
    _checked("epsilon", epsilon, 0)
    evals, evecs = np.linalg.eigh(C)
    order = np.argsort(-evals, kind="stable")
    evals, evecs = evals[order], evecs[:, order]
    keep = evals > epsilon
    if not np.any(keep):
        raise DegenerateInput(
            f"matrix rank collapsed to zero under eigenvalue cutoff {epsilon:g}"
        )
    evals, evecs = evals[keep], evecs[:, keep]
    transform = (evecs / np.sqrt(evals)).T
    return WhiteningTransform(transform=transform, mean=np.zeros(C.shape[0]), rank=int(evals.size))


def generalized_eig_sym(A: NDArray, B: NDArray) -> SpectralDecomposition:
    """Solve ``A v = lam B v`` for symmetric A and symmetric PSD B.

    The problem is reduced to an ordinary symmetric eigenproblem by whitening
    with ``sym_inverse_sqrt(B)``; directions of B with eigenvalue at most
    ``1e-12`` do not participate. Eigenvalues are real and descending; eigenvector columns
    are B-orthonormal on the retained subspace, ``V.T @ B @ V = I``, as in
    ``scipy.linalg.eigh(A, B)``.

    Raises
    ------
    DegenerateInput
        If the retained rank of ``B`` is zero.
    """
    A = _check_square_symmetric(A, "A")
    W = sym_inverse_sqrt(B).transform
    Aw = W @ A @ W.T
    Aw = 0.5 * (Aw + Aw.T)
    evals, evecs = np.linalg.eigh(Aw)
    order = np.argsort(-evals, kind="stable")
    return SpectralDecomposition(eigenvalues=evals[order], eigenvectors=W.T @ evecs[:, order])


def truncated_svd(M: NDArray, k: Optional[int] = None) -> tuple[NDArray, NDArray, NDArray]:
    """Top-``k`` singular triplets of a matrix.

    Parameters
    ----------
    M : ndarray of shape (m, n)
    k : int, optional
        Number of singular triplets to keep; defaults to ``min(m, n)``.

    Returns
    -------
    (U, sigma, V)
        ``U`` of shape (m, k), ``sigma`` descending of shape (k,), ``V`` of
        shape (n, k), with ``M ~= U @ diag(sigma) @ V.T``.

    Raises
    ------
    InvalidArgument
        If ``k`` is not in ``1..min(m, n)``.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise InvalidArgument(f"expected a matrix, got array of ndim {M.ndim}")
    full = min(M.shape)
    k = full if k is None else _integer("k", k, 1, full)
    U, s, Vh = np.linalg.svd(M, full_matrices=False)
    return U[:, :k], s[:k], Vh[:k].T


def pinv_truncated(M: NDArray) -> NDArray:
    """Moore-Penrose pseudoinverse through :func:`truncated_svd`.

    Singular values below ``max(m, n) * machine_eps * sigma_max``, the usual
    dense-LAPACK heuristic, are treated as zero.
    """
    M = np.asarray(M, dtype=np.float64)
    U, s, V = truncated_svd(M)
    cutoff = max(M.shape) * np.finfo(np.float64).eps * s[0]
    nonzero = s > cutoff
    inv = np.zeros_like(s)
    inv[nonzero] = 1.0 / s[nonzero]
    return (V * inv) @ U.T
