"""Spectral estimators for transfer operators of stochastic dynamics.

All estimators produce model objects that share three conventions:

* data matrices have rows as frames;
* operator matrices ``K`` act by ``propagate(x) = K.T @ f(x)``, i.e. in row
  layout the forward prediction of the feature vector is ``f(X) @ K``;
* dominant components come first (descending eigenvalue modulus or singular
  value), and ``project`` evaluates them on new data.

The linear-algebra regularization parameter ``epsilon`` is an absolute
eigenvalue cutoff (see :mod:`lagtime.numerics`); the kernel estimators use a
local Tikhonov shift ``n * epsilon`` on their Gram matrices instead, which is
the customary convention for those methods.

Kernel CCA factors its two shifted Gram matrices by Cholesky and finds its
leading correlations by a block Krylov solve, so on spectra with a gap it
decomposes no n x n matrix; without a gap it finishes with a dense solve,
chosen by a fixed work budget. Kernel EDMD decomposes its operator on the
numerical range of its Gram matrix, r columns found by pivoted Cholesky.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
from numpy.typing import NDArray

from .basis import FeatureMap, IdentityFeatures, LinearFeatures, WithConstant
from .covariance import CovarianceAccumulator, CovarianceModel
from .errors import DegenerateInput, InvalidArgument, NumericalDegeneracy, UndefinedScore
from .kernels import Kernel, KernelSectionFeatures, _center_gram, _gram_means, gram_matrix
from . import _native
from .numerics import (
    _as_frames, _by_modulus, _over_cores, _rng, generalized_eig_sym, pinv_truncated,
    sym_inverse_sqrt, truncated_svd,
)

__all__ = [
    "TransferOperatorModel",
    "CovarianceKoopmanModel",
    "KVADModel",
    "dmd_fit",
    "edmd_fit",
    "tica_fit",
    "vamp_fit",
    "vamp_score",
    "vamp_score_cv",
    "kernel_edmd_fit",
    "kernel_cca_fit",
    "kvad_fit",
    "kvad_score",
    "contiguous_folds",
]


# ---------------------------------------------------------------------------
# models


def _leading_eigenpairs(evals: NDArray, evecs: NDArray, k: int) -> tuple[NDArray, NDArray]:
    """The ``k`` eigenpairs of largest modulus of a dense ``eig``, in one form.

    Pairs come in the order of ``_by_modulus``; a conjugate pair that the
    cut splits keeps its member with positive imaginary part. Each
    eigenvector has unit norm and its largest-modulus entry real and
    positive. Real eigenvalues give real arrays.
    """
    order = _by_modulus(evals)[:k]
    evals, evecs = evals[order], evecs[:, order]
    if not np.any(evals.imag):
        evals, evecs = evals.real, evecs.real
    pivot = evecs[np.argmax(np.abs(evecs), axis=0), np.arange(k)]
    return evals, evecs * (np.abs(pivot) / pivot / np.linalg.norm(evecs, axis=0))


@dataclass
class TransferOperatorModel:
    """Finite-dimensional transfer-operator approximation.

    ``K`` maps the input feature space onto the output feature space via
    ``propagate(x) = K.T @ f(x)``; in row layout ``propagate(X) = f(X) @ K``.

    ``projection_matrix`` holds coefficients of the dominant components in
    ``f``-space, one column per component, dominant first, and
    ``eigenvalues`` their eigenvalues. When no projection matrix is given,
    the model is built with all eigenpairs of ``K``, so a model saves the
    same document whatever was called on it before.
    """

    f: FeatureMap
    g: FeatureMap
    K: NDArray
    method: str = "edmd"
    eigenvalues: Optional[NDArray] = None
    projection_matrix: Optional[NDArray] = None

    def __post_init__(self):
        if self.projection_matrix is None:
            if self.K.shape[0] != self.K.shape[1]:
                raise InvalidArgument(
                    "projection requires a square operator or an explicit projection matrix"
                )
            self.eigenvalues, self.projection_matrix = _leading_eigenpairs(
                *np.linalg.eig(self.K), self.K.shape[0])

    def propagate(self, X: NDArray) -> NDArray:
        """Predicted forward feature values, row-wise.

        Kernel sections, alone (kernel EDMD) or then a linear map (kernel
        CCA), are evaluated in row blocks over cores with the bytes of the
        whole feature matrix (:meth:`FeatureMap._times`)."""
        return self.f._times(X, self.K)

    def project(self, X: NDArray, n_components: int) -> NDArray:
        """Dominant components evaluated on ``X`` (real parts), columns descending;
        kernel expansions are evaluated in row blocks over cores."""
        P = self.projection_matrix
        if not (1 <= n_components <= P.shape[1]):
            raise InvalidArgument(
                f"n_components must be in 1..{P.shape[1]}, got {n_components}"
            )
        return np.real(self.f._times(X, P[:, :n_components]))


@dataclass
class CovarianceKoopmanModel:
    """Operator model in whitened coordinates, decomposed by singular value.

    The feature maps ``chi0``/``chi1`` lift raw observations; ``U`` and ``V``
    carry whitened singular directions so that ``U.T @ c00 @ U`` is the
    identity on the retained rank. The operator in these coordinates is
    ``diag(sigma)``: the forward relation
    ``E[V.T chi1(y)] = diag(sigma) E[U.T chi0(x)]`` holds for the training
    distribution.
    """

    U: NDArray
    V: NDArray
    sigma: NDArray
    covariances: CovarianceModel
    chi0: FeatureMap
    chi1: FeatureMap
    method: str = "vamp"

    @property
    def n_components(self) -> int:
        return int(self.sigma.size)

    def _center0(self, F: NDArray) -> NDArray:
        if self.covariances.mean_removed:
            return F - self.covariances.mean_0
        return F

    def _center1(self, F: NDArray) -> NDArray:
        if self.covariances.mean_removed:
            return F - self.covariances.mean_t
        return F

    def forward(self, X: NDArray) -> NDArray:
        """Instantaneous singular functions evaluated on raw observations."""
        return self._center0(self.chi0(X)) @ self.U

    def backward(self, Y: NDArray) -> NDArray:
        """Time-lagged singular functions evaluated on raw observations."""
        return self._center1(self.chi1(Y)) @ self.V

    def propagate(self, X: NDArray) -> NDArray:
        """Forward prediction in the lagged singular basis."""
        return self.forward(X) * self.sigma

    def project(self, X: NDArray, n_components: int) -> NDArray:
        if not (1 <= n_components <= self.n_components):
            raise InvalidArgument(
                f"n_components must be in 1..{self.n_components}, got {n_components}"
            )
        return self.forward(X)[:, :n_components]


@dataclass
class KVADModel:
    """Transition-density ansatz ``p(x, y) ~= f(x)^T q(y)``.

    ``q`` is carried nonparametrically as weights over the training forward
    samples: ``q_j = sum_i q_weights[i, j] * delta(y - y_train[i])``. The
    feature map stored here already includes the prepended constant that the
    fit adds so the ansatz can represent the marginal of ``y``.
    """

    f: FeatureMap
    q_weights: NDArray
    K: NDArray
    kernel: Kernel
    y_train: NDArray
    score: float
    feature_mean: NDArray
    projection_matrix: NDArray
    singular_values: NDArray

    def propagate(self, X: NDArray) -> NDArray:
        return self.f(X) @ self.K

    def project(self, X: NDArray, n_components: int) -> NDArray:
        if not (1 <= n_components <= self.projection_matrix.shape[1]):
            raise InvalidArgument(
                f"n_components must be in 1..{self.projection_matrix.shape[1]}, "
                f"got {n_components}"
            )
        F = self.f(X) - self.feature_mean
        return F @ self.projection_matrix[:, :n_components]


# ---------------------------------------------------------------------------
# linear estimators


def dmd_fit(X: NDArray, Y: NDArray) -> TransferOperatorModel:
    """Linear one-step propagator by least squares on raw observations.

    Solves ``min_K || Y - X K ||_F`` through an SVD-based pseudoinverse, so
    ``propagate(x) = K.T x`` is the best linear forward model of the pairs.
    """
    X, Y = _as_frames(X), _as_frames(Y, "Y")
    if X.shape != Y.shape:
        raise InvalidArgument(f"X and Y must have identical shapes: {X.shape} vs {Y.shape}")
    K = pinv_truncated(X) @ Y
    return TransferOperatorModel(
        f=IdentityFeatures(X.shape[1]),
        g=IdentityFeatures(X.shape[1]),
        K=K,
        method="dmd",
    )


def edmd_fit(X: NDArray, Y: NDArray, psi: FeatureMap) -> TransferOperatorModel:
    """Galerkin projection of the forward operator onto a feature basis.

    Solves the regression ``psi(Y) ~= psi(X) K`` through the normal equations
    ``K = C00^+ C0t`` on raw (uncentered) second moments, with ``1e-12`` as
    eigenvalue cutoff for the pseudoinverse. With identity features this
    reduces to :func:`dmd_fit`; with indicator features on a discrete state
    signal, ``K`` is the empirical transition matrix.
    """
    X, Y = _as_frames(X), _as_frames(Y, "Y")
    if X.shape != Y.shape:
        raise InvalidArgument(f"X and Y must have identical shapes: {X.shape} vs {Y.shape}")
    F0, F1 = psi(X), psi(Y)
    n = F0.shape[0]
    if n < 2:
        raise InvalidArgument("need at least two pairs")
    c00 = F0.T @ F0 / (n - 1)
    c0t = F0.T @ F1 / (n - 1)
    white = sym_inverse_sqrt(0.5 * (c00 + c00.T))
    K = white.transform.T @ white.transform @ c0t
    return TransferOperatorModel(f=psi, g=psi, K=K, method="edmd")


def tica_fit(cov: CovarianceModel) -> CovarianceKoopmanModel:
    """Time-lagged independent component analysis.

    Solves the generalized symmetric eigenproblem ``c0t v = lambda c00 v`` on
    reversibly symmetrized covariances; eigenvalues are real and descending,
    components are normalized to unit variance under ``c00``. Directions of
    ``c00`` with eigenvalue at most ``1e-12`` are dropped, every other
    component is kept, and the model's features are the identity.

    Raises
    ------
    InvalidArgument
        If the covariance model was not estimated with symmetrization, which
        the reversible formulation requires.
    """
    if not cov.symmetrized:
        raise InvalidArgument("tica_fit requires reversibly symmetrized covariances")
    dec = generalized_eig_sym(0.5 * (cov.c0t + cov.c0t.T), cov.c00)
    evals, V = dec.eigenvalues, dec.eigenvectors
    chi = IdentityFeatures(cov.dim)
    return CovarianceKoopmanModel(
        U=V, V=V.copy(), sigma=evals, covariances=cov, chi0=chi, chi1=chi,
        method="tica",
    )


def vamp_fit(cov: CovarianceModel, n_components: Optional[int] = None,
             epsilon: float = 1e-12, chi0: Optional[FeatureMap] = None,
             chi1: Optional[FeatureMap] = None) -> CovarianceKoopmanModel:
    """Variational approach for Markov processes: whitened SVD of ``c0t``.

    Whitens both covariance sides with inverse square roots (eigenvalue
    cutoff ``epsilon``), decomposes ``W0 c0t W1^T`` by singular value, and
    back-transforms: ``U = W0^T Uhat``, ``V = W1^T Vhat``. Works for
    non-reversible and non-stationary pairs; singular values are descending
    and, because they are canonical correlations of the feature spaces, never
    exceed one beyond round-off.
    """
    w0 = sym_inverse_sqrt(cov.c00, epsilon)
    w1 = sym_inverse_sqrt(cov.ctt, epsilon)
    M = w0.transform @ cov.c0t @ w1.transform.T
    k_max = min(M.shape)
    k = k_max if n_components is None else n_components
    if not (1 <= k <= k_max):
        raise InvalidArgument(f"n_components must be in 1..{k_max}, got {n_components}")
    Uh, sigma, Vh = truncated_svd(M, k)
    chi0 = chi0 if chi0 is not None else IdentityFeatures(cov.dim)
    chi1 = chi1 if chi1 is not None else IdentityFeatures(cov.dim)
    return CovarianceKoopmanModel(
        U=w0.transform.T @ Uh,
        V=w1.transform.T @ Vh,
        sigma=sigma,
        covariances=cov,
        chi0=chi0,
        chi1=chi1,
        method="vamp",
    )


def vamp_score(model: CovarianceKoopmanModel, r: float = 2,
               test_cov: Optional[CovarianceModel] = None) -> float:
    """VAMP-r score: sum of singular values raised to the power ``r``.

    Without ``test_cov`` this scores the training singular values. With a
    held-out covariance model, the trained subspaces are re-orthogonalized
    against the test covariances (eigenvalue cutoff ``1e-12``) and the
    singular values of the projected operator are scored, which is the
    standard out-of-sample protocol. The test covariances must be estimated
    with the same centering convention as the training covariances.
    """
    if np.isnan(r):
        raise InvalidArgument("VAMP-r requires a number r, got nan")
    if r < 1:
        raise UndefinedScore(f"VAMP-r requires r >= 1, got {r}")
    if test_cov is None:
        return float(np.sum(np.abs(model.sigma) ** r))
    if test_cov.mean_removed != model.covariances.mean_removed:
        raise InvalidArgument("test covariances use a different centering convention")
    U, V = model.U, model.V
    a = sym_inverse_sqrt(U.T @ test_cov.c00 @ U)
    b = sym_inverse_sqrt(V.T @ test_cov.ctt @ V)
    S = a.transform @ (U.T @ test_cov.c0t @ V) @ b.transform.T
    svals = np.linalg.svd(S, compute_uv=False)
    return float(np.sum(svals**r))


def contiguous_folds(n: int, n_folds: int) -> list[NDArray]:
    """Split ``0..n-1`` into contiguous, nearly equal blocks."""
    if not (2 <= n_folds <= n):
        raise InvalidArgument(f"n_folds must be in 2..{n}, got {n_folds}")
    return [idx for idx in np.array_split(np.arange(n), n_folds)]


def vamp_score_cv(F0: NDArray, F1: NDArray, r: float = 2, n_folds: int = 10
                  ) -> tuple[float, float, NDArray]:
    """Cross-validated VAMP-r score over contiguous pair blocks.

    ``F0``/``F1`` are featurized pairs (rows aligned). Each fold holds out one
    contiguous block: a full-rank VAMP model (eigenvalue cutoff ``1e-12``) is
    fitted on the raw, uncentred second moments of the remaining pairs and
    scored against the held-out ones. Returns mean, standard deviation, and
    the per-fold scores.

    The pairs are accumulated once, one accumulator per fold; each training
    covariance merges the accumulators of the other folds.
    """
    F0, F1 = _as_frames(F0, "F0"), _as_frames(F1, "F1")
    if F0.shape != F1.shape:
        raise InvalidArgument(f"F0 and F1 must have identical shapes: {F0.shape} vs {F1.shape}")
    folds = []
    for idx in contiguous_folds(F0.shape[0], n_folds):
        lo, hi = idx[0], idx[-1] + 1
        folds.append(CovarianceAccumulator(F0.shape[1]).partial_fit(F0[lo:hi], F1[lo:hi]))
    scores = []
    for held_out, test in enumerate(folds):
        train = CovarianceAccumulator(F0.shape[1])
        for other in folds[:held_out] + folds[held_out + 1:]:
            train.merge(other)
        cov_train = train.finalize(remove_mean=False)
        cov_test = test.finalize(remove_mean=False)
        scores.append(vamp_score(vamp_fit(cov_train), r=r, test_cov=cov_test))
    scores = np.array(scores)
    return float(scores.mean()), float(scores.std()), scores


# ---------------------------------------------------------------------------
# kernel estimators

# Kernel EDMD's pivot cutoff, relative to the largest modulus on the Gram diagonal.
_EDMD_CUTOFF = 1e-12


def kernel_edmd_fit(X: NDArray, Y: NDArray, kernel: Kernel, epsilon: float,
                    n_components: int) -> TransferOperatorModel:
    """Forward-operator regression in a reproducing kernel space.

    Features are kernel sections anchored at the instantaneous points, with
    uncentered Gram matrices ``G[i, j] = k(x_i, x_j)`` and ``G_fwd[i, j] =
    k(y_i, x_j)``. The operator ``(G + n epsilon I)^{-1} G_fwd`` is restricted
    to the numerical range of ``G`` (Williams, Rowley and Kevrekidis, 2015),
    spanned by the orthonormal ``Q`` of a pivoted Cholesky factor cut at
    ``_EDMD_CUTOFF``: ``K = Q A Q^T`` with ``A = (Q^T G Q + n epsilon I)^{-1}
    Q^T G_fwd Q``. All eigenpairs of the r x r ``A``, by descending modulus,
    give the eigenfunctions as kernel expansions over the anchors; components
    past the rank r have eigenvalue zero and zero coefficients.

    Raises
    ------
    NumericalDegeneracy
        If ``G`` is not positive semi-definite to the cutoff: kernels that are
        not positive definite (see :class:`Kernel`) are not solved.
    DegenerateInput
        If ``G`` has rank zero under the cutoff.
    """
    X, Y = _as_frames(X), _as_frames(Y, "Y")
    if X.shape != Y.shape:
        raise InvalidArgument(f"X and Y must have identical shapes: {X.shape} vs {Y.shape}")
    if not 0 <= epsilon < np.inf:
        raise InvalidArgument(f"epsilon must be non-negative and finite, got {epsilon}")
    n = X.shape[0]
    if not (1 <= n_components <= n):
        raise InvalidArgument(f"n_components must be in 1..{n}")
    G = gram_matrix(kernel, X)
    cutoff = _EDMD_CUTOFF * np.abs(G.diagonal()).max()
    L, pivots, r, _ = scipy.linalg.lapack.dpstrf(G, tol=cutoff, lower=1)
    # Rows in the anchors' order; LAPACK leaves the upper triangle as it found it.
    L = np.tril(L[:, :r])[np.argsort(pivots)]
    if np.any(G.diagonal() - np.einsum("ij,ij->i", L, L) < -cutoff):
        raise NumericalDegeneracy("Gram matrix is not positive semi-definite; "
                                  "the kernel must be positive definite")
    if r == 0:
        raise DegenerateInput(f"Gram matrix rank collapsed to zero under pivot cutoff {cutoff:g}")
    Q = np.linalg.qr(L)[0]
    S = Q.T @ G @ Q
    S.flat[:: r + 1] += n * epsilon
    A = np.linalg.solve(S, Q.T @ gram_matrix(kernel, Y, X) @ Q)
    evals, C = np.linalg.eig(A)
    evals, P = _leading_eigenpairs(evals, Q @ C, min(n_components, r))
    missing = n_components - evals.size
    sections = KernelSectionFeatures(kernel, X)
    return TransferOperatorModel(f=sections, g=sections, K=Q @ A @ Q.T, method="kernel_edmd",
                                 eigenvalues=np.concatenate([evals, np.zeros(missing)]),
                                 projection_matrix=np.hstack([P, np.zeros((n, missing))]))


# Kernel CCA's block Krylov solve (see kernel_cca_fit). R_X's spectrum lies in
# [0, 1), so the floor on the eigenvalues of U^T R_X U is absolute.
_CCA_FLOOR = 1e-12
# Each wanted pair stops at a residual of this much of the leading correlation.
_CCA_TOL = 1e-12
# New Krylov directions shorter than this lie in the basis already.
_CCA_DROP = 1e-10
# The Krylov basis may grow to this share of n columns. A column costs about
# 4 n^2 flops of triangular solves and the dense solve about 8 n^3, so the
# whole budget stays under a fifth of the dense solve's work.
_CCA_WORK_SHARE = 1 / 3


def _unit_second_moment(coeff: NDArray, values: NDArray) -> NDArray:
    """Scale expansion coefficients so that their function values have unit second moment."""
    scale = np.linalg.norm(values, axis=0) / np.sqrt(values.shape[0])
    scale[scale == 0.0] = 1.0
    return coeff / scale


def _cho_solve(L: NDArray, M: NDArray) -> NDArray:
    """``H^{-1} M`` from the lower Cholesky factor of ``H``, one LAPACK call on one thread."""
    with _native._one_lapack_thread():
        return scipy.linalg.cho_solve((L, True), M, check_finite=False)


def _smoother(L: NDArray, shift: float):
    """``M -> R M`` with ``R = I - shift H^{-1}``, from the lower Cholesky factor of ``H``."""
    return lambda M: M - shift * _cho_solve(L, M)


def _rayleigh_ritz(B: NDArray, A: NDArray, k: int) -> tuple[NDArray, NDArray]:
    """Leading ``k`` solutions of ``A c = theta B c``, descending.

    ``B`` is whitened by its eigendecomposition; its eigen-directions at or
    below the floor are dropped, so fewer than ``k`` pairs can come back.
    """
    mu, E = scipy.linalg.eigh(B, check_finite=False)
    keep = mu > _CCA_FLOOR
    P = E[:, keep] / np.sqrt(mu[keep])
    theta, C = scipy.linalg.eigh(P.T @ A @ P, check_finite=False)
    return theta[::-1][:k], P @ C[:, ::-1][:, :k]


def _cca_krylov(apply_x, apply_y, n: int, k: int) -> Optional[tuple[NDArray, NDArray]]:
    """Top ``k`` eigenpairs ``(rho, v)`` of ``T = R_X R_Y``, or None past the budget.

    The basis ``U`` grows as the block Krylov space of ``R_Y R_X`` from a
    fixed random block, orthonormal in the Euclidean inner product. With
    ``V = R_X U``, the Ritz pairs solve ``(V^T R_Y V) c = theta (U^T V) c``:
    Rayleigh-Ritz for ``S = R_X^{1/2} R_Y R_X^{1/2}`` on ``R_X^{1/2} U``, whose
    Ritz vectors map to ``v = V c``, scaled as the dense solve scales them.
    The solve stops when every wanted pair has ``|T v - theta v|`` at most
    ``_CCA_TOL * theta_1 * |v|``, and gives up (None) as soon as the basis,
    grown at the rate the residuals fell over the last block, would pass
    ``_CCA_WORK_SHARE * n`` columns before that.
    """
    width = 2 * k + 8
    cap = int(_CCA_WORK_SHARE * n)
    if width > cap:
        return None
    U = np.empty((n, cap), order="F")
    V, W = np.empty_like(U), np.empty_like(U)
    B, A = np.empty((cap, cap)), np.empty((cap, cap))
    block = np.linalg.qr(_rng(0).standard_normal((n, width)))[0]
    image = apply_x(block)
    m, previous = 0, None
    while True:
        new = slice(m, m + block.shape[1])
        m = new.stop
        U[:, new], V[:, new] = block, image
        W[:, new] = apply_y(image)
        for gram, left, right in ((B, V, U), (A, W, V)):
            gram[new, :m] = left[:, new].T @ right[:, :m]
            gram[:m, new] = gram[new, :m].T
        theta, C = _rayleigh_ritz(B[:m, :m], A[:m, :m], k)
        v = V[:, :m] @ C
        if theta.size == 0:
            return theta, v
        # The next block: classical Gram-Schmidt twice against the basis,
        # then QR within the block.
        block = W[:, new] - U[:, :m] @ (U[:, :m].T @ W[:, new])
        block -= U[:, :m] @ (U[:, :m].T @ block)
        Q, R = np.linalg.qr(block)
        block = Q[:, np.abs(np.diag(R)) > _CCA_DROP]
        # One solve maps both the next block and W c, for T v = R_X W c.
        image = apply_x(np.hstack([block, W[:, :m] @ C]))
        image, Tv = image[:, :block.shape[1]], image[:, block.shape[1]:]
        residual = np.linalg.norm(Tv - v * theta, axis=0)
        worst = np.max(residual / np.linalg.norm(v, axis=0)) / theta[0]
        # An empty block means the basis spans an invariant subspace.
        if worst <= _CCA_TOL or block.shape[1] == 0:
            return np.clip(theta, 0.0, None), v
        if previous is not None:
            rate = worst / previous
            if rate >= 1.0 or m + width * np.log(_CCA_TOL / worst) / np.log(rate) > cap:
                return None
        previous = worst
        if m + block.shape[1] > cap:
            return None


def _cca_dense(Gx: NDArray, Ly: NDArray, shift: float, k: int
               ) -> tuple[NDArray, NDArray, NDArray]:
    """Top ``k`` pairs ``(rho, v, alpha)`` from full decompositions; overwrites ``Gx``.

    With ``G_X = Q diag(lam) Q^T`` and ``r = lam / (lam + n eps)``, the
    whitened matrix ``S = R_X^{1/2} R_Y R_X^{1/2}`` reads in the eigenbasis of
    ``G_X``

        S = diag(r) - n eps Z^T Z,    Z = L_Y^{-1} Q diag(sqrt(r)),

    and only its top ``k`` eigenpairs ``(rho, W)`` are computed. The left
    functions are ``v = Q (sqrt(r) W)``, with coefficients formed in the same
    eigenbasis.
    """
    n = Gx.shape[0]
    # Gx and S go to LAPACK transposed: that is the same matrix in Fortran
    # order, so it is overwritten in place instead of copied.
    lam, Q = scipy.linalg.eigh(Gx.T, overwrite_a=True, check_finite=False, driver="evd")
    del Gx
    lam = np.clip(lam, 0.0, None)
    r = lam / (lam + shift)
    root_r = np.sqrt(r)
    Z = scipy.linalg.solve_triangular(Ly, Q * root_r, lower=True, overwrite_b=True,
                                      check_finite=False)
    S = Z.T @ Z
    del Z
    S *= -shift
    S.flat[::n + 1] += r
    rho, W = scipy.linalg.eigh(S.T, subset_by_index=[n - k, n - 1],
                               overwrite_a=True, check_finite=False)
    del S
    rho, W = np.clip(rho[::-1], 0.0, None), W[:, ::-1]
    vq = root_r[:, None] * W
    ax = vq / (lam + shift)[:, None]
    return rho, Q @ vq, Q @ _unit_second_moment(ax, lam[:, None] * ax)


def kernel_cca_fit(X: NDArray, Y: NDArray, kernel: Kernel, n_components: int,
                   epsilon: float) -> TransferOperatorModel:
    """Canonical correlation analysis between kernel spaces of X and Y.

    Centers both Gram matrices and solves the regularized eigenproblem

        ((G_X + n eps I)^{-1} G_X) ((G_Y + n eps I)^{-1} G_Y) v = rho v,

    that is ``T v = rho v`` with ``T = R_X R_Y`` and
    ``R = H^{-1} G = I - n eps H^{-1}``, ``H = G + n eps I``. The correlations
    ``rho`` are the eigenvalues of the symmetric ``R_X^{1/2} R_Y R_X^{1/2}``,
    so they are real, lie in [0, 1] up to round-off, and come out
    descending. Singular functions are kernel expansions over the training
    points and can be evaluated anywhere.

    ``H_Y`` and ``H_X`` are centered and factored by Cholesky at once, one on
    each core (``_over_cores`` and SciPy's ``dpotrf`` through
    :mod:`lagtime._native`, off the GIL), so each ``R`` costs one pair of
    triangular solves in one LAPACK call. SciPy's OpenBLAS runs one thread
    for the factors and the solves, so their bytes depend on neither the core
    count nor the caller's BLAS threads. The top ``n_components`` eigenpairs
    of ``T`` come from a block Krylov solve with Rayleigh-Ritz: a few hundred
    columns of solves instead of decompositions of n x n matrices. When the
    spectrum has no gap, so that the Krylov basis would pass a fixed share of
    n columns, and for small n, the dense solve finishes instead: a full
    eigendecomposition of ``G_X`` and the top eigenpairs of the whitened
    matrix in its eigenbasis. Correlations that the Krylov basis cannot
    resolve from zero come back as zero, with zero functions.

    The left functions are ``v`` with coefficients ``H_X^{-1} v``, the right
    ones ``R_Y v / sqrt(rho)`` with coefficients ``H_Y^{-1}`` of those; each
    singular function is scaled to unit empirical second moment on the
    training points.

    Raises
    ------
    NumericalDegeneracy
        If ``G_Y + n eps I`` or ``G_X + n eps I`` is not positive definite,
        which a kernel that is not positive definite can cause. The message
        names Y or X, Y first.
    """
    X, Y = _as_frames(X), _as_frames(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise InvalidArgument("X and Y must pair the same number of frames")
    if not 0 < epsilon < np.inf:
        raise InvalidArgument(f"epsilon must be positive and finite, got {epsilon}")
    n = X.shape[0]
    if not (1 <= n_components <= n):
        raise InvalidArgument(f"n_components must be in 1..{n}")
    shift = n * epsilon

    def centered_gram(points):
        G = gram_matrix(kernel, points)
        return _center_gram(G, *_gram_means(G))

    def factor(G):
        # The raw Gram matrix's means center it in place and center the
        # kernel sections of the returned features. H = G + n eps I is
        # exactly symmetric, so its transpose is the Fortran-ordered view
        # that LAPACK factors in place.
        means = _gram_means(G)
        _center_gram(G, *means)
        G.flat[::n + 1] += shift
        return means, _native._dpotrf(G.T)

    # Both Gram matrices are assembled, then centered and factored at once.
    grams = [gram_matrix(kernel, Y), gram_matrix(kernel, X)]
    with _native._one_lapack_thread():
        shares = _over_cores(lambda share: [factor(grams[i]) for i in share], np.arange(2))
    sections = []
    for name, points, (means, info) in zip("YX", (Y, X), sum(shares, [])):
        if info:
            raise NumericalDegeneracy(
                f"{name}: centered Gram matrix plus n*epsilon*I is not positive definite; "
                "the kernel must be positive definite"
            )
        sections.append(KernelSectionFeatures._centered_on(kernel, points, *means))
    sections_y, sections_x = sections
    Ly, Lx = grams[0].T, grams[1].T
    del grams
    apply_y = _smoother(Ly, shift)
    found = _cca_krylov(_smoother(Lx, shift), apply_y, n, n_components)
    if found is None:
        # H_X was factored in place, so the dense solve builds G_X again.
        del Lx
        rho, v, alpha = _cca_dense(centered_gram(X), Ly, shift, n_components)
    else:
        rho, v = found
        missing = n_components - rho.size
        rho = np.concatenate([rho, np.zeros(missing)])
        v = np.hstack([v, np.zeros((n, missing))])
        ax = _cho_solve(Lx, v)
        del Lx
        alpha = _unit_second_moment(ax, v - shift * ax)  # G_X ax = v - n eps ax
    # Right functions from the same decomposition, so each pairs with its
    # left one: with S = M M^T and M = Rx^{1/2} Ry^{1/2}, the right singular
    # vectors are M^T W / sqrt(rho), and Ry^{1/2} of those is Ry v / sqrt(rho).
    v2 = apply_y(v)
    v2 /= np.sqrt(np.where(rho > 0.0, rho, 1.0))
    by = _cho_solve(Ly, v2)
    beta = _unit_second_moment(by, v2 - shift * by)  # G_Y by = (H_Y - n eps I) by

    f = sections_x.then(LinearFeatures(alpha))
    g = sections_y.then(LinearFeatures(beta))
    return TransferOperatorModel(
        f=f, g=g, K=np.diag(rho), method="kernel_cca",
        eigenvalues=rho, projection_matrix=np.eye(n_components),
    )


# ---------------------------------------------------------------------------
# kernel-embedded density estimation


def _kvad_score(F: NDArray, G_Y: NDArray) -> float:
    """Kernel-embedded predictability of forward samples from features ``F``.

    Measures how much of the kernel mass of the forward samples, whose Gram
    matrix is ``G_Y``, the column span of ``F`` captures: ``trace(G_Y P_F) /
    n`` with ``P_F`` the orthogonal projector onto the span of ``F``
    (directions of ``F.T @ F`` with eigenvalue at most ``1e-12`` dropped).
    Monotone in the feature span, so richer feature sets never score lower on
    the same data.
    """
    C = F.T @ F
    white = sym_inverse_sqrt(0.5 * (C + C.T))
    B = F @ white.transform.T  # orthonormal columns spanning col(F)
    return float(np.sum((G_Y @ B) * B) / F.shape[0])


def kvad_fit(X: NDArray, Y: NDArray, f: FeatureMap, kernel: Kernel) -> KVADModel:
    """Fit the transition-density ansatz ``p(x, y) ~= f(x)^T q(y)``.

    A constant feature is prepended to ``f`` so the ansatz contains the
    marginal of ``Y`` (the constant-only baseline); ``q`` is then estimated
    nonparametrically by least squares in the kernel embedding of the forward
    samples, which makes the fitted score dominate the baseline by
    construction. Whitening drops feature directions with eigenvalue at most
    ``1e-12``; the model keeps every direction that remains.
    """
    X, Y = _as_frames(X), _as_frames(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise InvalidArgument("X and Y must pair the same number of frames")
    fa = WithConstant(f)
    F = fa(X)
    n = F.shape[0]
    G_Y = gram_matrix(kernel, Y)
    C = F.T @ F
    q_weights = F @ pinv_truncated(0.5 * (C + C.T))  # n x m, optimal embedded weights
    K = q_weights.T @ fa(Y)
    score = _kvad_score(F, G_Y)

    # Dominant directions in feature space by embedded predictability per
    # unit variance; these play the role of singular functions for this model.
    mean_f = F.mean(axis=0)
    Fc = F - mean_f
    c00 = Fc.T @ Fc / n
    white = sym_inverse_sqrt(c00)
    inner = white.transform @ (Fc.T @ G_Y @ Fc / (n * n)) @ white.transform.T
    inner = 0.5 * (inner + inner.T)
    evals, evecs = np.linalg.eigh(inner)
    order = np.argsort(-evals, kind="stable")
    evals, evecs = evals[order], evecs[:, order]
    return KVADModel(
        f=fa,
        q_weights=q_weights,
        K=K,
        kernel=kernel,
        y_train=Y,
        score=score,
        feature_mean=mean_f,
        projection_matrix=white.transform.T @ evecs,
        singular_values=evals,
    )


def kvad_score(model: KVADModel, X: NDArray, Y: NDArray,
               kernel: Optional[Kernel] = None) -> float:
    """Score the model's feature space on (possibly new) paired data.

    Re-estimates the optimal ``q`` for the model's features on the given
    pairs and returns the kernel-embedded predictability (see
    :func:`_kvad_score`). A different kernel than the one used for fitting
    may be supplied for scoring.
    """
    kernel = model.kernel if kernel is None else kernel
    F, Y = model.f(X), _as_frames(Y, "Y")
    if F.shape[0] != Y.shape[0]:
        raise InvalidArgument("X and Y must pair the same number of frames")
    return _kvad_score(F, gram_matrix(kernel, Y))
