"""Operator decomposition methods: linear, featurized, kernelized, variational."""

import os

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lagtime import _native, decomposition
from lagtime.basis import (
    IdentityFeatures,
    IndicatorFeatures,
    MonomialFeatures,
    Whitener,
    WithConstant,
)
from lagtime.covariance import covariances_from_pairs, lagged_pairs
from lagtime.decomposition import (
    _kvad_score,
    contiguous_folds,
    dmd_fit,
    edmd_fit,
    kernel_cca_fit,
    kernel_edmd_fit,
    kvad_fit,
    kvad_score,
    tica_fit,
    vamp_fit,
    vamp_score,
    vamp_score_cv,
)
from lagtime.datasets import bickley_flow, sample_sqrt_model
from lagtime.errors import DegenerateInput, InvalidArgument, NumericalDegeneracy, UndefinedScore
from lagtime.experiments import (
    BICKLEY_KERNEL_CCA_BANDWIDTH,
    BICKLEY_KERNEL_CCA_EPSILON,
    SQRT_KERNEL_CCA_BANDWIDTH,
    SQRT_KERNEL_CCA_EPSILON,
    SQRT_KERNEL_EDMD_BANDWIDTH,
    SQRT_KERNEL_EDMD_EPSILON,
)
from lagtime.kernels import GaussianKernel, Kernel, gram_matrix
from lagtime.markov import MarkovStateModel, msm_to_koopman


def linear_system_pairs(n=400, d=3, seed=0, noise=0.0):
    """Pairs from x' = A x (+ noise), A a known stable matrix."""
    rng = np.random.default_rng(seed)
    A = 0.8 * np.linalg.qr(rng.standard_normal((d, d)))[0]
    X = rng.standard_normal((n, d))
    Y = X @ A.T + noise * rng.standard_normal((n, d))
    return X, Y, A


class TestDmd:
    def test_recovers_linear_operator(self):
        X, Y, A = linear_system_pairs()
        model = dmd_fit(X, Y)
        # propagate(X) = X @ K, and Y = X @ A.T exactly
        np.testing.assert_allclose(model.K, A.T, atol=1e-10)
        np.testing.assert_allclose(model.propagate(X), Y, atol=1e-9)

    def test_eigenvalues_of_known_operator(self):
        X, Y, A = linear_system_pairs(d=4, seed=3)
        model = dmd_fit(X, Y)
        got = np.sort_complex(model.eigenvalues)
        want = np.sort_complex(np.linalg.eigvals(A.T))
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidArgument):
            dmd_fit(np.zeros((5, 2)), np.zeros((4, 2)))


class TestEdmd:
    def test_identity_features_match_dmd(self):
        # Acceptance oracle: EDMD with the identity basis is DMD.
        X, Y, _ = linear_system_pairs(n=300, d=3, seed=1, noise=0.05)
        dmd = dmd_fit(X, Y)
        edmd = edmd_fit(X, Y, IdentityFeatures(3))
        np.testing.assert_allclose(edmd.K, dmd.K, atol=1e-10)

    def test_indicator_features_give_empirical_transition_matrix(self):
        rng = np.random.default_rng(4)
        states = rng.integers(0, 3, size=500)
        X, Y = states[:-1, None].astype(float), states[1:, None].astype(float)
        model = edmd_fit(X, Y, IndicatorFeatures(3))
        counts = np.zeros((3, 3))
        for a, b in zip(states[:-1], states[1:]):
            counts[a, b] += 1
        P = counts / counts.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(model.K, P, atol=1e-10)

    def test_propagation_predicts_features(self):
        X, Y, _ = linear_system_pairs(n=2000, d=2, seed=2, noise=0.01)
        psi = MonomialFeatures(2, max_degree=2)
        model = edmd_fit(X, Y, psi)
        pred = model.propagate(X)
        resid = np.linalg.norm(pred - psi(Y)) / np.linalg.norm(psi(Y))
        assert resid < 0.05


class TestTica:
    def test_requires_symmetrized_covariances(self):
        X, Y, _ = linear_system_pairs()
        cov = covariances_from_pairs(X, Y, remove_mean=True)
        with pytest.raises(InvalidArgument):
            tica_fit(cov)

    def test_autoregressive_coefficient_recovered(self):
        # x_{t+1} = a x_t + xi with known a: the dominant autocorrelation is a.
        rng = np.random.default_rng(0)
        a = 0.9
        x = np.empty(200_000)
        x[0] = 0.0
        noise = rng.standard_normal(x.size - 1)
        for i in range(x.size - 1):
            x[i + 1] = a * x[i] + noise[i]
        X, Y = lagged_pairs(x[:, None], 1)
        cov = covariances_from_pairs(X, Y, remove_mean=True, symmetrize=True)
        model = tica_fit(cov)
        assert model.sigma[0] == pytest.approx(a, abs=0.01)

    def test_eigenvalues_real_descending_unit_variance(self):
        rng = np.random.default_rng(5)
        traj = rng.standard_normal((5000, 4)).cumsum(axis=0) * 0.01
        traj += rng.standard_normal((5000, 4))
        X, Y = lagged_pairs(traj, 2)
        cov = covariances_from_pairs(X, Y, remove_mean=True, symmetrize=True)
        model = tica_fit(cov)
        assert model.sigma.dtype.kind == "f"
        assert np.all(np.diff(model.sigma) <= 1e-12)
        # components have unit variance under c00
        gram = model.U.T @ cov.c00 @ model.U
        np.testing.assert_allclose(gram, np.eye(gram.shape[0]), atol=1e-8)

    def test_non_finite_frame_is_named(self):
        traj = np.random.default_rng(6).standard_normal((200, 3))
        traj[57, 2] = np.nan
        with pytest.raises(InvalidArgument, match="X row 58 "):
            tica_fit(covariances_from_pairs(traj[:-1], traj[1:], symmetrize=True))


class TestVamp:
    def test_two_state_chain_score_limit(self):
        # Variational limit for P = [[0.95, 0.05], [0.05, 0.95]]: the
        # singular values are (1, 0.9), so the squared sum is 1.81.
        P = np.array([[0.95, 0.05], [0.05, 0.95]])
        model = msm_to_koopman(MarkovStateModel(P))
        assert vamp_score(model, r=2) == pytest.approx(1.81, abs=1e-6)
        assert model.sigma[0] == pytest.approx(1.0, abs=1e-10)
        assert model.sigma[1] == pytest.approx(0.9, abs=1e-10)

    def test_whitened_orthogonality(self):
        X, Y, _ = linear_system_pairs(n=500, d=3, seed=7, noise=0.1)
        cov = covariances_from_pairs(X, Y, remove_mean=True)
        model = vamp_fit(cov)
        np.testing.assert_allclose(
            model.U.T @ cov.c00 @ model.U, np.eye(model.n_components), atol=1e-8
        )
        np.testing.assert_allclose(
            model.V.T @ cov.ctt @ model.V, np.eye(model.n_components), atol=1e-8
        )

    def test_singular_values_descending_and_bounded(self):
        rng = np.random.default_rng(11)
        traj = np.tanh(rng.standard_normal((4000, 3)).cumsum(axis=0) * 0.05)
        X, Y = lagged_pairs(traj, 1)
        F0, F1 = WithConstant(IdentityFeatures(3))(X), WithConstant(IdentityFeatures(3))(Y)
        cov = covariances_from_pairs(F0, F1, remove_mean=False)
        model = vamp_fit(cov)
        assert np.all(np.diff(model.sigma) <= 1e-12)
        assert model.sigma[0] == pytest.approx(1.0, abs=1e-10)  # constant pair
        assert np.all(model.sigma <= 1.0 + 1e-8)

    def test_forward_relation_on_training_data(self):
        # E[V^T chi1(y)] = diag(sigma) E[U^T chi0(x)] over the training pairs.
        X, Y, _ = linear_system_pairs(n=800, d=3, seed=13, noise=0.2)
        cov = covariances_from_pairs(X, Y, remove_mean=True)
        model = vamp_fit(cov)
        lhs = model.backward(Y).mean(axis=0)
        rhs = model.forward(X).mean(axis=0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)

    def test_score_r1_and_invalid_r(self):
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        model = msm_to_koopman(MarkovStateModel(P))
        s1 = vamp_score(model, r=1)
        s2 = vamp_score(model, r=2)
        assert s1 >= s2  # singular values are <= 1
        with pytest.raises(UndefinedScore):
            vamp_score(model, r=0.5)
        with pytest.raises(InvalidArgument, match="nan"):
            vamp_score(model, r=np.nan)


class TestVariationalDominance:
    def test_nested_monomial_bases_never_score_lower(self):
        # Enlarging the ansatz can only improve the variational score on the
        # same data: monomials of degree d are contained in degree d+1.
        rng = np.random.default_rng(17)
        traj = np.tanh(rng.standard_normal((3000, 2)).cumsum(axis=0) * 0.03)
        X, Y = lagged_pairs(traj, 1)
        scores = []
        for degree in (1, 2, 3, 4):
            psi = MonomialFeatures(2, max_degree=degree)
            cov = covariances_from_pairs(psi(X), psi(Y), remove_mean=False)
            scores.append(vamp_score(vamp_fit(cov), r=2))
        assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:])), scores


class TestVampScoreCv:
    def test_contiguous_folds_partition(self):
        folds = contiguous_folds(10, 3)
        assert [f.tolist() for f in folds] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
        with pytest.raises(InvalidArgument):
            contiguous_folds(5, 1)

    def test_returns_one_score_per_fold_deterministically(self):
        rng = np.random.default_rng(23)
        traj = rng.standard_normal((600, 2)).cumsum(axis=0) * 0.1
        X, Y = lagged_pairs(traj, 1)
        F0 = WithConstant(IdentityFeatures(2))(X)
        F1 = WithConstant(IdentityFeatures(2))(Y)
        mean1, std1, s1 = vamp_score_cv(F0, F1, r=2, n_folds=5)
        mean2, _, s2 = vamp_score_cv(F0, F1, r=2, n_folds=5)
        assert s1.shape == (5,)
        np.testing.assert_array_equal(s1, s2)
        assert mean1 == mean2 == pytest.approx(s1.mean())
        assert std1 == pytest.approx(s1.std())
        assert np.all(np.isfinite(s1))

    def test_fold_scores_match_per_fold_recomputation(self):
        rng = np.random.default_rng(29)
        traj = np.tanh(rng.standard_normal((1003, 2)).cumsum(axis=0) * 0.05)
        psi = MonomialFeatures(2, 3)
        F0, F1 = psi(traj[:-3]), psi(traj[3:])
        _, _, scores = vamp_score_cv(F0, F1, n_folds=7)
        for score, test_idx in zip(scores, contiguous_folds(F0.shape[0], 7)):
            mask = np.ones(F0.shape[0], dtype=bool)
            mask[test_idx] = False
            train = covariances_from_pairs(F0[mask], F1[mask], remove_mean=False)
            test = covariances_from_pairs(F0[test_idx], F1[test_idx], remove_mean=False)
            expected = vamp_score(vamp_fit(train), test_cov=test)
            assert score == pytest.approx(expected, rel=1e-10)

    def test_non_finite_pair_is_named(self):
        F = np.random.default_rng(24).standard_normal((100, 2))
        F[90, 0] = np.inf
        with pytest.raises(InvalidArgument, match="F0 row 91 "):
            vamp_score_cv(F[:-1], F[1:], n_folds=4)

    def test_unpaired_rows_are_rejected(self):
        F = np.random.default_rng(25).standard_normal((100, 2))
        with pytest.raises(InvalidArgument, match="identical shapes"):
            vamp_score_cv(F, F[1:], n_folds=4)


class StateMatchKernel(Kernel):
    """1 exactly for equal discrete states, 0 otherwise."""

    def _pairwise_into(self, A, B, out):
        out[...] = A[:, 0][:, None] == B[:, 0][None, :]


def three_state_pairs():
    states = np.random.default_rng(29).integers(0, 3, size=400)
    return states[:-1, None].astype(float), states[1:, None].astype(float)


def recorded_shapes(monkeypatch, *solvers):
    """Wrap each of ``solvers`` (such as ``eig``, ``eigh``, ``lu_factor`` or
    ``eigs``) wherever scipy's dense or sparse or numpy's linear algebra
    defines it; the list collects input shapes."""
    shapes = []
    for module in (scipy.linalg, np.linalg, scipy.sparse.linalg):
        for solver in solvers:
            if hasattr(module, solver):
                def spy(a, *args, _original=getattr(module, solver), **kwargs):
                    shapes.append(np.shape(a))
                    return _original(a, *args, **kwargs)
                monkeypatch.setattr(module, solver, spy)
    return shapes


@pytest.fixture(scope="module")
def sqrt_kernel_edmd():
    """Criterion 2's kernel EDMD problem (n = 999, seed 0) and the dense
    eigendecomposition of its operator, sorted by descending modulus."""
    obs, _ = sample_sqrt_model(1000, seed=0)
    W = Whitener.from_data(obs)(obs)
    problem = (W[:-1], W[1:], GaussianKernel(SQRT_KERNEL_EDMD_BANDWIDTH), SQRT_KERNEL_EDMD_EPSILON)
    evals, evecs = np.linalg.eig(kernel_edmd_fit(*problem, n_components=2).K)
    order = np.argsort(-np.abs(evals), kind="stable")
    return problem, evals[order], evecs[:, order]


def assert_matches_dense_eig(model, X, evals, evecs, k):
    """Eigenvalues to 1e-10, and ``project`` columns up to sign to 1e-9 of the
    largest modulus of their eigenfunction, whose real part they are.

    Real eigenvalues come back as a real array, as a dense ``eig`` of a real
    spectrum gives them.
    """
    np.testing.assert_allclose(model.eigenvalues, evals[:k], rtol=0, atol=1e-10)
    assert model.eigenvalues.dtype.kind == ("c" if np.any(evals[:k].imag) else "f")
    functions = model.f(X) @ evecs[:, :k]
    got, want = model.project(X, k), np.real(functions)
    sign = np.where(np.sum(got * want, axis=0) < 0.0, -1.0, 1.0)
    assert np.all(np.abs(got * sign - want) <= 1e-9 * np.abs(functions).max(axis=0))


class TestKernelEdmd:
    def test_indicator_kernel_matches_discrete_transition_matrix(self):
        # A kernel that is 1 exactly for equal discrete states reproduces the
        # empirical transition matrix, pinning down the index convention.
        X, Y = three_state_pairs()
        model = kernel_edmd_fit(X, Y, StateMatchKernel(), epsilon=1e-10, n_components=3)
        # propagate()[i, j] predicts P(state(y) = state(anchor j) | probe i);
        # reading one anchor per state recovers the empirical transition matrix.
        ref = edmd_fit(X, Y, IndicatorFeatures(3)).K
        probe = np.array([[0.0], [1.0], [2.0]])
        prop = model.propagate(probe)
        anchors = [int(np.flatnonzero(X[:, 0] == s)[0]) for s in range(3)]
        np.testing.assert_allclose(prop[:, anchors], ref, atol=1e-6)

    def test_eigenvalues_sorted_by_magnitude(self):
        rng = np.random.default_rng(31)
        traj = np.tanh(rng.standard_normal((300, 2)).cumsum(axis=0) * 0.05)
        X, Y = traj[:-1], traj[1:]
        model = kernel_edmd_fit(X, Y, GaussianKernel(1.0), epsilon=1e-6, n_components=8)
        mags = np.abs(model.eigenvalues)
        assert np.all(np.diff(mags) <= 1e-12)

    def test_projection_shape_and_determinism(self):
        rng = np.random.default_rng(37)
        X = rng.standard_normal((120, 2))
        Y = X * 0.9 + 0.05 * rng.standard_normal((120, 2))
        m1 = kernel_edmd_fit(X, Y, GaussianKernel(0.8), epsilon=1e-5, n_components=3)
        m2 = kernel_edmd_fit(X, Y, GaussianKernel(0.8), epsilon=1e-5, n_components=3)
        p1, p2 = m1.project(X, 3), m2.project(X, 3)
        np.testing.assert_array_equal(p1, p2)
        assert p1.shape == (120, 3)

    # On this data the cut after 8 falls behind two conjugate pairs, and the
    # cuts after 3 and 14 split one.
    @pytest.mark.parametrize("k", [2, 3, 8, 14])
    def test_eigenpairs_match_dense_eig_of_the_operator(self, sqrt_kernel_edmd, k):
        problem, evals, evecs = sqrt_kernel_edmd
        model = kernel_edmd_fit(*problem, n_components=k)
        assert_matches_dense_eig(model, problem[0], evals, evecs, k)

    @pytest.mark.parametrize("epsilon", [0.0, 1e-10, 1e-3])
    def test_rank_three_operator_has_the_empirical_spectrum(self, epsilon):
        # The state-match Gram matrix has rank 3, and on its range the
        # operator's eigenvalues are those of C / (n_s + n epsilon), C the
        # transition counts and n_s the visits to state s; epsilon = 0 is the
        # plain least-squares fit.
        X, Y = three_state_pairs()
        model = kernel_edmd_fit(X, Y, StateMatchKernel(), epsilon, n_components=3)
        IX, IY = IndicatorFeatures(3)(X), IndicatorFeatures(3)(Y)
        M = (IX.T @ IY) / (IX.sum(axis=0) + X.shape[0] * epsilon)[:, None]
        exact = np.linalg.eigvals(M)
        np.testing.assert_allclose(model.eigenvalues, exact[np.argsort(-np.abs(exact))],
                                   rtol=0, atol=1e-10)
        V = model.projection_matrix
        np.testing.assert_allclose(np.linalg.norm(V, axis=0), 1.0, rtol=0, atol=1e-12)
        residual = np.linalg.norm(model.K @ V - V * model.eigenvalues, axis=0)
        assert np.all(residual <= 1e-10 * np.linalg.norm(model.K, 2)), residual

    def test_components_past_the_rank_are_zero(self):
        # A linear kernel on 2-D points has a rank-2 Gram matrix; on its range
        # the operator is the ridge regression (X^T X + n epsilon I)^{-1} X^T Y.
        class LinearKernel(Kernel):
            def _pairwise_into(self, A, B, out):
                np.matmul(A, B.T, out=out)

        rng = np.random.default_rng(15)
        X = rng.standard_normal((50, 2))
        Y = X @ np.array([[0.9, 0.2], [-0.1, 0.5]]) + 0.1 * rng.standard_normal((50, 2))
        epsilon = 1e-6
        model = kernel_edmd_fit(X, Y, LinearKernel(), epsilon, n_components=3)
        exact = np.linalg.eigvals(np.linalg.solve(X.T @ X + 50 * epsilon * np.eye(2), X.T @ Y))
        np.testing.assert_allclose(model.eigenvalues[:2], exact[np.argsort(-np.abs(exact))],
                                   rtol=0, atol=1e-12)
        assert model.eigenvalues[2] == 0.0
        assert not np.any(model.projection_matrix[:, 2])
        assert not np.any(model.project(X, 3)[:, 2])

    def test_kernel_not_positive_semi_definite_or_zero_is_rejected(self):
        class NegatedGaussian(Kernel):
            def _pairwise_into(self, A, B, out):
                GaussianKernel(1.0)._pairwise_into(A, B, out)
                np.negative(out, out=out)

        class Zero(Kernel):
            def _pairwise_into(self, A, B, out):
                out[...] = 0.0

        rng = np.random.default_rng(41)
        X = rng.standard_normal((60, 2))
        with pytest.raises(NumericalDegeneracy, match="positive semi-definite"):
            kernel_edmd_fit(X[:-1], X[1:], NegatedGaussian(), 1e-6, n_components=2)
        with pytest.raises(DegenerateInput, match="rank collapsed to zero"):
            kernel_edmd_fit(X[:-1], X[1:], Zero(), 1e-6, n_components=2)

    def test_same_bytes_whatever_global_random_state(self, sqrt_kernel_edmd):
        problem = sqrt_kernel_edmd[0]
        state = np.random.get_state()
        try:
            models = []
            for seed in (0, 1):
                np.random.seed(seed)
                models.append(kernel_edmd_fit(*problem, n_components=2))
        finally:
            np.random.set_state(state)
        for name in ("eigenvalues", "projection_matrix"):
            assert getattr(models[0], name).tobytes() == getattr(models[1], name).tobytes()

    def test_criterion_2_fit_decomposes_no_n_by_n_matrix(self, sqrt_kernel_edmd, monkeypatch):
        # The sqrt experiment reads two eigenfunctions; a dense eig, an LU
        # factor or an Arnoldi solve of the n x n operator would see all n.
        problem = sqrt_kernel_edmd[0]
        shapes = recorded_shapes(monkeypatch, "eig", "lu_factor", "eigs")
        kernel_edmd_fit(*problem, n_components=2)
        assert shapes and all(max(shape) < problem[0].shape[0] for shape in shapes), shapes

    def test_component_count_validation(self):
        X, Y = three_state_pairs()
        for k in (0, X.shape[0] + 1):
            with pytest.raises(InvalidArgument, match="n_components"):
                kernel_edmd_fit(X, Y, StateMatchKernel(), epsilon=1e-10, n_components=k)

    def test_non_finite_epsilon_is_rejected(self):
        X, Y = three_state_pairs()
        for epsilon in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidArgument, match="epsilon"):
                kernel_edmd_fit(X, Y, StateMatchKernel(), epsilon=epsilon, n_components=2)


def dense_kernel_cca(X, Y, kernel, n_components, epsilon):
    """Reference: kernel CCA in its dense formulation, with full
    eigendecompositions of both centered Gram matrices and of the whitened
    product, and n x n solves for the coefficients.

    Returns the correlations and the left and right singular functions on
    the training points.
    """
    n = X.shape[0]

    def centered(G):
        col = G.mean(axis=0, keepdims=True)
        row = G.mean(axis=1, keepdims=True)
        return G - col - row + G.mean()

    def smoother_half(G):
        evals, Q = np.linalg.eigh(G)
        evals = np.clip(evals, 0.0, None)
        return Q, evals / (evals + n * epsilon)

    def half_apply(Q, ratio, M):
        return Q @ (np.sqrt(ratio)[:, None] * (Q.T @ M))

    def functions(G, vectors):
        coeff = np.linalg.solve(G + n * epsilon * np.eye(n), vectors)
        values = G @ coeff
        scale = np.linalg.norm(values, axis=0) / np.sqrt(n)
        scale[scale == 0.0] = 1.0
        return values / scale

    Gx = centered(gram_matrix(kernel, X))
    Gy = centered(gram_matrix(kernel, Y))
    Qx, rx = smoother_half(Gx)
    Qy, ry = smoother_half(Gy)
    Py = Qy @ (ry[:, None] * Qy.T)
    S = half_apply(Qx, rx, half_apply(Qx, rx, Py).T)
    rho, W = np.linalg.eigh(0.5 * (S + S.T))
    order = np.argsort(-rho, kind="stable")[:n_components]
    rho = np.clip(rho[order], 0.0, None)
    v = half_apply(Qx, rx, W[:, order])
    v2 = Py @ v / np.sqrt(np.where(rho > 0.0, rho, 1.0))
    return rho, functions(Gx, v), functions(Gy, v2)


class IndefiniteKernel(Kernel):
    """``k(x, y) = -x . y``: its Gram matrices are negative semi-definite."""

    def _pairwise_into(self, A, B, out):
        np.matmul(A, -B.T, out=out)


KERNEL_CCA_CASES = [
    ("sqrt", SQRT_KERNEL_CCA_BANDWIDTH, SQRT_KERNEL_CCA_EPSILON, 5),
    ("jet", BICKLEY_KERNEL_CCA_BANDWIDTH, BICKLEY_KERNEL_CCA_EPSILON, 8),
    ("small", 1.0, 1e-2, "all"),
]


def assert_matches_dense(model, X, Y, kernel, n_components, epsilon):
    """Correlations to 1e-12, and functions to 1e-10 of their largest value."""
    rho, f_ref, g_ref = dense_kernel_cca(X, Y, kernel, n_components, epsilon)
    np.testing.assert_allclose(model.eigenvalues, rho, rtol=0, atol=1e-12)
    # Centering puts the constant vector in the null space of G_X, so with
    # every component requested the last correlation is zero and its pair
    # of functions is set by round-off in either formulation.
    keep = rho > 1e-12
    f_ref, g_ref = f_ref[:, keep], g_ref[:, keep]
    for got, want in ((model.f(X)[:, keep], f_ref), (model.g(Y)[:, keep], g_ref)):
        sign = np.where(np.sum(got * want, axis=0) < 0.0, -1.0, 1.0)
        np.testing.assert_allclose(got * sign, want, rtol=0,
                                   atol=1e-10 * np.abs(want).max())


@pytest.fixture(scope="module")
def jet_pairs():
    """The jet experiment's fit at 1200 particles: uniform draws advected over t 0 -> 40."""
    rng = np.random.default_rng(13)
    X = rng.uniform([0.0, -4.0], [20.0, 4.0], size=(1200, 2))
    return X, bickley_flow(X, 0.0, 40.0, 2e-2)


class TestKernelCca:
    # The ids stay as earlier versions named these cases, so runs compare by test id.
    @pytest.mark.parametrize("data, bandwidth, epsilon, n_components", KERNEL_CCA_CASES,
                             ids=["-".join(map(str, case)) + "-empirical"
                                  for case in KERNEL_CCA_CASES])
    def test_matches_dense_formulation(self, data, bandwidth, epsilon, n_components):
        if data == "sqrt":
            obs, _ = sample_sqrt_model(601, seed=3)
            X, Y = obs[:-1], obs[1:]
        elif data == "jet":
            rng = np.random.default_rng(11)
            X = rng.uniform([0.0, -4.0], [20.0, 4.0], size=(400, 2))
            Y = bickley_flow(X, 0.0, 4.0, 2e-2)
        else:
            rng = np.random.default_rng(12)
            X = rng.standard_normal((12, 2))
            Y = np.tanh(X) + 0.3 * rng.standard_normal((12, 2))
        if n_components == "all":
            n_components = X.shape[0]
        kernel = GaussianKernel(bandwidth)
        model = kernel_cca_fit(X, Y, kernel, n_components, epsilon)
        assert_matches_dense(model, X, Y, kernel, n_components, epsilon)

    def test_jet_shaped_fit_matches_dense_formulation(self, jet_pairs):
        X, Y = jet_pairs
        kernel = GaussianKernel(BICKLEY_KERNEL_CCA_BANDWIDTH)
        model = kernel_cca_fit(X, Y, kernel, 8, BICKLEY_KERNEL_CCA_EPSILON)
        assert_matches_dense(model, X, Y, kernel, 8, BICKLEY_KERNEL_CCA_EPSILON)

    def test_jet_shaped_fit_decomposes_no_n_by_n_matrix(self, jet_pairs, monkeypatch):
        # The correlations decay fast here, so the block Krylov solve finds
        # them with small Rayleigh-Ritz eigensolves only. An n x n eigh means
        # the dense solve is back.
        X, Y = jet_pairs
        shapes = recorded_shapes(monkeypatch, "eigh")
        kernel_cca_fit(X, Y, GaussianKernel(BICKLEY_KERNEL_CCA_BANDWIDTH), 8,
                       BICKLEY_KERNEL_CCA_EPSILON)
        assert shapes
        assert all(max(shape) < X.shape[0] for shape in shapes), shapes

    def test_gapless_fit_takes_dense_path(self, monkeypatch):
        # A kernel much narrower than the spacing of the points makes both
        # Gram matrices nearly the identity and every correlation nearly 1:
        # no gap for the Krylov solve to converge on.
        rng = np.random.default_rng(17)
        X = rng.uniform([0.0, -4.0], [20.0, 4.0], size=(300, 2))
        Y = bickley_flow(X, 0.0, 4.0, 2e-2)
        kernel = GaussianKernel(0.05)
        shapes = recorded_shapes(monkeypatch, "eigh")
        model = kernel_cca_fit(X, Y, kernel, 8, 1e-6)
        assert (300, 300) in shapes
        assert model.eigenvalues[-1] > 0.99
        assert_matches_dense(model, X, Y, kernel, 8, 1e-6)

    def test_same_bytes_whatever_global_random_state(self):
        obs, _ = sample_sqrt_model(601, seed=3)
        X, Y = obs[:-1], obs[1:]
        kernel = GaussianKernel(SQRT_KERNEL_CCA_BANDWIDTH)
        state = np.random.get_state()
        try:
            models = []
            for seed in (0, 1):
                np.random.seed(seed)
                models.append(kernel_cca_fit(X, Y, kernel, 5, SQRT_KERNEL_CCA_EPSILON))
        finally:
            np.random.set_state(state)
        first, second = models
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.f(X), second.f(X))
        np.testing.assert_array_equal(first.g(Y), second.g(Y))

    def test_indefinite_kernel_is_numerical_degeneracy(self):
        X = np.random.default_rng(49).standard_normal((20, 2))
        with pytest.raises(NumericalDegeneracy, match="Y"):
            kernel_cca_fit(X, X + 1.0, IndefiniteKernel(), n_components=2, epsilon=1e-3)

    def test_indefinite_kernel_on_x_alone_names_x(self):
        # Equal points on the Y side center to a zero Gram matrix, so
        # H_Y = n eps I is positive definite; the X side's is not.
        X = np.random.default_rng(50).standard_normal((20, 2))
        with pytest.raises(NumericalDegeneracy, match="^X:"):
            kernel_cca_fit(X, np.ones((20, 2)), IndefiniteKernel(), n_components=2,
                           epsilon=1e-3)

    def test_same_bytes_on_any_core_count(self, jet_pairs, monkeypatch):
        # The jet pairs take the Krylov path, where four components make
        # blocks of 16 columns, each solved by one LAPACK call.
        X, Y = jet_pairs
        fresh = np.random.default_rng(56).uniform([0.0, -4.0], [20.0, 4.0], size=(513, 2))
        kernel = GaussianKernel(BICKLEY_KERNEL_CCA_BANDWIDTH)
        outputs = []
        for cores in ({0}, {0, 1}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
            model = kernel_cca_fit(X, Y, kernel, 4, BICKLEY_KERNEL_CCA_EPSILON)
            outputs.append([model.eigenvalues.tobytes(), model.f.second.weights.tobytes(),
                            model.g.second.weights.tobytes(), model.project(fresh, 4).tobytes()])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_scipys_blas_threads_come_back_also_after_a_worker_raises(self, jet_pairs,
                                                                        monkeypatch):
        # Every SciPy LAPACK call of a kernel fit runs on one thread, on the
        # dense and the Krylov path of kernel CCA and in kernel EDMD, and the
        # caller's count comes back after a return and after a raise.
        _, threads, set_threads = _native._lapack()
        before = threads()
        X = np.random.default_rng(53).standard_normal((40, 2))
        jet = GaussianKernel(BICKLEY_KERNEL_CCA_BANDWIDTH)
        fits = {
            "dense": lambda: kernel_cca_fit(X, X + 0.1, GaussianKernel(1.0), 2, 1e-3),
            "krylov": lambda: kernel_cca_fit(*jet_pairs, jet, 4, BICKLEY_KERNEL_CCA_EPSILON),
            "edmd": lambda: kernel_edmd_fit(X, X + 0.1, GaussianKernel(1.0), 1e-3, 2),
        }
        called = {
            "dense": {"_dpotrf", "eigh", "solve_triangular", "cho_solve"},
            "krylov": {"_dpotrf", "eigh", "cho_solve"},
            "edmd": {"dpstrf"},
        }
        seen = {}

        def spy(owner, name):
            def call(*args, _original=getattr(owner, name), **kwargs):
                seen.setdefault(name, set()).add(threads())
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, call)

        def failing(*args, **kwargs):
            raise RuntimeError("worker failed")

        try:
            set_threads(2)
            expected = threads()
            for owner, name in ((scipy.linalg, "eigh"), (scipy.linalg, "solve_triangular"),
                                (scipy.linalg, "cho_solve"), (scipy.linalg.lapack, "dpstrf"),
                                (_native, "_dpotrf")):
                spy(owner, name)
            for case, fit in fits.items():
                seen.clear()
                fit()
                assert seen == {name: {1} for name in called[case]}, case
                assert threads() == expected
            monkeypatch.setattr(_native, "_dpotrf", failing)
            monkeypatch.setattr(scipy.linalg.lapack, "dpstrf", failing)
            for case in ("dense", "edmd"):
                with pytest.raises(RuntimeError, match="worker failed"):
                    fits[case]()
                assert threads() == expected
        finally:
            set_threads(before)

    @pytest.mark.parametrize("case", ["dense", "krylov", "kernel_edmd"])
    def test_same_bytes_at_one_and_two_scipy_blas_threads(self, case, jet_pairs,
                                                           sqrt_kernel_edmd):
        # The dense case is the gapless fit of test_gapless_fit_takes_dense_path.
        _, threads, set_threads = _native._lapack()
        before = threads()
        fresh = np.random.default_rng(57).uniform([0.0, -4.0], [20.0, 4.0], size=(513, 2))
        if case == "dense":
            X = np.random.default_rng(17).uniform([0.0, -4.0], [20.0, 4.0], size=(300, 2))
            Y = bickley_flow(X, 0.0, 4.0, 2e-2)

            def fit():
                model = kernel_cca_fit(X, Y, GaussianKernel(0.05), 8, 1e-6)
                return [model.eigenvalues, model.f.second.weights, model.g.second.weights,
                        model.project(fresh, 8)]
        elif case == "krylov":
            def fit():
                model = kernel_cca_fit(*jet_pairs, GaussianKernel(BICKLEY_KERNEL_CCA_BANDWIDTH),
                                       8, BICKLEY_KERNEL_CCA_EPSILON)
                return [model.eigenvalues, model.f.second.weights, model.g.second.weights,
                        model.project(fresh, 8)]
        else:
            def fit():
                model = kernel_edmd_fit(*sqrt_kernel_edmd[0], n_components=2)
                return [model.eigenvalues, model.K, model.projection_matrix]
        outputs = []
        try:
            for count in (1, 2):
                set_threads(count)
                outputs.append([a.tobytes() for a in fit()])
        finally:
            set_threads(before)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("fit", ["kernel_cca", "kernel_edmd"])
    def test_project_and_propagate_keep_the_bytes_of_the_feature_matrix(self, fit):
        rng = np.random.default_rng(54)
        X = rng.standard_normal((300, 2))
        Y = X + 0.1 * rng.standard_normal((300, 2))
        if fit == "kernel_cca":
            model = kernel_cca_fit(X, Y, GaussianKernel(1.0), 3, 1e-3)
        else:
            model = kernel_edmd_fit(X, Y, GaussianKernel(1.0), 1e-3, 3)
        for points in (rng.standard_normal((513, 2)), X):
            F = model.f(points)
            np.testing.assert_array_equal(model.project(points, 2),
                                          np.real(F @ model.projection_matrix[:, :2]))
            np.testing.assert_array_equal(model.propagate(points), F @ model.K)

    def test_correlations_in_unit_interval_descending(self):
        rng = np.random.default_rng(41)
        X = rng.standard_normal((250, 2))
        Y = 0.7 * X + 0.3 * rng.standard_normal((250, 2))
        model = kernel_cca_fit(X, Y, GaussianKernel(1.0), n_components=5, epsilon=1e-3)
        s = model.eigenvalues
        assert np.all(s <= 1.0 + 1e-10) and np.all(s >= -1e-12)
        assert np.all(np.diff(np.real(s)) <= 1e-12)

    def test_strong_dependence_scores_higher_than_independence(self):
        rng = np.random.default_rng(43)
        X = rng.standard_normal((300, 1))
        dependent = kernel_cca_fit(
            X, np.sin(2 * X) + 0.05 * rng.standard_normal((300, 1)),
            GaussianKernel(1.0), n_components=1, epsilon=1e-3,
        )
        independent = kernel_cca_fit(
            X, rng.standard_normal((300, 1)),
            GaussianKernel(1.0), n_components=1, epsilon=1e-3,
        )
        assert dependent.eigenvalues[0] > independent.eigenvalues[0] + 0.2

    def test_projection_evaluates_anywhere(self):
        rng = np.random.default_rng(47)
        X = rng.standard_normal((150, 2))
        Y = np.roll(X, 1, axis=0)
        model = kernel_cca_fit(X, Y, GaussianKernel(1.0), n_components=3, epsilon=1e-2)
        fresh = rng.standard_normal((20, 2))
        proj = model.project(fresh, 3)
        assert proj.shape == (20, 3)
        assert np.all(np.isfinite(proj))

    @pytest.mark.parametrize("seed", range(4))
    def test_paired_singular_functions_correlate_positively(self, seed):
        obs, _ = sample_sqrt_model(601, seed=seed)
        X, Y = obs[:-1], obs[1:]
        model = kernel_cca_fit(X, Y, GaussianKernel(SQRT_KERNEL_CCA_BANDWIDTH),
                               n_components=5, epsilon=SQRT_KERNEL_CCA_EPSILON)
        f, g = model.f(X), model.g(Y)
        corr = [np.corrcoef(f[:, i], g[:, i])[0, 1] for i in range(5)]
        assert min(corr) >= 0.0, corr

    def test_zero_correlation_gives_finite_functions(self):
        X = np.zeros((10, 1))
        Y = np.random.default_rng(48).standard_normal((10, 1))
        with np.errstate(all="raise"):
            model = kernel_cca_fit(X, Y, GaussianKernel(1.0), n_components=2, epsilon=1e-3)
        np.testing.assert_array_equal(model.eigenvalues, 0.0)
        assert np.all(np.isfinite(model.g(Y)))

    def test_constant_x_on_the_krylov_path_keeps_no_pair(self, monkeypatch):
        # A constant X centres to a zero Gram matrix, so R_X = 0. At 60 points
        # the Krylov solve runs, and its Rayleigh-Ritz step keeps no pair.
        solve, found = decomposition._cca_krylov, []

        def spy(*args):
            found.append(solve(*args))
            return found[-1]

        monkeypatch.setattr(decomposition, "_cca_krylov", spy)
        X = np.ones((60, 2))
        Y = np.random.default_rng(48).standard_normal((60, 2))
        with np.errstate(all="raise"):
            model = kernel_cca_fit(X, Y, GaussianKernel(1.0), n_components=2, epsilon=1e-3)
        assert found[0] is not None and found[0][0].size == 0
        np.testing.assert_array_equal(model.eigenvalues, 0.0)
        for values in (model.f(X), model.g(Y)):
            assert values.shape == (60, 2)
            np.testing.assert_array_equal(values, 0.0)

    def test_validation(self):
        X = np.zeros((10, 1))
        for epsilon in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidArgument, match="epsilon"):
                kernel_cca_fit(X, X, GaussianKernel(1.0), n_components=3, epsilon=epsilon)
        with pytest.raises(InvalidArgument):
            kernel_cca_fit(X, X, GaussianKernel(1.0), n_components=11, epsilon=1e-3)


class TestKvad:
    @staticmethod
    def _pairs(n=300, seed=53):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=(n, 1))
        Y = np.sign(X) + 0.2 * rng.standard_normal((n, 1))
        return X, Y

    def test_score_monotone_in_feature_span(self):
        # Richer nested feature sets never lower the embedded predictability.
        X, Y = self._pairs()
        kernel = GaussianKernel(0.5)
        G_Y = gram_matrix(kernel, Y)
        scores = [_kvad_score(MonomialFeatures(1, max_degree=d)(X), G_Y) for d in (1, 2, 3, 5)]
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:])), scores

    def test_fitted_score_dominates_constant_baseline(self):
        X, Y = self._pairs()
        kernel = GaussianKernel(0.5)
        model = kvad_fit(X, Y, IdentityFeatures(1), kernel)
        baseline = _kvad_score(np.ones((X.shape[0], 1)), gram_matrix(kernel, Y))
        assert model.score >= baseline - 1e-12

    def test_transition_weights_rows_predict_forward_kernel_mass(self):
        X, Y = self._pairs()
        model = kvad_fit(X, Y, MonomialFeatures(1, max_degree=2), GaussianKernel(0.5))
        W = model.f(X) @ model.q_weights.T
        assert W.shape == (X.shape[0], X.shape[0])
        # the constant feature keeps predicted densities normalized exactly
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-8)

    def test_rescoring_on_fresh_data(self):
        X, Y = self._pairs(seed=57)
        model = kvad_fit(X, Y, MonomialFeatures(1, max_degree=2), GaussianKernel(0.5))
        X2, Y2 = self._pairs(seed=59)
        fresh = kvad_score(model, X2, Y2)
        assert np.isfinite(fresh) and fresh > 0

    def test_projection_shape_and_mismatch(self):
        X, Y = self._pairs()
        model = kvad_fit(X, Y, MonomialFeatures(1, max_degree=2), GaussianKernel(0.5))
        proj = model.project(X, 2)
        assert proj.shape == (X.shape[0], 2)
        with pytest.raises(InvalidArgument):
            kvad_fit(X[:10], Y[:9], IdentityFeatures(1), GaussianKernel(0.5))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_vamp_score_never_exceeds_rank_bound(seed):
    """VAMP-2 of a whitened model is at most its component count."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((60, 3))
    Y = rng.standard_normal((60, 3))
    cov = covariances_from_pairs(X, Y, remove_mean=True)
    model = vamp_fit(cov)
    assert vamp_score(model, r=2) <= model.n_components + 1e-8
