import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lagtime.decomposition import kernel_cca_fit
from lagtime.errors import InvalidArgument
from lagtime.kernels import (
    GaussianKernel,
    KernelSectionFeatures,
    _gram_means,
    gram_matrix,
)


class TestGaussianKernel:
    def test_diagonal_is_one(self):
        k = GaussianKernel(1.5)
        x = np.array([0.3, -2.0])
        assert k.pairwise(x[None], x[None])[0, 0] == pytest.approx(1.0)

    def test_known_value(self):
        k = GaussianKernel(2.0)
        # ||x-y||^2 = 8, sigma^2 = 4 -> exp(-8 / 8) = exp(-1)
        x, y = np.array([0.0, 0.0]), np.array([2.0, 2.0])
        assert k.pairwise(x[None], y[None])[0, 0] == pytest.approx(np.exp(-1.0))

    def test_invalid_bandwidth(self):
        with pytest.raises(InvalidArgument):
            GaussianKernel(0.0)
        with pytest.raises(InvalidArgument):
            GaussianKernel(-1.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 400))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        k = GaussianKernel(float(rng.uniform(0.2, 3.0)))
        x, y = rng.standard_normal((2, 3))
        v = k.pairwise(x[None], y[None])[0, 0]
        assert 0.0 < v <= 1.0


class TestGramMatrix:
    def test_symmetric_psd(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((40, 2))
        G = gram_matrix(GaussianKernel(1.0), X)
        np.testing.assert_array_equal(G, G.T)
        evals = np.linalg.eigvalsh(G)
        assert evals.min() > -1e-10

    def test_cross_gram(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((5, 2))
        B = rng.standard_normal((7, 2))
        k = GaussianKernel(0.8)
        G = gram_matrix(k, A, B)
        assert G.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                assert G[i, j] == pytest.approx(k.pairwise(A[i][None], B[j][None])[0, 0])

    def test_blocking_invariance(self):
        # 1100 rows: two full blocks of 512 rows and a ragged one of 76.
        rng = np.random.default_rng(2)
        A = rng.standard_normal((1100, 3))
        k = GaussianKernel(1.2)
        G = gram_matrix(k, A)
        np.testing.assert_allclose(G, k.pairwise(A, A), rtol=0, atol=1e-14)
        assert np.array_equal(G, G.T)

    def test_gaussian_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((20, 4))
        sigma = 0.9
        G = gram_matrix(GaussianKernel(sigma), A)
        D2 = ((A[:, None, :] - A[None, :, :]) ** 2).sum(-1)
        np.testing.assert_allclose(G, np.exp(-D2 / (2 * sigma**2)), atol=1e-12)


    def test_non_finite_point_is_named(self):
        A = np.random.default_rng(5).standard_normal((30, 2))
        A[6, 1] = np.inf
        with pytest.raises(InvalidArgument, match="A row 7 "):
            gram_matrix(GaussianKernel(1.0), A)
        with pytest.raises(InvalidArgument, match="B row 7 "):
            gram_matrix(GaussianKernel(1.0), A[7:], A)


class TestKernelSectionFeatures:
    def test_uncentered_evaluates_gram_rows(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((10, 2))
        k = GaussianKernel(1.0)
        f = KernelSectionFeatures(k, pts)
        X = rng.standard_normal((6, 2))
        np.testing.assert_allclose(f(X), gram_matrix(k, X, pts), atol=1e-14)

    def test_centered_row_sums(self, monkeypatch):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((30, 2))
        k = GaussianKernel(1.0)
        f = KernelSectionFeatures._centered_on(k, pts, *_gram_means(gram_matrix(k, pts)))
        # evaluating at the anchor points reproduces the doubly-centered Gram
        G = gram_matrix(k, pts)
        n = len(pts)
        H = np.eye(n) - np.ones((n, n)) / n
        np.testing.assert_allclose(f(pts), H @ G @ H, atol=1e-10)

        # kernel_cca_fit factors its centered Gram matrices plus n*eps*I,
        # handing Cholesky their transposes; the sections it returns, built by
        # _centered_on and evaluated at their own anchors, must give the same
        # matrices bit for bit.
        factored, cholesky = [], scipy.linalg.cholesky

        def recording_cholesky(a, **kwargs):
            factored.append(a.copy())
            return cholesky(a, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cholesky", recording_cholesky)
        Y = pts + 0.1 * rng.standard_normal(pts.shape)
        epsilon = 1e-3
        model = kernel_cca_fit(pts, Y, k, 2, epsilon)
        for sections, points, matrix in [(model.g.first, Y, factored[0]),
                                         (model.f.first, pts, factored[1])]:
            shifted = sections(points)
            shifted.flat[:: n + 1] += n * epsilon
            np.testing.assert_array_equal(shifted, matrix.T)

    def test_dimension_out(self):
        pts = np.zeros((12, 3))
        f = KernelSectionFeatures(GaussianKernel(1.0), pts)
        assert f.dimension_in == 3 and f.dimension_out == 12
