import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagtime import _native
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
        assert gram_matrix(k, x[None])[0, 0] == pytest.approx(1.0)

    def test_known_value(self):
        k = GaussianKernel(2.0)
        # ||x-y||^2 = 8, sigma^2 = 4 -> exp(-8 / 8) = exp(-1)
        x, y = np.array([0.0, 0.0]), np.array([2.0, 2.0])
        assert gram_matrix(k, x[None], y[None])[0, 0] == pytest.approx(np.exp(-1.0))

    def test_invalid_bandwidth(self):
        for sigma in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(InvalidArgument, match="sigma"):
                GaussianKernel(sigma)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 400))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        k = GaussianKernel(float(rng.uniform(0.2, 3.0)))
        x, y = rng.standard_normal((2, 3))
        v = gram_matrix(k, x[None], y[None])[0, 0]
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
                assert G[i, j] == pytest.approx(gram_matrix(k, A[i][None], B[j][None])[0, 0])

    def test_blocking_invariance(self):
        # 1100 rows: two full blocks of 512 rows and a ragged one of 76.
        rng = np.random.default_rng(2)
        A = rng.standard_normal((1100, 3))
        k = GaussianKernel(1.2)
        G = gram_matrix(k, A)
        whole = np.empty((1100, 1100))
        k._pairwise_into(A, A, whole)  # the kernel's one method, unblocked
        np.testing.assert_allclose(G, whole, rtol=0, atol=1e-14)
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

    @staticmethod
    def serial_blocks(sigma, A, B):
        """The one-thread assembly with a fresh array per block, verbatim."""
        symmetric = B is A
        m, n = A.shape[0], B.shape[0]
        G = np.empty((m, n))
        for i in range(0, m, 512):
            hi = min(i + 512, m)
            for j in range(0, n, 512):
                hj = min(j + 512, n)
                if symmetric and j < i:
                    G[i:hi, j:hj] = G[j:hj, i:hi].T
                else:
                    a, b = A[i:hi], B[j:hj]
                    sq = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
                          - 2.0 * (a @ b.T))
                    np.maximum(sq, 0.0, out=sq)
                    G[i:hi, j:hj] = np.exp(-sq / (2.0 * sigma**2))
                    if symmetric and j == i:
                        block = G[i:hi, j:hj]
                        block[...] = np.triu(block) + np.triu(block, 1).T
        return G

    @pytest.mark.parametrize("m, n, d", [(1100, 1100, 2), (1100, 700, 3), (513, 1030, 1)])
    def test_bytes_do_not_depend_on_the_core_count(self, monkeypatch, m, n, d):
        # Blocks are written in place and spread over the cores, and still
        # give the bytes of the serial loop, symmetric (A with itself) or not.
        rng = np.random.default_rng(6)
        A, B = rng.standard_normal((m, d)), rng.standard_normal((n, d))
        for other in (A, B):
            expected = self.serial_blocks(0.7, A, other).tobytes()
            for cores in ({0}, {0, 1}, os.sched_getaffinity(0)):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
                G = gram_matrix(GaussianKernel(0.7), A, other)
                assert G.tobytes() == expected
                if other is A:
                    assert np.array_equal(G, G.T)


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
        # handing LAPACK's dpotrf their transposes; the sections it returns,
        # built by _centered_on and evaluated at their own anchors, must give
        # the same matrices bit for bit. The two factorizations run at once,
        # so each matrix is matched to its side by its values.
        factored, dpotrf = [], _native._dpotrf

        def recording_dpotrf(a):
            factored.append(a.copy())
            return dpotrf(a)

        monkeypatch.setattr(_native, "_dpotrf", recording_dpotrf)
        Y = pts + 0.1 * rng.standard_normal(pts.shape)
        epsilon = 1e-3
        model = kernel_cca_fit(pts, Y, k, 2, epsilon)
        assert len(factored) == 2
        for sections, points in [(model.g.first, Y), (model.f.first, pts)]:
            shifted = sections(points)
            shifted.flat[:: n + 1] += n * epsilon
            matrix = min(factored, key=lambda a: np.abs(a.T - shifted).max())
            np.testing.assert_array_equal(shifted, matrix.T)

    @pytest.mark.parametrize("centered", [True, False])
    def test_row_blocks_give_the_bytes_of_the_full_matrix(self, centered, monkeypatch):
        # Kernel CCA's sections are centered, kernel EDMD's are not. 601
        # anchors and 8 columns make blocks of one 512-row band, and leave a
        # last column tile whose width is no multiple of 8. 257 and 513 rows
        # end in a one-row band, 1537 in a one-row band after three.
        rng = np.random.default_rng(9)
        k = GaussianKernel(0.8)
        Z = rng.standard_normal((601, 2))
        if centered:
            f = KernelSectionFeatures._centered_on(k, Z, *_gram_means(gram_matrix(k, Z)))
        else:
            f = KernelSectionFeatures(k, Z)
        W = rng.standard_normal((601, 8))
        for cores in ({0}, {0, 1}, {0, 1, 2}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
            for rows in (1, 4, 255, 256, 257, 260, 511, 512, 513, 1537, 2500):
                X = rng.standard_normal((rows, 2))
                np.testing.assert_array_equal(f._times(X, W), f._evaluate(X) @ W)
            # The anchors themselves: gram_matrix mirrors the symmetric matrix.
            np.testing.assert_array_equal(f._times(Z, W), f._evaluate(Z) @ W)

    def test_dimension_out(self):
        pts = np.zeros((12, 3))
        f = KernelSectionFeatures(GaussianKernel(1.0), pts)
        assert f.dimension_in == 3 and f.dimension_out == 12
