"""Tests for k-means clustering with k-means++ seeding."""

import os
import shutil

import numpy as np
import pytest

from lagtime import _native, clustering
from lagtime.clustering import ClusteringModel, kmeans_assign, kmeans_fit
from lagtime.errors import InsufficientData, InvalidArgument
from lagtime.numerics import _rng


def three_blobs(seed=0, per_blob=100, spread=0.2):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    points = np.concatenate(
        [c + spread * rng.normal(size=(per_blob, 2)) for c in centers]
    )
    labels = np.repeat(np.arange(3), per_blob)
    return points, centers, labels


class TestKmeansFit:
    def test_recovers_separated_blobs(self):
        X, true_centers, labels = three_blobs()
        model = kmeans_fit(X, 3, seed=0)
        # Match fitted centers to the true ones by nearest distance.
        matched = model.centers[kmeans_assign(model.centers, true_centers)]
        np.testing.assert_allclose(matched, true_centers, atol=0.15)
        assigned = model.assign(X)
        # Points of one blob all share one label.
        for blob in range(3):
            blob_labels = assigned[labels == blob]
            assert np.all(blob_labels == blob_labels[0])

    def test_same_seed_is_deterministic(self):
        X, _, _ = three_blobs(seed=1)
        a = kmeans_fit(X, 3, seed=42)
        b = kmeans_fit(X, 3, seed=42)
        np.testing.assert_array_equal(a.centers, b.centers)
        assert a.inertia == b.inertia
        assert a.n_iterations == b.n_iterations

    def test_inertia_equals_sum_of_squared_distances_to_nearest(self):
        X, _, _ = three_blobs(seed=2)
        model = kmeans_fit(X, 3, seed=0)
        labels = model.assign(X)
        manual = sum(
            np.sum((X[labels == j] - model.centers[j]) ** 2)
            for j in range(len(model.centers))
        )
        assert model.inertia == pytest.approx(manual, rel=1e-12)

    def test_more_iterations_never_increase_inertia(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 4))
        previous = np.inf
        for max_iter in (1, 2, 5, 20, 100):
            model = kmeans_fit(
                X, 6, seed=7, n_restarts=1, max_iter=max_iter, tol=0.0
            )
            assert model.inertia <= previous + 1e-9
            previous = model.inertia

    def test_more_restarts_never_increase_inertia(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(200, 3))
        inertias = [
            kmeans_fit(X, 5, seed=11, n_restarts=r).inertia for r in (1, 2, 5)
        ]
        assert inertias[0] >= inertias[1] >= inertias[2]

    def test_one_cluster_center_is_the_mean(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 2)) + 3.0
        model = kmeans_fit(X, 1, seed=0)
        np.testing.assert_allclose(model.centers[0], X.mean(axis=0), atol=1e-10)

    def test_as_many_clusters_as_points_reaches_zero_inertia(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
        model = kmeans_fit(X, 4, seed=0)
        assert model.inertia == pytest.approx(0.0, abs=1e-20)

    def test_duplicate_points_are_handled(self):
        X = np.zeros((10, 2))
        model = kmeans_fit(X, 2, seed=0)
        assert np.all(np.isfinite(model.centers))
        assert model.inertia == pytest.approx(0.0, abs=1e-20)

    def test_one_dimensional_input_is_promoted(self):
        x = np.concatenate([np.zeros(20), np.ones(20) * 4.0])
        model = kmeans_fit(x, 2, seed=0)
        assert model.centers.shape == (2, 1)
        np.testing.assert_allclose(sorted(model.centers.ravel()), [0.0, 4.0], atol=1e-10)

    def test_validation(self):
        X = np.zeros((5, 2))
        with pytest.raises(InvalidArgument):
            kmeans_fit(X, 0, seed=0)
        with pytest.raises(InsufficientData):
            kmeans_fit(X, 6, seed=0)
        with pytest.raises(InvalidArgument):
            kmeans_fit(X, 2, seed=0, n_restarts=0)
        with pytest.raises(InvalidArgument):
            kmeans_fit(np.zeros((2, 2, 2)), 1, seed=0)
        with pytest.raises(InvalidArgument, match="no columns"):
            kmeans_fit(np.zeros((5, 0)), 2, seed=0)

    def test_non_finite_point_is_named(self):
        X, _, _ = three_blobs(seed=7)
        X[41, 0] = np.nan
        with pytest.raises(InvalidArgument, match="X row 42 "):
            kmeans_fit(X, 3, seed=0)


class TestKmeansAssign:
    def test_assigns_nearest_center(self):
        centers = np.array([[0.0, 0.0], [10.0, 0.0]])
        X = np.array([[1.0, 1.0], [9.0, -1.0], [4.9, 0.0], [5.1, 0.0]])
        np.testing.assert_array_equal(kmeans_assign(centers, X), [0, 1, 0, 1])

    def test_model_assign_matches_function(self):
        X, _, _ = three_blobs(seed=6)
        model = kmeans_fit(X, 3, seed=1)
        np.testing.assert_array_equal(
            model.assign(X), kmeans_assign(model.centers, X)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgument):
            kmeans_assign(np.zeros((2, 3)), np.zeros((5, 2)))
        with pytest.raises(InvalidArgument):
            kmeans_assign(np.zeros(3), np.zeros((5, 3)))

    def test_three_dimensional_data_is_rejected(self):
        with pytest.raises(InvalidArgument, match="ndim 3"):
            kmeans_assign(np.zeros((2, 2)), np.zeros((3, 2, 2)))


class TestClusteringModel:
    def test_reports_cluster_count(self):
        X, _, _ = three_blobs(seed=7)
        model = kmeans_fit(X, 3, seed=0)
        assert model.centers.shape == (3, X.shape[1])
        assert isinstance(model, ClusteringModel)
        assert model.converged


requires_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


def blobs(seed, n, d, k):
    """n points around k centers spread far apart in d dimensions."""
    rng = np.random.default_rng(seed)
    centers = 10.0 * rng.standard_normal((k, d))
    return centers[rng.integers(k, size=n)] + rng.standard_normal((n, d))


def lloyd_fits(X, starts, max_iter, tol):
    """(centers, iterations, converged) of each of ``starts`` after the Lloyd
    loops of ``clustering._kmeans_lloyd``, on the backend that is loaded."""
    (n, d), (r, k, _) = X.shape, starts.shape
    info = np.empty((r, 2), dtype=np.int64)
    clustering._kmeans_lloyd(X, n, d, k, r, max_iter, tol, starts, info,
                             np.empty(n + 2 * k, dtype=np.int64), np.empty(2 * n + k * d))
    return [(centers, int(iters), bool(converged))
            for centers, (iters, converged) in zip(starts, info)]


# (seed, points, dimensions, clusters); one column is summed pairwise.
LLOYD_CASES = [(0, 400, 1, 2), (1, 999, 1, 3), (2, 600, 2, 4), (3, 900, 9, 9), (4, 300, 5, 3)]


@requires_cc
class TestCompiledLloyd:
    """``kmeans_lloyd`` in C against ``_lloyd``, on inputs without near-ties."""

    @staticmethod
    def assert_same_fits(X, starts, max_iter=300, tol=1e-8):
        assert _native._compiled_kernels()[1] == "c"
        compiled = lloyd_fits(X, starts.copy(), max_iter, tol)
        for start, (centers, iters, converged) in zip(starts, compiled):
            reference, ref_iters, ref_converged = clustering._lloyd(X, start, max_iter, tol)
            np.testing.assert_array_equal(kmeans_assign(centers, X), kmeans_assign(reference, X))
            np.testing.assert_allclose(centers, reference, rtol=1e-12, atol=0.0)
            assert (iters, converged) == (ref_iters, ref_converged)

    @pytest.mark.parametrize("seed, n, d, k", LLOYD_CASES)
    def test_matches_the_reference_from_kmeans_plus_plus_starts(self, seed, n, d, k):
        X = blobs(seed, n, d, k)
        starts = np.stack([clustering._kmeans_plus_plus(X, k, _rng(seed + r)) for r in range(4)])
        self.assert_same_fits(X, starts)
        # Cut short: the iteration cap stops both loops unconverged.
        self.assert_same_fits(X, starts, max_iter=2, tol=0.0)

    def test_one_column_is_summed_as_numpy_sums_it(self):
        # np.mean adds a single column pairwise, not row by row; the C loop
        # does the same, so one-column centres (the sqrt experiment
        # clusters one column) keep their bytes.
        X = blobs(6, 5000, 1, 2)
        starts = np.stack([clustering._kmeans_plus_plus(X, 2, _rng(r)) for r in range(3)])
        assert _native._compiled_kernels()[1] == "c"
        compiled = lloyd_fits(X, starts.copy(), 1, 0.0)
        for start, (centers, _, _) in zip(starts, compiled):
            assert centers.tobytes() == clustering._lloyd(X, start, 1, 0.0)[0].tobytes()

    @pytest.mark.parametrize("d", [1, 3])
    def test_empty_clusters_are_reseeded_alike(self, d):
        # Two starts lie far from every point, so both clusters empty at
        # once: the first takes the farthest point, the second the next one.
        X = blobs(5, 300, d, 2)
        starts = np.stack([X[0], X[1], np.full(d, 1e3), np.full(d, 2e3)])[None]
        first, _, _ = clustering._lloyd(X, starts[0], 1, 0.0)
        reseeded = [int(np.flatnonzero((X == center).all(axis=1))[0]) for center in first[2:]]
        assert reseeded[0] != reseeded[1]
        self.assert_same_fits(X, starts, max_iter=1, tol=0.0)
        self.assert_same_fits(X, starts)

    @pytest.mark.parametrize("seed, n, d, k", LLOYD_CASES)
    def test_kmeans_fit_matches_the_python_backend(self, backends, seed, n, d, k):
        X = blobs(seed, n, d, k)
        fits = {backend: kmeans_fit(X, k, seed=seed, n_restarts=6) for backend in backends}
        compiled, reference = fits["c"], fits["python"]
        np.testing.assert_array_equal(compiled.assign(X), reference.assign(X))
        np.testing.assert_allclose(compiled.centers, reference.centers, rtol=1e-12, atol=0.0)
        assert compiled.inertia == pytest.approx(reference.inertia, rel=1e-12)
        assert (compiled.n_iterations, compiled.converged) == (
            reference.n_iterations, reference.converged)


class TestCoreCount:
    """Restarts split over the usable cores; the fit does not depend on how many."""

    @pytest.mark.parametrize("seed, n, d, k", LLOYD_CASES)
    def test_centers_do_not_depend_on_the_core_count(self, monkeypatch, seed, n, d, k):
        X = blobs(seed, n, d, k)
        fits = []
        for cores in ({0}, {0, 1}, os.sched_getaffinity(0)):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
            model = kmeans_fit(X, k, seed=seed, n_restarts=7)
            fits.append((model.centers.tobytes(), model.inertia, model.n_iterations))
        assert fits[0] == fits[1] == fits[2]

    @pytest.mark.parametrize("compiled", [True, False])
    def test_a_tie_goes_to_the_earliest_restart(self, monkeypatch, backends, compiled):
        # From one point per blob Lloyd needs two iterations, from the blob
        # means one; both end on the same centers, hence the same inertia.
        if compiled and shutil.which("cc") is None:
            pytest.skip("no C compiler")
        # Leaves the backends generator on the backend under test.
        next(backend for backend in backends if backend == ("c" if compiled else "python"))
        X, _, labels = three_blobs(seed=8)
        slow = X[[0, 100, 200]]
        fast = np.stack([X[labels == j].mean(axis=0) for j in range(3)])
        for order, iterations in (([slow, slow, fast, fast], 2), ([fast, fast, slow, slow], 1)):
            for cores in ({0}, {0, 1}):
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
                starts = iter(order)
                monkeypatch.setattr(clustering, "_kmeans_plus_plus",
                                    lambda X, k, rng: next(starts).copy())
                model = kmeans_fit(X, 3, seed=0, n_restarts=4)
                np.testing.assert_array_equal(model.centers, fast)
                assert model.n_iterations == iterations
