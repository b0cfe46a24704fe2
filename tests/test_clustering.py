"""Tests for k-means clustering with k-means++ seeding."""

import numpy as np
import pytest

from lagtime.clustering import ClusteringModel, kmeans_assign, kmeans_fit
from lagtime.errors import InsufficientData, InvalidArgument


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
