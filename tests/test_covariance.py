import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagtime.covariance import (
    CovarianceAccumulator,
    covariances_from_pairs,
    estimate_covariances,
    lagged_pairs,
)
from lagtime.errors import InsufficientData, InvalidArgument


def batch_reference(X, Y, symmetrize=False, remove_mean=True):
    """Straightforward dense reference for the streaming estimator.

    Means are always the empirical means (pooled under symmetrization);
    moments are centered only when ``remove_mean``; the normalization is
    1/(n-1); symmetrization averages the two instantaneous blocks and the
    cross block with its transpose.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n = X.shape[0]
    if symmetrize:
        mx = my = 0.5 * (X.mean(axis=0) + Y.mean(axis=0))
    else:
        mx, my = X.mean(axis=0), Y.mean(axis=0)
    shift_x = mx if remove_mean else np.zeros(X.shape[1])
    shift_y = my if remove_mean else np.zeros(X.shape[1])
    Xc, Yc = X - shift_x, Y - shift_y
    denom = n - 1
    c00 = Xc.T @ Xc / denom
    ctt = Yc.T @ Yc / denom
    c0t = Xc.T @ Yc / denom
    if symmetrize:
        c00 = ctt = 0.5 * (c00 + ctt)
        c0t = 0.5 * (c0t + c0t.T)
    return mx, my, c00, c0t, ctt


class TestLaggedPairs:
    def test_basic(self):
        traj = np.arange(10.0)
        X, Y = lagged_pairs(traj, 3)
        np.testing.assert_array_equal(X[:, 0], np.arange(7.0))
        np.testing.assert_array_equal(Y[:, 0], np.arange(3.0, 10.0))

    def test_lag_too_large(self):
        with pytest.raises(InsufficientData):
            lagged_pairs(np.arange(4.0), 4)

    def test_invalid_lag(self):
        with pytest.raises(InvalidArgument):
            lagged_pairs(np.arange(4.0), 0)


class TestAgainstBatchReference:
    @pytest.mark.parametrize("symmetrize", [False, True])
    @pytest.mark.parametrize("remove_mean", [False, True])
    def test_matches_reference(self, symmetrize, remove_mean):
        rng = np.random.default_rng(42)
        X = rng.standard_normal((500, 3))
        Y = rng.standard_normal((500, 3)) + 0.3 * X
        if symmetrize and not remove_mean:  # no caller asks for raw symmetrized moments
            with pytest.raises(InvalidArgument, match="always mean-free"):
                covariances_from_pairs(X, Y, symmetrize=True, remove_mean=False)
            return
        model = covariances_from_pairs(
            X, Y, symmetrize=symmetrize, remove_mean=remove_mean
        )
        mx, my, c00, c0t, ctt = batch_reference(X, Y, symmetrize, remove_mean)
        np.testing.assert_allclose(model.mean_0, mx, atol=1e-12)
        np.testing.assert_allclose(model.mean_t, my, atol=1e-12)
        np.testing.assert_allclose(model.c00, c00, atol=1e-12)
        np.testing.assert_allclose(model.c0t, c0t, atol=1e-12)
        np.testing.assert_allclose(model.ctt, ctt, atol=1e-12)
        assert model.symmetrized == symmetrize
        assert model.mean_removed == remove_mean
        assert model.n_pairs == 500


class TestChunkedEqualsBatch:
    def test_fixed_chunking(self):
        rng = np.random.default_rng(7)
        traj = rng.standard_normal((1000, 4))
        batch = estimate_covariances([traj], lag=2)
        chunked = estimate_covariances([traj], lag=2, chunk_size=37)
        for name in ("mean_0", "mean_t", "c00", "c0t", "ctt"):
            np.testing.assert_allclose(
                getattr(chunked, name), getattr(batch, name), atol=1e-12
            )

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        chunk=st.integers(1, 200),
        lag=st.integers(1, 5),
    )
    def test_any_chunking(self, seed, chunk, lag):
        rng = np.random.default_rng(seed)
        traj = rng.standard_normal((240, 2))
        batch = estimate_covariances([traj], lag=lag)
        chunked = estimate_covariances([traj], lag=lag, chunk_size=chunk)
        for name in ("c00", "c0t", "ctt"):
            np.testing.assert_allclose(
                getattr(chunked, name), getattr(batch, name), atol=1e-12
            )

    def test_batch_of_many_row_blocks_matches_chunks(self):
        # Past 8192 rows a batch is centred and multiplied block by block.
        rng = np.random.default_rng(10)
        traj = rng.standard_normal((30_000, 3)).cumsum(axis=0) * 0.01 + 5.0
        batch = estimate_covariances([traj], lag=3)
        for chunk in (4096, 8192, 12_345):
            chunked = estimate_covariances([traj], lag=3, chunk_size=chunk)
            for name in ("mean_0", "mean_t", "c00", "c0t", "ctt"):
                np.testing.assert_allclose(
                    getattr(chunked, name), getattr(batch, name), rtol=0, atol=1e-12
                )

    def test_long_batch_allocates_no_full_length_copy(self):
        traj = np.random.default_rng(11).standard_normal((200_000, 20))
        tracemalloc.start()
        try:
            estimate_covariances(traj, lag=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < traj.nbytes / 4, peak

    def test_merge_equals_single_accumulator(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((300, 3))
        Y = rng.standard_normal((300, 3))
        whole = CovarianceAccumulator(3).partial_fit(X, Y)
        left = CovarianceAccumulator(3).partial_fit(X[:120], Y[:120])
        right = CovarianceAccumulator(3).partial_fit(X[120:], Y[120:])
        merged = left.merge(right)
        a = whole.finalize()
        b = merged.finalize()
        np.testing.assert_allclose(a.c00, b.c00, atol=1e-12)
        np.testing.assert_allclose(a.c0t, b.c0t, atol=1e-12)
        np.testing.assert_allclose(a.ctt, b.ctt, atol=1e-12)

    def test_empty_chunks_and_accumulators_change_no_byte(self):
        rng = np.random.default_rng(12)
        X, Y = rng.standard_normal((50, 3)), rng.standard_normal((50, 3))
        full = CovarianceAccumulator(3).partial_fit(X, Y)
        moments = ("n", "mean_x", "mean_y", "m_xx", "m_xy", "m_yy")
        before = [np.copy(getattr(full, name)) for name in moments]
        full.partial_fit(np.empty((0, 3)), np.empty((0, 3))).merge(CovarianceAccumulator(3))
        # An empty accumulator takes on the other's moments through the
        # general update, bit for bit.
        into_empty = CovarianceAccumulator(3).merge(full)
        for acc in (full, into_empty):
            for name, value in zip(moments, before):
                assert np.asarray(getattr(acc, name)).tobytes() == value.tobytes(), name


class TestMultipleTrajectories:
    def test_pairs_do_not_cross_boundaries(self):
        t1 = np.zeros((5, 1))
        t2 = np.ones((5, 1))
        model = estimate_covariances([t1, t2], lag=1)
        # 4 pairs from each trajectory; a crossing pair would mix 0 and 1.
        # Centred cross moment about the mean 0.5: 8 * 0.25 = 2, over n-1 = 7.
        assert model.n_pairs == 8
        np.testing.assert_allclose(model.c0t, [[2.0 / 7.0]], atol=1e-15)

    def test_short_trajectories_skipped(self):
        t_short = np.zeros((2, 1))
        t_long = np.random.default_rng(0).standard_normal((50, 1))
        model = estimate_covariances([t_short, t_long], lag=5)
        assert model.n_pairs == 45

    def test_all_too_short(self):
        with pytest.raises(InsufficientData):
            estimate_covariances([np.zeros((3, 1))], lag=10)

    @pytest.mark.parametrize("trajectories", [[], np.zeros((0, 4, 2))])
    def test_no_trajectories(self, trajectories):
        with pytest.raises(InsufficientData, match="^no trajectories given$"):
            estimate_covariances(trajectories, lag=1)


class TestSymmetrizedStructure:
    def test_symmetric_blocks(self):
        rng = np.random.default_rng(11)
        traj = rng.standard_normal((400, 3))
        model = estimate_covariances([traj], lag=1, symmetrize=True)
        np.testing.assert_allclose(model.c00, model.ctt, atol=1e-14)
        np.testing.assert_allclose(model.c0t, model.c0t.T, atol=1e-14)
        np.testing.assert_array_equal(model.mean_0, model.mean_t)

    def test_dim_property(self):
        traj = np.random.default_rng(0).standard_normal((50, 4))
        model = estimate_covariances([traj], lag=1)
        assert model.dim == 4


class TestAccumulatorValidation:
    def test_mismatched_shapes(self):
        acc = CovarianceAccumulator(2)
        with pytest.raises(InvalidArgument):
            acc.partial_fit(np.zeros((5, 2)), np.zeros((4, 2)))

    def test_wrong_dim(self):
        acc = CovarianceAccumulator(2)
        with pytest.raises(InvalidArgument):
            acc.partial_fit(np.zeros((5, 3)), np.zeros((5, 3)))

    def test_one_dimensional_chunks_are_scalar_frames(self):
        series = np.random.default_rng(4).standard_normal(50).cumsum()
        acc = CovarianceAccumulator(1).partial_fit(series[:-1], series[1:])
        streamed, batch = acc.finalize(), estimate_covariances(series, lag=1)
        for key in ("mean_0", "mean_t", "c00", "c0t", "ctt"):
            np.testing.assert_allclose(getattr(streamed, key), getattr(batch, key), rtol=1e-12)

    def test_non_finite_frame_is_named(self):
        traj = np.random.default_rng(5).standard_normal((30, 2))
        traj[11, 1] = np.nan
        with pytest.raises(InvalidArgument, match="trajectory row 12 "):
            estimate_covariances(traj, lag=2)
        with pytest.raises(InvalidArgument, match="X row 12 "):
            CovarianceAccumulator(2).partial_fit(traj[:-1], traj[1:])
        with pytest.raises(InvalidArgument, match="Y row 11 "):
            CovarianceAccumulator(2).partial_fit(traj[:11], traj[1:12])

    def test_empty_finalize(self):
        with pytest.raises(InsufficientData):
            CovarianceAccumulator(2).finalize()

    def test_merge_dim_mismatch(self):
        with pytest.raises(InvalidArgument):
            CovarianceAccumulator(2).merge(CovarianceAccumulator(3))
