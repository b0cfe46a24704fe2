"""Tests for discrete-state transition counting, estimation, and analysis."""

import warnings

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from lagtime.basis import IndicatorFeatures
from lagtime.decomposition import edmd_fit
from lagtime.errors import (
    ConvergenceFailure,
    DegenerateInput,
    InsufficientData,
    InvalidArgument,
)
from lagtime import markov
from lagtime.markov import (
    MarkovStateModel,
    TransitionCountModel,
    coherence_score,
    count_transitions,
    largest_connected_submodel,
    mfpt,
    msm_mle,
    read_discrete_trajectory,
    sample_markov_chain,
    spectral_analysis,
    stationary_distribution,
    timescales,
)


def random_count_model(n_states: int, seed: int, low: int = 1, high: int = 50):
    """Dense positive counts: every state communicates with every other."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(low, high, size=(n_states, n_states))
    traj_like = []
    for i in range(n_states):
        for j in range(n_states):
            traj_like.extend([i, j] for _ in range(counts[i, j]))
    # Build through the public API so lag/book-keeping is consistent.
    return count_transitions([np.array(p) for p in traj_like], lag=1)


class TestCountTransitions:
    def test_sliding_lag_one_exact(self):
        traj = np.array([0, 0, 1, 2, 1, 0])
        model = count_transitions(traj, lag=1)
        expected = np.array([
            [1, 1, 0],
            [1, 0, 1],
            [0, 1, 0],
        ])
        np.testing.assert_array_equal(model.count_matrix, expected)
        assert model.lag == 1
        assert model.count_matrix.shape == (3, 3)
        assert model.count_matrix.sum() == 5

    def test_sliding_larger_lag_pairs_every_offset(self):
        traj = np.array([0, 1, 0, 1, 0, 1])
        model = count_transitions(traj, lag=2)
        # Pairs: (0,0),(1,1),(0,0),(1,1) -> diagonal counts only.
        np.testing.assert_array_equal(model.count_matrix, np.diag([2, 2]))

    def test_strided_uses_disjoint_windows(self):
        traj = np.arange(7) % 2  # 0 1 0 1 0 1 0
        sliding = count_transitions(traj, lag=2, counting_mode="sliding")
        strided = count_transitions(traj, lag=2, counting_mode="strided")
        np.testing.assert_array_equal(sliding.count_matrix, np.diag([3, 2]))
        # Strided starts at frames 0, 2, 4 only, and even frames are all 0.
        assert strided.count_matrix.sum() == 3
        np.testing.assert_array_equal(strided.count_matrix, np.diag([3, 0]))

    def test_multiple_trajectories_are_summed(self):
        a = np.array([0, 1])
        b = np.array([1, 0, 1])
        model = count_transitions([a, b], lag=1)
        np.testing.assert_array_equal(model.count_matrix, np.array([[0, 2], [1, 0]]))

    def test_short_trajectories_are_skipped(self):
        model = count_transitions([np.array([0]), np.array([0, 1, 1])], lag=1)
        np.testing.assert_array_equal(model.count_matrix, np.array([[0, 1], [0, 1]]))

    def test_counts_over_the_observed_labels(self):
        model = count_transitions([np.array([7, 2**40, 7]), np.array([2, 7])], lag=1)
        np.testing.assert_array_equal(model.state_symbols, [2, 7, 2**40])
        np.testing.assert_array_equal(model.count_matrix, [[0, 1, 0], [0, 0, 1], [0, 1, 0]])

    def test_float_labels_count_only_when_exact_integers(self):
        model = count_transitions([np.array([0.0, 1.0, 100000.0, 1.0])], 1)
        np.testing.assert_array_equal(model.state_symbols, [0, 1, 100000])
        # 100000.4 lies within np.allclose's relative tolerance of 100000,
        # and a cast to int64 warns for an infinite or too large label.
        for label in (100000.4, np.inf, np.nan, 2.0**63):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidArgument, match="must contain 64-bit integers"):
                    count_transitions([np.array([0.0, 1.0, label, 1.0])], 1)

    def test_invalid_inputs(self):
        with pytest.raises(InvalidArgument):
            count_transitions(np.array([0, 1]), lag=0)
        with pytest.raises(InvalidArgument):
            count_transitions(np.array([0, 1]), lag=1, counting_mode="jumping")
        with pytest.raises(InsufficientData):
            count_transitions([], lag=1)
        with pytest.raises(InsufficientData):
            count_transitions(np.array([0, 1, 2]), lag=10)


class TestConnectedSubmodel:
    def test_one_way_bridge_keeps_larger_strong_component(self):
        # {0,1} and {2,3,4} each communicate internally; 1 -> 2 is one-way.
        traj = np.array([0, 1, 0, 1, 2, 3, 4, 2, 3, 4, 2])
        counts = count_transitions(traj, lag=1)
        sub = largest_connected_submodel(counts)
        np.testing.assert_array_equal(sub.state_symbols, [2, 3, 4])
        assert sub.count_matrix.shape == (3, 3)
        # Submatrix is carried over verbatim.
        np.testing.assert_array_equal(
            sub.count_matrix, counts.count_matrix[np.ix_([2, 3, 4], [2, 3, 4])]
        )

    def test_tie_breaks_toward_lowest_state(self):
        counts = count_transitions(
            [np.array([0, 1, 0]), np.array([2, 3, 2])], lag=1
        )
        sub = largest_connected_submodel(counts)
        np.testing.assert_array_equal(sub.state_symbols, [0, 1])

    def test_tie_prefers_a_state_that_moves_to_itself(self):
        # {0}, {1}, {2} and {3} are all one state; only 3 -> 3 was observed.
        sub = largest_connected_submodel(count_transitions(np.array([0, 1, 2, 3, 3, 3, 3]), lag=1))
        np.testing.assert_array_equal(sub.state_symbols, [3])
        np.testing.assert_array_equal(sub.count_matrix, [[3]])

    def test_fully_connected_input_unchanged(self):
        counts = random_count_model(4, seed=0)
        sub = largest_connected_submodel(counts)
        np.testing.assert_array_equal(sub.count_matrix, counts.count_matrix)


class TestMsmMle:
    def test_nonreversible_is_row_normalized_counts(self):
        counts = random_count_model(4, seed=1)
        msm = msm_mle(counts, reversible=False)
        C = counts.count_matrix.astype(float)
        np.testing.assert_allclose(
            msm.transition_matrix, C / C.sum(axis=1, keepdims=True), atol=1e-15
        )
        assert not msm.reversible
        assert msm.count_model is counts

    def test_dead_state_is_rejected(self):
        traj = np.array([0, 1, 0, 1, 2])  # state 2 has no outgoing pair
        counts = count_transitions(traj, lag=1)
        with pytest.raises(InvalidArgument):
            msm_mle(counts)

    @pytest.mark.parametrize("seed", range(5))
    def test_reversible_satisfies_detailed_balance(self, seed):
        counts = random_count_model(5, seed=seed)
        msm = msm_mle(counts, reversible=True)
        P = msm.transition_matrix
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-10)
        assert np.all(P >= 0)
        pi = msm.stationary_distribution
        flux = pi[:, None] * P
        np.testing.assert_allclose(flux, flux.T, atol=1e-10)
        # The stored stationary vector really is stationary.
        np.testing.assert_allclose(pi @ P, pi, atol=1e-10)

    def test_reversible_on_symmetric_counts_matches_row_normalization(self):
        # For exactly symmetric counts the constrained and unconstrained
        # estimates coincide.
        C = np.array([[10, 4, 2], [4, 8, 6], [2, 6, 12]], dtype=np.int64)
        traj = []
        for i in range(3):
            for j in range(3):
                traj.extend([np.array([i, j])] * C[i, j])
        counts = count_transitions(traj, lag=1)
        free = msm_mle(counts, reversible=False)
        constrained = msm_mle(counts, reversible=True)
        np.testing.assert_allclose(
            constrained.transition_matrix, free.transition_matrix, atol=1e-8
        )

    def test_reversible_likelihood_not_above_unconstrained(self):
        counts = random_count_model(4, seed=7)
        C = counts.count_matrix.astype(float)

        def loglik(P):
            mask = C > 0
            return float(np.sum(C[mask] * np.log(P[mask])))

        free = msm_mle(counts, reversible=False)
        constrained = msm_mle(counts, reversible=True)
        assert loglik(constrained.transition_matrix) <= loglik(free.transition_matrix) + 1e-9

    def test_convergence_failure_surfaces_iteration_count(self, monkeypatch):
        monkeypatch.setattr(markov, "_MLE_MAX_ITER", 1)
        counts = random_count_model(4, seed=3)
        with pytest.raises(ConvergenceFailure) as excinfo:
            msm_mle(counts, reversible=True)
        assert excinfo.value.iterations == 1

    def test_transient_class_keeps_its_outflow_and_gets_no_weight(self):
        # States 0 and 1 leak into the absorbing state 2. The supremum of the
        # reversible likelihood has pi = (0, 0, 1), which a fixed point over
        # all pairs only creeps towards (it stopped at log-likelihood
        # -26.59585 with pi near (1e-5, 1e-4, 0.9999)).
        C = np.array([[4, 14, 0], [2, 26, 3], [0, 0, 16]])
        msm = msm_mle(TransitionCountModel(C, lag=1), reversible=True)
        P, pi = msm.transition_matrix, msm.stationary_distribution
        np.testing.assert_array_equal(pi, [0.0, 0.0, 1.0])
        assert P[1, 2] == 3 / 31 and P[0, 2] == 0.0
        np.testing.assert_array_equal(P[2], [0.0, 0.0, 1.0])
        np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-15)
        # Inside the transient class the rows are reversible with respect to
        # that class's own weights.
        assert P[0, 1] * P[1, 0] > 0
        assert np.sum(C[C > 0] * np.log(P[C > 0])) >= -26.59585
        with pytest.raises(DegenerateInput):
            spectral_analysis(msm)

    def test_closed_classes_weighted_by_their_share_of_the_counts(self):
        C = np.array([[9, 1, 0, 0], [1, 9, 0, 0], [0, 0, 5, 5], [0, 0, 5, 5]])
        pi = msm_mle(TransitionCountModel(C, lag=1), reversible=True).stationary_distribution
        np.testing.assert_allclose(pi, [0.25, 0.25, 0.25, 0.25], atol=1e-15)
        C[:2, :2] *= 3
        pi = msm_mle(TransitionCountModel(C, lag=1), reversible=True).stationary_distribution
        np.testing.assert_allclose(pi, [0.375, 0.375, 0.125, 0.125], atol=1e-15)

    def test_state_whose_counts_all_leave_its_class(self):
        C = np.array([[0, 3, 1], [0, 4, 2], [0, 1, 5]])
        msm = msm_mle(TransitionCountModel(C, lag=1), reversible=True)
        np.testing.assert_array_equal(msm.transition_matrix[0], [0.0, 0.75, 0.25])
        assert msm.stationary_distribution[0] == 0.0

    def test_strongly_connected_fits_are_the_single_class_fixed_point_bytes(self):
        # On criterion 6(a)'s strongly connected count matrices the class
        # split changes nothing: P and pi equal, byte for byte, those of the
        # fixed point over all pairs below.
        rng = np.random.default_rng(2026)
        compared = 0
        for _ in range(1000):
            n = int(rng.integers(2, 7))
            C = rng.integers(0, 30, size=(n, n)).astype(float)
            C *= rng.random((n, n)) < 0.8
            C[np.arange(n), np.arange(n)] += 1.0
            n_classes, _ = connected_components(csr_matrix(C > 0), connection="strong")
            if n_classes > 1:
                continue
            msm = msm_mle(TransitionCountModel(C, lag=1), reversible=True)
            P, pi = single_class_fixed_point(C)
            assert msm.transition_matrix.tobytes() == P.tobytes()
            assert msm.stationary_distribution.tobytes() == pi.tobytes()
            compared += 1
        assert compared == 847


def single_class_fixed_point(C):
    """The reversible estimator before strongly connected classes were split
    off: the fixed point over every pair with counts, to relative
    log-likelihood change 1e-10."""
    row_sums = C.sum(axis=1)
    sym = C + C.T
    x = sym.copy()
    x_i = x.sum(axis=1)
    mask = sym > 0
    loglik_prev = -np.inf
    while True:
        denom = row_sums[:, None] / x_i[:, None] + row_sums[None, :] / x_i[None, :]
        x = np.where(mask, sym / np.where(denom == 0, 1.0, denom), 0.0)
        x_i = x.sum(axis=1)
        P = x / x_i[:, None]
        loglik = float(np.sum(C[C > 0] * np.log(P[C > 0])))
        if np.isfinite(loglik_prev) and abs(loglik - loglik_prev) <= 1e-10 * max(abs(loglik), 1.0):
            return P, x_i / x_i.sum()
        loglik_prev = loglik


class TestMarkovStateModel:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(InvalidArgument):
            MarkovStateModel(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(InvalidArgument):
            MarkovStateModel(np.array([[1.1, -0.1], [0.5, 0.5]]))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidArgument):
            MarkovStateModel(np.ones((2, 3)) / 3.0)

    def test_lazy_stationary_distribution(self):
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        msm = MarkovStateModel(P)
        np.testing.assert_allclose(
            msm.stationary_distribution, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12
        )


class TestStationaryDistribution:
    def test_two_state_closed_form(self):
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        np.testing.assert_allclose(
            stationary_distribution(P), [2.0 / 3.0, 1.0 / 3.0], atol=1e-12
        )

    def test_is_left_fixed_point(self):
        rng = np.random.default_rng(11)
        P = rng.random((6, 6)) + 0.01
        P /= P.sum(axis=1, keepdims=True)
        mu = stationary_distribution(P)
        np.testing.assert_allclose(mu @ P, mu, atol=1e-12)
        assert abs(mu.sum() - 1.0) < 1e-12

    def test_reducible_matrix_is_rejected(self):
        P = np.array([
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ])
        with pytest.raises(DegenerateInput):
            stationary_distribution(P)


class TestSpectralAnalysis:
    def reversible_msm(self, seed=0, n=5):
        counts = random_count_model(n, seed=seed)
        return msm_mle(counts, reversible=True)

    def test_reversible_spectrum_is_real_descending_with_unit_top(self):
        msm = self.reversible_msm()
        dec = spectral_analysis(msm)
        assert dec.eigenvalues.dtype.kind == "f"
        assert abs(dec.eigenvalues[0] - 1.0) < 1e-10
        mags = np.abs(dec.eigenvalues)
        assert np.all(mags[:-1] >= mags[1:] - 1e-12)

    def test_first_pair_is_constant_and_stationary(self):
        msm = self.reversible_msm(seed=2)
        dec = spectral_analysis(msm)
        r0 = dec.eigenvectors[:, 0]
        np.testing.assert_allclose(r0, np.ones_like(r0), atol=1e-10)
        np.testing.assert_allclose(
            dec.left_eigenvectors[:, 0], msm.stationary_distribution, atol=1e-10
        )

    def test_periodic_chain_puts_unit_eigenvalue_first(self):
        # Eigenvalues 1 and -1 have equal modulus; the first pair must still
        # be the constant function and the stationary distribution.
        msm = msm_mle(count_transitions(np.tile([0, 1, 2, 3], 50), lag=1), reversible=True)
        dec = spectral_analysis(msm, 3)
        assert dec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert dec.eigenvalues[1] == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_allclose(dec.eigenvectors[:, 0], 1.0, atol=1e-10)
        np.testing.assert_allclose(
            dec.left_eigenvectors[:, 0], msm.stationary_distribution, atol=1e-10
        )

    def test_nonreversible_periodic_chain_puts_unit_eigenvalue_first(self):
        dec = spectral_analysis(MarkovStateModel(np.roll(np.eye(4), 1, axis=1)))
        np.testing.assert_allclose(dec.eigenvalues[0], 1.0, atol=1e-12)
        r0 = dec.eigenvectors[:, 0]
        np.testing.assert_allclose(r0, np.full(4, r0[0]), atol=1e-12)

    def test_eigen_relations_hold(self):
        msm = self.reversible_msm(seed=4)
        P = msm.transition_matrix
        dec = spectral_analysis(msm)
        for i in range(msm.n_states):
            lam = dec.eigenvalues[i]
            np.testing.assert_allclose(
                P @ dec.eigenvectors[:, i], lam * dec.eigenvectors[:, i], atol=1e-10
            )
            np.testing.assert_allclose(
                dec.left_eigenvectors[:, i] @ P,
                lam * dec.left_eigenvectors[:, i],
                atol=1e-10,
            )

    def test_stationary_normalization_of_right_vectors(self):
        msm = self.reversible_msm(seed=5)
        dec = spectral_analysis(msm)
        mu = msm.stationary_distribution
        norms = np.einsum("i,ij->j", mu, dec.eigenvectors**2)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_nonreversible_matches_general_eigensolver(self):
        rng = np.random.default_rng(8)
        P = rng.random((5, 5)) + 0.05
        P /= P.sum(axis=1, keepdims=True)
        msm = MarkovStateModel(P)
        dec = spectral_analysis(msm)
        expected = np.sort(np.abs(np.linalg.eigvals(P)))[::-1]
        np.testing.assert_allclose(np.abs(dec.eigenvalues), expected, atol=1e-10)

    def test_component_count_validation(self):
        msm = self.reversible_msm()
        with pytest.raises(InvalidArgument):
            spectral_analysis(msm, n_components=0)
        with pytest.raises(InvalidArgument):
            spectral_analysis(msm, n_components=msm.n_states + 1)
        assert spectral_analysis(msm, n_components=2).eigenvalues.shape == (2,)


class TestTimescales:
    def test_two_state_closed_form(self):
        P = np.array([[0.95, 0.05], [0.05, 0.95]])
        msm = MarkovStateModel(P, lag=1)
        np.testing.assert_allclose(timescales(msm), [-1.0 / np.log(0.9)], rtol=1e-12)

    def test_scales_linearly_with_lag(self):
        P = np.array([[0.95, 0.05], [0.05, 0.95]])
        t1 = timescales(MarkovStateModel(P, lag=1))
        t7 = timescales(MarkovStateModel(P, lag=7))
        np.testing.assert_allclose(t7, 7.0 * t1, rtol=1e-12)

    def test_unit_modulus_gives_infinity(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])  # period-2 chain, eigenvalue -1
        msm = MarkovStateModel(P)
        assert timescales(msm)[0] == np.inf

    def test_count_validation(self):
        msm = MarkovStateModel(np.array([[0.9, 0.1], [0.1, 0.9]]))
        with pytest.raises(InvalidArgument):
            timescales(msm, n_timescales=2)  # only n-1 = 1 available


class TestMfpt:
    def test_two_state_geometric_waiting_time(self):
        P = np.array([[0.9, 0.1], [0.3, 0.7]])
        msm = MarkovStateModel(P)
        m = mfpt(msm, [1])
        np.testing.assert_allclose(m, [10.0, 0.0], atol=1e-10)

    def test_scales_with_lag(self):
        P = np.array([[0.9, 0.1], [0.3, 0.7]])
        m = mfpt(MarkovStateModel(P, lag=5), [1])
        np.testing.assert_allclose(m, [50.0, 0.0], atol=1e-10)

    def test_satisfies_first_step_equation(self):
        rng = np.random.default_rng(13)
        P = rng.random((6, 6)) + 0.02
        P /= P.sum(axis=1, keepdims=True)
        msm = MarkovStateModel(P)
        target = [2, 4]
        m = mfpt(msm, target)
        others = [i for i in range(6) if i not in target]
        for i in others:
            np.testing.assert_allclose(m[i], 1.0 + P[i] @ m, atol=1e-9)

    def test_unreachable_states_get_infinity(self):
        # State 2 is absorbing; nothing returns from it to state 0.
        P = np.array([
            [0.5, 0.4, 0.1],
            [0.3, 0.6, 0.1],
            [0.0, 0.0, 1.0],
        ])
        msm = MarkovStateModel(P)
        m = mfpt(msm, [0])
        assert m[0] == 0.0
        # Both transient states can slip into the absorbing one, so their
        # expected passage time to state 0 diverges.
        assert m[1] == np.inf
        assert m[2] == np.inf

    def test_target_validation(self):
        msm = MarkovStateModel(np.array([[0.9, 0.1], [0.1, 0.9]]))
        with pytest.raises(InvalidArgument):
            mfpt(msm, [])
        with pytest.raises(InvalidArgument):
            mfpt(msm, [2])
        with pytest.raises(InvalidArgument):
            mfpt(msm, [-1])


class TestMsmToKoopman:
    def test_indicator_edmd_agrees_with_count_estimate(self):
        # Fitting a linear model on indicator features reproduces the
        # maximum-likelihood transition matrix entry for entry.
        chain = sample_markov_chain(
            np.array([[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]]),
            length=5000,
            seed=21,
        )
        counts = count_transitions(chain, lag=1)
        msm = msm_mle(largest_connected_submodel(counts))
        model = edmd_fit(
            chain[:-1].reshape(-1, 1),
            chain[1:].reshape(-1, 1),
            IndicatorFeatures(3),
        )
        np.testing.assert_allclose(model.K, msm.transition_matrix, atol=1e-10)


class TestCoherenceScore:
    def test_hand_computed_expectation(self):
        a0 = np.array([0, 0, 1, 1])
        a1 = np.array([0, 1, 1, 1])
        result = coherence_score(a0, a1, n_sets=2)
        np.testing.assert_allclose(result.per_set, [0.5, 1.0])
        assert result.expectation == pytest.approx(0.75)
        assert result.empty_sets == ()

    def test_empty_sets_are_flagged_and_excluded(self):
        a0 = np.array([0, 0, 1])
        a1 = np.array([0, 2, 1])
        result = coherence_score(a0, a1, n_sets=3)
        assert result.empty_sets == (2,)
        assert np.isnan(result.per_set[2])
        assert result.expectation == pytest.approx((2 / 3) * 0.5 + (1 / 3) * 1.0)

    def test_perfect_round_trip_scores_one(self):
        a = np.array([0, 1, 2, 0, 1, 2])
        assert coherence_score(a, a, n_sets=3).expectation == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(InvalidArgument):
            coherence_score(np.array([0]), np.array([0, 1]), n_sets=2)
        with pytest.raises(InvalidArgument):
            coherence_score(np.array([0]), np.array([2]), n_sets=2)
        with pytest.raises(InvalidArgument):
            coherence_score(np.array([0]), np.array([0]), n_sets=0)
        with pytest.raises(InsufficientData):
            coherence_score(np.array([], dtype=int), np.array([], dtype=int), n_sets=2)


class TestSampling:
    def test_same_seed_is_bit_identical(self):
        P = np.array([[0.5, 0.5], [0.4, 0.6]])
        a = sample_markov_chain(P, length=1000, seed=3)
        b = sample_markov_chain(P, length=1000, seed=3)
        np.testing.assert_array_equal(a, b)
        c = sample_markov_chain(P, length=1000, seed=4)
        assert not np.array_equal(a, c)

    def test_empirical_frequencies_approach_the_matrix(self):
        P = np.array([[0.7, 0.2, 0.1], [0.25, 0.5, 0.25], [0.05, 0.15, 0.8]])
        chain = sample_markov_chain(P, length=200_000, seed=0)
        counts = count_transitions(chain, lag=1)
        est = msm_mle(largest_connected_submodel(counts))
        np.testing.assert_allclose(est.transition_matrix, P, atol=0.01)

    def test_initial_distribution_is_respected(self):
        P = np.array([[0.5, 0.5], [0.5, 0.5]])
        for seed in range(5):
            chain = sample_markov_chain(
                P, length=10, seed=seed, initial_distribution=np.array([0.0, 1.0])
            )
            assert chain[0] == 1

    def test_positive_length_required(self):
        with pytest.raises(InvalidArgument):
            sample_markov_chain(np.eye(2), length=0, seed=0)

    def test_non_square_matrix_is_rejected(self):
        # A wider row would let a step land on a state with no row.
        with pytest.raises(InvalidArgument, match="square"):
            sample_markov_chain(np.full((2, 3), 1.0 / 3.0), length=10, seed=0)

    @pytest.mark.parametrize("P", [[[2.0, -1.0], [0.5, 0.5]], [[0.25, 0.25], [0.5, 0.5]],
                                   [[np.nan, 1.0], [0.5, 0.5]]])
    def test_matrix_is_checked_as_the_model_checks_it(self, P):
        with pytest.raises(InvalidArgument) as caught:
            MarkovStateModel(P)
        with pytest.raises(InvalidArgument, match=f"^{caught.value}$"):
            sample_markov_chain(P, length=10, seed=0)

    @pytest.mark.parametrize("initial", [[1.0, 0.0, 0.0], [-1.0, 2.0], [0.0, 0.0],
                                         [np.nan, 1.0], [np.inf, 1.0]])
    def test_bad_initial_distribution_is_rejected(self, initial):
        with pytest.raises(InvalidArgument, match="^initial distribution must be 2 "):
            sample_markov_chain(np.eye(2), length=10, seed=0, initial_distribution=initial)


class TestDiscreteTrajectoryIO:
    def test_reads_whitespace_and_commas(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0 1 2,3\n4,5 6\n")
        np.testing.assert_array_equal(read_discrete_trajectory(path), np.arange(7))

    def test_rejects_non_integer_tokens(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0 1 banana")
        with pytest.raises(InvalidArgument):
            read_discrete_trajectory(path)

    def test_rejects_negative_states(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("0 -1 2")
        with pytest.raises(InvalidArgument):
            read_discrete_trajectory(path)

    def test_empty_file_is_insufficient(self, tmp_path):
        path = tmp_path / "traj.txt"
        path.write_text("  \n ")
        with pytest.raises(InsufficientData):
            read_discrete_trajectory(path)
