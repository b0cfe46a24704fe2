"""Tests for hidden Markov estimation, decoding, and output models."""

import itertools

import numpy as np
import pytest

import lagtime.hmm
from lagtime.errors import InsufficientData, InvalidArgument, NumericalDegeneracy
from lagtime.hmm import (
    DiscreteOutputModel,
    GaussianOutputModel,
    HiddenMarkovModel,
    baum_welch,
    forward_backward,
    init_from_msm,
    viterbi,
)
from lagtime.markov import MarkovStateModel, sample_markov_chain
from lagtime.numerics import SpectralDecomposition


def brute_force_posteriors(pi, P, log_emission):
    """Exact posteriors by summing over every hidden path.

    Returns (log_likelihood, gammas, xi_sum, best_path) where xi_sum
    accumulates pair posteriors over all transitions and best_path is the
    maximum-probability hidden sequence.
    """
    T, n = log_emission.shape
    b = np.exp(log_emission)
    total = 0.0
    gammas = np.zeros((T, n))
    xi = np.zeros((n, n))
    best_logp = -np.inf
    best_path = None
    for path in itertools.product(range(n), repeat=T):
        p = pi[path[0]] * b[0, path[0]]
        for t in range(1, T):
            p *= P[path[t - 1], path[t]] * b[t, path[t]]
        total += p
        for t in range(T):
            gammas[t, path[t]] += p
        for t in range(T - 1):
            xi[path[t], path[t + 1]] += p
        logp = np.log(p) if p > 0 else -np.inf
        if logp > best_logp:
            best_logp = logp
            best_path = np.array(path)
    return np.log(total), gammas / total, xi / total, best_path


def two_state_discrete_hmm():
    P = np.array([[0.85, 0.15], [0.25, 0.75]])
    B = np.array([[0.7, 0.2, 0.1], [0.05, 0.35, 0.6]])
    pi = np.array([0.6, 0.4])
    return HiddenMarkovModel(
        transition_model=MarkovStateModel(P),
        output_model=DiscreteOutputModel(B),
        initial_distribution=pi,
    )


def two_state_gaussian_hmm():
    P = np.array([[0.9, 0.1], [0.2, 0.8]])
    return HiddenMarkovModel(
        transition_model=MarkovStateModel(P),
        output_model=GaussianOutputModel(means=[-1.0, 1.5], stds=[0.8, 0.6]),
        initial_distribution=np.array([0.5, 0.5]),
    )


class TestForwardBackwardExhaustive:
    def test_discrete_emissions_match_path_enumeration(self):
        hmm = two_state_discrete_hmm()
        obs = np.array([0, 0, 1, 2, 2, 1, 0, 2, 1, 0])
        ll, gammas, xi_sum = forward_backward(hmm, obs)
        ll_ref, gammas_ref, xi_ref, _ = brute_force_posteriors(
            hmm.initial_distribution,
            hmm.transition_model.transition_matrix,
            hmm.output_model.log_likelihoods(obs),
        )
        np.testing.assert_allclose(ll, ll_ref, rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(gammas, gammas_ref, atol=1e-10)
        np.testing.assert_allclose(xi_sum, xi_ref, atol=1e-10)

    def test_gaussian_emissions_match_path_enumeration(self):
        hmm = two_state_gaussian_hmm()
        rng = np.random.default_rng(7)
        obs = rng.normal(size=10)
        ll, gammas, xi_sum = forward_backward(hmm, obs)
        ll_ref, gammas_ref, xi_ref, _ = brute_force_posteriors(
            hmm.initial_distribution,
            hmm.transition_model.transition_matrix,
            hmm.output_model.log_likelihoods(obs),
        )
        np.testing.assert_allclose(ll, ll_ref, rtol=1e-12, atol=1e-10)
        np.testing.assert_allclose(gammas, gammas_ref, atol=1e-10)
        np.testing.assert_allclose(xi_sum, xi_ref, atol=1e-10)

    def test_gamma_rows_are_distributions(self):
        hmm = two_state_discrete_hmm()
        _, gammas, _ = forward_backward(hmm, np.array([0, 1, 2, 1, 0]))
        np.testing.assert_allclose(gammas.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(gammas >= 0)

    def test_impossible_frame_is_reported(self, backends):
        # Symbol 2 has zero probability under both hidden states.
        hmm = HiddenMarkovModel(
            transition_model=MarkovStateModel(np.array([[0.5, 0.5], [0.5, 0.5]])),
            output_model=DiscreteOutputModel(
                np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]])
            ),
            initial_distribution=np.array([0.5, 0.5]),
        )
        # The chain starts in state 0 and then stays in state 1, which cannot
        # emit symbol 2: the path dies at frame 2 although state 0 could emit
        # it, so the scale check inside the recursion must catch it.
        blocked = HiddenMarkovModel(
            transition_model=MarkovStateModel(np.array([[0.0, 1.0], [0.0, 1.0]])),
            output_model=DiscreteOutputModel(np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0]])),
            initial_distribution=np.array([1.0, 0.0]),
        )
        for backend in backends:
            with pytest.raises(NumericalDegeneracy, match="frame 1"):
                forward_backward(hmm, np.array([0, 2, 1]))
            with pytest.raises(NumericalDegeneracy, match="frame 2"):
                forward_backward(blocked, np.array([1, 0, 2, 1]))


class TestViterbi:
    def test_matches_path_enumeration(self):
        hmm = two_state_discrete_hmm()
        obs = np.array([2, 2, 1, 0, 0, 0, 1, 2, 2, 1])
        _, _, _, best = brute_force_posteriors(
            hmm.initial_distribution,
            hmm.transition_model.transition_matrix,
            hmm.output_model.log_likelihoods(obs),
        )
        np.testing.assert_array_equal(viterbi(hmm, obs), best)

    def test_gaussian_matches_path_enumeration(self):
        hmm = two_state_gaussian_hmm()
        rng = np.random.default_rng(3)
        obs = rng.normal(size=9)
        _, _, _, best = brute_force_posteriors(
            hmm.initial_distribution,
            hmm.transition_model.transition_matrix,
            hmm.output_model.log_likelihoods(obs),
        )
        np.testing.assert_array_equal(viterbi(hmm, obs), best)

    def test_ties_break_toward_lower_index(self, backends):
        # Fully symmetric model: every path is equally likely.
        hmm = HiddenMarkovModel(
            transition_model=MarkovStateModel(np.full((2, 2), 0.5)),
            output_model=DiscreteOutputModel(np.full((2, 2), 0.5)),
            initial_distribution=np.array([0.5, 0.5]),
        )
        for backend in backends:
            path = viterbi(hmm, np.array([0, 1, 0, 1]))
            np.testing.assert_array_equal(path, np.zeros(4, dtype=np.int64))

    def test_impossible_frame_is_reported(self, backends):
        gaussian = HiddenMarkovModel(
            transition_model=MarkovStateModel(np.array([[0.9, 0.1], [0.1, 0.9]])),
            output_model=GaussianOutputModel(means=[-1.0, 1.0], stds=[1.0, 1.0]),
            initial_distribution=np.array([0.5, 0.5]),
        )
        discrete = HiddenMarkovModel(
            transition_model=MarkovStateModel(np.full((2, 2), 0.5)),
            output_model=DiscreteOutputModel(np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]])),
            initial_distribution=np.array([0.5, 0.5]),
        )
        for backend in backends:
            with pytest.raises(NumericalDegeneracy, match="frame 2 "):
                viterbi(gaussian, np.array([-1.0, -1.0, np.nan, 1.0, 1.0]))
            with pytest.raises(NumericalDegeneracy, match="frame 1 "):
                viterbi(discrete, np.array([0, 2, 1]))


class TestDiscreteOutputModel:
    def test_rejects_malformed_matrices(self):
        with pytest.raises(InvalidArgument):
            DiscreteOutputModel(np.array([0.5, 0.5]))
        with pytest.raises(InvalidArgument):
            DiscreteOutputModel(np.array([[0.5, 0.4], [0.5, 0.5]]))
        with pytest.raises(InvalidArgument):
            DiscreteOutputModel(np.array([[1.5, -0.5], [0.5, 0.5]]))

    def test_log_likelihood_table(self):
        B = np.array([[0.7, 0.3], [0.1, 0.9]])
        model = DiscreteOutputModel(B)
        out = model.log_likelihoods(np.array([0, 1, 1]))
        np.testing.assert_allclose(out, np.log(B[:, [0, 1, 1]].T))

    def test_rejects_out_of_range_symbols(self):
        model = DiscreteOutputModel(np.array([[0.7, 0.3], [0.1, 0.9]]))
        with pytest.raises(InvalidArgument):
            model.log_likelihoods(np.array([0, 2]))

    def test_observations_are_integers_as_msm_trajectories_are(self):
        # One integrality rule with count_transitions: exact integers pass,
        # as floats too, and fractional symbols are rejected, not truncated.
        hmm = HiddenMarkovModel(
            transition_model=MarkovStateModel(np.array([[0.9, 0.1], [0.2, 0.8]])),
            output_model=DiscreteOutputModel(np.array([[0.7, 0.3], [0.1, 0.9]])),
            initial_distribution=np.array([0.5, 0.5]),
        )
        for call, symbols in [
            (lambda obs: forward_backward(hmm, obs), [0.9, 1.9]),
            (lambda obs: viterbi(hmm, obs), [0.5, 1.7, 1.2]),
            (lambda obs: baum_welch(hmm, obs), [0.2, 1.9, 0.4, 1.1]),
            (lambda obs: init_from_msm(obs, 2), [0.2, 1.9, 0.4, 1.1]),
        ]:
            with pytest.raises(InvalidArgument, match="must contain 64-bit integers"):
                call(np.array(symbols))
            exact = np.floor(symbols)
            assert call(exact) is not None
        integers = np.array([0, 1, 1, 0])
        loglik = forward_backward(hmm, integers)[0]
        assert forward_backward(hmm, integers.astype(float))[0] == loglik

    def test_update_reestimates_weighted_frequencies(self):
        model = DiscreteOutputModel(np.array([[0.5, 0.5], [0.5, 0.5]]))
        obs = np.array([0, 1, 0])
        gam = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        new = model.updated([gam], [obs])
        # State 0 responsibility: symbol 0 gets 1.0, symbol 1 gets 0.5.
        np.testing.assert_allclose(
            new.emission_matrix, [[2 / 3, 1 / 3], [2 / 3, 1 / 3]], atol=1e-12
        )

    def test_sampling_matches_the_per_frame_search(self):
        rng = np.random.default_rng(5)
        B = rng.random((4, 16)) * (rng.random((4, 16)) < 0.6)  # some zero entries
        B /= B.sum(axis=1, keepdims=True)
        states = rng.integers(0, 4, size=5000)
        drawn = DiscreteOutputModel(B).sample(states, np.random.default_rng(8))
        cdf = np.cumsum(B, axis=1)
        cdf[:, -1] = 1.0
        draws = np.random.default_rng(8).random(states.size)
        expected = np.array([np.searchsorted(cdf[s], u, side="right")
                             for s, u in zip(states, draws)], dtype=np.int64)
        assert drawn.dtype == np.int64
        assert drawn.tobytes() == expected.tobytes()

    def test_sampling_is_reproducible_and_in_range(self):
        model = DiscreteOutputModel(np.array([[0.2, 0.8], [0.9, 0.1]]))
        states = np.array([0, 1, 0, 1, 0])
        a = model.sample(states, np.random.default_rng(0))
        b = model.sample(states, np.random.default_rng(0))
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() < 2


class TestGaussianOutputModel:
    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidArgument):
            GaussianOutputModel(means=[0.0, 1.0], stds=[1.0])
        with pytest.raises(InvalidArgument):
            GaussianOutputModel(means=[0.0], stds=[0.0])

    def test_log_density_matches_reference(self):
        from scipy.stats import norm

        model = GaussianOutputModel(means=[-1.0, 2.0], stds=[0.5, 1.5])
        obs = np.array([-1.2, 0.0, 2.5])
        out = model.log_likelihoods(obs)
        for j, (m, s) in enumerate([(-1.0, 0.5), (2.0, 1.5)]):
            np.testing.assert_allclose(out[:, j], norm.logpdf(obs, m, s), atol=1e-12)

    def test_update_computes_weighted_moments(self):
        model = GaussianOutputModel(means=[0.0, 0.0], stds=[1.0, 1.0])
        obs = np.array([0.0, 2.0, 4.0])
        gam = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        new = model.updated([gam], [obs])
        # State 0: weights (1, .5, 0) over (0, 2, 4) -> mean 2/3.
        m0 = (1.0 * 0.0 + 0.5 * 2.0) / 1.5
        v0 = (1.0 * (0.0 - m0) ** 2 + 0.5 * (2.0 - m0) ** 2) / 1.5
        m1 = (0.5 * 2.0 + 1.0 * 4.0) / 1.5
        v1 = (0.5 * (2.0 - m1) ** 2 + 1.0 * (4.0 - m1) ** 2) / 1.5
        np.testing.assert_allclose(new.means, [m0, m1], atol=1e-12)
        np.testing.assert_allclose(new.stds, np.sqrt([v0, v1]), atol=1e-12)

    def test_variance_floor_prevents_collapse(self):
        model = GaussianOutputModel(means=[0.0], stds=[1.0])
        obs = np.full(4, 3.0)
        gam = np.ones((4, 1))
        new = model.updated([gam], [obs])
        assert new.stds[0] > 0


class TestHiddenMarkovModel:
    def test_validation(self):
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        out = GaussianOutputModel(means=[0.0, 1.0], stds=[1.0, 1.0])
        with pytest.raises(InvalidArgument):
            HiddenMarkovModel(MarkovStateModel(P), out, np.array([1.0]))
        with pytest.raises(InvalidArgument):
            HiddenMarkovModel(MarkovStateModel(P), out, np.array([1.5, -0.5]))
        three_state = GaussianOutputModel(means=[0.0, 1.0, 2.0], stds=[1.0] * 3)
        with pytest.raises(InvalidArgument):
            HiddenMarkovModel(MarkovStateModel(P), three_state, np.array([0.5, 0.5]))

    def test_sampling_shapes_and_determinism(self):
        hmm = two_state_discrete_hmm()
        states, obs = hmm.sample(200, seed=9)
        states2, obs2 = hmm.sample(200, seed=9)
        np.testing.assert_array_equal(states, states2)
        np.testing.assert_array_equal(obs, obs2)
        assert states.shape == obs.shape == (200,)
        assert states.max() < 2 and obs.max() < 3
        with pytest.raises(InvalidArgument):
            hmm.sample(0, seed=0)

    def test_sampling_without_a_seed(self):
        hmm = two_state_discrete_hmm()
        states, obs = hmm.sample(50, seed=None)
        assert states.shape == obs.shape == (50,)
        # A seed s draws the emissions from the generator of s + 1.
        states, obs = hmm.sample(50, seed=9)
        expected = hmm.output_model.sample(states, np.random.default_rng(10))
        np.testing.assert_array_equal(obs, expected)


class TestBaumWelch:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_log_likelihood_never_decreases(self, seed):
        truth = two_state_discrete_hmm()
        _, obs = truth.sample(400, seed=seed)
        start = HiddenMarkovModel(
            transition_model=MarkovStateModel(np.array([[0.6, 0.4], [0.4, 0.6]])),
            output_model=DiscreteOutputModel(
                np.array([[0.5, 0.3, 0.2], [0.2, 0.3, 0.5]])
            ),
            initial_distribution=np.array([0.5, 0.5]),
        )
        model, info = baum_welch(start, obs, max_iter=60)
        ll = np.asarray(info["log_likelihoods"])
        assert ll.size >= 2
        scale = 1.0 + np.abs(ll[:-1])
        assert np.all(np.diff(ll) >= -1e-10 * scale)

    def test_reports_convergence(self):
        truth = two_state_discrete_hmm()
        _, obs = truth.sample(300, seed=4)
        start = init_from_msm(obs, n_hidden=2)
        model, info = baum_welch(start, obs, max_iter=500)
        assert info["converged"]
        assert info["iterations"] <= 500
        assert len(info["log_likelihoods"]) == info["iterations"]

    def test_recovers_well_separated_gaussian_states(self):
        P_true = np.array([[0.95, 0.05], [0.1, 0.9]])
        truth = HiddenMarkovModel(
            transition_model=MarkovStateModel(P_true),
            output_model=GaussianOutputModel(means=[-2.0, 2.0], stds=[0.5, 0.5]),
            initial_distribution=np.array([0.5, 0.5]),
        )
        _, obs = truth.sample(3000, seed=11)
        start = HiddenMarkovModel(
            transition_model=MarkovStateModel(np.array([[0.8, 0.2], [0.2, 0.8]])),
            output_model=GaussianOutputModel(means=[-0.5, 0.5], stds=[1.5, 1.5]),
            initial_distribution=np.array([0.5, 0.5]),
        )
        model, info = baum_welch(start, obs, max_iter=300)
        order = np.argsort(model.output_model.means)
        means = model.output_model.means[order]
        P = model.transition_model.transition_matrix[np.ix_(order, order)]
        np.testing.assert_allclose(means, [-2.0, 2.0], atol=0.1)
        np.testing.assert_allclose(P, P_true, atol=0.05)

    def test_multiple_sequences_are_pooled(self):
        truth = two_state_discrete_hmm()
        seqs = [truth.sample(150, seed=s)[1] for s in range(3)]
        start = init_from_msm(seqs, n_hidden=2)
        model, info = baum_welch(start, seqs, max_iter=100)
        ll = np.asarray(info["log_likelihoods"])
        assert np.all(np.diff(ll) >= -1e-10 * (1.0 + np.abs(ll[:-1])))

    def test_empty_observations_rejected(self):
        start = two_state_discrete_hmm()
        with pytest.raises(InsufficientData):
            baum_welch(start, np.array([], dtype=int))


class TestInitFromMsm:
    def metastable_observations(self, seed=0, length=5000):
        # Two blocks of symbols {0,1} and {2,3}; rare switches between blocks.
        P = np.array([
            [0.45, 0.45, 0.05, 0.05],
            [0.45, 0.45, 0.05, 0.05],
            [0.05, 0.05, 0.45, 0.45],
            [0.05, 0.05, 0.45, 0.45],
        ])
        from lagtime.markov import sample_markov_chain

        return sample_markov_chain(P, length=length, seed=seed)

    def test_groups_metastable_symbols(self):
        obs = self.metastable_observations()
        hmm = init_from_msm(obs, n_hidden=2)
        B = hmm.output_model.emission_matrix
        assert B.shape == (2, 4)
        assert np.all(B > 0)  # floor keeps every symbol possible
        # Each hidden state concentrates on one block of symbols.
        block_mass = np.stack([B[:, :2].sum(axis=1), B[:, 2:].sum(axis=1)])
        assert set(np.argmax(block_mass, axis=0)) == {0, 1}
        assert block_mass.max(axis=0).min() > 0.9
        P_coarse = hmm.transition_model.transition_matrix
        assert np.all(np.diag(P_coarse) > 0.8)

    def test_hidden_count_equal_to_observed_is_identity_grouping(self):
        obs = self.metastable_observations(length=2000)
        hmm = init_from_msm(obs, n_hidden=4)
        assert hmm.n_hidden == 4
        B = hmm.output_model.emission_matrix
        # Each hidden state is pinned to exactly one symbol (up to the floor).
        assert np.all(B.max(axis=1) > 0.9)

    def test_period_four_cycle_splits_on_the_minus_one_eigenvector(self):
        # On a period-4 cycle the eigenvalues 1 and -1 tie in modulus; 1 ranks
        # first, so the split uses the signs of the -1 left eigenvector, which
        # alternate around the cycle, not the all-positive stationary one.
        B = init_from_msm(np.tile([0, 1, 2, 3], 50), n_hidden=2).output_model.emission_matrix
        assert [np.flatnonzero(b > 0.1).tolist() for b in B] == [[0, 2], [1, 3]]

    def test_too_few_sign_groups_is_an_invalid_argument(self, monkeypatch):
        # No input is known whose eigenvector signs give fewer groups than
        # n_hidden; a spectrum with an all-positive second left eigenvector
        # stands in for one.
        def one_signed(msm, k):
            n = msm.n_states
            return SpectralDecomposition(np.ones(k), np.ones((n, k)), np.ones((n, k)))

        monkeypatch.setattr(lagtime.hmm, "spectral_analysis", one_signed)
        with pytest.raises(InvalidArgument, match="sign splits gave 1 groups, fewer than "
                                                  "n_hidden = 2"):
            init_from_msm(np.tile([0, 1, 2, 3], 50), n_hidden=2)

    @pytest.mark.parametrize("obs, symbol", [([3, 3, 3, 3], 3), ([1, 1, 1, 1, 0], 1)])
    def test_single_state_with_counts_is_kept(self, obs, symbol):
        # Symbol 0 of the second case forms a one-state component with no
        # transition inside; the observed self-transitions decide the tie.
        # Symbols that never occur still get an emission column.
        B = init_from_msm(np.array(obs), n_hidden=1).output_model.emission_matrix
        assert B.shape == (1, symbol + 1)
        assert np.argmax(B[0]) == symbol and B[0, symbol] > 0.99

    def test_validation(self):
        obs = self.metastable_observations(length=500)
        with pytest.raises(InvalidArgument):
            init_from_msm(obs, n_hidden=0)
        with pytest.raises(InvalidArgument):
            init_from_msm(obs, n_hidden=10)

    def test_feeds_baum_welch_end_to_end(self):
        obs = self.metastable_observations(seed=3, length=2000)
        start = init_from_msm(obs, n_hidden=2)
        model, info = baum_welch(start, obs, max_iter=200)
        assert info["converged"]
        diag = np.diag(model.transition_model.transition_matrix)
        assert np.all(diag > 0.7)


class TestCompiledParity:
    """The compiled recursions must give the reference loops' bytes."""

    def both(self, backends, compute):
        results = {backend: compute() for backend in backends}
        if "c" not in results:
            pytest.skip("no C compiler on PATH")
        return results["c"], results["python"]

    def random_discrete_hmm(self, n_hidden, n_symbols, seed):
        rng = np.random.default_rng(seed)
        P = rng.random((n_hidden, n_hidden)) + 2.0 * np.eye(n_hidden)
        B = rng.random((n_hidden, n_symbols))
        return HiddenMarkovModel(
            transition_model=MarkovStateModel(P / P.sum(axis=1, keepdims=True)),
            output_model=DiscreteOutputModel(B / B.sum(axis=1, keepdims=True)),
            initial_distribution=np.full(n_hidden, 1.0 / n_hidden),
        )

    def assert_posteriors_agree(self, fast, reference):
        ll, gammas, xi_sum = fast
        ll_ref, gammas_ref, xi_ref = reference
        assert ll == ll_ref
        assert gammas.tobytes() == gammas_ref.tobytes()
        assert xi_sum.tobytes() == xi_ref.tobytes()

    @pytest.mark.parametrize("length", [20_000, 9_973, 1])
    def test_discrete_posteriors_and_path(self, backends, length):
        hmm = self.random_discrete_hmm(4, 16, seed=1)
        _, obs = hmm.sample(length, seed=2)
        fast, reference = self.both(
            backends, lambda: (forward_backward(hmm, obs), viterbi(hmm, obs)))
        self.assert_posteriors_agree(fast[0], reference[0])
        np.testing.assert_array_equal(fast[1], reference[1])

    def test_gaussian_posteriors_and_path(self, backends):
        hmm = two_state_gaussian_hmm()
        _, obs = hmm.sample(20_000, seed=4)
        fast, reference = self.both(
            backends, lambda: (forward_backward(hmm, obs), viterbi(hmm, obs)))
        self.assert_posteriors_agree(fast[0], reference[0])
        np.testing.assert_array_equal(fast[1], reference[1])

    def test_multi_sequence_baum_welch(self, backends):
        truth = self.random_discrete_hmm(4, 16, seed=6)
        seqs = [truth.sample(length, seed=s)[1]
                for s, length in enumerate([3_000, 1_237, 2])]
        start = self.random_discrete_hmm(4, 16, seed=7)
        fast, reference = self.both(
            backends, lambda: baum_welch(start, seqs, max_iter=5, tolerance=0.0))
        assert fast[1]["backend"] == "c"
        assert reference[1]["backend"] == "python (no C compiler)"
        assert fast[1]["iterations"] == reference[1]["iterations"] == 5
        assert fast[1]["log_likelihoods"] == reference[1]["log_likelihoods"]
        assert (fast[0].transition_model.transition_matrix.tobytes()
                == reference[0].transition_model.transition_matrix.tobytes())
        assert (fast[0].output_model.emission_matrix.tobytes()
                == reference[0].output_model.emission_matrix.tobytes())

    @pytest.mark.parametrize("n", range(1, 12))
    def test_recursions_give_the_same_bytes(self, backends, n):
        # Random dense models of 1 to 11 states: the references sum over the
        # states in the C loops' order, so no entry may differ in any bit.
        rng = np.random.default_rng(n)
        P = rng.random((n, n)) + np.eye(n)
        P /= P.sum(axis=1, keepdims=True)
        pi = rng.random(n)
        pi /= pi.sum()
        T = 50 * n
        b = rng.random((T, n))

        def recursions():
            alphas, scales, betas = np.empty((T, n)), np.empty(T), np.empty((T, n))
            assert lagtime.hmm._hmm_forward(pi, P, b, T, n, alphas, scales) == -1
            lagtime.hmm._hmm_backward(P, b, scales, T, n, betas, np.empty(n))
            return alphas.tobytes(), scales.tobytes(), betas.tobytes()

        fast, reference = self.both(backends, recursions)
        assert fast == reference

    def test_chain_states_are_identical(self, backends):
        rng = np.random.default_rng(9)
        P = rng.random((64, 64)) * (rng.random((64, 64)) < 0.3)  # some zero entries
        P[np.arange(64), np.arange(64)] += 1.0
        P /= P.sum(axis=1, keepdims=True)
        fast, reference = self.both(
            backends, lambda: sample_markov_chain(P, length=100_000, seed=10))
        assert fast.tobytes() == reference.tobytes()
