"""Hidden Markov models with discrete or one-dimensional Gaussian outputs.

Estimation uses the scaled forward-backward recursions inside an
expectation-maximization loop; decoding uses the log-space Viterbi algorithm.
The likelihood is checked to be non-decreasing across EM iterations, up to a
tiny floating-point slack; a decrease beyond the slack indicates a bug and
raises, it is never silently accepted.

The per-frame forward, backward and Viterbi recursions run in the kernels of
``_kernels.c`` or in the loops below, ``_hmm_forward``, ``_hmm_backward`` and
``_hmm_viterbi``, their references, as :mod:`lagtime._native` chooses at each
call; the references sum over the states in the C loops' order, so both give
the same bytes. Everything around them stays in NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from ._native import _compiled_kernels, _kernel
from .errors import (
    InsufficientData,
    InternalInvariantError,
    InvalidArgument,
    NumericalDegeneracy,
)
from .markov import (
    MarkovStateModel,
    _as_symbols,
    count_transitions,
    largest_connected_submodel,
    msm_mle,
    sample_markov_chain,
    spectral_analysis,
)
from .numerics import _checked, _integer, _rng

__all__ = [
    "OutputModel",
    "DiscreteOutputModel",
    "GaussianOutputModel",
    "HiddenMarkovModel",
    "forward_backward",
    "baum_welch",
    "viterbi",
    "init_from_msm",
]

_VARIANCE_FLOOR = 1e-10
# Emission probability that init_from_msm spreads over every symbol.
_EMISSION_FLOOR = 0.01


class OutputModel:
    """Base class for emission distributions."""

    n_hidden: int

    def log_likelihoods(self, observations: NDArray) -> NDArray:
        """Per-frame, per-state emission log-likelihoods, shape (T, n_hidden)."""
        raise NotImplementedError

    def updated(self, weights: Sequence[NDArray], observations: Sequence[NDArray]
                ) -> "OutputModel":
        """Maximization step: new output model from state responsibilities."""
        raise NotImplementedError

    def sample(self, states: NDArray, rng: np.random.Generator) -> NDArray:
        """Draw one observation per hidden state in ``states``."""
        raise NotImplementedError


class DiscreteOutputModel(OutputModel):
    """Categorical emissions: row-stochastic matrix of shape (n_hidden, n_symbols)."""

    def __init__(self, emission_matrix: NDArray):
        B = np.asarray(emission_matrix, dtype=np.float64)
        if B.ndim != 2:
            raise InvalidArgument("emission matrix must be two-dimensional")
        if np.any(B < 0) or not np.allclose(B.sum(axis=1), 1.0, atol=1e-10):
            raise InvalidArgument("emission matrix rows must be distributions")
        self.emission_matrix = B
        self.n_hidden = B.shape[0]
        self.n_symbols = B.shape[1]

    def log_likelihoods(self, observations):
        obs = _as_symbols(observations).ravel()
        if obs.size and (obs.min() < 0 or obs.max() >= self.n_symbols):
            raise InvalidArgument(
                f"observations must lie in 0..{self.n_symbols - 1}"
            )
        with np.errstate(divide="ignore"):
            logB = np.log(self.emission_matrix)
        return logB[:, obs].T

    def updated(self, weights, observations):
        acc = np.zeros_like(self.emission_matrix)
        for gamma, obs in zip(weights, observations):
            obs = np.asarray(obs, dtype=np.int64).ravel()
            np.add.at(acc.T, obs, gamma)
        mass = acc.sum(axis=1)
        if np.any(mass <= 0):
            dead = np.flatnonzero(mass <= 0)
            raise NumericalDegeneracy(
                f"hidden states {dead.tolist()} received no emission responsibility"
            )
        return DiscreteOutputModel(acc / mass[:, None])

    def sample(self, states, rng):
        states = np.asarray(states, dtype=np.int64)
        cdf = np.cumsum(self.emission_matrix, axis=1)
        cdf[:, -1] = 1.0
        draws = rng.random(states.size)
        # The number of CDF entries <= u is np.searchsorted(side="right").
        return (cdf[states] <= draws[:, None]).sum(axis=1, dtype=np.int64)


class GaussianOutputModel(OutputModel):
    """Independent scalar Gaussian emissions per hidden state, with finite
    means and finite positive standard deviations."""

    def __init__(self, means: NDArray, stds: NDArray):
        means = np.asarray(means, dtype=np.float64).ravel()
        stds = np.asarray(stds, dtype=np.float64).ravel()
        if means.shape != stds.shape:
            raise InvalidArgument("means and stds must have equal length")
        for mean, std in zip(means, stds):
            _checked("means", mean)
            _checked("stds", std, 0, open_low=True)
        self.means = means
        self.stds = stds
        self.n_hidden = means.size

    def log_likelihoods(self, observations):
        obs = np.asarray(observations, dtype=np.float64).ravel()
        z = (obs[:, None] - self.means[None, :]) / self.stds[None, :]
        return -0.5 * z**2 - np.log(self.stds[None, :] * np.sqrt(2.0 * np.pi))

    def updated(self, weights, observations):
        n = self.n_hidden
        w_sum = np.zeros(n)
        wx_sum = np.zeros(n)
        for gamma, obs in zip(weights, observations):
            obs = np.asarray(obs, dtype=np.float64).ravel()
            w_sum += gamma.sum(axis=0)
            wx_sum += gamma.T @ obs
        if np.any(w_sum <= 0):
            dead = np.flatnonzero(w_sum <= 0)
            raise NumericalDegeneracy(
                f"hidden states {dead.tolist()} received no emission responsibility"
            )
        means = wx_sum / w_sum
        var = np.zeros(n)
        for gamma, obs in zip(weights, observations):
            obs = np.asarray(obs, dtype=np.float64).ravel()
            var += np.einsum("ti,ti->i", gamma, (obs[:, None] - means[None, :]) ** 2)
        var = np.maximum(var / w_sum, _VARIANCE_FLOOR)
        return GaussianOutputModel(means, np.sqrt(var))

    def sample(self, states, rng):
        states = np.asarray(states, dtype=np.int64)
        return rng.normal(self.means[states], self.stds[states])


@dataclass
class HiddenMarkovModel:
    """Hidden transition model plus emission model plus initial distribution."""

    transition_model: MarkovStateModel
    output_model: OutputModel
    initial_distribution: NDArray

    def __post_init__(self):
        pi = np.asarray(self.initial_distribution, dtype=np.float64).ravel()
        if pi.size != self.transition_model.n_states:
            raise InvalidArgument("initial distribution length must match state count")
        if np.any(pi < 0) or not np.isclose(pi.sum(), 1.0, atol=1e-8):
            raise InvalidArgument("initial distribution must be a probability vector")
        if self.output_model.n_hidden != self.transition_model.n_states:
            raise InvalidArgument("output model and transition model disagree on state count")
        self.initial_distribution = pi / pi.sum()

    @property
    def n_hidden(self) -> int:
        return self.transition_model.n_states

    def sample(self, length: int, seed: Optional[int]) -> tuple[NDArray, NDArray]:
        """Sample (hidden_states, observations) of a given length."""
        states = sample_markov_chain(
            self.transition_model.transition_matrix, length, seed=seed,
            initial_distribution=self.initial_distribution,
        )
        rng = _rng(seed, 1)
        return states, self.output_model.sample(states, rng)


def forward_backward(hmm: HiddenMarkovModel, observations: NDArray
                     ) -> tuple[float, NDArray, NDArray]:
    """Scaled forward-backward pass over one observation sequence.

    Returns
    -------
    (log_likelihood, gammas, xi_sum)
        ``gammas`` has shape (T, n_hidden) with rows summing to one;
        ``xi_sum`` accumulates the transition responsibilities over all
        steps, shape (n_hidden, n_hidden).

    Raises
    ------
    NumericalDegeneracy
        If some frame is impossible under every hidden state, naming the
        frame index.
    """
    P = np.ascontiguousarray(hmm.transition_model.transition_matrix)
    pi = np.ascontiguousarray(hmm.initial_distribution)
    logb, shift = _frame_log_likelihoods(hmm, observations)
    T, n = logb.shape
    # Per-frame shift keeps the exponentials in range; it cancels in gamma
    # and is restored in the log-likelihood.
    b = np.exp(logb - shift[:, None])
    alphas = np.empty((T, n))
    scales = np.empty(T)
    betas = np.empty((T, n))
    bad = _hmm_forward(pi, P, b, T, n, alphas, scales)
    if bad >= 0:
        raise _impossible_frame(bad)
    _hmm_backward(P, b, scales, T, n, betas, np.empty(n))
    gammas = alphas * betas
    gammas /= gammas.sum(axis=1, keepdims=True)
    # xi_sum = P o (A^T W) with A the scaled alphas (t < T) and
    # W_t = b_t * beta_t / c_t (t > 0); no per-step outer products needed.
    W = b[1:] * betas[1:] / scales[1:, None]
    xi_sum = P * (alphas[:-1].T @ W)
    log_likelihood = float(np.sum(np.log(scales)) + np.sum(shift))
    return log_likelihood, gammas, xi_sum


def _frame_log_likelihoods(hmm: HiddenMarkovModel, observations: NDArray
                           ) -> tuple[NDArray, NDArray]:
    """Emission log-likelihoods, C-contiguous, shape (T, n_hidden), and
    their per-frame maximum.

    Raises if the sequence is empty or some frame is impossible (or NaN)
    under every hidden state, naming the first such frame.
    """
    logb = np.ascontiguousarray(hmm.output_model.log_likelihoods(observations))
    if logb.shape[0] == 0:
        raise InsufficientData("empty observation sequence")
    best = logb.max(axis=1)
    if not np.all(np.isfinite(best)):
        raise _impossible_frame(int(np.flatnonzero(~np.isfinite(best))[0]))
    return logb, best


def _impossible_frame(frame: int) -> NumericalDegeneracy:
    return NumericalDegeneracy(
        f"frame {frame} has zero likelihood under every hidden state"
    )


@_kernel("hmm_forward")
def _hmm_forward(pi, P, b, T, n, alphas, scales) -> int:
    """The scaled forward recursion over ``T`` frames into ``alphas`` and
    ``scales``; returns -1, or the first frame whose scale is not positive and
    finite."""
    alpha = pi * b[0]
    for t in range(T):
        if t > 0:
            alpha = np.add.accumulate(alphas[t - 1][:, None] * P, axis=0)[-1] * b[t]
        s = np.cumsum(alpha)[-1]
        if s <= 0 or not np.isfinite(s):
            return t
        scales[t] = s
        alphas[t] = alpha / s
    return -1


@_kernel("hmm_backward")
def _hmm_backward(P, b, scales, T, n, betas, scratch) -> None:
    """The scaled backward recursion over ``T`` frames into ``betas``."""
    betas[T - 1] = 1.0
    for t in range(T - 2, -1, -1):
        betas[t] = np.add.accumulate(P * (b[t + 1] * betas[t + 1]), axis=1)[:, -1] / scales[t + 1]


@_kernel("hmm_viterbi")
def _hmm_viterbi(logpi, logP, logb, T, n, back, scratch, path) -> None:
    """The most probable path over ``T`` frames into ``path``, with back-pointers
    in ``back[1:]``; ties go to the lower index."""
    delta = logpi + logb[0]
    for t in range(1, T):
        cand = delta[:, None] + logP
        back[t] = np.argmax(cand, axis=0)
        delta = cand[back[t], np.arange(n)] + logb[t]
    path[T - 1] = int(np.argmax(delta))
    for t in range(T - 2, -1, -1):
        path[t] = back[t + 1][path[t + 1]]


def baum_welch(initial: HiddenMarkovModel, observations, max_iter: int = 500,
               tolerance: float = 1e-8) -> tuple[HiddenMarkovModel, dict]:
    """Expectation-maximization refinement of a hidden Markov model.

    Parameters
    ----------
    initial : HiddenMarkovModel
        Starting point; see :func:`init_from_msm` for a data-driven one.
    observations : array or sequence of arrays
        One or more observation sequences.
    max_iter : int, default 500
    tolerance : float, default 1e-8
        Relative log-likelihood improvement below which iteration stops.

    Returns
    -------
    (model, info)
        ``info`` has keys ``log_likelihoods`` (per iteration), ``converged``,
        ``iterations`` and ``backend`` (``"c"`` for the compiled recursions,
        otherwise ``"python (…)"`` with the reason).

    Raises
    ------
    InvalidArgument
        If ``max_iter`` or ``tolerance`` is negative or not finite.
    InternalInvariantError
        If the log-likelihood decreases beyond floating-point slack, which
        would indicate a broken maximization step.
    """
    _integer("max_iter", max_iter, 0)
    _checked("tolerance", tolerance, 0)
    if isinstance(observations, np.ndarray) and observations.ndim == 1:
        observations = [observations]
    observations = [np.asarray(o).ravel() for o in observations]
    if not observations or all(o.size == 0 for o in observations):
        raise InsufficientData("no observations")
    model = initial
    history: list[float] = []
    converged = False
    iterations = 0
    for iteration in range(1, max_iter + 1):
        iterations = iteration
        total_ll = 0.0
        xi_total = np.zeros((model.n_hidden, model.n_hidden))
        gamma0 = np.zeros(model.n_hidden)
        gammas_all = []
        for obs in observations:
            ll, gammas, xi_sum = forward_backward(model, obs)
            total_ll += ll
            xi_total += xi_sum
            gamma0 += gammas[0]
            gammas_all.append(gammas)
        if history and total_ll < history[-1] - 1e-10 * (1.0 + abs(history[-1])):
            raise InternalInvariantError(
                f"log-likelihood decreased from {history[-1]!r} to {total_ll!r}"
            )
        row_mass = xi_total.sum(axis=1)
        if np.any(row_mass <= 0):
            dead = np.flatnonzero(row_mass <= 0)
            raise NumericalDegeneracy(
                f"hidden states {dead.tolist()} received no transition responsibility"
            )
        P_new = xi_total / row_mass[:, None]
        output_new = model.output_model.updated(gammas_all, observations)
        model = HiddenMarkovModel(
            transition_model=MarkovStateModel(P_new, lag=model.transition_model.lag),
            output_model=output_new,
            initial_distribution=gamma0 / gamma0.sum(),
        )
        if history:
            improvement = total_ll - history[-1]
            if improvement <= tolerance * max(abs(history[-1]), 1.0):
                history.append(total_ll)
                converged = True
                break
        history.append(total_ll)
    return model, {
        "log_likelihoods": history,
        "converged": converged,
        "iterations": iterations,
        "backend": _compiled_kernels()[1],
    }


def viterbi(hmm: HiddenMarkovModel, observations: NDArray) -> NDArray:
    """Most probable hidden path in log space; ties go to the lower index.

    Raises
    ------
    NumericalDegeneracy
        If some frame is impossible under every hidden state, naming the
        frame index, as :func:`forward_backward` does.
    """
    logb, _ = _frame_log_likelihoods(hmm, observations)
    T, n = logb.shape
    with np.errstate(divide="ignore"):
        logP = np.log(np.ascontiguousarray(hmm.transition_model.transition_matrix))
        logpi = np.log(np.ascontiguousarray(hmm.initial_distribution))
    path = np.empty(T, dtype=np.int64)
    _hmm_viterbi(logpi, logP, logb, T, n, np.empty((T, n), dtype=np.int64), np.empty(2 * n), path)
    return path


def init_from_msm(observations, n_hidden: int, lag: int = 1) -> HiddenMarkovModel:
    """Data-driven initial hidden Markov model for discrete observations.

    Estimates a reversible Markov state model on the observed symbols,
    counted with a sliding window, groups the connected states by the sign
    structure of the dominant non-trivial left eigenvectors (each eigenvector
    in turn splits the groups it still distinguishes, until ``n_hidden``
    groups exist; there is no split by magnitude), coarse-grains the
    transition matrix onto the groups, and spreads a probability floor of
    0.01 over all symbols so every observation keeps positive likelihood.

    Raises
    ------
    InvalidArgument
        If fewer connected observed states than hidden states remain, or if
        the eigenvector signs split them into fewer than ``n_hidden`` groups.
    """
    _integer("n_hidden", n_hidden, 1)
    counts = count_transitions(observations, lag=lag)
    # Emissions are indexed by the raw symbol, observed or not.
    n_symbols = int(counts.state_symbols[-1]) + 1
    sub = largest_connected_submodel(counts)
    msm = msm_mle(sub, reversible=True)
    n_obs = msm.n_states
    if n_obs < n_hidden:
        raise InvalidArgument(
            f"only {n_obs} connected observed states for {n_hidden} hidden states"
        )

    spectrum = spectral_analysis(msm, n_hidden)
    left = np.real(spectrum.left_eigenvectors)
    groups = [list(range(n_obs))]
    for comp in range(1, left.shape[1]):
        if len(groups) >= n_hidden:
            break
        vec = left[:, comp]
        out: list[list[int]] = []
        remaining = list(groups)
        while remaining:
            group = remaining.pop(0)
            plus = [s for s in group if vec[s] >= 0]
            minus = [s for s in group if vec[s] < 0]
            # Splitting is allowed only while below the requested count.
            if plus and minus and len(out) + 1 + len(remaining) < n_hidden:
                out.extend([plus, minus])
            else:
                out.append(group)
        groups = out
    if len(groups) < n_hidden:
        raise InvalidArgument(f"eigenvector sign splits gave {len(groups)} groups, "
                              f"fewer than n_hidden = {n_hidden}")
    groups = [sorted(g) for g in groups]
    groups.sort(key=lambda g: g[0])

    membership = np.zeros(n_obs, dtype=np.int64)
    for h, group in enumerate(groups):
        membership[list(group)] = h

    # Coarse-grained transitions, weighted by the stationary distribution.
    mu = msm.stationary_distribution
    P = msm.transition_matrix
    P_coarse = np.zeros((n_hidden, n_hidden))
    pi_coarse = np.zeros(n_hidden)
    for h in range(n_hidden):
        sel_h = membership == h
        pi_coarse[h] = mu[sel_h].sum()
        for k in range(n_hidden):
            sel_k = membership == k
            P_coarse[h, k] = (mu[sel_h, None] * P[np.ix_(sel_h, sel_k)]).sum()
        P_coarse[h] /= max(P_coarse[h].sum(), 1e-300)

    # Emissions: group mass spread over member symbols, floor over everything.
    B = np.full((n_hidden, n_symbols), _EMISSION_FLOOR / n_symbols)
    symbols = sub.state_symbols
    for h, group in enumerate(groups):
        members = symbols[list(group)]
        B[h, members] += (1.0 - _EMISSION_FLOOR) / len(members)
    return HiddenMarkovModel(
        transition_model=MarkovStateModel(P_coarse, lag=lag),
        output_model=DiscreteOutputModel(B),
        initial_distribution=pi_coarse / pi_coarse.sum(),
    )
