"""Markov state models on discrete state spaces.

Pipeline: count transitions at a lag, restrict to the largest connected set
of states, estimate a maximum-likelihood transition matrix (optionally under
detailed balance), then analyze the spectrum, timescales, passage times, or
hand the model to the whitened-operator layer for variational scoring.
The chain sampler's per-step loop runs in the compiled kernels of
``_kernels.c`` (see :mod:`lagtime._native`), or in its reference loop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import eig as _eig_lr
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from ._native import _kernel
from .basis import IndicatorFeatures
from .covariance import CovarianceModel
from .decomposition import vamp_fit
from .errors import (
    ConvergenceFailure,
    DegenerateInput,
    InsufficientData,
    InvalidArgument,
)
from .numerics import SpectralDecomposition, _by_modulus, _integer, _rng

__all__ = [
    "TransitionCountModel",
    "MarkovStateModel",
    "CoherenceResult",
    "count_transitions",
    "largest_connected_submodel",
    "msm_mle",
    "stationary_distribution",
    "spectral_analysis",
    "timescales",
    "mfpt",
    "msm_to_koopman",
    "coherence_score",
    "sample_markov_chain",
    "read_discrete_trajectory",
]


# ---------------------------------------------------------------------------
# counting


@dataclass(frozen=True)
class TransitionCountModel:
    """Square matrix of observed transitions between discrete states.

    ``state_symbols[i]`` is the original label of matrix row/column ``i``;
    after restriction to a connected subset the symbols keep pointing at the
    labels in the input data.
    """

    count_matrix: NDArray
    lag: int
    counting_mode: str = "sliding"
    state_symbols: NDArray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.state_symbols is None:
            object.__setattr__(
                self, "state_symbols", np.arange(self.count_matrix.shape[0], dtype=np.int64)
            )

    def submodel(self, states: NDArray) -> "TransitionCountModel":
        """Restrict to a subset of (internal) state indices, keeping symbols."""
        states = np.asarray(states, dtype=np.int64)
        return TransitionCountModel(
            count_matrix=self.count_matrix[np.ix_(states, states)],
            lag=self.lag,
            counting_mode=self.counting_mode,
            state_symbols=self.state_symbols[states],
        )


def _as_symbols(values) -> NDArray:
    """``values`` as 64-bit integers: integer arrays as they are, others only
    where every entry is an exact integer that fits the int64 cast. The one
    rule for discrete trajectories, of states and of HMM observations alike."""
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not (np.all(np.abs(arr) < 2.0**63) and np.array_equal(arr, rounded)):
            raise InvalidArgument("discrete trajectories must contain 64-bit integers")
        arr = rounded
    return np.asarray(arr, dtype=np.int64)


def _as_dtrajs(trajectories) -> list[NDArray]:
    if isinstance(trajectories, np.ndarray) and trajectories.ndim == 1:
        trajectories = [trajectories]
    out = []
    for traj in trajectories:
        arr = np.asarray(traj)
        if arr.ndim != 1:
            raise InvalidArgument("discrete trajectories must be one-dimensional")
        arr = _as_symbols(arr)
        if arr.size and arr.min() < 0:
            raise InvalidArgument("state indices must be non-negative")
        out.append(arr)
    return out


def count_transitions(trajectories, lag: int, counting_mode: str = "sliding"
                      ) -> TransitionCountModel:
    """Count transitions ``s_i -> s_{i+lag}`` in discrete trajectories.

    The states are the labels that occur in the trajectories, in ascending
    order; ``state_symbols`` holds them, so unobserved labels between them
    cost nothing.

    Parameters
    ----------
    trajectories : array or sequence of arrays
        Integer state sequences.
    lag : int
        Positive frame offset.
    counting_mode : {"sliding", "strided"}
        "sliding" counts every pair ``(i, i+lag)``; "strided" only pairs
        starting at multiples of the lag, which makes counts statistically
        independent at the price of using less data.

    Raises
    ------
    InsufficientData
        If no trajectory produces a single pair at this lag.
    """
    _integer("lag", lag, 1)
    if counting_mode not in ("sliding", "strided"):
        raise InvalidArgument(f"unknown counting mode {counting_mode!r}")
    dtrajs = _as_dtrajs(trajectories)
    if not dtrajs:
        raise InsufficientData("no trajectories given")
    symbols, labels = np.unique(np.concatenate(dtrajs), return_inverse=True)
    if symbols.size == 0:
        raise InsufficientData("all trajectories are empty")
    n = symbols.size
    flat = []
    for traj in np.split(labels, np.cumsum([t.size for t in dtrajs])[:-1]):
        if traj.size <= lag:
            continue
        if counting_mode == "sliding":
            src, dst = traj[:-lag], traj[lag:]
        else:
            starts = np.arange(0, traj.size - lag, lag)
            src, dst = traj[starts], traj[starts + lag]
        flat.append(src * n + dst)
    if not flat:
        raise InsufficientData(f"no transition pairs at lag {lag}")
    counts = np.bincount(np.concatenate(flat), minlength=n * n).reshape(n, n)
    return TransitionCountModel(count_matrix=counts, lag=lag, counting_mode=counting_mode,
                                state_symbols=symbols)


def _strong_classes(M: NDArray) -> tuple[int, NDArray]:
    """Count and labels of the strongly connected classes of the graph with
    an edge wherever ``M > 0``."""
    return connected_components(csr_matrix((M > 0).astype(np.int8)), directed=True,
                                connection="strong")


def largest_connected_submodel(counts: TransitionCountModel) -> TransitionCountModel:
    """Restrict a count model to its largest communicating set of states.

    Connectivity is strong connectivity of the graph with an edge wherever a
    transition was observed. Ties between equally large components are
    broken towards one with a transition inside it (for a single state, a
    count to itself), then towards the one containing the lowest state index.
    """
    C = counts.count_matrix
    n_comp, labels = _strong_classes(C)
    sizes = np.bincount(labels, minlength=n_comp)
    inside = sizes > 1
    inside[labels[np.diag(C) > 0]] = True
    rank = 2 * sizes + inside  # size first, then a transition inside
    candidates = np.flatnonzero(rank == rank.max())
    # The component containing the smallest state index among the candidates.
    _, first_state = np.unique(labels, return_index=True)
    winner = candidates[np.argmin(first_state[candidates])]
    keep = np.flatnonzero(labels == winner)
    return counts.submodel(keep)


# ---------------------------------------------------------------------------
# models and estimation


@dataclass
class MarkovStateModel:
    """Row-stochastic transition matrix with spectral conveniences.

    ``stationary_distribution`` is the one the estimator fitted where it
    supplied one, which a saved model keeps; otherwise it is computed on
    first access, and accessing it on a reducible matrix raises
    :class:`~lagtime.errors.DegenerateInput`.
    """

    transition_matrix: NDArray
    lag: int = 1
    reversible: bool = False
    count_model: Optional[TransitionCountModel] = None
    _stationary: Optional[NDArray] = None

    def __post_init__(self):
        P = np.asarray(self.transition_matrix, dtype=np.float64)
        if P.ndim != 2 or P.shape[0] != P.shape[1]:
            raise InvalidArgument(f"transition matrix must be square, got {P.shape}")
        if np.any(P < -1e-12):
            raise InvalidArgument("transition matrix has negative entries")
        rows = P.sum(axis=1)
        if not np.allclose(rows, 1.0, atol=1e-10):
            raise InvalidArgument("transition matrix rows must sum to one within 1e-10")
        self.transition_matrix = P
        if self._stationary is not None:
            self._stationary = np.asarray(self._stationary, dtype=np.float64)

    @property
    def n_states(self) -> int:
        return self.transition_matrix.shape[0]

    @functools.cached_property
    def stationary_distribution(self) -> NDArray:
        if self._stationary is not None:
            return self._stationary
        return stationary_distribution(self.transition_matrix)


# Stop rule (relative log-likelihood change) and cap of the fixed point in msm_mle.
_MLE_TOLERANCE = 1e-10
_MLE_MAX_ITER = 1_000_000


def msm_mle(counts: TransitionCountModel, reversible: bool = False) -> MarkovStateModel:
    """Maximum-likelihood transition matrix from transition counts.

    The non-reversible estimate is the row-normalized count matrix. The
    reversible estimate maximizes the same likelihood under the detailed
    balance constraint by the fixed-point iteration of Prinz et al. (*JCP*
    134, 174105, 2011) on the unnormalized flux matrix, run inside each
    strongly connected class of the count graph at once; it stops when the
    relative log-likelihood change drops to 1e-10.

    A class that counts leave is transient: its rows keep their observed
    outflow, ``P[i, k] = C[i, k] / c_i`` for ``k`` outside the class, and
    the rest of each row is reversible with respect to the class's own
    weights. The stationary distribution is zero on transient classes. It
    is not unique when several classes are closed; each closed class then
    gets its share of the counts as its weight.

    Raises
    ------
    InvalidArgument
        If some state has no outgoing counts. Restrict to the largest
        connected submodel first.
    ConvergenceFailure
        If the reversible iteration does not converge.
    """
    C = counts.count_matrix.astype(np.float64)
    row_sums = C.sum(axis=1)
    if np.any(row_sums == 0):
        dead = np.flatnonzero(row_sums == 0)
        raise InvalidArgument(
            f"states {dead.tolist()} have no outgoing counts; "
            "apply largest_connected_submodel first"
        )
    P = C / row_sums[:, None]  # also the reversible estimate outside each class
    if not reversible:
        return MarkovStateModel(P, lag=counts.lag, reversible=False, count_model=counts)

    n_classes, labels = _strong_classes(C)
    inside = labels[:, None] == labels[None, :]
    outflow = np.where(inside, 0.0, C).sum(axis=1)
    sym = C + C.T
    mask = (sym > 0) & inside
    # The log-likelihood of the counts that leave a class does not change.
    counted, leaving = (C > 0) & inside, (C > 0) & ~inside
    weights, fixed = C[counted], float(np.sum(C[leaving] * np.log(P[leaving])))
    x = np.where(mask, sym, 0.0)
    loglik_prev = -np.inf
    # A state whose counts all leave its class gets an infinite scale, x_i NaN.
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = row_sums / (row_sums - outflow)
        x_i = x.sum(axis=1) * scale
        for _ in range(_MLE_MAX_ITER):
            denom = row_sums[:, None] / x_i[:, None] + row_sums[None, :] / x_i[None, :]
            x = np.where(mask, sym / np.where(denom == 0, 1.0, denom), 0.0)
            x_i = x.sum(axis=1) * scale
            loglik = float(np.sum(weights * np.log((x / x_i[:, None])[counted]))) + fixed
            if abs(loglik - loglik_prev) <= _MLE_TOLERANCE * max(abs(loglik), 1.0):
                break
            loglik_prev = loglik
        else:
            raise ConvergenceFailure(f"reversible estimator did not converge within "
                                     f"{_MLE_MAX_ITER} iterations", iterations=_MLE_MAX_ITER)
        P = np.where(mask, x / x_i[:, None], P)
    closed = np.bincount(labels, weights=outflow, minlength=n_classes) == 0
    share = np.bincount(labels, weights=row_sums, minlength=n_classes) * closed
    stationary = np.zeros(C.shape[0])
    for k in np.flatnonzero(closed):
        members = labels == k
        stationary[members] = x_i[members] / x_i[members].sum() * (share[k] / share.sum())
    return MarkovStateModel(P, lag=counts.lag, reversible=True, count_model=counts,
                            _stationary=stationary)


def stationary_distribution(P: NDArray) -> NDArray:
    """Stationary distribution of an irreducible row-stochastic matrix.

    Raises
    ------
    DegenerateInput
        If the sparsity graph of ``P`` is not strongly connected, in which
        case the stationary distribution is not unique.
    """
    P = np.asarray(P, dtype=np.float64)
    n = P.shape[0]
    n_comp, _ = _strong_classes(P)
    if n_comp != 1:
        raise DegenerateInput(
            f"transition matrix is reducible ({n_comp} communicating classes); "
            "stationary distribution is not unique"
        )
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    mu = np.linalg.solve(A, b)
    mu = np.clip(mu, 0.0, None)
    return mu / mu.sum()


def spectral_analysis(msm: MarkovStateModel, n_components: Optional[int] = None
                      ) -> SpectralDecomposition:
    """Eigenvalues and left/right eigenvectors by descending modulus, ties to larger real part.

    For reversible models the spectrum is computed through the symmetrized
    matrix ``diag(sqrt(mu)) P diag(1/sqrt(mu))``, guaranteeing real
    eigenvalues; right eigenvectors are normalized to unit length in the
    stationary inner product and left eigenvectors are their stationary
    duals (`l_i = mu * r_i`), so the first pair is the constant function and
    the stationary distribution. Non-reversible models use a general
    eigensolver with the same ordering and the sign fixed so each right
    eigenvector's largest-magnitude entry is positive.

    Raises
    ------
    DegenerateInput
        If a reversible model's stationary distribution has a zero, as
        :func:`msm_mle` gives transient states.
    """
    P = msm.transition_matrix
    n = P.shape[0]
    k = n if n_components is None else _integer("n_components", n_components, 1, n)
    if msm.reversible:
        mu = msm.stationary_distribution
        if not np.all(mu > 0):
            raise DegenerateInput("stationary distribution has zeros (transient states)")
        sqrt_mu = np.sqrt(mu)
        S = (sqrt_mu[:, None] * P) / sqrt_mu[None, :]
        S = 0.5 * (S + S.T)
        evals, evecs = np.linalg.eigh(S)
        order = _by_modulus(evals)
        evals, evecs = evals[order], evecs[:, order]
        right = evecs / sqrt_mu[:, None]
        # Unit norm in the stationary inner product: sum(mu * r^2) = 1.
        norms = np.sqrt(np.einsum("i,ij->j", mu, right**2))
        right = right / norms
        signs = np.sign(right[np.argmax(np.abs(right), axis=0), np.arange(right.shape[1])])
        signs[signs == 0] = 1.0
        right = right * signs
        left = right * mu[:, None]
        return SpectralDecomposition(
            eigenvalues=evals[:k], eigenvectors=right[:, :k], left_eigenvectors=left[:, :k]
        )
    evals, vl, vr = _eig_lr(P, left=True, right=True)
    order = _by_modulus(evals)
    evals, vl, vr = evals[order], vl[:, order], vr[:, order]
    if np.allclose(np.imag(evals[:k]), 0.0, atol=1e-12):
        evals = np.real(evals)
        vl, vr = np.real(vl), np.real(vr)
    signs = np.sign(
        np.real(vr[np.argmax(np.abs(vr), axis=0), np.arange(vr.shape[1])])
    )
    signs[signs == 0] = 1.0
    vr = vr * signs
    # Scale left vectors to biorthonormality <l_i, r_i> = 1.
    with np.errstate(divide="ignore", invalid="ignore"):
        inner = np.sum(np.conj(vl) * vr, axis=0)
        inner = np.where(np.abs(inner) < 1e-300, 1.0, inner)
        vl = np.conj(vl) / inner
    return SpectralDecomposition(
        eigenvalues=evals[:k], eigenvectors=vr[:, :k], left_eigenvectors=vl[:, :k]
    )


def timescales(msm: MarkovStateModel, n_timescales: Optional[int] = None) -> NDArray:
    """Implied relaxation timescales ``-lag / log |lambda_{i+1}|``.

    The stationary eigenvalue is skipped; any further eigenvalue with modulus
    at or above one yields infinity. A model with one state has none and
    raises :class:`~lagtime.errors.InsufficientData`.
    """
    n = msm.n_states
    if n < 2:
        raise InsufficientData("need at least two connected states for timescales")
    k = n - 1 if n_timescales is None else _integer("n_timescales", n_timescales, 1, n - 1)
    evals = spectral_analysis(msm, k + 1).eigenvalues
    mags = np.abs(evals[1:])
    out = np.full(k, np.inf)
    with np.errstate(divide="ignore"):
        small = mags < 1.0
        out[small] = -msm.lag / np.log(mags[small])
    return out


def _reachable_from(P: NDArray, seeds: NDArray) -> NDArray:
    """Boolean mask of states with a directed path from any seed (inclusive)."""
    adj = P > 0
    reach = np.zeros(P.shape[0], dtype=bool)
    reach[seeds] = True
    while True:
        new = reach | (adj.T @ reach)
        if np.array_equal(new, reach):
            return reach
        reach = new


def mfpt(msm: MarkovStateModel, target_states) -> NDArray:
    """Mean first passage times (in lag units times ``lag``) to a target set.

    Target states have passage time zero. States from which the target is not
    reached almost surely get infinity. The remaining values solve the linear
    system ``m = lag + P m`` restricted to non-target states.
    """
    target = np.unique(np.asarray(target_states, dtype=np.int64).ravel())
    n = msm.n_states
    if target.size == 0:
        raise InvalidArgument("target set must not be empty")
    if target.min() < 0 or target.max() >= n:
        raise InvalidArgument(f"target states must lie in 0..{n - 1}")
    P = msm.transition_matrix
    # States that cannot reach the target: follow edges backwards from it.
    can_reach_target = _reachable_from(P.T, target)
    doomed = ~can_reach_target
    # States that may fall into the doomed set have infinite expectation.
    tainted = _reachable_from(P.T, np.flatnonzero(doomed)) if doomed.any() else doomed
    out = np.full(n, np.inf)
    out[target] = 0.0
    is_target = np.zeros(n, dtype=bool)
    is_target[target] = True
    solve_mask = ~is_target & ~tainted
    idx = np.flatnonzero(solve_mask)
    if idx.size:
        A = np.eye(idx.size) - P[np.ix_(idx, idx)]
        m = np.linalg.solve(A, np.full(idx.size, float(msm.lag)))
        out[idx] = m
    return out


def msm_to_koopman(msm: MarkovStateModel):
    """Express a Markov state model in the whitened-operator form.

    Builds the covariance matrices of the indicator basis implied by the
    model, ``c00 = ctt = diag(w)`` and ``c0t = diag(w) P`` with ``w`` the
    stationary distribution, then decomposes them variationally. The result
    scores and projects exactly like any other whitened operator model.
    """
    P = msm.transition_matrix
    n = msm.n_states
    w = msm.stationary_distribution
    c00 = ctt = np.diag(w)
    c0t = w[:, None] * P
    cov = CovarianceModel(
        mean_0=np.zeros(n), mean_t=np.zeros(n),
        c00=c00, c0t=c0t, ctt=ctt,
        n_pairs=2, lag=msm.lag,
        symmetrized=False, mean_removed=False,
    )
    chi = IndicatorFeatures(n)
    return vamp_fit(cov, epsilon=1e-15, chi0=chi, chi1=chi)


# ---------------------------------------------------------------------------
# coherence


@dataclass(frozen=True)
class CoherenceResult:
    """Per-set return probabilities and their population-weighted mean.

    ``per_set[i]`` is NaN for sets with no initial members; those sets are
    listed in ``empty_sets`` and excluded from the expectation.
    """

    per_set: NDArray
    expectation: float
    empty_sets: tuple[int, ...] = ()


def coherence_score(initial_assignments: NDArray, returned_assignments: NDArray,
                    n_sets: int) -> CoherenceResult:
    """Probability of returning to the starting set under a noisy round trip.

    Builds a transition count matrix from the two-frame trajectories
    ``initial -> returned`` and reads off the diagonal of the row-normalized
    matrix; the expectation weights each populated set by its share of the
    initial population.
    """
    a0 = np.asarray(initial_assignments, dtype=np.int64).ravel()
    a1 = np.asarray(returned_assignments, dtype=np.int64).ravel()
    if a0.shape != a1.shape:
        raise InvalidArgument("assignment arrays must have equal length")
    if a0.size == 0:
        raise InsufficientData("no particles to score")
    _integer("n_sets", n_sets, 1)
    for arr, name in ((a0, "initial"), (a1, "returned")):
        if arr.min() < 0 or arr.max() >= n_sets:
            raise InvalidArgument(f"{name} assignments must lie in 0..{n_sets - 1}")
    counts = np.zeros((n_sets, n_sets), dtype=np.int64)
    np.add.at(counts, (a0, a1), 1)
    populations = counts.sum(axis=1)
    per_set = np.full(n_sets, np.nan)
    populated = populations > 0
    per_set[populated] = counts[populated, populated] / populations[populated]
    total = a0.size
    expectation = float(np.sum((populations[populated] / total) * per_set[populated]))
    empty = tuple(int(i) for i in np.flatnonzero(~populated))
    return CoherenceResult(per_set=per_set, expectation=expectation, empty_sets=empty)


# ---------------------------------------------------------------------------
# sampling and IO


def sample_markov_chain(P: NDArray, length: int, seed: int,
                        initial_distribution: Optional[NDArray] = None) -> NDArray:
    """Sample a state sequence from a row-stochastic matrix, reproducibly.

    The steps run in ``markov_chain_steps`` of ``_kernels.c``, or in its
    reference ``_markov_chain_steps``, as :mod:`lagtime._native` chooses;
    both give the same states for a seed.

    Raises
    ------
    InvalidArgument
        If ``P`` is not a transition matrix, as :class:`MarkovStateModel`
        checks it, or ``initial_distribution`` is not ``n`` non-negative
        weights with a positive finite sum.
    """
    P = MarkovStateModel(P).transition_matrix
    n = P.shape[0]
    _integer("length", length, 1)
    rng = _rng(seed)
    if initial_distribution is None:
        initial_distribution = np.full(n, 1.0 / n)
    initial_distribution = np.asarray(initial_distribution, dtype=np.float64)
    if initial_distribution.shape != (n,) or not (
            np.all(initial_distribution >= 0) and 0 < initial_distribution.sum() < np.inf):
        raise InvalidArgument(f"initial distribution must be {n} non-negative weights "
                              "with a positive finite sum")
    cdf = np.cumsum(P, axis=1)
    cdf[:, -1] = 1.0
    states = np.empty(length, dtype=np.int64)
    states[0] = rng.choice(n, p=initial_distribution / np.sum(initial_distribution))
    draws = rng.random(length - 1)
    _markov_chain_steps(cdf, n, draws, length, states)
    return states


@_kernel("markov_chain_steps")
def _markov_chain_steps(cdf, n, draws, length, states) -> None:
    """Fill ``states[1:]``: each state is the first column of ``cdf`` above its draw."""
    for t in range(1, length):
        states[t] = np.searchsorted(cdf[states[t - 1]], draws[t - 1], side="right")


def read_discrete_trajectory(path) -> NDArray:
    """Read one discrete trajectory from a whitespace- or comma-separated file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise InsufficientData(f"{path}: file contains no states")
    try:
        values = np.array([int(tok) for tok in tokens], dtype=np.int64)
    except ValueError as err:
        raise InvalidArgument(f"{path}: non-integer token in trajectory: {err}") from err
    if values.min() < 0:
        raise InvalidArgument(f"{path}: state indices must be non-negative")
    return values
