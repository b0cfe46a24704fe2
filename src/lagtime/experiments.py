"""Reproducible benchmark experiments behind the command-line front end.

Two experiment drivers live here. The first fits several decomposition
methods to the square-root-warped two-state process and compares their
cross-validated predictive scores and clustering accuracies. The second runs
the coherent-set pipeline on the perturbed jet flow: fit, project to the
dominant singular functions, cluster, and evaluate coherence under a
forward-noise-backward protocol, along with predictive scores on fresh
particles.

Default hyperparameters are the tuned optima the experiments are normally
reported with; all randomness flows from a single seed per run.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .basis import CylinderEmbedding, MonomialFeatures, RandomFeatureNet, Whitener
from .clustering import kmeans_assign, kmeans_fit
from .covariance import covariances_from_pairs
from .datasets import bickley_flow, sample_sqrt_model, sqrt_backtransform
from .decomposition import (
    _kvad_score,
    edmd_fit,
    kernel_cca_fit,
    kernel_edmd_fit,
    kvad_fit,
    tica_fit,
    vamp_fit,
    vamp_score,
    vamp_score_cv,
)
from .errors import InvalidArgument
from .kernels import GaussianKernel, gram_matrix
from .markov import coherence_score
from .numerics import _checked, _integer, _rng

__all__ = [
    "SQRT_METHODS",
    "BICKLEY_METHODS",
    "BICKLEY_ANSATZ_SEED",
    "sqrt_decision_feature",
    "run_sqrt_experiment",
    "run_bickley_experiment",
]

# Tuned (bandwidth, regularization) optima for the warped two-state data.
SQRT_KERNEL_EDMD_BANDWIDTH = 1.42
SQRT_KERNEL_EDMD_EPSILON = 6.7e-4
SQRT_KERNEL_CCA_BANDWIDTH = 0.85
SQRT_KERNEL_CCA_EPSILON = 0.36

# Tuned optima for the jet-flow experiment.
BICKLEY_KERNEL_CCA_BANDWIDTH = 0.58
BICKLEY_KERNEL_CCA_EPSILON = 5.6e-3
BICKLEY_KVAD_BANDWIDTH = 1.0
BICKLEY_SCORING_KVAD_BANDWIDTH = 0.5
# Default draw of the random feature basis shared by the operator methods.
# Coherence of the clustered singular functions varies by roughly +-0.03
# from draw to draw; this draw sits near the middle of that range for all
# methods at the default data seed.
BICKLEY_ANSATZ_SEED = 2

SQRT_METHODS = ("tica", "edmd", "backtransform", "kernel_edmd", "kernel_cca")
BICKLEY_METHODS = ("kvad", "vamp", "kernel_cca")


def _accuracy_vs_truth(labels: NDArray, truth: NDArray) -> float:
    """Two-class accuracy up to label permutation."""
    labels = np.asarray(labels)
    truth = np.asarray(truth)
    agree = float(np.mean(labels == truth))
    return max(agree, 1.0 - agree)


def sqrt_decision_feature(method: str, observations: NDArray) -> NDArray:
    """One scalar decision function per frame for the warped two-state data.

    Each method is fitted on the full trajectory at lag one and evaluated on
    every frame. Methods whose basis contains the constant function yield a
    trivial leading component, so their second component is the decision
    function; the others use their leading component.
    """
    obs = np.asarray(observations, dtype=np.float64)
    X, Y = obs[:-1], obs[1:]
    if method == "tica":
        cov = covariances_from_pairs(X, Y, symmetrize=True, remove_mean=True)
        model = tica_fit(cov)
        return model.forward(obs)[:, 0]
    if method == "edmd":
        model = edmd_fit(X, Y, MonomialFeatures(2, 2))
        return model.project(obs, 2)[:, 1]
    if method == "backtransform":
        flat = sqrt_backtransform(obs)
        cov = covariances_from_pairs(flat[:-1], flat[1:], remove_mean=True)
        model = vamp_fit(cov)
        return model.forward(flat)[:, 0]
    if method == "kernel_edmd":
        whitener = Whitener.from_data(obs)
        W = whitener(obs)
        model = kernel_edmd_fit(
            W[:-1], W[1:],
            GaussianKernel(SQRT_KERNEL_EDMD_BANDWIDTH),
            epsilon=SQRT_KERNEL_EDMD_EPSILON,
            n_components=2,
        )
        return model.project(W, 2)[:, 1]
    if method == "kernel_cca":
        model = kernel_cca_fit(
            X, Y,
            GaussianKernel(SQRT_KERNEL_CCA_BANDWIDTH),
            n_components=2,
            epsilon=SQRT_KERNEL_CCA_EPSILON,
        )
        return model.project(obs, 1)[:, 0]
    raise InvalidArgument(f"unknown method {method!r}")


def run_sqrt_experiment(methods: Sequence[str] = SQRT_METHODS,
                        n_frames: int = 1000, n_folds: int = 10,
                        seed: int = 0) -> dict:
    """Fit each method to one warped-trajectory sample and compare them.

    For every method the scalar decision function is augmented with a
    constant, and the pair features are scored by cross-validated VAMP-2 over
    contiguous fold blocks; clustering accuracy comes from 2-means on the
    decision function against the hidden truth, permutation-invariant.

    Returns a dictionary with per-method ``vamp2_mean``, ``vamp2_std``,
    ``accuracy``, per-fold scores, and the per-frame decision features.
    """
    for method in methods:
        if method not in SQRT_METHODS:
            raise InvalidArgument(
                f"unknown method {method!r}; choose from {', '.join(SQRT_METHODS)}"
            )
    start = time.perf_counter()
    observations, hidden = sample_sqrt_model(n_frames, seed=seed)
    results: dict = {
        "observations": observations,
        "hidden": hidden,
        "methods": {},
    }
    for method in methods:
        chi = sqrt_decision_feature(method, observations)
        F = np.column_stack([np.ones(n_frames), chi])
        mean, std, fold_scores = vamp_score_cv(F[:-1], F[1:], r=2, n_folds=n_folds)
        clusters = kmeans_fit(chi[:, None], 2, seed=seed, n_restarts=10)
        labels = clusters.assign(chi[:, None])
        accuracy = _accuracy_vs_truth(labels, hidden)
        results["methods"][method] = {
            "vamp2_mean": mean,
            "vamp2_std": std,
            "fold_scores": fold_scores,
            "accuracy": accuracy,
            "decision_feature": chi,
            "assignments": labels,
        }
    results["wall_time_seconds"] = time.perf_counter() - start
    return results


# ---------------------------------------------------------------------------
# Jet-flow coherent set experiment
# ---------------------------------------------------------------------------


def _uniform_particles(rng: np.random.Generator, n: int) -> NDArray:
    return rng.uniform([0.0, -4.0], [20.0, 4.0], size=(n, 2))


def _bickley_projectors(methods: Sequence[str], x0: NDArray, x1: NDArray,
                        n_sets: int, ansatz_seed: int,
                        ) -> dict[str, Callable[[NDArray], NDArray]]:
    """Fit each requested method and return its projection function.

    Every method contributes its model's ``n_sets`` leading singular pairs.
    For the density-propagation models (the transition-density ansatz and
    kernel CCA) the leading pair is the trivial stationary one, so only
    ``n_sets - 1`` non-trivial coordinates enter clustering and scoring; the
    operator fit on mean-removed covariances excludes the constant from its
    spectrum, so all ``n_sets`` of its components are informative.
    """
    projectors: dict[str, Callable[[NDArray], NDArray]] = {}
    feat = None
    if "vamp" in methods or "kvad" in methods:
        feat = CylinderEmbedding().then(RandomFeatureNet(3, seed=ansatz_seed))
    if "kvad" in methods:
        kvad_model = kvad_fit(x0, x1, feat, GaussianKernel(BICKLEY_KVAD_BANDWIDTH))
        projectors["kvad"] = lambda P: kvad_model.project(P, n_sets - 1)
    if "vamp" in methods:
        F0, F1 = feat(x0), feat(x1)
        cov = covariances_from_pairs(F0, F1, remove_mean=True)
        vamp_model = vamp_fit(cov, n_components=n_sets, chi0=feat, chi1=feat)
        projectors["vamp"] = lambda P: vamp_model.project(P, n_sets)
    if "kernel_cca" in methods:
        cca_model = kernel_cca_fit(
            x0, x1,
            GaussianKernel(BICKLEY_KERNEL_CCA_BANDWIDTH),
            n_components=n_sets - 1,
            epsilon=BICKLEY_KERNEL_CCA_EPSILON,
        )
        projectors["kernel_cca"] = lambda P: cca_model.project(P, n_sets - 1)
    return projectors


def run_bickley_experiment(methods: Sequence[str] = BICKLEY_METHODS,
                           n_particles: int = 3000, n_sets: int = 9,
                           restarts: int = 500, rounds: int = 15,
                           round_size: int = 2500, seed: int = 0,
                           ansatz_seed: int = BICKLEY_ANSATZ_SEED,
                           t1: float = 40.0, dt: float = 1e-2,
                           noise: float = 0.1) -> dict:
    """Coherent-set detection on the perturbed jet flow, with scoring rounds.

    Training: ``n_particles`` uniform particles are advected from ``t = 0``
    to ``t1``; each method is fitted on the (initial, final) pairs, initial
    particles are projected onto the ``n_sets`` dominant components, and
    k-means with ``restarts`` restarts clusters them into candidate coherent
    sets.

    Scoring: ``rounds`` batches of ``round_size`` fresh particles are
    advected forward, perturbed with isotropic Gaussian noise of standard
    deviation ``noise``, and advected back. Each round yields, per method,
    the coherence score of the clustering, the VAMP-2 score of the projected
    features on the (initial, forward) pairs (constant included), and the
    kernel-embedded density score of the same features.

    ``seed`` drives the particle draws and the scoring noise; ``ansatz_seed``
    fixes the shared random feature basis of the operator methods, which is a
    model hyperparameter rather than part of the data stream.

    Raises
    ------
    InvalidArgument
        If a method is unknown, ``n_sets`` is below 2, ``n_particles`` below
        ``n_sets``, ``restarts``, ``rounds`` or ``round_size`` below 1,
        ``noise`` negative, or any of these numbers or ``t1`` not finite.
    """
    for method in methods:
        if method not in BICKLEY_METHODS:
            raise InvalidArgument(
                f"unknown method {method!r}; choose from {', '.join(BICKLEY_METHODS)}"
            )
    _integer("n_sets", n_sets, 2)
    _integer("n_particles", n_particles, n_sets)
    _integer("restarts", restarts, 1)
    _integer("rounds", rounds, 1)
    _integer("round_size", round_size, 1)
    _checked("noise", noise, 0)
    start = time.perf_counter()
    rng = _rng(seed)
    x0 = _uniform_particles(rng, n_particles)
    x1 = bickley_flow(x0, 0.0, t1, dt)

    projectors = _bickley_projectors(methods, x0, x1, n_sets, ansatz_seed)
    centers: dict[str, NDArray] = {}
    train_projections: dict[str, NDArray] = {}
    for method in methods:
        proj = projectors[method](x0)
        model = kmeans_fit(proj, n_sets, seed=seed, n_restarts=restarts)
        centers[method] = model.centers
        train_projections[method] = proj

    scoring_kernel = GaussianKernel(BICKLEY_SCORING_KVAD_BANDWIDTH)
    per_round: dict[str, dict[str, list]] = {
        m: {"coherence": [], "vamp2": [], "kvad": []} for m in methods
    }
    for _ in range(rounds):
        xr = _uniform_particles(rng, round_size)
        fwd = bickley_flow(xr, 0.0, t1, dt)
        noisy = fwd + noise * rng.standard_normal((round_size, 2))
        back = bickley_flow(noisy, t1, 0.0, dt)
        # One Gram matrix of the forward samples scores every method's features.
        fwd_gram = gram_matrix(scoring_kernel, fwd)
        for method in methods:
            p_init = projectors[method](xr)
            p_back = projectors[method](back)
            a_init = kmeans_assign(centers[method], p_init)
            a_back = kmeans_assign(centers[method], p_back)
            coh = coherence_score(a_init, a_back, n_sets)
            per_round[method]["coherence"].append(coh.expectation)

            F0 = np.column_stack([np.ones(round_size), p_init])
            F1 = np.column_stack([np.ones(round_size), projectors[method](fwd)])
            cov = covariances_from_pairs(F0, F1, remove_mean=False)
            round_model = vamp_fit(cov)
            per_round[method]["vamp2"].append(vamp_score(round_model, r=2))
            per_round[method]["kvad"].append(_kvad_score(F0, fwd_gram))

    results: dict = {"methods": {}, "parameters": {
        "n_particles": n_particles, "n_sets": n_sets, "restarts": restarts,
        "rounds": rounds, "round_size": round_size, "seed": seed,
        "ansatz_seed": ansatz_seed,
        "t0": 0.0, "t1": t1, "dt": dt, "noise": noise,
    }}
    for method in methods:
        stats = per_round[method]
        results["methods"][method] = {
            name: {
                "mean": float(np.mean(values)),
                "std": float(np.std(values)),
                "values": np.asarray(values),
            }
            for name, values in stats.items()
        }
        results["methods"][method]["train_projection"] = train_projections[method]
        results["methods"][method]["centers"] = centers[method]
    results["wall_time_seconds"] = time.perf_counter() - start
    return results
