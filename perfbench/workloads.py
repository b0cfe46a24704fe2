"""The benchmark's three workloads: inputs from a seed, one pass, its checks.

Each workload makes its inputs from the seed in :meth:`prepare`, warms every
code path it uses on tiny inputs in :meth:`warm_up`, and runs one pass in
:meth:`run`. A pass calls lagtime through module attributes
(``lagtime.datasets.quadwell_1d``), never through names bound at import, so
the tracer's wrappers see every call. Library calls go through
``ops.call`` and output checks through ``ops.check``; both feed the error
rate. Why each workload exists is in ``README.md`` next to this file.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import lfilter

from lagtime import (
    basis, covariance, datasets, decomposition, experiments, hmm, markov, sindy,
)


class Ops:
    """Counts the library calls and output checks of one pass.

    A call that raises ends the pass; the runner counts it as failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failed_checks: list[str] = []
        self.notes: list[str] = []  # values worth seeing that no check gates

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_checks.append(f"{label}: {detail}")


# ---------------------------------------------------------------------------
# jet: the coherent-set experiment at desk scale, one scoring round
# ---------------------------------------------------------------------------


class Jet:
    name = "jet"
    # Desk-scale shape of acceptance criterion 3 (3000 training particles,
    # t 0 -> 40, rounds of 2500 particles). Rounds and restarts shrink, and
    # the RK4 step doubles to 0.02, so one pass takes about 45 s, not 59 s.
    ROUNDS = 1
    RESTARTS = 20
    STEP = 2e-2

    def prepare(self, seed: int) -> dict:
        return {"seed": seed}

    def warm_up(self) -> None:
        experiments.run_bickley_experiment(
            n_particles=120, n_sets=3, restarts=1, rounds=1, round_size=60,
            t1=0.1, seed=0,
        )

    def run(self, inputs: dict, ops: Ops) -> None:
        result = ops.call(
            experiments.run_bickley_experiment, experiments.BICKLEY_METHODS,
            rounds=self.ROUNDS, restarts=self.RESTARTS, dt=self.STEP, seed=inputs["seed"],
        )["methods"]
        coh = {m: result[m]["coherence"]["mean"] for m in experiments.BICKLEY_METHODS}
        kvs = {m: result[m]["kvad"]["mean"] for m in experiments.BICKLEY_METHODS}
        # The full orderings kvad <= vamp <= kernel_cca are reported, not
        # checked. Kvad and vamp coherence lie within the +-0.03 that
        # coherence varies from draw to draw, and seed 7 reverses them
        # (0.7316 > 0.7228); their KVAD scores differ by as little as 0.16 %.
        for label, values in (("coherence", coh), ("KVAD score", kvs)):
            ops.notes.append(f"jet {label} kvad, vamp, kernel_cca: "
                             + ", ".join(f"{values[m]:.5f}" for m in experiments.BICKLEY_METHODS))
        ops.check("kernel_cca coherence is the highest",
                  coh["kernel_cca"] > max(coh["kvad"], coh["vamp"]),
                  f"{coh['kvad']:.4f}, {coh['vamp']:.4f} < {coh['kernel_cca']:.4f}")
        ops.check("every coherence lies in (0.5, 1]",
                  all(0.5 < c <= 1.0 for c in coh.values()),
                  ", ".join(f"{c:.4f}" for c in coh.values()))


# ---------------------------------------------------------------------------
# trajectory: simulate, then estimate from the long trajectories
# ---------------------------------------------------------------------------


def _uniform_bins(x: np.ndarray, lo: float, hi: float, n_bins: int) -> np.ndarray:
    edges = np.linspace(lo, hi, n_bins + 1)
    return np.clip(np.digitize(x, edges[1:-1]), 0, n_bins - 1)


def _check_reversible(ops: Ops, label: str, msm) -> None:
    P, pi = msm.transition_matrix, msm.stationary_distribution
    row = float(np.abs(P.sum(axis=1) - 1.0).max())
    flux = pi[:, None] * P
    balance = float(np.abs(flux - flux.T).max())
    ops.check(f"{label} row-stochastic (1e-10)", row <= 1e-10, f"{row:.2e}")
    ops.check(f"{label} detailed balance (1e-10)", balance <= 1e-10, f"{balance:.2e}")


class Trajectory:
    name = "trajectory"
    # 1e5 frames at the acceptance suite's spacing of 0.01, in 5e5 steps of
    # 2e-3 (stable: the stiffest well has curvature 111). Shorter walks leave
    # the 64-bin model undersampled and its spectral sum below the 16-bin one.
    WALK_FRAMES = 100_000
    WALK_STEP = 2e-3
    WALK_SUBSTEPS = 5
    WELL_FRAMES = 2_001        # x 100 substeps: 2e5 double-well steps
    COUNT_LAG = 10
    HMM_STATES = 4
    HMM_BINS = 16
    DISCRETE_EM_ITERATIONS = 2
    GAUSSIAN_FRAMES = 100_000  # acceptance criterion 7
    ROSSLER_SPREAD = 0.01

    def prepare(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        start = np.array([0.0, -6.78, 0.02]) + self.ROSSLER_SPREAD * rng.standard_normal(3)
        return {"seed": seed, "rossler_x0": start}

    def warm_up(self) -> None:
        walk = datasets.quadwell_1d(seed=0, n_frames=400, n_substeps=2).frames[:, 0]
        labels = _uniform_bins(walk, walk.min(), walk.max(), 4)
        msm = markov.msm_mle(markov.largest_connected_submodel(
            markov.count_transitions([labels], lag=1)), reversible=True)
        markov.timescales(msm, 1)
        markov.mfpt(msm, [0])
        start = hmm.init_from_msm(labels, n_hidden=2)
        model, _ = hmm.baum_welch(start, labels, max_iter=2)
        hmm.viterbi(model, labels)
        datasets.double_well_2d(seed=0, n_frames=3, n_substeps=2)
        frames = datasets.rossler(t1=0.5).frames
        sindy.sindy_fit(frames, t=1e-3, library=basis.MonomialFeatures(3, 2), threshold=0.05)

    def run(self, inputs: dict, ops: Ops) -> None:
        seed = inputs["seed"]
        walk = ops.call(datasets.quadwell_1d, seed=seed, n_frames=self.WALK_FRAMES,
                        h=self.WALK_STEP, n_substeps=self.WALK_SUBSTEPS).frames[:, 0]
        lo, hi = walk.min(), walk.max()
        sums = []
        for n_bins in (4, 16, 64):
            labels = _uniform_bins(walk, lo, hi, n_bins)
            counts = ops.call(markov.count_transitions, [labels], lag=self.COUNT_LAG)
            sub = ops.call(markov.largest_connected_submodel, counts)
            msm = ops.call(markov.msm_mle, sub, reversible=True)
            spectrum = ops.call(markov.spectral_analysis, msm)
            ops.call(markov.timescales, msm, min(3, msm.n_states - 1))
            ops.call(markov.mfpt, msm, [0])
            _check_reversible(ops, f"four-well {n_bins} bins", msm)
            sums.append(float(np.sum(spectrum.eigenvalues.real)))
        ops.check("four-well spectral sums ascend (4|16|64 bins)",
                  sums[0] < sums[1] < sums[2],
                  " < ".join(f"{s:.3f}" for s in sums))

        symbols = _uniform_bins(walk, lo, hi, self.HMM_BINS)
        start = ops.call(hmm.init_from_msm, symbols, n_hidden=self.HMM_STATES,
                         lag=self.COUNT_LAG)
        ops.call(hmm.baum_welch, start, symbols, max_iter=self.DISCRETE_EM_ITERATIONS,
                 tolerance=0.0)

        self._gaussian_em(seed, ops)

        well = ops.call(datasets.double_well_2d, seed=seed, n_frames=self.WELL_FRAMES,
                        n_substeps=100).frames
        sides = (well[:, 0] > 0).astype(np.int64)
        sub = ops.call(markov.largest_connected_submodel,
                       ops.call(markov.count_transitions, [sides], lag=1))
        _check_reversible(ops, "double-well sides", ops.call(markov.msm_mle, sub, reversible=True))

        frames = ops.call(datasets.rossler, x0=inputs["rossler_x0"]).frames
        model = ops.call(sindy.sindy_fit, frames, t=1e-3,
                         library=basis.MonomialFeatures(3, 2), threshold=0.05)
        ops.check("Rossler recovers exactly 7 terms", model.n_terms == 7,
                  f"{model.n_terms} terms")

    def _gaussian_em(self, seed: int, ops: Ops) -> None:
        """Acceptance criterion 7 on this pass's seed, then decoding."""
        P = np.array([[0.95, 0.05], [0.05, 0.95]])
        truth = hmm.HiddenMarkovModel(
            markov.MarkovStateModel(P), hmm.GaussianOutputModel([-2.0, 2.0], [0.5, 0.5]),
            [0.5, 0.5],
        )
        _, observations = ops.call(truth.sample, self.GAUSSIAN_FRAMES, seed=seed)
        guess = hmm.HiddenMarkovModel(
            markov.MarkovStateModel(np.array([[0.8, 0.2], [0.2, 0.8]])),
            hmm.GaussianOutputModel([-1.0, 1.0], [1.0, 1.0]),
            [0.5, 0.5],
        )
        model, info = ops.call(hmm.baum_welch, guess, observations, max_iter=100,
                               tolerance=1e-8)
        order = np.argsort(model.output_model.means)
        recovered = model.transition_model.transition_matrix[np.ix_(order, order)]
        error = float(np.abs(recovered - P).max())
        ops.check("Gaussian EM error <= 0.02", error <= 0.02, f"{error:.5f}")
        ops.check("Gaussian EM converged", bool(info["converged"]),
                  f"{info['iterations']} iterations")
        ops.call(hmm.viterbi, model, observations)


# ---------------------------------------------------------------------------
# crossval: estimators on generated features, and the warped two-state runs
# ---------------------------------------------------------------------------


class Crossval:
    name = "crossval"
    ROWS = 400_000
    AR_DIM = 2
    AR_COEFFICIENT = 0.995
    DEGREE = 5            # monomials of two variables up to degree 5, minus 1
    LAG = 5
    CHUNK_ROWS = 4096
    FOLDS = 10
    SQRT_RUNS = 2

    def prepare(self, seed: int, rows: int = ROWS) -> dict:
        """A tanh-squashed AR(1) process, its monomial features, sqrt seeds."""
        rng = np.random.default_rng(seed)
        a = self.AR_COEFFICIENT
        noise = np.sqrt(1.0 - a * a) * rng.standard_normal((rows, self.AR_DIM))
        process = np.tanh(2.0 * lfilter([1.0], [1.0, -a], noise, axis=0))
        features = basis.MonomialFeatures(self.AR_DIM, self.DEGREE)(process)[:, 1:]
        sqrt_seeds = [int(s) for s in rng.integers(0, 2**31, size=self.SQRT_RUNS)]
        return {"process": process, "features": features, "sqrt_seeds": sqrt_seeds}

    def warm_up(self) -> None:
        small = self.prepare(0, rows=256)
        F, x = small["features"], small["process"]
        covariance.estimate_covariances(F, lag=1, chunk_size=64)
        cov = covariance.estimate_covariances(F, lag=1, symmetrize=True)
        decomposition.tica_fit(cov)
        decomposition.vamp_score(decomposition.vamp_fit(cov), r=2)
        decomposition.edmd_fit(x[:-1], x[1:], basis.MonomialFeatures(self.AR_DIM, 3))
        decomposition.vamp_score_cv(F[:-1], F[1:], n_folds=2)
        experiments.run_sqrt_experiment(n_frames=100, n_folds=2, seed=0)

    def run(self, inputs: dict, ops: Ops) -> None:
        F, x, lag = inputs["features"], inputs["process"], self.LAG
        streamed = ops.call(covariance.estimate_covariances, F, lag=lag,
                            chunk_size=self.CHUNK_ROWS)
        batch = ops.call(covariance.estimate_covariances, F, lag=lag)
        worst = max(float(np.abs(getattr(streamed, k) - getattr(batch, k)).max())
                    for k in ("mean_0", "mean_t", "c00", "c0t", "ctt"))
        ops.check("chunked == batch covariances (1e-12)", worst <= 1e-12, f"{worst:.2e}")

        symmetric = ops.call(covariance.estimate_covariances, F, lag=lag, symmetrize=True)
        ops.call(decomposition.tica_fit, symmetric)
        ops.call(decomposition.vamp_score, ops.call(decomposition.vamp_fit, batch), r=2)
        ops.call(decomposition.edmd_fit, x[:-lag], x[lag:],
                 basis.MonomialFeatures(self.AR_DIM, 3))
        ops.call(decomposition.vamp_score_cv, F[:-lag], F[lag:], r=2, n_folds=self.FOLDS)

        for seed in inputs["sqrt_seeds"]:
            res = ops.call(experiments.run_sqrt_experiment, n_frames=1000,
                           n_folds=10, seed=seed)["methods"]
            self._check_sqrt(ops, seed, res)

    @staticmethod
    def _check_sqrt(ops: Ops, seed: int, m: dict) -> None:
        """The five checks of acceptance criterion 2, kernel CCA's at 0.9.

        Criterion 2 asks 0.95 of kernel CCA at seed 0. Over other seeds its
        accuracy has a tail at the threshold: 0.944 at seed 495122508, and 0.95
        to 0.954 at three of 70 more. Its decision feature is the leading
        left singular function, which the known pairing fault does not touch.
        """
        tica, kedmd, back = (m[k]["vamp2_mean"] for k in ("tica", "kernel_edmd", "backtransform"))
        acc = {k: m[k]["accuracy"] for k in ("backtransform", "kernel_edmd", "kernel_cca")}
        ops.check(f"sqrt seed {seed}: backtransform accuracy is 1",
                  acc["backtransform"] == 1.0, f"{acc['backtransform']:.3f}")
        ops.check(f"sqrt seed {seed}: tica below kernel_edmd", tica < kedmd,
                  f"{tica:.4f} < {kedmd:.4f}")
        ops.check(f"sqrt seed {seed}: tica below backtransform", tica < back,
                  f"{tica:.4f} < {back:.4f}")
        ops.check(f"sqrt seed {seed}: kernel_edmd accuracy >= 0.95",
                  acc["kernel_edmd"] >= 0.95, f"{acc['kernel_edmd']:.3f}")
        ops.check(f"sqrt seed {seed}: kernel_cca accuracy >= 0.9",
                  acc["kernel_cca"] >= 0.9, f"{acc['kernel_cca']:.3f}")


WORKLOADS = {w.name: w for w in (Crossval(), Trajectory(), Jet())}
