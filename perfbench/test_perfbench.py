"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q

They run a tiny workload through the same measurement loop the benchmark
uses, so they finish in seconds.
"""

import sys

import numpy as np
import pytest

import run
import spans

sys.path.insert(0, str(run.SRC))

from lagtime import clustering, covariance, datasets, decomposition, errors, kernels  # noqa: E402
from workloads import Ops  # noqa: E402


class Tiny:
    """Crosses several layers; records which callables were wrapped mid-pass."""

    def __init__(self):
        self.wrapped_during_pass = []

    def run(self, inputs, ops):
        self.wrapped_during_pass.append(spans.wrapped_callables())
        x = ops.call(datasets.bickley_flow, inputs["x0"], 0.0, 0.1)
        G = ops.call(kernels.gram_matrix, kernels.GaussianKernel(1.0), x)
        ops.call(clustering.kmeans_fit, x, 2, seed=0, n_restarts=3)
        cov = ops.call(covariance.covariances_from_pairs, x[:-1], x[1:])
        ops.call(decomposition.vamp_fit, cov)
        ops.check("Gram matrix is finite", bool(np.isfinite(G).all()))


@pytest.fixture
def inputs():
    return {"x0": np.random.default_rng(0).uniform([0.0, -3.0], [20.0, 3.0], size=(40, 2))}


def test_untraced_run_leaves_every_function_unwrapped(inputs):
    tiny = Tiny()
    result = run.measure(tiny, inputs, seconds=0.0, trace=False)
    assert result["failed"] == 0
    assert tiny.wrapped_during_pass == [[]]
    assert spans.wrapped_callables() == []


def test_traced_run_removes_its_wrappers(inputs):
    tiny = Tiny()
    result = run.measure(tiny, inputs, seconds=0.0, trace=True)
    assert result["failed"] == 0
    untraced, traced = tiny.wrapped_during_pass
    assert untraced == []
    assert "lagtime.datasets.bickley_flow" in traced
    assert "lagtime.experiments.bickley_flow" in traced
    assert "numpy.linalg.eigh" in traced
    assert "lagtime.clustering.ClusteringModel.assign" in traced
    assert spans.wrapped_callables() == []


def test_self_times_plus_unattributed_equal_traced_wall(inputs):
    result = run.measure(Tiny(), inputs, seconds=0.0, trace=True)
    (sample,), (wall,) = result["layer_samples"], result["walls"][True]
    total = sum(sample[name] for name in spans.LAYER_TOTALS.values())
    assert total + sample["trace.unattributed_s"] == pytest.approx(wall, abs=1e-9)
    assert sample["datasets.jet_s"] > 0 and sample["kernels.gram_s"] > 0
    assert sample["clustering.restarts_per_s"] > 0


def test_spans_follow_layer_boundaries(inputs):
    tracer = spans.Tracer()
    with tracer:
        Tiny().run(inputs, Ops())
    names = [s.name for s in tracer.spans]
    # jet_velocity is called inside bickley_flow, in the same layer: no span.
    assert names.count("datasets.bickley_flow") == 1
    assert "datasets.jet_velocity" not in names
    # Solves inside lagtime.numerics are counted at the numpy entry points.
    eig_parents = {names[s.parent] for s in tracer.spans if s.name == spans.EIG_SPAN}
    assert eig_parents == {"numerics.sym_inverse_sqrt", "numerics.truncated_svd"}
    steps = [s.work for s in tracer.spans if s.name == "datasets.bickley_flow"]
    assert steps == [{"particle_steps": 40 * 10}]


def test_failed_call_is_recorded_and_unwrapped():
    tracer = spans.Tracer()
    with pytest.raises(errors.InvalidArgument):
        with tracer:
            clustering.kmeans_fit(np.zeros((3, 2)), 2, n_restarts=0)
    metrics = spans.pass_metrics(tracer.spans, wall=1.0)
    assert metrics["clustering.errors"] == 1 and metrics["clustering.calls"] == 1
    assert spans.wrapped_callables() == []


class Broken:
    def run(self, inputs, ops):
        ops.call(clustering.kmeans_fit, np.zeros((3, 2)), 2, n_restarts=0)


def test_call_that_raises_fails_the_pass():
    result = run.measure(Broken(), {}, seconds=0.0, trace=True)
    assert (result["attempted"], result["failed"]) == (2, 2)
    assert result["failures"][0].startswith("pass aborted: InvalidArgument")
    assert spans.wrapped_callables() == []


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(10))).startswith("no tail")
    assert run.tail([float(v) for v in range(20)]) == "p50.0 = 9.0000 s"

