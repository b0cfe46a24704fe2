"""Spans around the public functions of lagtime's layers, recorded from outside.

:class:`Tracer` replaces every public function and public method of the
traced modules, wherever a lagtime module or the package namespace refers to
it, by a wrapper that records a span: name, layer, start, end, parent and
the index of the pass it belongs to. The dense eigen and singular-value
solvers of ``numpy.linalg`` and ``scipy.linalg`` are wrapped the same way
and reported under the ``numerics`` layer. A call made from inside the layer
that owns the callee (``jet_velocity`` inside ``bickley_flow``) records no
span, so each span is a call across a layer boundary as its caller sees it.

Spans stay in memory; :func:`pass_metrics` turns the spans of one pass into
self times, counts and rates. ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

LAYERS = (
    "datasets", "kernels", "numerics", "decomposition", "clustering",
    "covariance", "markov", "hmm", "sindy", "basis", "experiments",
)

# Dense eigen and singular-value solves, counted where lagtime calls them.
EIG_ENTRY_POINTS = {
    "numpy.linalg": ("eig", "eigh", "eigvals", "eigvalsh", "svd"),
    "scipy.linalg": ("eig", "eigh", "eigvals", "eigvalsh", "svd"),
}
EIG_SPAN = "numerics.eig"

# Marks a wrapper; its value is the wrapped original.
ORIGINAL = "__perfbench_original__"


def _rows(a) -> int:
    return int(getattr(a, "shape", (len(a),))[0])


def _covariance_rows(args, result) -> int:
    trajectories = args["trajectories"]
    if hasattr(trajectories, "ndim") and trajectories.ndim <= 2:
        trajectories = [trajectories]
    return sum(max(_rows(t) - args["lag"], 0) for t in trajectories)


def _em_frames(args, result) -> int:
    observations = args["observations"]
    if hasattr(observations, "ndim") and observations.ndim == 1:
        observations = [observations]
    return result[1]["iterations"] * sum(len(o) for o in observations)


# Work done by one call, from its bound arguments and its result. Keys are
# span names; each value is ``{counter: function(arguments, result)}``.
WORK: dict[str, dict[str, Callable]] = {
    "datasets.bickley_flow": {
        "particle_steps": lambda a, r: _rows(a["x0_batch"])
        * round(abs(a["t1"] - a["t0"]) / a["dt"]),
    },
    "datasets.quadwell_1d": {"sde_steps": lambda a, r: (len(r) - 1) * a["n_substeps"]},
    "datasets.double_well_2d": {"sde_steps": lambda a, r: (len(r) - 1) * a["n_substeps"]},
    "kernels.gram_matrix": {"gram_entries": lambda a, r: r.size},
    "clustering.kmeans_fit": {"restarts": lambda a, r: a["n_restarts"]},
    "covariance.estimate_covariances": {"rows": _covariance_rows},
    "covariance.covariances_from_pairs": {"rows": lambda a, r: _rows(a["X"])},
    "hmm.baum_welch": {
        "em_iterations": lambda a, r: r[1]["iterations"],
        "fb_frames": _em_frames,
    },
}


@dataclass
class Span:
    name: str
    layer: str
    parent: Optional[int]
    trace_id: int
    start: float = 0.0
    end: float = 0.0
    error: bool = False
    work: Optional[dict] = None


class Tracer:
    """Installs span-recording wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[Span] = []
        self.trace_id = 0
        self._stack: list[int] = []  # indices of the open spans
        # The module of each open span, under a sentinel; calls from inside
        # that module record no span.
        self._domains: list[Optional[str]] = [None]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, layer: str, domain: str) -> Callable:
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None
        spans, stack, domains = self.spans, self._stack, self._domains

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if domains[-1] is domain:  # a call inside the layer: no span
                return fn(*args, **kwargs)
            span = Span(name, layer, stack[-1] if stack else None, self.trace_id)
            stack.append(len(spans))
            domains.append(domain)
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                domains.pop()
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.work = {key: count(bound.arguments, result) for key, count in work.items()}
            return result

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    def reset(self, trace_id: int) -> None:
        """Drop recorded spans and label the next ones with ``trace_id``."""
        self.spans.clear()
        self._stack.clear()
        del self._domains[1:]
        self.trace_id = trace_id

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable in every namespace that refers to it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        replacements: dict[int, Callable] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"lagtime.{layer}")
            domain = module.__name__
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != domain:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._wrap(obj, f"{layer}.{attr}", layer, domain)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer, domain)
        for module_name, names in EIG_ENTRY_POINTS.items():
            module = importlib.import_module(module_name)
            for attr in names:
                original = getattr(module, attr)
                wrapper = self._wrap(original, EIG_SPAN, "numerics", "linalg")
                replacements[id(original)] = wrapper
                self._set(module, attr, wrapper)
        for module in lagtime_modules():
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    self._set(module, attr, replacements[id(obj)])

    def _wrap_methods(self, cls: type, layer: str, domain: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(raw, name, layer, domain))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._set(cls, attr, type(raw)(self._wrap(raw.__func__, name, layer, domain)))

    def uninstall(self) -> None:
        """Put back every original, in reverse order of replacement."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def lagtime_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "lagtime" or n.startswith("lagtime."))]


def wrapped_callables() -> list[str]:
    """Names of lagtime and eigen-solver callables that are span wrappers now."""
    found = set()
    owners = lagtime_modules() + [importlib.import_module(m) for m in EIG_ENTRY_POINTS]
    for owner in owners:
        for attr, obj in list(vars(owner).items()):
            if inspect.isclass(obj) and obj.__module__.startswith("lagtime"):
                found.update(f"{obj.__module__}.{obj.__name__}.{a}"
                             for a, m in vars(obj).items()
                             if hasattr(getattr(m, "__func__", m), ORIGINAL))
            elif hasattr(obj, ORIGINAL):
                found.add(f"{owner.__name__}.{attr}")
    return sorted(found)


# -- per-pass metrics ------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


# Self time of each layer, under the name the ROADMAP items use for it.
LAYER_TOTALS = {
    "datasets": "datasets.self_s",
    "kernels": "kernels.gram_s",
    "numerics": "numerics.self_s",
    "decomposition": "decomposition.self_s",
    "clustering": "clustering.self_s",
    "covariance": "covariance.s",
    "markov": "markov.s",
    "hmm": "hmm.self_s",
    "sindy": "sindy.s",
    "basis": "basis.features_s",
    "experiments": "experiments.self_s",
}

# Self time of parts of a layer: metric -> the span names it sums.
SELF_TIME_PARTS = {
    "datasets.jet_s": ("datasets.bickley_flow",),
    "datasets.sde_s": ("datasets.quadwell_1d", "datasets.double_well_2d"),
    "datasets.ode_s": ("datasets.rossler",),
    "numerics.eig_s": (EIG_SPAN,),
    "decomposition.kernel_cca_s": ("decomposition.kernel_cca_fit",),
    "decomposition.kvad_s": ("decomposition.kvad_fit", "decomposition.kvad_feature_score",
                             "decomposition.KVADModel.project"),
    "decomposition.vamp_s": ("decomposition.vamp_fit", "decomposition.vamp_score"),
    "decomposition.vamp_cv_s": ("decomposition.vamp_score_cv",),
    "decomposition.kernel_edmd_s": ("decomposition.kernel_edmd_fit",),
    "clustering.kmeans_s": ("clustering.kmeans_fit",),
    "clustering.assign_s": ("clustering.kmeans_assign", "clustering.ClusteringModel.assign"),
    "hmm.baum_welch_s": ("hmm.baum_welch",),
    "hmm.viterbi_s": ("hmm.viterbi",),
}

# Rates: name -> (work counter, self-time metric it is divided by).
RATES = {
    "datasets.sde_steps_per_s": ("sde_steps", "datasets.sde_s"),
    "datasets.jet_particle_steps_per_s": ("particle_steps", "datasets.jet_s"),
    "hmm.fb_frames_per_s": ("fb_frames", "hmm.baum_welch_s"),
    "clustering.restarts_per_s": ("restarts", "clustering.kmeans_s"),
    "kernels.gram_entries_per_s": ("gram_entries", "kernels.gram_s"),
    "covariance.rows_per_s": ("rows", "covariance.s"),
}

COUNTS = ("numerics.eig_calls", "hmm.em_iterations")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in reporting order."""
    names = ["trace.overhead_s", "trace.unattributed_s"]
    names += list(LAYER_TOTALS.values()) + list(SELF_TIME_PARTS)
    names += list(RATES) + list(COUNTS)
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.errors"]
    return names


def pass_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall`` seconds.

    ``trace.overhead_s`` needs an untraced pass and is added by the caller.
    A rate whose self time is zero (the layer did not run) reads 0.
    """
    selfs = self_times(spans)
    out = {name: 0.0 for name in metric_names() if name != "trace.overhead_s"}
    work: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        out[LAYER_TOTALS[span.layer]] += own
        for metric, names in SELF_TIME_PARTS.items():
            if span.name in names:
                out[metric] += own
        out[f"{span.layer}.calls"] += 1
        out[f"{span.layer}.errors"] += span.error
        for key, value in (span.work or {}).items():
            work[key] = work.get(key, 0) + value
    for rate, (counter, basis) in RATES.items():
        out[rate] = work.get(counter, 0) / out[basis] if out[basis] > 0 else 0.0
    out["numerics.eig_calls"] = float(sum(s.name == EIG_SPAN for s in spans))
    out["hmm.em_iterations"] = float(work.get("em_iterations", 0))
    top_level = sum(s.end - s.start for s in spans if s.parent is None)
    out["trace.unattributed_s"] = wall - top_level
    return out
