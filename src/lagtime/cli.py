"""Command-line interface.

Subcommands
-----------
``sqrt-experiment``
    Method comparison on the square-root-warped two-state process.
``bickley-experiment``
    Coherent-set detection and scoring on the perturbed jet flow.
``sindy``
    Sparse dynamics identification from a trajectory file or the built-in
    chaotic-attractor demonstration.
``msm``
    Markov state model estimation from discrete trajectory files.
``generate``
    Sample one of the bundled example systems to disk.
``benchmark``
    Measure integrator throughput in steps per second.

Every experiment writes a versioned ``report.json`` (validated against an
embedded JSON schema before writing) plus CSV artifacts into the output
directory. Exit codes: 0 success, 1 runtime failure, 2 usage or input error,
3 insufficient data.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

import numpy as np
import jsonschema

from . import __version__
from .basis import MonomialFeatures
from .datasets import (
    benchmark_steps_per_second,
    double_well_2d,
    quadwell_1d,
    read_trajectory,
    rossler,
    sample_sqrt_model,
    write_trajectory,
)
from .errors import InsufficientData, InvalidArgument, LagtimeError
from .experiments import (
    BICKLEY_ANSATZ_SEED,
    BICKLEY_METHODS,
    SQRT_METHODS,
    run_bickley_experiment,
    run_sqrt_experiment,
)
from .markov import (
    count_transitions,
    largest_connected_submodel,
    msm_mle,
    read_discrete_trajectory,
    timescales,
)
from .numerics import _checked, _integer
from .sindy import finite_difference, sindy_fit, sindy_predict

__all__ = ["main", "REPORT_SCHEMA"]

REPORT_VERSION = 1

REPORT_SCHEMA = {
    "type": "object",
    "required": ["report_version", "experiment", "parameters", "metrics",
                 "artifacts", "seed", "wall_time_seconds"],
    "properties": {
        "report_version": {"const": REPORT_VERSION},
        "experiment": {"type": "string"},
        "parameters": {"type": "object"},
        "metrics": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["value"],
                "properties": {
                    "value": {"type": "number"},
                    "std": {"type": ["number", "null"]},
                },
            },
        },
        "artifacts": {"type": "array", "items": {"type": "string"}},
        "seed": {"type": ["integer", "null"]},
        "wall_time_seconds": {"type": "number"},
    },
}


def _metric(value: float, std: Optional[float] = None) -> dict:
    entry: dict = {"value": float(value)}
    if std is not None:
        entry["std"] = float(std)
    return entry


def _emit_report(experiment: str, parameters: dict, metrics: dict,
                 artifacts: list[str], seed: Optional[int], wall: float,
                 out_dir: Path, fmt: str) -> None:
    report = {
        "report_version": REPORT_VERSION,
        "experiment": experiment,
        "parameters": parameters,
        "metrics": metrics,
        "artifacts": artifacts,
        "seed": seed,
        "wall_time_seconds": float(wall),
    }
    jsonschema.validate(report, REPORT_SCHEMA)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n")
    if fmt == "csv":
        lines = ["metric,value,std"]
        for name, entry in metrics.items():
            std = entry.get("std")
            lines.append(f"{name},{entry['value']!r},{'' if std is None else repr(std)}")
        (out_dir / "metrics.csv").write_text("\n".join(lines) + "\n")
    print(f"report written to {report_path}")


def _print_metrics(metrics: dict) -> None:
    width = max((len(name) for name in metrics), default=0)
    for name, entry in metrics.items():
        line = f"  {name.ljust(width)}  {entry['value']:.6g}"
        if entry.get("std") is not None:
            line += f" +/- {entry['std']:.2g}"
        print(line)


def _parse_methods(raw: str, allowed: tuple[str, ...]) -> tuple[str, ...]:
    """The methods named in ``raw``, or ``allowed`` for ``all``; the experiment
    rejects unknown ones."""
    if raw == "all":
        return allowed
    methods = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not methods:
        raise InvalidArgument("no methods given")
    return methods


def _save_csv(path: Path, array: np.ndarray, header: str = "") -> None:
    np.savetxt(path, np.atleast_2d(array), delimiter=",", header=header, comments="")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_sqrt_experiment(args: argparse.Namespace) -> None:
    methods = _parse_methods(args.methods, SQRT_METHODS)
    out_dir = Path(args.out)
    results = run_sqrt_experiment(
        methods, n_frames=args.n_frames, n_folds=args.n_folds, seed=args.seed
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []
    metrics: dict = {}
    for method in methods:
        entry = results["methods"][method]
        metrics[f"{method}_vamp2"] = _metric(entry["vamp2_mean"], entry["vamp2_std"])
        metrics[f"{method}_accuracy"] = _metric(entry["accuracy"])
        table = np.column_stack([
            results["observations"],
            entry["decision_feature"],
            entry["assignments"],
            results["hidden"],
        ])
        name = f"sqrt_projection_{method}.csv"
        _save_csv(out_dir / name, table, header="x,y,decision,assignment,hidden")
        artifacts.append(name)
    print(f"square-root model experiment ({args.n_frames} frames, seed {args.seed})")
    _print_metrics(metrics)
    _emit_report(
        "sqrt-experiment",
        {"methods": list(methods), "n_frames": args.n_frames,
         "n_folds": args.n_folds},
        metrics, artifacts, args.seed, results["wall_time_seconds"],
        out_dir, args.format,
    )


def cmd_bickley_experiment(args: argparse.Namespace) -> None:
    methods = _parse_methods(args.methods, BICKLEY_METHODS)
    out_dir = Path(args.out)
    results = run_bickley_experiment(
        methods,
        n_particles=args.n_particles,
        n_sets=args.n_sets,
        restarts=args.restarts,
        rounds=args.rounds,
        round_size=args.round_size,
        seed=args.seed,
        ansatz_seed=args.ansatz_seed,
        t1=args.t1,
        noise=args.noise,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []
    metrics: dict = {}
    for method in methods:
        entry = results["methods"][method]
        for stat in ("coherence", "vamp2", "kvad"):
            metrics[f"{method}_{stat}"] = _metric(
                entry[stat]["mean"], entry[stat]["std"]
            )
        name = f"bickley_projection_{method}.csv"
        _save_csv(out_dir / name, entry["train_projection"])
        artifacts.append(name)
    print(
        f"jet-flow coherent set experiment ({args.n_particles} particles, "
        f"{args.rounds} scoring rounds, seed {args.seed})"
    )
    _print_metrics(metrics)
    _emit_report(
        "bickley-experiment", dict(results["parameters"]), metrics, artifacts,
        args.seed, results["wall_time_seconds"], out_dir, args.format,
    )


def cmd_sindy(args: argparse.Namespace) -> None:
    start = time.perf_counter()
    out_dir = Path(args.out)
    if args.dt is not None:
        _checked("--dt", args.dt, 0, open_low=True)
    if args.demo_rossler:
        trajectory = rossler(t1=args.demo_t1, dt=1e-3 if args.dt is None else args.dt)
        X = trajectory.frames
        dt = trajectory.dt_effective
        names = ["x1", "x2", "x3"]
    else:
        if args.input is None:
            raise InvalidArgument("either --input or --demo-rossler is required")
        trajectory, meta = read_trajectory(args.input)
        X = trajectory.frames
        # Without --dt, a file from ``generate`` supplies its own time step.
        dt = trajectory.dt_effective if args.dt is None and "dt_effective" in meta else args.dt
        if dt is None and not args.discrete:
            raise InvalidArgument("--dt is required for continuous-time input")
        names = None
    if X.shape[0] < 3:
        raise InsufficientData("need at least three frames to estimate dynamics")
    library = MonomialFeatures(X.shape[1], args.degree)
    model = sindy_fit(
        X,
        t=None if args.discrete else dt,
        library=library,
        threshold=args.threshold,
        discrete_time=args.discrete,
        variable_names=names,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    _save_csv(out_dir / "coefficients.csv", model.xi)
    equations = model.equations()
    (out_dir / "equations.txt").write_text("\n".join(equations) + "\n")
    artifacts = ["coefficients.csv", "equations.txt"]
    metrics = {"n_terms": _metric(model.n_terms)}
    if not args.discrete:
        derivs = finite_difference(X, dt)
        predicted = sindy_predict(model, X)
        max_err = float(np.max(np.abs(predicted - derivs)))
        metrics["max_derivative_error"] = _metric(max_err)
    for equation in equations:
        print(equation)
    _print_metrics(metrics)
    _emit_report(
        "sindy",
        {"threshold": args.threshold, "degree": args.degree,
         "discrete": args.discrete, "dt": dt,
         "input": args.input or "demo-rossler"},
        metrics, artifacts, None, time.perf_counter() - start,
        out_dir, args.format,
    )


def cmd_msm(args: argparse.Namespace) -> None:
    start = time.perf_counter()
    out_dir = Path(args.out)
    trajectories = [read_discrete_trajectory(path) for path in args.input]
    counts = count_transitions(trajectories, args.lag, counting_mode=args.counting)
    counts = largest_connected_submodel(counts)
    msm = msm_mle(counts, reversible=args.reversible)
    spectrum = timescales(msm, args.n_timescales)
    out_dir.mkdir(parents=True, exist_ok=True)
    _save_csv(out_dir / "transition_matrix.csv", msm.transition_matrix)
    _save_csv(out_dir / "stationary_distribution.csv", msm.stationary_distribution)
    _save_csv(out_dir / "timescales.csv", spectrum)
    artifacts = ["transition_matrix.csv", "stationary_distribution.csv",
                 "timescales.csv"]
    metrics = {
        "n_states": _metric(msm.n_states),
        "lag": _metric(args.lag),
    }
    for i, ts in enumerate(spectrum[: args.n_timescales or 5]):
        if np.isfinite(ts):
            metrics[f"timescale_{i + 1}"] = _metric(ts)
    print(
        f"markov state model on {msm.n_states} states "
        f"(lag {args.lag}, {'reversible' if args.reversible else 'nonreversible'})"
    )
    _print_metrics(metrics)
    _emit_report(
        "msm",
        {"lag": args.lag, "reversible": args.reversible,
         "counting": args.counting, "inputs": list(args.input)},
        metrics, artifacts, None, time.perf_counter() - start,
        out_dir, args.format,
    )


def cmd_generate(args: argparse.Namespace) -> None:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.system == "double-well":
        trajectory = double_well_2d(seed=args.seed, n_frames=args.n_frames)
        path = out_dir / "double_well.csv"
        write_trajectory(trajectory, path, system="double-well")
    elif args.system == "quadwell":
        trajectory = quadwell_1d(seed=args.seed, n_frames=args.n_frames)
        path = out_dir / "quadwell.csv"
        write_trajectory(trajectory, path, system="quadwell")
    elif args.system == "rossler":
        _integer("n_frames", args.n_frames, 2)
        trajectory = rossler(t1=(args.n_frames - 1) * 1e-3)
        path = out_dir / "rossler.csv"
        write_trajectory(trajectory, path, system="rossler")
    elif args.system == "sqrt-model":
        observations, hidden = sample_sqrt_model(args.n_frames, seed=args.seed)
        path = out_dir / "sqrt_model.csv"
        _save_csv(path, observations, header="x,y")
        _save_csv(out_dir / "sqrt_model_hidden.csv", hidden[:, None].astype(float),
                  header="state")
    else:  # pragma: no cover - argparse choices prevent this
        raise InvalidArgument(f"unknown system {args.system!r}")
    seeded = "" if args.system == "rossler" else f", seed {args.seed}"
    print(f"wrote {path} ({args.n_frames} frames{seeded})")


def cmd_benchmark(args: argparse.Namespace) -> None:
    result = benchmark_steps_per_second(n_steps=args.n_steps, seed=args.seed)
    print(
        f"{result['system']} integrator [{result['backend']}]: "
        f"{result['steps_per_second']:,.0f} steps/s "
        f"({result['n_steps']:,} steps in {result['elapsed_seconds']:.3f}s)"
    )
    if args.out is not None:
        out_dir = Path(args.out)
        metrics = {
            "steps_per_second": _metric(result["steps_per_second"]),
            "elapsed_seconds": _metric(result["elapsed_seconds"]),
        }
        _emit_report(
            "benchmark", {"n_steps": args.n_steps, "backend": result["backend"]},
            metrics, [], args.seed, result["elapsed_seconds"], out_dir, args.format,
        )


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagtime",
        description="Analysis of time-series data with transfer-operator methods.",
    )
    parser.add_argument("--version", action="version", version=f"lagtime {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, seed: bool = True) -> None:
        if seed:
            p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="also write metrics.csv when set to csv")

    p = sub.add_parser(
        "sqrt-experiment",
        help="method comparison on the square-root-warped two-state process",
    )
    p.add_argument("--methods", default="all",
                   help=f"comma-separated subset of: {', '.join(SQRT_METHODS)}")
    p.add_argument("--n-frames", type=int, default=1000)
    p.add_argument("--n-folds", type=int, default=10)
    add_common(p)
    p.set_defaults(func=cmd_sqrt_experiment)

    p = sub.add_parser(
        "bickley-experiment",
        help="coherent-set detection on the perturbed jet flow",
    )
    p.add_argument("--methods", default="all",
                   help=f"comma-separated subset of: {', '.join(BICKLEY_METHODS)}")
    p.add_argument("--n-particles", type=int, default=3000)
    p.add_argument("--n-sets", type=int, default=9)
    p.add_argument("--restarts", type=int, default=500)
    p.add_argument("--rounds", type=int, default=15)
    p.add_argument("--round-size", type=int, default=2500)
    p.add_argument("--ansatz-seed", type=int, default=BICKLEY_ANSATZ_SEED,
                   help="seed of the shared random feature basis")
    p.add_argument("--t1", type=float, default=40.0)
    p.add_argument("--noise", type=float, default=0.1)
    add_common(p)
    p.set_defaults(func=cmd_bickley_experiment)

    p = sub.add_parser("sindy", help="sparse identification of dynamics")
    p.add_argument("--input", help="CSV file of frames (rows) and variables (columns)")
    p.add_argument("--demo-rossler", action="store_true",
                   help="run on the bundled chaotic attractor instead of --input")
    p.add_argument("--demo-t1", type=float, default=100.0,
                   help="integration time for the demonstration system")
    p.add_argument("--dt", type=float,
                   help="time step between frames (default: from the .json sidecar"
                        " that generate writes next to --input; 1e-3 for --demo-rossler)")
    p.add_argument("--degree", type=int, default=2, help="polynomial library degree")
    p.add_argument("--threshold", type=float, default=0.1,
                   help="sparsification threshold")
    p.add_argument("--discrete", action="store_true",
                   help="fit a discrete-time update map instead of derivatives")
    add_common(p, seed=False)
    p.set_defaults(func=cmd_sindy)

    p = sub.add_parser("msm", help="Markov state model estimation")
    p.add_argument("--input", nargs="+", required=True,
                   help="discrete trajectory files (one integer per line)")
    p.add_argument("--lag", type=int, default=1)
    p.add_argument("--counting", choices=("sliding", "strided"), default="sliding")
    p.add_argument("--reversible", action="store_true")
    p.add_argument("--n-timescales", type=int, default=None)
    add_common(p, seed=False)
    p.set_defaults(func=cmd_msm)

    p = sub.add_parser("generate", help="sample a bundled example system")
    p.add_argument("--system", required=True,
                   choices=("double-well", "quadwell", "rossler", "sqrt-model"))
    p.add_argument("--n-frames", type=int, default=10000)
    # No --format: generate writes no report, so no metrics.csv either.
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("benchmark", help="integrator throughput measurement")
    p.add_argument("--n-steps", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="optional report directory")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_benchmark)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Errors reach the user as one line each; a non-finite intermediate
        # is caught by the input checks, not reported as a numpy warning.
        with np.errstate(all="ignore"):
            for name in ("seed", "ansatz_seed"):
                value = getattr(args, name, 0)
                if value < 0:
                    raise InvalidArgument(f"{name} must be non-negative, got {value}")
            args.func(args)
    except InsufficientData as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidArgument, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LagtimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
