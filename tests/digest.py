"""Digest of the package's outputs: one sha256 per output, on both backends.

Run from the repository root::

    python tests/digest.py > digest.json
    python tests/digest.py --compare before.json after.json

The first form computes a fixed set of small outputs twice: with the compiled
kernels, then with ``shutil.which`` patched to find no C compiler, so that
the pure-Python references run. It prints one JSON object: ``header`` holds
the threads of each OpenBLAS library the process loaded (outputs that go
through BLAS can differ between thread counts, so compare digests taken at
the same count) and ``outputs`` maps ``<backend>/<output>`` to the sha256 of
that output:

- ``generate`` for all four systems, and small ``sqrt-experiment``,
  ``bickley-experiment``, ``msm --reversible`` and ``sindy --demo-rossler``
  runs: every file written, ``report.json`` without ``wall_time_seconds``
  and without the temporary directory in input paths;
- small ``quadwell_1d``, ``double_well_2d``, ``rossler``, ``bickley_flow``,
  ``sample_markov_chain``, ``kmeans_fit``, ``baum_welch`` and ``viterbi``
  runs: the arrays (dtype, shape and bytes) and the EM log-likelihoods;
- the ``to_document`` text of a fitted model of each serialized type;
- a kernel-CCA ``project`` and a kernel-EDMD ``propagate`` of 513 fresh
  points, which the models evaluate in row bands.

``--compare`` prints each entry that differs or is in one file only, and each
header field that differs, and exits with status 1 if an entry differs. A
full run takes well under a minute. Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import blas_threads  # noqa: E402

from lagtime import _native, cli  # noqa: E402
from lagtime.basis import MonomialFeatures  # noqa: E402
from lagtime.clustering import kmeans_fit  # noqa: E402
from lagtime.covariance import estimate_covariances  # noqa: E402
from lagtime.datasets import (  # noqa: E402
    bickley_flow,
    double_well_2d,
    quadwell_1d,
    rossler,
)
from lagtime.decomposition import (  # noqa: E402
    edmd_fit,
    kernel_cca_fit,
    kernel_edmd_fit,
    kvad_fit,
    tica_fit,
    vamp_fit,
)
from lagtime.hmm import (  # noqa: E402
    GaussianOutputModel,
    HiddenMarkovModel,
    baum_welch,
    init_from_msm,
    viterbi,
)
from lagtime.kernels import GaussianKernel  # noqa: E402
from lagtime.markov import (  # noqa: E402
    MarkovStateModel,
    count_transitions,
    msm_mle,
    sample_markov_chain,
)
from lagtime.serialization import to_document  # noqa: E402
from lagtime.sindy import sindy_fit  # noqa: E402


def sha256(value) -> str:
    """Of bytes as they are, of an array with its dtype and shape, else of its JSON."""
    digest = hashlib.sha256()
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str} {value.shape} ".encode())
        value = np.ascontiguousarray(value).tobytes()
    elif not isinstance(value, bytes):
        value = json.dumps(value, sort_keys=True).encode()
    digest.update(value)
    return digest.hexdigest()


def cli_files(argv: list, out: Path) -> dict:
    """``{name: contents}`` of every file the command line writes to ``out``,
    with the temporary directory ``out`` is in left out of ``report.json``."""
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv + ["--out", str(out)]):
            raise SystemExit(f"digest: {' '.join(argv)} failed")
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "report.json":
            report = json.loads(path.read_text().replace(str(out.parent), ""))
            report.pop("wall_time_seconds", None)
            files[path.name] = report
        else:
            files[path.name] = path.read_bytes()
    return files


def command_lines(tmp: Path) -> dict:
    outputs = {}
    for system, frames in (("quadwell", "2000"), ("double-well", "200"),
                           ("rossler", "200"), ("sqrt-model", "500")):
        for name, contents in cli_files(["generate", "--system", system, "--n-frames", frames],
                                        tmp / system).items():
            outputs[f"generate {system}/{name}"] = contents
    walk = np.loadtxt(tmp / "quadwell" / "quadwell.csv", delimiter=",", skiprows=1, ndmin=2)
    for i, part in enumerate(np.array_split(np.digitize(walk[:, -1], [-1.0, 0.0, 1.0]), 2)):
        (tmp / f"walk{i}.txt").write_text("\n".join(map(str, part)))
    for argv in (["sqrt-experiment", "--methods", "tica,kernel_edmd,backtransform",
                  "--n-frames", "200", "--n-folds", "4"],
                 ["bickley-experiment", "--methods", "kvad,vamp,kernel_cca",
                  "--n-particles", "200", "--rounds", "1", "--round-size", "100",
                  "--restarts", "3", "--t1", "2"],
                 ["msm", "--input", str(tmp / "walk0.txt"), str(tmp / "walk1.txt"),
                  "--lag", "10", "--reversible", "--n-timescales", "3"],
                 ["sindy", "--demo-rossler", "--demo-t1", "5", "--threshold", "0.05"]):
        for name, contents in cli_files(argv, tmp / argv[0]).items():
            outputs[f"{argv[0]}/{name}"] = contents
    return outputs


def library_runs() -> dict:
    walk = quadwell_1d(seed=3, n_frames=3000, n_substeps=10).frames
    well = double_well_2d(seed=4, n_frames=300, n_substeps=100).frames
    attractor = rossler(t1=5.0).frames
    start = np.random.default_rng(11).uniform([0.0, -3.0], [20.0, 3.0], size=(400, 2))
    advected = bickley_flow(start, 0.0, 4.0, 2e-2)
    P = np.array([[0.90, 0.08, 0.02, 0.00], [0.05, 0.90, 0.04, 0.01],
                  [0.01, 0.04, 0.90, 0.05], [0.00, 0.02, 0.08, 0.90]])
    chain = sample_markov_chain(P, 20000, seed=5)
    clusters = kmeans_fit(walk, 4, seed=6, n_restarts=5)
    symbols = clusters.assign(walk)
    counts = count_transitions([symbols], lag=5)
    discrete, discrete_info = baum_welch(init_from_msm(symbols, n_hidden=2, lag=5), symbols,
                                         max_iter=10)
    gaussian, gaussian_info = baum_welch(HiddenMarkovModel(
        MarkovStateModel(np.array([[0.9, 0.1], [0.1, 0.9]]), lag=1),
        GaussianOutputModel(np.array([-1.0, 1.0]), np.array([1.0, 1.0])),
        np.array([0.5, 0.5])), walk[:, 0], max_iter=10)
    covariances = estimate_covariances(well, lag=10, symmetrize=True)
    pairs = (start, advected)
    models = {
        "covariance_model": covariances,
        "covariance_koopman_model vamp": vamp_fit(covariances),
        "covariance_koopman_model tica": tica_fit(covariances),
        "transfer_operator_model edmd": edmd_fit(*pairs, MonomialFeatures(2, 3)),
        "transfer_operator_model kernel_edmd": kernel_edmd_fit(*pairs, GaussianKernel(1.0),
                                                               1e-3, 4),
        "transfer_operator_model kernel_cca": kernel_cca_fit(*pairs, GaussianKernel(1.0), 4,
                                                             1e-3),
        "kvad_model": kvad_fit(*pairs, MonomialFeatures(2, 2), GaussianKernel(1.0)),
        "transition_count_model": counts,
        "markov_state_model": msm_mle(counts, reversible=True),
        "hidden_markov_model discrete": discrete,
        "hidden_markov_model gaussian": gaussian,
        "clustering_model": clusters,
        "sindy_model": sindy_fit(attractor, t=1e-3, library=MonomialFeatures(3, 2),
                                 threshold=0.05),
    }
    outputs = {
        "quadwell_1d": walk, "double_well_2d": well, "rossler": attractor,
        "bickley_flow": advected, "sample_markov_chain": chain,
        "kmeans_fit centers": clusters.centers,
        "baum_welch discrete log_likelihoods": discrete_info["log_likelihoods"],
        "baum_welch gaussian log_likelihoods": gaussian_info["log_likelihoods"],
        "viterbi discrete": viterbi(discrete, symbols),
        "viterbi gaussian": viterbi(gaussian, walk[:, 0]),
    }
    # 513 fresh points evaluate the kernel expansions in two row bands, the
    # second a single row.
    fresh = np.random.default_rng(12).uniform([0.0, -3.0], [20.0, 3.0], size=(513, 2))
    outputs["kernel_cca project 513"] = (
        models["transfer_operator_model kernel_cca"].project(fresh, 4))
    outputs["kernel_edmd propagate 513"] = (
        models["transfer_operator_model kernel_edmd"].propagate(fresh))
    outputs.update((f"to_document {name}", to_document(model)) for name, model in models.items())
    return outputs


def backends():
    """Yields each backend's name with it loaded: ``c`` where ``cc`` builds the
    kernels, then the references with ``shutil.which`` finding no compiler."""
    which = shutil.which
    try:
        _native._compiled_kernels.cache_clear()
        if _native._compiled_kernels()[1] == "c":
            yield "c"
        shutil.which = lambda name: None
        _native._compiled_kernels.cache_clear()
        yield "python"
    finally:
        shutil.which = which
        _native._compiled_kernels.cache_clear()


def digest() -> dict:
    outputs = {}
    for backend in backends():
        with tempfile.TemporaryDirectory() as name:
            found = {**command_lines(Path(name)), **library_runs()}
        outputs.update((f"{backend}/{key}", sha256(value)) for key, value in found.items())
    return {"header": {"blas_threads": blas_threads()}, "outputs": outputs}


def compare(a: dict, b: dict) -> int:
    """Print what differs between two digests; the count of differing entries."""
    for field in sorted(a["header"].keys() | b["header"].keys()):
        if a["header"].get(field) != b["header"].get(field):
            print(f"header {field}: {a['header'].get(field)} != {b['header'].get(field)}")
    differ = sorted(key for key in a["outputs"].keys() | b["outputs"].keys()
                    if a["outputs"].get(key) != b["outputs"].get(key))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(differ)} of {len(a['outputs'].keys() | b['outputs'].keys())} entries differ")
    return len(differ)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="name the entries that differ between two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(path).read_text()) for path in args.compare)
        return 1 if compare(a, b) else 0
    print(json.dumps(digest(), indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
