"""Build, cache and load ``_kernels.c``, the compiled inner loops, through ctypes.

The SDE steppers and the Roessler and Bickley-jet Runge-Kutta loops
(:mod:`lagtime.datasets`), the hidden-Markov recursions (:mod:`lagtime.hmm`),
the chain sampler (:mod:`lagtime.markov`) and the k-means Lloyd loop
(:mod:`lagtime.clustering`) call :func:`_compiled_kernels`; each keeps a
pure-Python reference path that runs when it returns no library. The
steppers, the Roessler frames, the Viterbi paths and the chain states
reproduce their references bit for bit, and the forward-backward to rounding.
The jet kernel carries each particle's sin, cos and tanh from one
Runge-Kutta step to the next by a Taylor rotation, takes them from libm only
every 64th step and where a step leaves the rotation's range, and matches its
NumPy reference to a tolerance, whatever the split of the particles over
cores. The Lloyd loop takes distances as sums of squared
differences, not NumPy's product expansion, so it gives the reference's
labels, centres and iteration counts wherever no point lies within rounding
of two centres. The jet and the Roessler attractor are fixed systems: their
constants are compiled into the kernels, so the calls pass only the state and
the time grid.

The build is ``-O2`` with ``-fopenmp-simd``, which vectorizes the one loop
marked ``omp simd``, the jet's series pass, and leaves the code of every other
loop as ``-O2`` makes it. ``-ffp-contract=off`` and the absence of fast-math
and ``-march`` flags keep every kernel computing in source order, which the
bit-for-bit claims rest on, with no instruction beyond the compiler's default
target.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

_KERNEL_SOURCE = Path(__file__).with_name("_kernels.c")
_KERNEL_FLAGS = ("-O2", "-fopenmp-simd", "-ffp-contract=off", "-shared", "-fPIC")


def _build_kernels(compiler: str, path: Path) -> None:
    """Compile ``_kernels.c`` to ``path``, which appears whole or not at all."""
    path.parent.mkdir(exist_ok=True)
    fd, partial = tempfile.mkstemp(suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([compiler, *_KERNEL_FLAGS, "-o", partial, str(_KERNEL_SOURCE)],
                       check=True, capture_output=True)
        os.replace(partial, path)
    finally:
        Path(partial).unlink(missing_ok=True)


def _cached_build() -> Path:
    """The cached build in ``__pycache__``, named by a hash of source and flags."""
    digest = hashlib.sha256(_KERNEL_SOURCE.read_bytes()
                            + " ".join(_KERNEL_FLAGS).encode()).hexdigest()[:16]
    return _KERNEL_SOURCE.parent / "__pycache__" / f"_kernels-{digest}.so"


@functools.cache
def _compiled_kernels() -> tuple:
    """Build ``_kernels.c`` on first use and load it; returns ``(library, backend)``.

    Where the cache is not writable (a read-only install), each process
    builds privately and removes the build once loaded: a build is never
    taken from the shared temporary directory, where anyone could plant one.
    Without a library, ``backend`` says why.
    """
    compiler = shutil.which("cc")
    if compiler is None:
        return None, "python (no C compiler)"
    path = _cached_build()
    try:
        try:
            if not path.exists():
                _build_kernels(compiler, path)
            library = ctypes.CDLL(str(path))
        except OSError:  # the cache is not writable, or not loadable
            with tempfile.TemporaryDirectory(prefix="lagtime-") as private:
                path = Path(private) / path.name
                _build_kernels(compiler, path)
                library = ctypes.CDLL(str(path))
    except (subprocess.CalledProcessError, OSError):
        return None, "python (C build failed)"
    array = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    integers = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    size, real = ctypes.c_long, ctypes.c_double
    stepper = [array, array, real, real, size, size, array]
    for name, argtypes, restype in [
        ("double_well_steps", stepper, size),
        ("quadwell_steps", stepper, size),
        ("hmm_forward", [array, array, array, size, size, array, array], size),
        ("hmm_backward", [array, array, array, size, size, array, array], None),
        ("hmm_viterbi", [array, array, array, size, size, integers, array, integers], None),
        ("markov_chain_steps", [array, size, array, size, integers], None),
        ("rossler_steps", [array, size, real], size),
        ("jet_rk4_steps", [array, size, real, real, size, array], size),
        ("kmeans_lloyd",
         [array, size, size, size, size, size, real, array, integers, integers, array], None),
    ]:
        function = getattr(library, name)
        function.argtypes = argtypes
        function.restype = restype
    return library, "c"
