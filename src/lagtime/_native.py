"""Build, cache and load ``_kernels.c``, the compiled inner loops, through ctypes.

This is the one module that knows which backend runs. The SDE steppers and the
Roessler and Bickley-jet Runge-Kutta loops (:mod:`lagtime.datasets`), the
hidden-Markov recursions (:mod:`lagtime.hmm`), the chain sampler
(:mod:`lagtime.markov`) and the k-means Lloyd loop (:mod:`lagtime.clustering`)
each register a pure-Python reference with :func:`_kernel`, which takes the C
prototype's arguments and runs where :func:`_compiled_kernels` loads no
library. The steppers, the Roessler frames, the Viterbi paths and the chain
states reproduce their references bit for bit, and the forward-backward to
rounding. The jet kernel, which carries sin, cos and tanh from step to step by
a Taylor rotation (:func:`lagtime.datasets.bickley_flow`), matches its NumPy
reference to a tolerance. The Lloyd loop takes distances as sums of squared
differences, not NumPy's product expansion, so it gives the reference's
labels, centres and iteration counts wherever no point lies within rounding of
two centres. The jet and the Roessler attractor are fixed systems: their
constants are compiled into the kernels, so the calls pass only the state and
the time grid.

The build is ``-O2`` with ``-fopenmp-simd``, which vectorizes the one loop
marked ``omp simd``, the jet's series pass, and leaves the code of every other
loop as ``-O2`` makes it. ``-ffp-contract=off`` and the absence of fast-math
and ``-march`` flags keep every kernel computing in source order, which the
bit-for-bit claims rest on, with no instruction beyond the compiler's default
target.

The module also calls SciPy's own LAPACK through ctypes, which releases the
GIL: :func:`_dpotrf` takes ``dpotrf`` from the function pointer that
``scipy.linalg.cython_lapack`` exports, so two Cholesky factorizations run on
two cores, where SciPy's own wrappers hold the GIL.
:func:`_one_lapack_thread` holds the OpenBLAS that SciPy links to one thread
where its callers run SciPy's LAPACK. The seam is loaded on first use, like
the kernels.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Callable

import numpy as np

_KERNEL_SOURCE = Path(__file__).with_name("_kernels.c")
_KERNEL_FLAGS = ("-O2", "-fopenmp-simd", "-ffp-contract=off", "-shared", "-fPIC")
_KERNELS: list[tuple[str, Callable]] = []  # (name, reference), registered by _kernel


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


def _kernel(name: str) -> Callable:
    """Register the decorated function as the reference of kernel ``name``; the
    result calls the kernel, or the reference where no library loads, looked up
    at each call so that clearing :func:`_compiled_kernels`'s cache switches it.
    """

    def register(reference: Callable) -> Callable:
        _KERNELS.append((name, reference))

        @functools.wraps(reference)
        def call(*args):
            library, _ = _compiled_kernels()
            if library is None:
                return reference(*args)
            return getattr(library, name)(*args)

        return call

    return register


@functools.cache
def _lapack() -> tuple:
    """SciPy's ``dpotrf`` as a ctypes function, and the thread getter and setter
    of the OpenBLAS that SciPy links, loaded on first use.

    Where SciPy's LAPACK is not its bundled OpenBLAS, there is no setter to
    find: the getter reports one thread and the setter does nothing.
    """
    from scipy.linalg import cython_lapack

    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    integer = ctypes.POINTER(ctypes.c_int)
    capsule = cython_lapack.__pyx_capi__["dpotrf"]
    dpotrf = ctypes.CFUNCTYPE(None, ctypes.c_char_p, integer, ctypes.c_void_p, integer,
                              integer)(pointer(capsule, name(capsule)))
    # dlsym on SciPy's LAPACK module also searches the libraries it links.
    openblas = ctypes.CDLL(cython_lapack.__file__)
    return (dpotrf,
            getattr(openblas, "scipy_openblas_get_num_threads", lambda: 1),
            getattr(openblas, "scipy_openblas_set_num_threads", lambda count: None))


def _dpotrf(a: np.ndarray) -> int:
    """Factor ``a = L L^T`` in place by SciPy's ``dpotrf``, ``L`` in the lower triangle.

    ``a`` is a Fortran-ordered float64 square matrix, and only its lower
    triangle is read; the upper one is left as it was. Returns LAPACK's
    ``info``: 0, or the order of the leading minor that is not positive
    definite.
    """
    n, info = ctypes.c_int(a.shape[0]), ctypes.c_int()
    _lapack()[0](b"L", n, a.ctypes.data, n, info)
    return info.value


@contextlib.contextmanager
def _one_lapack_thread():
    """Hold SciPy's OpenBLAS to one thread in the body, and give back the caller's
    count on leaving it, also after an exception (see :func:`_lapack`).

    NumPy links its own OpenBLAS, whose count this leaves as it is.
    """
    _, threads, set_threads = _lapack()
    count = threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(count)
