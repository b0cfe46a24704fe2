"""Fixtures shared by the test modules."""

import shutil

import pytest

from lagtime import _native


@pytest.fixture
def backends(monkeypatch):
    """Forgets the loaded kernels before and after the test.

    Iterating it switches to each backend in turn and yields its name: the
    compiled kernels where ``cc`` is on PATH, then the reference loops."""

    def switch():
        _native._compiled_kernels.cache_clear()
        if shutil.which("cc") is not None:
            assert _native._compiled_kernels()[1] == "c"
            yield "c"
        monkeypatch.setattr(_native.shutil, "which", lambda name: None)
        _native._compiled_kernels.cache_clear()
        yield "python"

    _native._compiled_kernels.cache_clear()
    yield switch()
    _native._compiled_kernels.cache_clear()
