"""Tests for the comparison of ``tests/digest.py``."""

import numpy as np

import digest


def test_compare_names_each_entry_that_differs(capsys):
    a = {"header": {"blas_threads": {"libopenblas.so": 1}},
         "outputs": {"c/same": "1", "c/moved": "2", "python/gone": "3"}}
    b = {"header": {"blas_threads": {"libopenblas.so": 2}},
         "outputs": {"c/same": "1", "c/moved": "9", "python/new": "3"}}
    assert digest.compare(a, b) == 3
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("differs: ")] == [
        "differs: c/moved", "differs: python/gone", "differs: python/new"]
    assert lines[0].startswith("header blas_threads: ")
    assert digest.compare(a, a) == 0


def test_an_array_hashes_with_its_dtype_and_shape():
    values = np.zeros(4)
    hashes = {digest.sha256(v) for v in (values, values.reshape(2, 2), values.astype(np.int64),
                                         values.tobytes())}
    assert len(hashes) == 4
    assert digest.sha256(values) == digest.sha256(np.zeros(4))
