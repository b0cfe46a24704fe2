"""Versioned JSON persistence for fitted models.

Every supported object maps to a document ``{"format": "lagtime",
"format_version": 1, "type": <registered name>, "payload": {...}}``.
Matrices are stored row-major as ``{"dtype", "shape", "data"}`` with flat
number lists (complex ones as ``"real"`` and ``"imag"`` lists); floats
serialize via their shortest round-trip representation, so numeric payloads
survive a save/load cycle bit-exactly.

Every persisted type's payload layout is declared once, as one row of a
table: models in ``_CODECS`` under their document type, and kernels, HMM
output models and feature maps in tables of their own under a ``kind`` tag.
A row holds the class and, for each payload key, the codec of the attribute
and constructor argument of the same name. Encoding and decoding both read
that row, so a field added to it is saved and loaded alike. A key may instead
read an attribute of another name, or hold a fixed value, and a row whose
class takes other constructor arguments names the function that builds it.
A key that may hold null may also be absent, which reads as null, so
documents written before such a key was added still load (a Markov state
model's fitted ``stationary_distribution``). Any other missing key raises
:class:`InvalidArgument` naming it, as does a malformed field: an array
whose dtype is not a number type, whose shape is not a list of non-negative
integers, or whose data is not a flat list of numbers that fills the shape,
and an integer or boolean field holding anything else.

Keys whose value is now fixed are still written: the cylinder's ``period``
(20) and ``y_scale`` (3), the random net's ``n_hidden`` (100) and ``n_out``
(50), and the linear map's ``offset`` (null). A document holding another
value there, or a ``"polynomial"`` kernel, raises :class:`InvalidArgument`
naming the key or kind rather than loading as a different model. Centered
kernel sections are rebuilt from the means of their anchors' Gram matrix.
"""

from __future__ import annotations

import json
import math
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from . import basis, clustering, covariance, decomposition, hmm, kernels
from . import markov, numerics, sindy
from .errors import InvalidArgument

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "encode_array",
    "decode_array",
    "to_document",
    "from_document",
    "save_model",
    "load_model",
]

FORMAT_NAME = "lagtime"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# Arrays
# ---------------------------------------------------------------------------


def encode_array(a: NDArray) -> dict:
    """Encode an array as dtype + shape + flat row-major data."""
    a = np.asarray(a)
    if np.iscomplexobj(a):
        return {
            "dtype": str(a.dtype),
            "shape": list(a.shape),
            "real": np.real(a).ravel().tolist(),
            "imag": np.imag(a).ravel().tolist(),
        }
    if a.dtype.kind not in "fiub":
        raise InvalidArgument(f"cannot encode arrays of dtype {a.dtype}")
    return {
        "dtype": str(a.dtype),
        "shape": list(a.shape),
        "data": a.ravel().tolist(),
    }


def _lookup(doc, key: str, what: str, nullable: bool = False):
    """``doc[key]``; a key that may hold null may also be absent, which reads
    as null. Any other missing key raises :class:`InvalidArgument` naming it."""
    if not isinstance(doc, dict) or (key not in doc and not nullable):
        raise InvalidArgument(f"{what} has no {key!r}")
    return doc.get(key)


# The dtypes an array may name: booleans, integers, floats and complex numbers.
_NUMBER_DTYPES = tuple(str(np.dtype(code)) for code in
                       "?" + np.typecodes["AllInteger"] + np.typecodes["AllFloat"])


def _filled(doc: dict, key: str, shape: tuple, dtype=None) -> NDArray:
    """The array's flat ``key`` list of numbers in ``shape``, which it must fill exactly."""
    values = _lookup(doc, key, "array")
    if not (isinstance(values, list) and all(isinstance(v, (int, float)) for v in values)):
        raise InvalidArgument(f"array {key} must be a flat list of numbers")
    values = np.array(values, dtype=dtype)
    if values.size != math.prod(shape):
        raise InvalidArgument(f"array {key} has {values.size} entries; shape {list(shape)} "
                              f"needs {math.prod(shape)}")
    return values.reshape(shape)


def decode_array(doc: dict) -> NDArray:
    dtype = _lookup(doc, "dtype", "array")
    if dtype not in _NUMBER_DTYPES:
        raise InvalidArgument(f"array dtype {dtype!r} is not a number type")
    dtype = np.dtype(dtype)
    shape = _lookup(doc, "shape", "array")
    if not isinstance(shape, list):
        raise InvalidArgument(f"array shape must be a list, got {shape!r}")
    shape = tuple(numerics._integer("array shape entry", size, 0) for size in shape)
    if dtype.kind == "c":
        # Filling the parts in place keeps signed zeros and infinities, which
        # ``real + 1j * imag`` would turn into +0.0 and NaN.
        out = np.empty(shape, dtype=dtype)
        out.real = _filled(doc, "real", shape)
        out.imag = _filled(doc, "imag", shape)
        return out
    return _filled(doc, "data", shape, dtype)


# ---------------------------------------------------------------------------
# Payload layouts
# ---------------------------------------------------------------------------
#
# A codec is an ``(encode, decode)`` pair. A layout maps each payload key to
# a codec; the key is also the attribute read on save and the constructor
# argument passed on load, and the layout's order is the document's key order.
# A row is ``(class, layout)``, or ``(class, layout, build)`` where a function
# other than the class builds the object from the decoded arguments.


class _Attr(NamedTuple):
    """Layout entry for a key saved from the attribute ``name`` (a dotted name
    reads a nested one) rather than from the attribute of the key's name."""

    name: str
    codec: tuple


class _Fixed(NamedTuple):
    """Layout entry for a key whose value this version always builds: written
    as ``value``, checked on load, and not passed to the constructor."""

    value: object


def _plain(value):
    return value


class _Nullable(tuple):
    """An ``(encode, decode)`` pair for a key that may hold null."""


def _optional(codec: tuple) -> tuple:
    encode, decode = codec
    return _Nullable((lambda value: None if value is None else encode(value),
                      lambda value: None if value is None else decode(value)))


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise InvalidArgument(f"value must be true or false, got {value!r}")
    return value


_VALUE = (_plain, _plain)
_INT = (int, partial(numerics._integer, "value"))
_BOOL = (bool, _boolean)
_ARRAY = (encode_array, decode_array)
_MAYBE_ARRAY = _optional(_ARRAY)


def _encode(row: tuple, obj) -> dict:
    """Payload of ``obj`` under a layout row."""
    payload = {}
    for key, entry in row[1].items():
        if isinstance(entry, _Fixed):
            payload[key] = entry.value
        else:
            name, (encode, _) = entry if isinstance(entry, _Attr) else (key, entry)
            payload[key] = encode(attrgetter(name)(obj))
    return payload


def _decode(row: tuple, payload: dict):
    """Object of the row's class built from a payload written by :func:`_encode`."""
    cls, layout, *build = row
    args = {}
    for key, entry in layout.items():
        codec = entry.codec if isinstance(entry, _Attr) else entry
        value = _lookup(payload, key, f"{cls.__name__} payload", isinstance(codec, _Nullable))
        if isinstance(entry, _Fixed):
            if value != entry.value:
                raise InvalidArgument(f"cannot load {cls.__name__}: {key} must be {entry.value!r}")
            continue
        try:
            args[key] = codec[1](value)
        except InvalidArgument as error:  # name the key, outermost first
            raise InvalidArgument(f"{key}: {error}") from None
    return (build[0] if build else cls)(**args)


def _by_kind(table: dict, what: str) -> tuple:
    """Codec for objects stored as ``{"kind": <table key>, **payload}``."""
    def encode(obj) -> dict:
        for kind, row in table.items():
            if isinstance(obj, row[0]):
                return {"kind": kind, **_encode(row, obj)}
        raise InvalidArgument(f"cannot serialize {what} of type {type(obj).__name__}")

    def decode(doc: dict):
        kind = _lookup(doc, "kind", what)
        if kind not in table:
            raise InvalidArgument(f"unknown {what} kind {kind!r}")
        return _decode(table[kind], doc)

    return encode, decode


_KERNEL = _by_kind({
    "gaussian": (kernels.GaussianKernel, {"sigma": _VALUE}),
}, "kernel")

_OUTPUT_MODEL = _by_kind({
    "discrete": (hmm.DiscreteOutputModel, {"emission_matrix": _ARRAY}),
    "gaussian": (hmm.GaussianOutputModel, {"means": _ARRAY, "stds": _ARRAY}),
}, "output model")


# ---------------------------------------------------------------------------
# Feature maps
# ---------------------------------------------------------------------------


def _random_net(dim_in, seed, W1, b1, W2, b2) -> basis.RandomFeatureNet:
    net = basis.RandomFeatureNet(dim_in, seed=seed)
    net.W1, net.b1, net.W2, net.b2 = W1, b1, W2, b2
    return net


def _whitener(transform, mean, rank) -> basis.Whitener:
    return basis.Whitener(numerics.WhiteningTransform(transform=transform, mean=mean, rank=rank))


def _kernel_sections(kernel, points, centered) -> kernels.KernelSectionFeatures:
    """Sections as the fit built them; centered ones take the means of their
    anchors' Gram matrix, which the document does not hold."""
    if centered:
        return kernels.KernelSectionFeatures._centered_on(
            kernel, points, *kernels._gram_means(kernels.gram_matrix(kernel, points)))
    return kernels.KernelSectionFeatures(kernel, points)


# Composite maps hold feature maps themselves, so their rows use the codec
# that reads this table, and the table is filled after that codec is made.
_FEATURES: dict = {}
_FEATURE = _by_kind(_FEATURES, "feature map")
_FEATURES.update({
    "identity": (basis.IdentityFeatures, {"dim": _Attr("dimension_in", _INT)}),
    "monomial": (basis.MonomialFeatures, {"dim": _Attr("dimension_in", _INT), "max_degree": _INT}),
    "indicator": (basis.IndicatorFeatures, {"n_states": _Attr("dimension_out", _INT)}),
    "random_net": (basis.RandomFeatureNet, {
        "dim_in": _Attr("dimension_in", _INT),
        "n_hidden": _Fixed(basis.RandomFeatureNet.n_hidden),
        "n_out": _Fixed(basis.RandomFeatureNet.dimension_out),
        "seed": _INT, "W1": _ARRAY, "b1": _ARRAY, "W2": _ARRAY, "b2": _ARRAY,
    }, _random_net),
    "cylinder": (basis.CylinderEmbedding, {
        "period": _Fixed(basis.CylinderEmbedding.period),
        "y_scale": _Fixed(basis.CylinderEmbedding.y_scale),
    }),
    "whitener": (basis.Whitener, {
        "transform": _Attr("whitening.transform", _ARRAY),
        "mean": _Attr("whitening.mean", _ARRAY),
        "rank": _Attr("whitening.rank", _INT),
    }, _whitener),
    "linear": (basis.LinearFeatures, {"weights": _ARRAY, "offset": _Fixed(None)}),
    "with_constant": (basis.WithConstant, {"inner": _FEATURE}),
    "chained": (basis.ChainedFeatures, {"first": _FEATURE, "second": _FEATURE}),
    "kernel_sections": (kernels.KernelSectionFeatures, {
        "kernel": _KERNEL, "points": _ARRAY, "centered": _BOOL,
    }, _kernel_sections),
})


# ---------------------------------------------------------------------------
# Model payloads
# ---------------------------------------------------------------------------


def _markov_state_model(stationary_distribution, **fields) -> markov.MarkovStateModel:
    """The model with the stationary distribution its estimator fitted, if any."""
    return markov.MarkovStateModel(**fields, _stationary=stationary_distribution)


def _model(name: str) -> tuple:
    """Codec of a registered model nested inside another model's payload."""
    return (lambda m: _encode(_CODECS[name], m),
            lambda payload: _decode(_CODECS[name], payload))


_CODECS: dict[str, tuple[type, dict]] = {
    "covariance_model": (covariance.CovarianceModel, {
        "mean_0": _ARRAY, "mean_t": _ARRAY, "c00": _ARRAY, "c0t": _ARRAY, "ctt": _ARRAY,
        "n_pairs": _INT, "lag": _INT, "symmetrized": _BOOL, "mean_removed": _BOOL,
    }),
    "transfer_operator_model": (decomposition.TransferOperatorModel, {
        "f": _FEATURE, "g": _FEATURE, "K": _ARRAY, "method": _VALUE,
        "eigenvalues": _MAYBE_ARRAY, "projection_matrix": _MAYBE_ARRAY,
    }),
    "covariance_koopman_model": (decomposition.CovarianceKoopmanModel, {
        "U": _ARRAY, "V": _ARRAY, "sigma": _ARRAY,
        "covariances": _model("covariance_model"),
        "chi0": _FEATURE, "chi1": _FEATURE, "method": _VALUE,
    }),
    "kvad_model": (decomposition.KVADModel, {
        "f": _FEATURE, "q_weights": _ARRAY, "K": _ARRAY, "kernel": _KERNEL,
        "y_train": _ARRAY, "score": _VALUE, "feature_mean": _ARRAY,
        "projection_matrix": _ARRAY, "singular_values": _ARRAY,
    }),
    "transition_count_model": (markov.TransitionCountModel, {
        "count_matrix": _ARRAY, "lag": _INT, "counting_mode": _VALUE,
        "state_symbols": _ARRAY,
    }),
    "markov_state_model": (markov.MarkovStateModel, {
        "transition_matrix": _ARRAY, "lag": _INT, "reversible": _BOOL,
        "count_model": _optional(_model("transition_count_model")),
        "stationary_distribution": _Attr("_stationary", _MAYBE_ARRAY),
    }, _markov_state_model),
    "hidden_markov_model": (hmm.HiddenMarkovModel, {
        "transition_model": _model("markov_state_model"),
        "output_model": _OUTPUT_MODEL,
        "initial_distribution": _ARRAY,
    }),
    "clustering_model": (clustering.ClusteringModel, {
        "centers": _ARRAY, "inertia": _VALUE, "n_iterations": _INT, "converged": _BOOL,
    }),
    "sindy_model": (sindy.SINDyModel, {
        "xi": _ARRAY, "library": _FEATURE, "discrete_time": _BOOL,
        "emptied_dimensions": _ARRAY, "variable_names": _optional((list, _plain)),
    }),
}


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def to_document(model) -> dict:
    """Build the versioned JSON document for a supported model object."""
    for name, row in _CODECS.items():
        if type(model) is row[0]:
            return {
                "format": FORMAT_NAME,
                "format_version": FORMAT_VERSION,
                "type": name,
                "payload": _encode(row, model),
            }
    raise InvalidArgument(f"no serializer registered for {type(model).__name__}")


def from_document(doc: dict):
    """Rebuild a model object from its JSON document."""
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise InvalidArgument("not a lagtime model document")
    version = doc.get("format_version")
    if not isinstance(version, int) or version < 1 or version > FORMAT_VERSION:
        raise InvalidArgument(f"unsupported format version {version!r}")
    name = doc.get("type")
    if name not in _CODECS:
        raise InvalidArgument(f"unknown model type {name!r}")
    return _decode(_CODECS[name], _lookup(doc, "payload", "document"))


def save_model(model, path) -> None:
    """Serialize a model to a JSON file."""
    Path(path).write_text(json.dumps(to_document(model)) + "\n")


def load_model(path):
    """Load a model previously written by :func:`save_model`."""
    return from_document(json.loads(Path(path).read_text()))
