"""Versioned JSON persistence for fitted models.

Every supported object maps to a document ``{"format": "lagtime",
"format_version": 1, "type": <registered name>, "payload": {...}}``.
Matrices are stored row-major as ``{"dtype", "shape", "data"}`` with flat
number lists (complex ones as ``"real"`` and ``"imag"`` lists); floats
serialize via their shortest round-trip representation, so numeric payloads
survive a save/load cycle bit-exactly.

Each model type's payload layout is declared once, as a row of ``_CODECS``:
its class and, for each payload key, the codec of the attribute and
constructor argument of the same name. Encoding and decoding both read that
row, so a field added to it is saved and loaded alike. Kernels and HMM output
models are declared the same way under their ``kind`` tag; feature maps, whose
constructor arguments differ from their attributes, keep explicit codecs.

Keys whose value is now fixed are still written: the cylinder's ``period``
(20) and ``y_scale`` (3), the random net's ``n_hidden`` (100) and ``n_out``
(50), and the linear map's ``offset`` (null). A document holding another
value there, or a ``"polynomial"`` kernel, raises :class:`InvalidArgument`
naming the key or kind rather than loading as a different model. Centered
kernel sections are rebuilt from the means of their anchors' Gram matrix.
"""

from __future__ import annotations

import json
from pathlib import Path

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


def decode_array(doc: dict) -> NDArray:
    dtype = np.dtype(doc["dtype"])
    shape = tuple(doc["shape"])
    if dtype.kind == "c":
        # Filling the parts in place keeps signed zeros and infinities, which
        # ``real + 1j * imag`` would turn into +0.0 and NaN.
        out = np.empty(shape, dtype=dtype)
        out.real = np.reshape(doc["real"], shape)
        out.imag = np.reshape(doc["imag"], shape)
        return out
    return np.array(doc["data"], dtype=dtype).reshape(shape)


# ---------------------------------------------------------------------------
# Payload layouts
# ---------------------------------------------------------------------------
#
# A codec is an ``(encode, decode)`` pair. A layout maps each payload key to
# a codec; the key is also the attribute read on save and the constructor
# argument passed on load, and the layout's order is the document's key order.


def _plain(value):
    return value


def _optional(codec: tuple) -> tuple:
    encode, decode = codec
    return (lambda value: None if value is None else encode(value),
            lambda value: None if value is None else decode(value))


_VALUE = (_plain, _plain)
_INT = (int, _plain)
_BOOL = (bool, _plain)
_ARRAY = (encode_array, decode_array)
_MAYBE_ARRAY = _optional(_ARRAY)


def _encode(row: tuple, obj) -> dict:
    """Payload of ``obj`` under a ``(class, layout)`` row."""
    return {key: encode(getattr(obj, key)) for key, (encode, _) in row[1].items()}


def _decode(row: tuple, payload: dict):
    """Object of the row's class built from a payload written by :func:`_encode`."""
    cls, layout = row
    return cls(**{key: decode(payload[key]) for key, (_, decode) in layout.items()})


def _by_kind(table: dict, what: str) -> tuple:
    """Codec for objects stored as ``{"kind": <table key>, **payload}``."""
    def encode(obj) -> dict:
        for kind, row in table.items():
            if isinstance(obj, row[0]):
                return {"kind": kind, **_encode(row, obj)}
        raise InvalidArgument(f"cannot serialize {what} of type {type(obj).__name__}")

    def decode(doc: dict):
        if doc["kind"] not in table:
            raise InvalidArgument(f"unknown {what} kind {doc['kind']!r}")
        return _decode(table[doc["kind"]], doc)

    return encode, decode


_KERNEL = _by_kind({
    "gaussian": (kernels.GaussianKernel, {"sigma": _VALUE}),
}, "kernel")
_encode_kernel, _decode_kernel = _KERNEL

_OUTPUT_MODEL = _by_kind({
    "discrete": (hmm.DiscreteOutputModel, {"emission_matrix": _ARRAY}),
    "gaussian": (hmm.GaussianOutputModel, {"means": _ARRAY, "stds": _ARRAY}),
}, "output model")


# ---------------------------------------------------------------------------
# Feature maps
# ---------------------------------------------------------------------------


def _encode_feature(f: basis.FeatureMap) -> dict:
    if isinstance(f, basis.IdentityFeatures):
        return {"kind": "identity", "dim": f.dimension_in}
    if isinstance(f, basis.MonomialFeatures):
        return {"kind": "monomial", "dim": f.dimension_in, "max_degree": f.max_degree}
    if isinstance(f, basis.IndicatorFeatures):
        return {"kind": "indicator", "n_states": f.dimension_out}
    if isinstance(f, basis.RandomFeatureNet):
        return {
            "kind": "random_net",
            "dim_in": f.dimension_in,
            "n_hidden": f.n_hidden,
            "n_out": f.dimension_out,
            "seed": f.seed,
            "W1": encode_array(f.W1),
            "b1": encode_array(f.b1),
            "W2": encode_array(f.W2),
            "b2": encode_array(f.b2),
        }
    if isinstance(f, basis.CylinderEmbedding):
        return {"kind": "cylinder", "period": f.period, "y_scale": f.y_scale}
    if isinstance(f, basis.Whitener):
        w = f.whitening
        return {
            "kind": "whitener",
            "transform": encode_array(w.transform),
            "mean": encode_array(w.mean),
            "rank": int(w.rank),
        }
    if isinstance(f, basis.LinearFeatures):
        return {
            "kind": "linear",
            "weights": encode_array(f.weights),
            "offset": None,
        }
    if isinstance(f, basis.WithConstant):
        return {"kind": "with_constant", "inner": _encode_feature(f.inner)}
    if isinstance(f, basis.ChainedFeatures):
        return {
            "kind": "chained",
            "first": _encode_feature(f.first),
            "second": _encode_feature(f.second),
        }
    if isinstance(f, kernels.KernelSectionFeatures):
        return {
            "kind": "kernel_sections",
            "kernel": _encode_kernel(f.kernel),
            "points": encode_array(f.points),
            "centered": f.centered,
        }
    raise InvalidArgument(f"cannot serialize feature map of type {type(f).__name__}")


def _require(doc: dict, key: str, value) -> None:
    """Reject a feature map document whose ``key`` holds a value other than
    the one this version builds."""
    if doc[key] != value:
        raise InvalidArgument(f"cannot load {doc['kind']} feature map: {key} must be {value!r}")


def _decode_feature(doc: dict) -> basis.FeatureMap:
    kind = doc["kind"]
    if kind == "identity":
        return basis.IdentityFeatures(doc["dim"])
    if kind == "monomial":
        return basis.MonomialFeatures(doc["dim"], doc["max_degree"])
    if kind == "indicator":
        return basis.IndicatorFeatures(doc["n_states"])
    if kind == "random_net":
        _require(doc, "n_hidden", basis.RandomFeatureNet.n_hidden)
        _require(doc, "n_out", basis.RandomFeatureNet.dimension_out)
        net = basis.RandomFeatureNet(doc["dim_in"], seed=doc["seed"])
        net.W1 = decode_array(doc["W1"])
        net.b1 = decode_array(doc["b1"])
        net.W2 = decode_array(doc["W2"])
        net.b2 = decode_array(doc["b2"])
        return net
    if kind == "cylinder":
        _require(doc, "period", basis.CylinderEmbedding.period)
        _require(doc, "y_scale", basis.CylinderEmbedding.y_scale)
        return basis.CylinderEmbedding()
    if kind == "whitener":
        transform = decode_array(doc["transform"])
        return basis.Whitener(numerics.WhiteningTransform(
            transform=transform,
            mean=decode_array(doc["mean"]),
            rank=doc["rank"],
        ))
    if kind == "linear":
        _require(doc, "offset", None)
        return basis.LinearFeatures(decode_array(doc["weights"]))
    if kind == "with_constant":
        return basis.WithConstant(_decode_feature(doc["inner"]))
    if kind == "chained":
        return basis.ChainedFeatures(
            _decode_feature(doc["first"]), _decode_feature(doc["second"])
        )
    if kind == "kernel_sections":
        kernel, points = _decode_kernel(doc["kernel"]), decode_array(doc["points"])
        if doc["centered"]:
            return kernels.KernelSectionFeatures._centered_on(
                kernel, points, *kernels._gram_means(kernels.gram_matrix(kernel, points))
            )
        return kernels.KernelSectionFeatures(kernel, points)
    raise InvalidArgument(f"unknown feature map kind {kind!r}")


# ---------------------------------------------------------------------------
# Model payloads
# ---------------------------------------------------------------------------


_FEATURE = (_encode_feature, _decode_feature)


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
    }),
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
    return _decode(_CODECS[name], doc["payload"])


def save_model(model, path) -> None:
    """Serialize a model to a JSON file."""
    Path(path).write_text(json.dumps(to_document(model)) + "\n")


def load_model(path):
    """Load a model previously written by :func:`save_model`."""
    return from_document(json.loads(Path(path).read_text()))
