"""Tests for the versioned JSON model persistence."""

import ast
import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import lagtime
from lagtime.basis import (
    CylinderEmbedding,
    IdentityFeatures,
    IndicatorFeatures,
    MonomialFeatures,
    RandomFeatureNet,
    Whitener,
    WithConstant,
)
from lagtime.clustering import kmeans_fit
from lagtime.covariance import covariances_from_pairs
from lagtime.decomposition import (
    dmd_fit,
    edmd_fit,
    kernel_cca_fit,
    kernel_edmd_fit,
    kvad_fit,
    vamp_fit,
)
from lagtime.errors import InvalidArgument
from lagtime.hmm import (
    DiscreteOutputModel,
    GaussianOutputModel,
    HiddenMarkovModel,
)
from lagtime.kernels import GaussianKernel, Kernel, KernelSectionFeatures
from lagtime.markov import (
    MarkovStateModel,
    TransitionCountModel,
    count_transitions,
    msm_mle,
)
from lagtime.numerics import WhiteningTransform
from lagtime.serialization import (
    _FEATURES,
    FORMAT_NAME,
    FORMAT_VERSION,
    decode_array,
    encode_array,
    from_document,
    load_model,
    save_model,
    to_document,
)
from lagtime.sindy import SINDyModel, sindy_fit


def roundtrip(model):
    """Full JSON round trip through the string representation.

    The rebuilt model must encode to the very same text, so no field is lost,
    renamed, reordered or perturbed by a save/load cycle.
    """
    text = json.dumps(to_document(model))
    out = from_document(json.loads(text))
    assert json.dumps(to_document(out)) == text
    return out


def sample_pairs(seed=0, n=300, d=3):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    Y = 0.8 * X + 0.1 * rng.normal(size=(n, d))
    return X, Y


class TestArrayCodec:
    @pytest.mark.parametrize("value", [
        np.array([[1.0 / 3.0, 1e-300], [2.0**-52, 1.0 + 2.0**-52]]),
        np.arange(6, dtype=np.int64).reshape(2, 3),
        np.array([True, False, True]),
        np.array([], dtype=np.float64),
    ])
    def test_bit_exact_round_trip(self, value):
        out = decode_array(json.loads(json.dumps(encode_array(value))))
        assert out.dtype == value.dtype
        assert out.shape == value.shape
        np.testing.assert_array_equal(out, value)

    def test_complex_arrays_round_trip(self):
        for dtype in (np.complex128, np.complex64):
            value = np.empty((2, 4), dtype=dtype)
            value.real = [[1.0, 0.0, -0.0, 1.0 / 3.0], [3.0, -np.inf, np.inf, -0.0]]
            value.imag = [[2.0, -0.5, -0.0, 0.0], [-np.inf, np.inf, -0.0, -0.0]]
            out = decode_array(json.loads(json.dumps(encode_array(value))))
            assert out.dtype == value.dtype
            assert out.shape == value.shape
            parts, expected = out.view(out.real.dtype), value.view(value.real.dtype)
            np.testing.assert_array_equal(parts, expected)
            # Equality alone would accept +0.0 for -0.0.
            np.testing.assert_array_equal(np.signbit(parts), np.signbit(expected))

    def test_non_finite_values_survive(self):
        value = np.array([np.inf, -np.inf, np.nan, 0.0])
        out = decode_array(json.loads(json.dumps(encode_array(value))))
        np.testing.assert_array_equal(np.isnan(out), np.isnan(value))
        np.testing.assert_array_equal(out[~np.isnan(out)], value[~np.isnan(value)])

    def test_unsupported_dtypes_are_rejected(self):
        with pytest.raises(InvalidArgument):
            encode_array(np.array(["a", "b"]))


class TestModelRoundTrips:
    def test_covariance_model(self):
        X, Y = sample_pairs()
        cov = covariances_from_pairs(X, Y)
        out = roundtrip(cov)
        np.testing.assert_array_equal(out.c00, cov.c00)
        np.testing.assert_array_equal(out.c0t, cov.c0t)
        np.testing.assert_array_equal(out.ctt, cov.ctt)
        np.testing.assert_array_equal(out.mean_0, cov.mean_0)
        np.testing.assert_array_equal(out.mean_t, cov.mean_t)
        assert out.n_pairs == cov.n_pairs
        assert out.lag == cov.lag
        assert out.symmetrized == cov.symmetrized
        assert out.mean_removed == cov.mean_removed

    def test_transfer_operator_model(self):
        X, Y = sample_pairs(seed=1)
        model = edmd_fit(X, Y, MonomialFeatures(3, 2))
        out = roundtrip(model)
        np.testing.assert_array_equal(out.K, model.K)
        assert out.method == model.method
        probe = np.random.default_rng(2).normal(size=(10, 3))
        np.testing.assert_array_equal(out.propagate(probe), model.propagate(probe))
        np.testing.assert_array_equal(out.project(probe, 2), model.project(probe, 2))

    def test_kernel_transfer_operator_model(self):
        X, Y = sample_pairs(seed=3, n=80, d=2)
        model = kernel_edmd_fit(X, Y, GaussianKernel(1.0), epsilon=1e-6, n_components=3)
        out = roundtrip(model)
        probe = np.random.default_rng(4).normal(size=(7, 2))
        np.testing.assert_array_equal(out.propagate(probe), model.propagate(probe))

    def test_covariance_koopman_model(self):
        X, Y = sample_pairs(seed=5)
        model = vamp_fit(covariances_from_pairs(X, Y))
        out = roundtrip(model)
        np.testing.assert_array_equal(out.U, model.U)
        np.testing.assert_array_equal(out.V, model.V)
        np.testing.assert_array_equal(out.sigma, model.sigma)
        assert out.method == model.method
        np.testing.assert_array_equal(out.covariances.c0t, model.covariances.c0t)

    def test_koopman_model_with_feature_maps(self):
        chain = np.random.default_rng(6).integers(0, 3, size=500)
        counts = count_transitions(chain, lag=1)
        msm = msm_mle(counts)
        from lagtime.markov import msm_to_koopman

        model = msm_to_koopman(msm)
        out = roundtrip(model)
        probe = np.array([[0], [1], [2]])
        np.testing.assert_array_equal(
            out.project(probe, 2), model.project(probe, 2)
        )

    def test_kvad_model(self):
        X, Y = sample_pairs(seed=7, n=120, d=2)
        model = kvad_fit(X, Y, MonomialFeatures(2, 2), GaussianKernel(0.8))
        out = roundtrip(model)
        np.testing.assert_array_equal(out.K, model.K)
        assert out.q_weights.dtype == model.q_weights.dtype
        assert out.q_weights.shape == model.q_weights.shape
        assert out.q_weights.tobytes() == model.q_weights.tobytes()
        np.testing.assert_array_equal(out.singular_values, model.singular_values)
        assert out.score == model.score
        assert out.kernel.sigma == model.kernel.sigma
        probe = np.random.default_rng(8).normal(size=(9, 2))
        np.testing.assert_array_equal(out.project(probe, 2), model.project(probe, 2))

    def test_transition_count_model(self):
        chain = np.random.default_rng(9).integers(0, 4, size=300)
        counts = count_transitions(chain, lag=2, counting_mode="strided")
        out = roundtrip(counts)
        np.testing.assert_array_equal(out.count_matrix, counts.count_matrix)
        np.testing.assert_array_equal(out.state_symbols, counts.state_symbols)
        assert out.lag == 2
        assert out.counting_mode == "strided"

    def test_markov_state_model_with_nested_counts(self):
        chain = np.random.default_rng(10).integers(0, 3, size=400)
        counts = count_transitions(chain, lag=1)
        msm = msm_mle(counts, reversible=True)
        out = roundtrip(msm)
        np.testing.assert_array_equal(out.transition_matrix, msm.transition_matrix)
        assert out.reversible
        assert out.lag == msm.lag
        np.testing.assert_array_equal(
            out.count_model.count_matrix, counts.count_matrix
        )

    def test_hidden_markov_model_discrete(self):
        hmm = HiddenMarkovModel(
            transition_model=MarkovStateModel(np.array([[0.9, 0.1], [0.3, 0.7]])),
            output_model=DiscreteOutputModel(np.array([[0.6, 0.4], [0.1, 0.9]])),
            initial_distribution=np.array([0.25, 0.75]),
        )
        out = roundtrip(hmm)
        np.testing.assert_array_equal(
            out.transition_model.transition_matrix,
            hmm.transition_model.transition_matrix,
        )
        np.testing.assert_array_equal(
            out.output_model.emission_matrix, hmm.output_model.emission_matrix
        )
        np.testing.assert_array_equal(
            out.initial_distribution, hmm.initial_distribution
        )

    def test_hidden_markov_model_gaussian(self):
        hmm = HiddenMarkovModel(
            transition_model=MarkovStateModel(np.array([[0.8, 0.2], [0.2, 0.8]])),
            output_model=GaussianOutputModel(means=[-1.0, 2.0], stds=[0.5, 1.5]),
            initial_distribution=np.array([0.5, 0.5]),
        )
        out = roundtrip(hmm)
        np.testing.assert_array_equal(out.output_model.means, hmm.output_model.means)
        np.testing.assert_array_equal(out.output_model.stds, hmm.output_model.stds)

    def test_clustering_model(self):
        X = np.random.default_rng(11).normal(size=(100, 2))
        model = kmeans_fit(X, 4, seed=0)
        out = roundtrip(model)
        np.testing.assert_array_equal(out.centers, model.centers)
        assert out.inertia == model.inertia
        assert out.n_iterations == model.n_iterations
        assert out.converged == model.converged
        np.testing.assert_array_equal(out.assign(X), model.assign(X))

    def test_sindy_model(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(200, 2))
        A = np.array([[-0.3, 1.0], [-1.0, -0.3]])
        model = sindy_fit(
            X, library=MonomialFeatures(2, 2), derivatives=X @ A.T,
            threshold=0.05, variable_names=["u", "v"],
        )
        out = roundtrip(model)
        np.testing.assert_array_equal(out.xi, model.xi)
        np.testing.assert_array_equal(
            out.emptied_dimensions, model.emptied_dimensions
        )
        assert out.discrete_time == model.discrete_time
        assert list(out.variable_names) == ["u", "v"]
        assert out.equations() == model.equations()

    def test_documents_carry_format_header(self):
        X, Y = sample_pairs(seed=13)
        doc = to_document(covariances_from_pairs(X, Y))
        assert doc["format"] == FORMAT_NAME
        assert doc["format_version"] == FORMAT_VERSION
        assert doc["type"] == "covariance_model"

    def test_unsupported_objects_are_rejected(self):
        with pytest.raises(InvalidArgument):
            to_document(object())


class TestDocumentLayout:
    """The literal text of small documents, so a renamed key, a reordered
    field or a changed number format in the version-1 layout fails."""

    def test_markov_state_model_with_counts(self):
        counts = TransitionCountModel(count_matrix=np.array([[3, 1], [2, 4]]), lag=2,
                                      state_symbols=np.array([0, 5]))
        msm = MarkovStateModel(np.array([[0.75, 0.25], [0.5, 0.5]]), lag=2,
                               count_model=counts)
        expected = (
            '{"format": "lagtime", "format_version": 1, "type": "markov_state_model", '
            '"payload": {"transition_matrix": {"dtype": "float64", "shape": [2, 2], '
            '"data": [0.75, 0.25, 0.5, 0.5]}, "lag": 2, "reversible": false, '
            '"count_model": {"count_matrix": {"dtype": "int64", "shape": [2, 2], '
            '"data": [3, 1, 2, 4]}, "lag": 2, "counting_mode": "sliding", '
            '"state_symbols": {"dtype": "int64", "shape": [2], "data": [0, 5]}}, '
            '"stationary_distribution": null}}'
        )
        assert json.dumps(to_document(msm)) == expected
        assert json.dumps(to_document(from_document(json.loads(expected)))) == expected

    def test_gaussian_hidden_markov_model(self):
        hmm = HiddenMarkovModel(
            transition_model=MarkovStateModel(np.array([[0.8, 0.2], [0.1, 0.9]]),
                                              reversible=True),
            output_model=GaussianOutputModel(means=[-1.0, 2.0], stds=[0.5, 1.5]),
            initial_distribution=np.array([0.25, 0.75]),
        )
        expected = (
            '{"format": "lagtime", "format_version": 1, "type": "hidden_markov_model", '
            '"payload": {"transition_model": {"transition_matrix": {"dtype": "float64", '
            '"shape": [2, 2], "data": [0.8, 0.2, 0.1, 0.9]}, "lag": 1, "reversible": true, '
            '"count_model": null, "stationary_distribution": null}, '
            '"output_model": {"kind": "gaussian", "means": '
            '{"dtype": "float64", "shape": [2], "data": [-1.0, 2.0]}, "stds": '
            '{"dtype": "float64", "shape": [2], "data": [0.5, 1.5]}}, '
            '"initial_distribution": {"dtype": "float64", "shape": [2], "data": [0.25, 0.75]}}}'
        )
        assert json.dumps(to_document(hmm)) == expected
        assert json.dumps(to_document(from_document(json.loads(expected)))) == expected


class TestMarkovStateModelDocuments:
    """A saved MSM keeps the stationary distribution its estimator fitted."""

    def test_reducible_fit_reloads_its_fitted_distribution(self):
        # Two closed classes of the count graph: the fit's pi is (0, 0, 1),
        # and P alone does not determine one.
        counts = TransitionCountModel(np.array([[4, 14, 0], [2, 26, 3], [0, 0, 16]]), 1)
        msm = msm_mle(counts, reversible=True)
        out = roundtrip(msm)
        assert out.stationary_distribution.tobytes() == msm.stationary_distribution.tobytes()
        np.testing.assert_array_equal(out.stationary_distribution, [0.0, 0.0, 1.0])

    def test_connected_fits_reload_the_bytes_of_their_distribution(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            counts = rng.integers(1, 30, size=(6, 6))
            msm = msm_mle(TransitionCountModel(counts + counts.T, 1), reversible=True)
            out = from_document(json.loads(json.dumps(to_document(msm))))
            fitted = msm.stationary_distribution
            assert out.stationary_distribution.tobytes() == fitted.tobytes()

    def test_same_document_whether_or_not_the_distribution_was_read(self):
        chain = np.random.default_rng(10).integers(0, 3, size=400)
        for reversible in (False, True):
            msm = msm_mle(count_transitions(chain, lag=1), reversible=reversible)
            before = json.dumps(to_document(msm))
            msm.stationary_distribution
            assert json.dumps(to_document(msm)) == before
            stored = json.loads(before)["payload"]["stationary_distribution"]
            assert (stored is not None) == reversible

    def test_document_without_the_distribution_computes_it(self):
        # Documents written before the key existed load, and compute pi from P.
        P = np.array([[0.9, 0.1], [0.2, 0.8]])
        doc = to_document(MarkovStateModel(P))
        del doc["payload"]["stationary_distribution"]
        out = from_document(doc)
        np.testing.assert_allclose(out.stationary_distribution, [2 / 3, 1 / 3], atol=1e-12)


class TestOperatorModelDocuments:
    """A DMD or EDMD model holds its eigenpairs from the start, so its
    document does not depend on what was called on it before saving."""

    @pytest.mark.parametrize("fit", [
        dmd_fit,
        lambda X, Y: edmd_fit(X, Y, MonomialFeatures(3, 2)),
    ], ids=["dmd", "edmd"])
    def test_same_document_before_and_after_project(self, fit):
        X, Y = sample_pairs(seed=18)
        model = fit(X, Y)
        before = json.dumps(to_document(model))
        model.project(X, 2)
        assert json.dumps(to_document(model)) == before
        assert json.loads(before)["payload"]["projection_matrix"] is not None

    def test_document_with_null_eigenpairs_loads_and_projects_alike(self):
        # Documents saved before any projection once held null eigenpairs.
        X, Y = sample_pairs(seed=19)
        model = edmd_fit(X, Y, MonomialFeatures(3, 2))
        doc = to_document(model)
        doc["payload"]["eigenvalues"] = doc["payload"]["projection_matrix"] = None
        out = from_document(json.loads(json.dumps(doc)))
        assert out.project(X, 3).tobytes() == model.project(X, 3).tobytes()
        assert to_document(out) == to_document(model)


@functools.cache
def jet_models():
    """Strip pairs and the models the jet experiment builds from them: VAMP on
    its cylinder-and-random-net features, and kernel CCA with centered
    sections. The pairs are a drift plus noise, not the flow, so that neither
    integrator backend enters the documents' bytes."""
    rng = np.random.default_rng(17)
    x0 = rng.uniform([0.0, -4.0], [20.0, 4.0], size=(120, 2))
    x1 = x0 + [0.5, 0.0] + 0.1 * rng.standard_normal(x0.shape)
    feat = CylinderEmbedding().then(RandomFeatureNet(3, seed=2))
    cov = covariances_from_pairs(feat(x0), feat(x1), remove_mean=True)
    return x0, {
        "jet_vamp": vamp_fit(cov, n_components=4, chi0=feat, chi1=feat),
        "kernel_cca": kernel_cca_fit(x0, x1, GaussianKernel(0.58), n_components=3,
                                     epsilon=5.6e-3),
    }


class TestJetModelDocuments:
    @pytest.mark.parametrize("name, sha256", [
        ("jet_vamp", "423c3042e5cf7c9c99d45501e01c4c5270d19f464ee1d827a04985e41b974528"),
        ("kernel_cca", "b43c1a5ace1b159aa593f32f0f4299d54fdec7535898a7fbcdc2ad7cc02506d6"),
    ])
    def test_document_bytes_and_loaded_projection(self, name, sha256):
        x0, models = jet_models()
        text = json.dumps(to_document(models[name]))
        assert hashlib.sha256(text.encode()).hexdigest() == sha256
        out = from_document(json.loads(text))
        assert out.project(x0, 3).tobytes() == models[name].project(x0, 3).tobytes()

    # A document holding a value this version no longer builds must not load
    # as a different model.
    @pytest.mark.parametrize("name, path, value, named", [
        ("jet_vamp", ("chi0", "first", "period"), 15.0, "period"),
        ("jet_vamp", ("chi1", "first", "y_scale"), 1.0, "y_scale"),
        ("jet_vamp", ("chi0", "second", "n_hidden"), 10, "n_hidden"),
        ("jet_vamp", ("chi1", "second", "n_out"), 5, "n_out"),
        ("kernel_cca", ("f", "second", "offset"), encode_array(np.zeros(3)), "offset"),
        ("kernel_cca", ("g", "first", "kernel"),
         {"kind": "polynomial", "degree": 2, "constant": 1.0}, "polynomial"),
    ])
    def test_unbuildable_values_are_rejected(self, name, path, value, named):
        doc = to_document(jet_models()[1][name])
        *parents, key = path
        node = doc["payload"]
        for parent in parents:
            node = node[parent]
        node[key] = value
        with pytest.raises(InvalidArgument, match=named):
            from_document(doc)


# One document for each feature-map kind that the jet documents above do not
# hold, each a one-row SINDy model around the map, recorded from the
# version-1 layout.
FEATURE_MAP_DOCUMENTS = [
    ("identity", IdentityFeatures(2),
        '{"format": "lagtime", "format_version": 1, "type": "sindy_model", '
        '"payload": {"xi": {"dtype": "float64", "shape": [1, 2], "data": [1.0, 1.0]}, '
        '"library": {"kind": "identity", "dim": 2}, "discrete_time": false, '
        '"emptied_dimensions": {"dtype": "bool", "shape": [1], "data": [false]}, '
        '"variable_names": null}}'),
    ("monomial", MonomialFeatures(1, 2),
        '{"format": "lagtime", "format_version": 1, "type": "sindy_model", '
        '"payload": {"xi": {"dtype": "float64", "shape": [1, 3], "data": [1.0, 1.0, '
        '1.0]}, "library": {"kind": "monomial", "dim": 1, "max_degree": 2}, '
        '"discrete_time": false, "emptied_dimensions": {"dtype": "bool", "shape": [1], '
        '"data": [false]}, "variable_names": null}}'),
    ("indicator", IndicatorFeatures(2),
        '{"format": "lagtime", "format_version": 1, "type": "sindy_model", '
        '"payload": {"xi": {"dtype": "float64", "shape": [1, 2], "data": [1.0, 1.0]}, '
        '"library": {"kind": "indicator", "n_states": 2}, "discrete_time": false, '
        '"emptied_dimensions": {"dtype": "bool", "shape": [1], "data": [false]}, '
        '"variable_names": null}}'),
    ("whitener", Whitener(WhiteningTransform(transform=np.diag([2.0, 0.5]),
                                             mean=np.array([1.0, -1.0]), rank=2)),
        '{"format": "lagtime", "format_version": 1, "type": "sindy_model", '
        '"payload": {"xi": {"dtype": "float64", "shape": [1, 2], "data": [1.0, 1.0]}, '
        '"library": {"kind": "whitener", "transform": {"dtype": "float64", '
        '"shape": [2, 2], "data": [2.0, 0.0, 0.0, 0.5]}, "mean": {"dtype": "float64", '
        '"shape": [2], "data": [1.0, -1.0]}, "rank": 2}, "discrete_time": false, '
        '"emptied_dimensions": {"dtype": "bool", "shape": [1], "data": [false]}, '
        '"variable_names": null}}'),
    ("with_constant", WithConstant(IdentityFeatures(1)),
        '{"format": "lagtime", "format_version": 1, "type": "sindy_model", '
        '"payload": {"xi": {"dtype": "float64", "shape": [1, 2], "data": [1.0, 1.0]}, '
        '"library": {"kind": "with_constant", "inner": {"kind": "identity", '
        '"dim": 1}}, "discrete_time": false, "emptied_dimensions": {"dtype": "bool", '
        '"shape": [1], "data": [false]}, "variable_names": null}}'),
    ("kernel_sections", KernelSectionFeatures(GaussianKernel(0.5), np.array([[0.0], [1.5]])),
        '{"format": "lagtime", "format_version": 1, "type": "sindy_model", '
        '"payload": {"xi": {"dtype": "float64", "shape": [1, 2], "data": [1.0, 1.0]}, '
        '"library": {"kind": "kernel_sections", "kernel": {"kind": "gaussian", '
        '"sigma": 0.5}, "points": {"dtype": "float64", "shape": [2, 1], "data": [0.0, '
        '1.5]}, "centered": false}, "discrete_time": false, '
        '"emptied_dimensions": {"dtype": "bool", "shape": [1], "data": [false]}, '
        '"variable_names": null}}'),
]


class TestFeatureMapDocuments:
    @pytest.mark.parametrize("kind, feature_map, expected", FEATURE_MAP_DOCUMENTS)
    def test_layout(self, kind, feature_map, expected):
        model = SINDyModel(xi=np.ones((1, feature_map.dimension_out)), library=feature_map)
        assert json.dumps(to_document(model)) == expected
        out = from_document(json.loads(expected))
        assert json.dumps(to_document(out)) == expected
        probe = np.linspace(0.0, 1.0, 3 * feature_map.dimension_in).reshape(3, -1)
        assert out.library(probe).tobytes() == feature_map(probe).tobytes()

    def test_every_feature_map_class_has_a_row(self):
        # The FeatureMap subclasses defined in the package's source, so that
        # a new map without a row in the feature-map table fails here.
        bases = {}
        for path in Path(lagtime.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    bases[node.name] = {ast.unparse(base).split(".")[-1] for base in node.bases}
        maps = {"FeatureMap"}
        while more := {name for name, of in bases.items() if of & maps} - maps:
            maps |= more
        assert maps - {"FeatureMap"} == {row[0].__name__ for row in _FEATURES.values()}


class TestDocumentValidation:
    def good_doc(self):
        X, Y = sample_pairs(seed=14)
        return to_document(covariances_from_pairs(X, Y))

    def test_rejects_wrong_format_name(self):
        doc = self.good_doc()
        doc["format"] = "something-else"
        with pytest.raises(InvalidArgument):
            from_document(doc)

    def test_rejects_bad_versions(self):
        for version in (0, FORMAT_VERSION + 1, "1", None):
            doc = self.good_doc()
            doc["format_version"] = version
            with pytest.raises(InvalidArgument):
                from_document(doc)

    def test_rejects_unknown_type(self):
        doc = self.good_doc()
        doc["type"] = "mystery_model"
        with pytest.raises(InvalidArgument):
            from_document(doc)

    def test_rejects_non_documents(self):
        with pytest.raises(InvalidArgument):
            from_document([1, 2, 3])

    def test_missing_keys_are_named(self):
        msm = MarkovStateModel(np.array([[0.75, 0.25], [0.5, 0.5]]),
                               count_model=count_transitions(np.array([0, 1, 1, 0]), 1))
        for path, message in [
            (("payload",), "^document has no 'payload'"),
            (("payload", "transition_matrix"),
             "^MarkovStateModel payload has no 'transition_matrix'"),
            (("payload", "transition_matrix", "data"), "^transition_matrix: array has no 'data'"),
            (("payload", "count_model", "lag"),
             "^count_model: TransitionCountModel payload has no 'lag'"),
        ]:
            doc = to_document(msm)
            *parents, key = path
            node = doc
            for parent in parents:
                node = node[parent]
            del node[key]
            with pytest.raises(InvalidArgument, match=message):
                from_document(doc)

    def test_arrays_that_do_not_fill_their_shape_are_named(self):
        doc = to_document(kmeans_fit(np.arange(10.0)[:, None], 2, seed=0))
        doc["payload"]["centers"] = {"dtype": "float64", "shape": [2], "data": [1.0]}
        with pytest.raises(InvalidArgument, match="^centers: array data has 1 entries"):
            from_document(doc)

    def test_custom_kernel_cannot_be_serialized(self):
        class MyKernel(Kernel):
            def _pairwise_into(self, A, B, out):
                np.matmul(A, B.T, out=out)

        X, Y = sample_pairs(seed=15, n=50, d=2)
        model = kernel_edmd_fit(X, Y, MyKernel(), epsilon=1e-6, n_components=3)
        with pytest.raises(InvalidArgument):
            to_document(model)


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path):
        chain = np.random.default_rng(16).integers(0, 3, size=300)
        msm = msm_mle(count_transitions(chain, lag=1))
        path = tmp_path / "model.json"
        save_model(msm, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(
            loaded.transition_matrix, msm.transition_matrix
        )
        # The file itself is plain JSON with the format header.
        raw = json.loads(path.read_text())
        assert raw["format"] == FORMAT_NAME
