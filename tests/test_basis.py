from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagtime import basis
from lagtime.basis import (
    ChainedFeatures,
    CylinderEmbedding,
    IdentityFeatures,
    IndicatorFeatures,
    LinearFeatures,
    MonomialFeatures,
    RandomFeatureNet,
    Whitener,
    WithConstant,
    indicator_features,
)
from lagtime.errors import InvalidArgument


class TestIdentity:
    def test_passthrough(self):
        X = np.arange(6.0).reshape(3, 2)
        f = IdentityFeatures(2)
        np.testing.assert_array_equal(f(X), X)
        assert f.dimension_in == 2 and f.dimension_out == 2

    def test_dimension_check(self):
        f = IdentityFeatures(2)
        with pytest.raises(InvalidArgument):
            f(np.zeros((3, 3)))

    def test_scalar_and_three_d_input_are_rejected(self):
        with pytest.raises(InvalidArgument, match="ndim 0"):
            IdentityFeatures(1)(3.0)
        with pytest.raises(InvalidArgument, match="ndim 3"):
            IdentityFeatures(2)(np.zeros((4, 2, 3)))


class TestMonomials:
    def test_degree_two_ordering(self):
        f = MonomialFeatures(2, 2)
        X = np.array([[2.0, 3.0]])
        # 1, x0, x1, x0^2, x0*x1, x1^2
        np.testing.assert_allclose(f(X), [[1.0, 2.0, 3.0, 4.0, 6.0, 9.0]])
        assert f.dimension_out == 6

    def test_feature_names(self):
        f = MonomialFeatures(2, 2)
        names = f.feature_names(["x", "y"])
        assert names == ["1", "x", "y", "x^2", "x y", "y^2"]

    def test_degree_zero_is_constant(self):
        f = MonomialFeatures(3, 0)
        np.testing.assert_array_equal(f(np.zeros((4, 3))), np.ones((4, 1)))

    def test_counts_match_binomial(self):
        # number of monomials of degree <= d in k variables: C(k+d, d)
        from math import comb

        for dim, deg in [(1, 4), (2, 3), (3, 2), (4, 1)]:
            assert MonomialFeatures(dim, deg).dimension_out == comb(dim + deg, deg)

    def test_invalid_degree(self):
        with pytest.raises(InvalidArgument):
            MonomialFeatures(2, -1)

    @pytest.mark.parametrize("dim, degree", [(3, 2), (2, 5)])
    def test_columns_are_products_of_powers_made_by_multiplication(self, dim, degree):
        # Each column is the product, in variable order, of its variables'
        # powers x^e = x^(e-1) * x: for exponents up to 2 the explicit
        # products, and past 2 within 5e-16 of libm's pow.
        f = MonomialFeatures(dim, degree)
        X = np.random.default_rng(dim + degree).uniform(-2.0, 2.0, (3000, dim))
        F = f(X)
        for column, exps in zip(F.T, f._exponents):
            factors = [reduce(np.multiply, [X[:, var]] * e) for var, e in enumerate(exps) if e]
            assert column.tobytes() == reduce(np.multiply, factors, np.ones(len(X))).tobytes()
            if exps.max() > 2:
                pow_product = reduce(np.multiply, [X[:, var] ** e for var, e in enumerate(exps)])
                np.testing.assert_allclose(column, pow_product, rtol=5e-16, atol=0)

    def test_rows_do_not_depend_on_their_block(self):
        block = basis._BLOCK_ROWS
        X = np.random.default_rng(1).uniform(-2.0, 2.0, (2 * block + 7, 2))
        for f in (MonomialFeatures(2, 5), MonomialFeatures(2, 2)):
            F = f(X)
            for a, b in [(block - 3, block + 5), (1, 2 * block + 2), (block, 2 * block + 7),
                         (block + 1, 2 * block - 1)]:
                assert F[a:b].tobytes() == f(X[a:b]).tobytes(), (a, b)
            for n in (0, 1, block - 1, block, block + 1):
                assert f(X[:n]).shape == (n, f.dimension_out)
                assert F[:n].tobytes() == f(X[:n]).tobytes(), n


class TestIndicator:
    def test_one_hot(self):
        F = indicator_features(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(
            F, [[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]]
        )

    def test_out_of_range(self):
        with pytest.raises(InvalidArgument):
            indicator_features(np.array([0, 3]), 3)

    def test_feature_map_matches_function(self):
        f = IndicatorFeatures(4)
        a = np.array([1, 3, 0, 2])
        np.testing.assert_array_equal(f(a[:, None]), indicator_features(a, 4))


class TestRandomFeatureNet:
    def test_shapes_and_determinism(self):
        f = RandomFeatureNet(3, seed=11)
        g = RandomFeatureNet(3, seed=11)
        X = np.random.default_rng(0).standard_normal((7, 3))
        assert f.W1.shape == (100, 3) and f.W2.shape == (50, 100)
        assert f(X).shape == (7, 50)
        np.testing.assert_array_equal(f(X), g(X))

    def test_seed_changes_output(self):
        X = np.random.default_rng(0).standard_normal((4, 3))
        a = RandomFeatureNet(3, seed=0)(X)
        b = RandomFeatureNet(3, seed=1)(X)
        assert not np.array_equal(a, b)

    def test_seed_is_an_integer(self):
        # The seed is stored with the weights it drew, so it has to be one.
        with pytest.raises(InvalidArgument, match=r"^seed must be an integer, got None$"):
            RandomFeatureNet(2, seed=None)
        assert RandomFeatureNet(2, seed=np.int64(5)).seed == 5

    def test_matches_manual_forward_pass(self):
        f = RandomFeatureNet(2, seed=5)
        X = np.array([[0.5, -1.0], [2.0, 0.0]])
        hidden = np.exp(-((X @ f.W1.T + f.b1) ** 2))
        expected = hidden @ f.W2.T + f.b2
        np.testing.assert_allclose(f(X), expected, atol=1e-14)

    def test_bounded_weights(self):
        f = RandomFeatureNet(3, seed=2)
        assert np.all(np.abs(f.b1) <= 1.0) and np.all(np.abs(f.b2) <= 1.0)


class TestCylinderEmbedding:
    def test_periodicity(self):
        f = CylinderEmbedding()
        a = f(np.array([[0.0, 1.5]]))
        b = f(np.array([[20.0, 1.5]]))
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_values(self):
        f = CylinderEmbedding()
        out = f(np.array([[5.0, 3.0]]))  # quarter turn
        np.testing.assert_allclose(out, [[0.0, 1.0, 1.0]], atol=1e-12)

    def test_unit_circle(self):
        f = CylinderEmbedding()
        X = np.random.default_rng(1).uniform(0, 20, (50, 2))
        out = f(X)
        np.testing.assert_allclose(out[:, 0] ** 2 + out[:, 1] ** 2, 1.0, atol=1e-12)


class TestWhitener:
    def test_whitens_empirical_covariance(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((2000, 3)) @ np.diag([3.0, 1.0, 0.2]) + [1.0, -2.0, 0.0]
        w = Whitener.from_data(X)
        Z = w(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.T @ Z / (len(Z) - 1), np.eye(3), atol=1e-10)


class TestLinearAndComposition:
    def test_linear_features(self):
        W = np.array([[1.0, 0.0], [1.0, 1.0]])
        f = LinearFeatures(W)
        X = np.array([[2.0, 3.0]])
        np.testing.assert_allclose(f(X), X @ W)

    def test_with_constant(self):
        f = WithConstant(IdentityFeatures(2))
        X = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(f(X), [[1.0, 3.0, 4.0]])
        assert f.dimension_out == 3

    def test_chained(self):
        inner = LinearFeatures(np.array([[2.0]]))
        outer = WithConstant(IdentityFeatures(1))
        chained = ChainedFeatures(inner, outer)
        np.testing.assert_allclose(chained(np.array([[3.0]])), [[1.0, 6.0]])

    def test_then_builds_chain(self):
        f = IdentityFeatures(2).then(MonomialFeatures(2, 1))
        X = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(f(X), [[1.0, 1.0, 2.0]])

    def test_chain_dimension_mismatch(self):
        with pytest.raises(InvalidArgument):
            ChainedFeatures(IdentityFeatures(2), IdentityFeatures(3))

    @pytest.mark.parametrize("second", ["linear", "nonlinear"])
    def test_chain_times_a_matrix_keeps_the_bytes_of_the_chain(self, second):
        # A linear second map folds into the first map's product; any other
        # is evaluated whole.
        rng = np.random.default_rng(3)
        last = (LinearFeatures(rng.standard_normal((3, 4))) if second == "linear"
                else RandomFeatureNet(3, seed=1))
        f = CylinderEmbedding().then(last)
        X, W = rng.uniform(size=(40, 2)), rng.standard_normal((f.dimension_out, 2))
        np.testing.assert_array_equal(f._times(X, W), f(X) @ W)
        with pytest.raises(InvalidArgument):
            f._times(np.ones((4, 3)), W)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 500), deg=st.integers(0, 3))
def test_monomials_multiplicative_property(seed, deg):
    rng = np.random.default_rng(seed)
    f = MonomialFeatures(2, deg)
    X = rng.uniform(-2, 2, (5, 2))
    F = f(X)
    assert F.shape == (5, f.dimension_out)
    np.testing.assert_allclose(F[:, 0], 1.0)
    if deg >= 1:
        np.testing.assert_allclose(F[:, 1], X[:, 0])
        np.testing.assert_allclose(F[:, 2], X[:, 1])
