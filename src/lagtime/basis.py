"""Feature maps (basis functions) that lift observations before estimation.

A feature map turns a data matrix with rows as frames into a feature matrix
with the same number of rows. All maps are deterministic; the random feature
net draws its weights once from a seeded generator at construction time.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import InvalidArgument
from .numerics import WhiteningTransform, _as_frames, _rng, sym_inverse_sqrt

__all__ = [
    "FeatureMap",
    "IdentityFeatures",
    "MonomialFeatures",
    "IndicatorFeatures",
    "RandomFeatureNet",
    "CylinderEmbedding",
    "Whitener",
    "LinearFeatures",
    "WithConstant",
    "ChainedFeatures",
    "indicator_features",
]


class FeatureMap:
    """Base class: a map from (n, dimension_in) to (n, dimension_out) arrays."""

    dimension_in: int
    dimension_out: int

    def __call__(self, X: NDArray) -> NDArray:
        return self._evaluate(self._checked(X))

    def _checked(self, X: NDArray) -> NDArray:
        """``X`` as frames (:func:`~lagtime.numerics._as_frames`) of this map's input width."""
        X = _as_frames(X)
        if X.shape[1] != self.dimension_in:
            raise InvalidArgument(
                f"{type(self).__name__} expects {self.dimension_in} columns, got {X.shape[1]}"
            )
        return X

    def _evaluate(self, X: NDArray) -> NDArray:
        raise NotImplementedError

    def _times(self, X: NDArray, W: NDArray) -> NDArray:
        """``self(X) @ W``; a map that can form the product without its whole
        feature matrix, with the same bytes, overrides this."""
        return self(X) @ W

    def _times_after(self, first: "FeatureMap", X: NDArray, W: NDArray) -> NDArray:
        """``self(first(X)) @ W``, for :class:`ChainedFeatures`; a linear map
        overrides this to fold itself into ``first``'s product."""
        return self(first(X)) @ W

    def feature_names(self, variables: Optional[Sequence[str]] = None) -> list[str]:
        """Human-readable names of the output features: ``f0, f1, ...``
        unless the map names its own, as the monomial library does."""
        return [f"f{i}" for i in range(self.dimension_out)]

    def then(self, other: "FeatureMap") -> "FeatureMap":
        """Composition: apply ``self`` first, then ``other``."""
        return ChainedFeatures(self, other)


class IdentityFeatures(FeatureMap):
    """The observations themselves."""

    def __init__(self, dim: int):
        if dim <= 0:
            raise InvalidArgument(f"dim must be positive, got {dim}")
        self.dimension_in = dim
        self.dimension_out = dim

    def _evaluate(self, X):
        return np.array(X, dtype=np.float64)


class MonomialFeatures(FeatureMap):
    """All monomials up to a total degree, including the constant.

    Features are ordered by total degree first, then within a degree so that
    pure powers of earlier variables come first (for two variables and degree
    two: ``1, x0, x1, x0^2, x0 x1, x1^2``).
    """

    def __init__(self, dim: int, max_degree: int):
        if dim <= 0 or max_degree < 0:
            raise InvalidArgument("dim must be positive and max_degree non-negative")
        self.dimension_in = dim
        self.max_degree = int(max_degree)
        self._exponents = []
        for degree in range(max_degree + 1):
            for combo in combinations_with_replacement(range(dim), degree):
                exps = np.zeros(dim, dtype=np.int64)
                for var in combo:
                    exps[var] += 1
                self._exponents.append(exps)
        self._exponents = np.array(self._exponents)
        self.dimension_out = len(self._exponents)

    def _evaluate(self, X):
        n = X.shape[0]
        out = np.ones((n, self.dimension_out))
        for j, exps in enumerate(self._exponents):
            for var, e in enumerate(exps):
                if e:
                    out[:, j] *= X[:, var] ** e
        return out

    def feature_names(self, variables=None):
        if variables is None:
            variables = [f"x{i}" for i in range(self.dimension_in)]
        names = []
        for exps in self._exponents:
            parts = []
            for var, e in enumerate(exps):
                if e == 1:
                    parts.append(variables[var])
                elif e > 1:
                    parts.append(f"{variables[var]}^{e}")
            names.append(" ".join(parts) if parts else "1")
        return names


class IndicatorFeatures(FeatureMap):
    """One-hot encoding of an integer state signal.

    Input is a column of state indices (floats are rounded); output column j
    is the indicator of state j.
    """

    def __init__(self, n_states: int):
        if n_states <= 0:
            raise InvalidArgument(f"n_states must be positive, got {n_states}")
        self.dimension_in = 1
        self.dimension_out = int(n_states)

    def _evaluate(self, X):
        states = np.rint(X[:, 0]).astype(np.int64)
        return indicator_features(states, self.dimension_out)


def indicator_features(assignments: NDArray, n_states: int) -> NDArray:
    """One-hot matrix from integer assignments; rows = frames, columns = states.

    Raises
    ------
    InvalidArgument
        If any assignment lies outside ``0..n_states-1``.
    """
    assignments = np.asarray(assignments, dtype=np.int64).ravel()
    if n_states <= 0:
        raise InvalidArgument(f"n_states must be positive, got {n_states}")
    if assignments.size and (assignments.min() < 0 or assignments.max() >= n_states):
        raise InvalidArgument(
            f"assignments must lie in 0..{n_states - 1}, "
            f"got range {assignments.min()}..{assignments.max()}"
        )
    out = np.zeros((assignments.size, n_states))
    out[np.arange(assignments.size), assignments] = 1.0
    return out


class RandomFeatureNet(FeatureMap):
    """Fixed random two-layer feature map with Gaussian-bump activations.

    ``F(x) = W2 @ act(W1 @ x + b1) + b2`` applied row-wise, with
    ``act(u) = exp(-u^2)`` componentwise, 100 hidden units and 50 outputs.
    Weights are drawn i.i.d. standard normal, biases i.i.d. uniform on
    [-1, 1], from a seeded generator, so the map is reproducible.
    """

    n_hidden = 100
    dimension_out = 50

    def __init__(self, dim_in: int, seed: int = 0):
        if dim_in <= 0:
            raise InvalidArgument(f"dim_in must be positive, got {dim_in}")
        self.dimension_in = int(dim_in)
        self.seed = int(seed)
        rng = _rng(seed)
        self.W1 = rng.standard_normal((self.n_hidden, dim_in))
        self.b1 = rng.uniform(-1.0, 1.0, size=self.n_hidden)
        self.W2 = rng.standard_normal((self.dimension_out, self.n_hidden))
        self.b2 = rng.uniform(-1.0, 1.0, size=self.dimension_out)

    def _evaluate(self, X):
        hidden = np.exp(-((X @ self.W1.T + self.b1) ** 2))
        return hidden @ self.W2.T + self.b2


class CylinderEmbedding(FeatureMap):
    """Embed the jet's periodic strip into 3-space.

    Maps (x, y) to ``(cos(2 pi x / period), sin(2 pi x / period), y / y_scale)``
    with the jet domain's period 20 and y_scale 3, so that points near
    opposite x-boundaries become close, as the periodic domain demands.
    """

    dimension_in = 2
    dimension_out = 3
    period = 20.0
    y_scale = 3.0

    def _evaluate(self, X):
        angle = 2.0 * np.pi * X[:, 0] / self.period
        return np.column_stack((np.cos(angle), np.sin(angle), X[:, 1] / self.y_scale))


class Whitener(FeatureMap):
    """Whitening as a feature map: ``x -> W @ (x - mean)``.

    Build from data with :meth:`from_data` (empirical mean and covariance,
    inverse square root with eigenvalue cutoff ``1e-12``) or wrap an
    existing :class:`~lagtime.numerics.WhiteningTransform`.
    """

    def __init__(self, transform: WhiteningTransform):
        self.whitening = transform
        self.dimension_in = transform.transform.shape[1]
        self.dimension_out = transform.rank

    @classmethod
    def from_data(cls, X: NDArray) -> "Whitener":
        X = _as_frames(X)
        mean = X.mean(axis=0)
        Xc = X - mean
        cov = Xc.T @ Xc / max(X.shape[0] - 1, 1)
        base = sym_inverse_sqrt(cov)
        return cls(WhiteningTransform(transform=base.transform, mean=mean, rank=base.rank))

    def _evaluate(self, X):
        return self.whitening.apply(X)


class LinearFeatures(FeatureMap):
    """Linear recombination of features by a real matrix: ``x -> x @ weights``."""

    def __init__(self, weights: NDArray):
        weights = np.asarray(weights)
        if weights.ndim != 2:
            raise InvalidArgument(f"weights must be a matrix, got ndim {weights.ndim}")
        self.weights = weights
        self.dimension_in = weights.shape[0]
        self.dimension_out = weights.shape[1]

    def _evaluate(self, X):
        return X @ self.weights

    def _times_after(self, first, X, W):
        return first._times(X, self.weights) @ W


class WithConstant(FeatureMap):
    """Prepend a constant-one feature to another map's output."""

    def __init__(self, inner: FeatureMap):
        self.inner = inner
        self.dimension_in = inner.dimension_in
        self.dimension_out = inner.dimension_out + 1

    def _evaluate(self, X):
        F = self.inner(X)
        return np.column_stack((np.ones(F.shape[0]), F))


class ChainedFeatures(FeatureMap):
    """Function composition of two feature maps (first, then second)."""

    def __init__(self, first: FeatureMap, second: FeatureMap):
        if first.dimension_out != second.dimension_in:
            raise InvalidArgument(
                f"cannot chain: first yields {first.dimension_out} features, "
                f"second expects {second.dimension_in}"
            )
        self.first = first
        self.second = second
        self.dimension_in = first.dimension_in
        self.dimension_out = second.dimension_out

    def _evaluate(self, X):
        return self.second(self.first(X))

    def _times(self, X, W):
        return self.second._times_after(self.first, X, W)
