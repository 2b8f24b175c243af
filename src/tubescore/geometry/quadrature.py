"""Deterministic quadrature grids over the supported manifolds."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import Manifold, ManifoldPoint, _readonly

MIN_RESOLUTION = 8


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Nodes and weights for integrals of the form sum_j w_j f(y_j).

    For compact manifolds the weights sum to the volume; for affine planes the
    grid covers a finite box and the weights sum to the box volume instead.
    """

    manifold: Manifold
    node_coords: np.ndarray
    weights: np.ndarray
    resolution: int

    def __post_init__(self):
        nodes = _readonly(self.node_coords)
        weights = _readonly(self.weights)
        if nodes.ndim != 2 or nodes.shape[1] != self.manifold.ambient_dim:
            raise ValueError("node array has the wrong shape")
        if weights.shape != (nodes.shape[0],):
            raise ValueError("weights do not match nodes")
        object.__setattr__(self, "node_coords", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self) -> int:
        return self.node_coords.shape[0]

    @property
    def weight_sum(self) -> float:
        return float(self.weights.sum())

    def node(self, i: int) -> ManifoldPoint:
        return self.manifold.point(self.node_coords[i])

    def points(self):
        return self.manifold.iter_points(self.node_coords)

    def integrate(self, values: np.ndarray) -> float:
        values = np.asarray(values, dtype=float)
        return float(self.weights @ values)


def check_resolution(resolution: int) -> int:
    resolution = int(resolution)
    if resolution < MIN_RESOLUTION:
        raise ValueError(f"resolution must be >= {MIN_RESOLUTION}, got {resolution}")
    return resolution


def gauss_legendre(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights transplanted to [lo, hi]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w
