"""Deterministic quadrature grids over the supported manifolds."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .base import Manifold

MIN_RESOLUTION = 8


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


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
    x, w = _legendre_rule(int(n))
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


@lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node rule on [-1, 1], built once per n and kept read-only:
    Newton's method on P_n from Tricomi's estimates of the nonnegative
    roots, mirrored.  (scipy's roots_legendre imports scipy.linalg, about
    60 ms and 6 MB per process.)"""
    # deferred: importing scipy.special here at module level measured
    # about 30 ms more on every `import tubescore`
    from scipy.special import eval_legendre

    k = np.arange(1, (n + 1) // 2 + 1)
    x = (np.cos(np.pi * (k - 0.25) / (n + 0.5))
         * (1.0 - (n - 1) / (8.0 * n**3)))
    for _ in range(10):
        p, q = eval_legendre(n, x), eval_legendre(n - 1, x)
        step = p * (1.0 - x * x) / (n * (q - x * p))
        x -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    w = 2.0 * (1.0 - x * x) / (n * eval_legendre(n - 1, x)) ** 2
    mirror = slice(-1 - n % 2, None, -1)  # an odd n's root 0 appears once
    x, w = np.concatenate([-x, x[mirror]]), np.concatenate([w, w[mirror]])
    return _readonly(x), _readonly(2.0 * w / w.sum())
