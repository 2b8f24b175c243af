"""Quadrature building blocks: the resolution floor of the manifold grids
and the Gauss-Legendre rule."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

MIN_RESOLUTION = 8


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


def _legendre_pair(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_{n-1}(x) for n >= 1, by the recurrence on the
    differences d_k = P_k - P_{k-1} that scipy.special.eval_legendre runs
    for integer n, in its order of operations: the same bits wherever
    |x| >= 1e-5, where eval_legendre does not switch to a power series."""
    xm1 = x - 1.0
    q, p, d = np.ones_like(x), x.copy(), xm1.copy()  # P_0, P_1, P_1 - P_0
    t = np.empty_like(x)
    for k in range(1, n):  # in place: the loop is all ufunc call overhead
        np.multiply(xm1, (2 * k + 1) / (k + 1), out=t)
        t *= p
        d *= k / (k + 1)
        d += t
        q, p = p, np.add(p, d, out=q)
    return p, q


@lru_cache(maxsize=None)
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node rule on [-1, 1], built once per n and kept read-only:
    Newton's method on P_n from Tricomi's estimates of the nonnegative
    roots, mirrored."""
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (np.cos(np.pi * (k - 0.25) / (n + 0.5))
         * (1.0 - (n - 1) / (8.0 * n**3)))
    for _ in range(10):
        p, q = _legendre_pair(n, x)
        step = p * (1.0 - x * x) / (n * (q - x * p))
        x -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    w = 2.0 * (1.0 - x * x) / (n * _legendre_pair(n, x)[1]) ** 2
    mirror = slice(-1 - n % 2, None, -1)  # an odd n's root 0 appears once
    x, w = np.concatenate([-x, x[mirror]]), np.concatenate([w, w[mirror]])
    w = 2.0 * w / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w
