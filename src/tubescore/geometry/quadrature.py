"""Quadrature building blocks: the Gauss-Legendre rule and the product
rules on the unit spheres S^0 to S^3 that serve as the oracle's tangent
direction rules."""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .base import row_norms


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


def sphere_rule(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Product rule (nodes, weights) on the unit S^k in R^{k+1}, k in 0..3,
    at angular resolution n; the weights sum to the volume of S^k.

    S^0 is the exact pair +-1; S^1 takes n equally spaced angles; S^2
    Gauss-Legendre in t with n nodes times 2n angles; S^3 a rule in the
    polar angle chi times the S^2 rule.  The chi rule is Gauss-Jacobi
    (1/2, 1/2) in cos chi, whose nodes chi_k = k pi / (n + 1) and weights
    pi sin^2 chi_k / (n + 1) are closed-form; it is exact for degree
    2n - 1 in cos chi against the sin^2 chi weight, where Gauss-Legendre in
    chi needs about half again as many nodes for the same error.
    """
    if k == 0:
        return np.array([[1.0], [-1.0]]), np.ones(2)
    if k == 3:
        chi = math.pi * np.arange(1, n + 1) / (n + 1)
        w_chi = math.pi * np.sin(chi) ** 2 / (n + 1)
        # a product of unit rows is unit to rounding, so it is not renormalized
        sub_nodes, sub_w = sphere_rule(2, n)
        nodes = np.concatenate(
            [np.repeat(np.cos(chi), sub_nodes.shape[0])[:, None],
             np.einsum("i,jk->ijk", np.sin(chi), sub_nodes).reshape(-1, 3)],
            axis=1)
        return nodes, np.outer(w_chi, sub_w).ravel()
    if k == 1:
        theta = 2.0 * math.pi * np.arange(n) / n
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(n, 2.0 * math.pi / n)
    elif k == 2:
        t, wt = gauss_legendre(n, -1.0, 1.0)
        phi = 2.0 * math.pi * np.arange(2 * n) / (2 * n)
        rho = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
        nodes = np.empty((n, 2 * n, 3))
        nodes[:, :, 0] = rho[:, None] * np.cos(phi)[None, :]
        nodes[:, :, 1] = rho[:, None] * np.sin(phi)[None, :]
        nodes[:, :, 2] = t[:, None]
        nodes = nodes.reshape(-1, 3)
        weights = np.repeat(wt * (2.0 * math.pi / (2 * n)), 2 * n)
    else:
        raise ValueError(f"sphere_rule covers S^0 to S^3, got S^{k}")
    np.divide(nodes.T, row_norms(nodes), out=nodes.T)
    return nodes, weights
