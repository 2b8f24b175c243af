"""Unit spheres S^d embedded in R^{d+1}, d in {1, 2, 3, 4}."""
from __future__ import annotations

import math

import numpy as np

from ..errors import UnsupportedManifold
from .base import Manifold, row_dots, row_norms
from .quadrature import check_resolution, gauss_legendre

# volume of the unit S^d; S^0 is two points
_SPHERE_VOLUMES = {0: 2.0, 1: 2.0 * math.pi, 2: 4.0 * math.pi,
                   3: 2.0 * math.pi**2, 4: 8.0 * math.pi**2 / 3.0}

# Even standard-normal moments E[W^j] = (j-1)!! for j = 0, 2, 4.
_EVEN_MOMENTS = {0: 1.0, 2: 1.0, 4: 3.0}

_CUT_TOL = 1e-12


class Sphere(Manifold):
    """Round unit sphere of intrinsic dimension ``dim``.

    Outward unit normal nu(z) = z; the Weingarten map in that direction is
    -Id, so the mean curvature vector is -d*z and the tube Jacobian at signed
    outward offset u is (1 + u)^d.
    """

    def __init__(self, dim: int):
        if dim not in (1, 2, 3, 4):
            raise UnsupportedManifold(f"Sphere(dim) supports dim in 1..4, got {dim}")
        self._dim = int(dim)

    # ---- identity / scalars ------------------------------------------

    @property
    def name(self) -> str:
        return f"Sphere({self._dim})"

    def key(self) -> tuple:
        return ("sphere", self._dim)

    @property
    def ambient_dim(self) -> int:
        return self._dim + 1

    @property
    def intrinsic_dim(self) -> int:
        return self._dim

    @property
    def reach(self) -> float:
        return 1.0

    @property
    def injectivity_radius(self) -> float:
        return math.pi

    @property
    def volume(self) -> float:
        return _SPHERE_VOLUMES[self._dim]

    # ---- kernels -------------------------------------------------------

    def project_batch(self, x: np.ndarray):
        norms = np.linalg.norm(x, axis=1)
        dist = np.abs(norms - 1.0)
        in_tube = dist < self.tube_radius
        safe = np.where(norms > 1e-15, norms, 1.0)
        proj = x / safe[:, None]
        # Degenerate rows (near the center) get a placeholder pole.
        bad = norms <= 1e-15
        if np.any(bad):
            proj = proj.copy()
            proj[bad] = 0.0
            proj[bad, 0] = 1.0
            in_tube = in_tube & ~bad
        return proj, dist, in_tube

    def tangent_project_batch(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        return w - row_dots(w, z)[:, None] * z

    def exp_batch(self, z: np.ndarray, v: np.ndarray, *,
                  norms: np.ndarray | None = None) -> np.ndarray:
        r = (row_norms(v) if norms is None else norms)[:, None]
        if r.min(initial=np.inf) < 1e-12:
            small = r < 1e-12
            safe = np.where(small, 1.0, r)
            sinc = np.where(small, 1.0 - r**2 / 6.0, np.sin(safe) / safe)
        else:
            sinc = np.sin(r) / r
        out = np.cos(r) * z + sinc * v
        return out / row_norms(out)[:, None]

    def log_batch(self, z: np.ndarray, y: np.ndarray):
        c = np.clip(np.sum(z * y, axis=1), -1.0, 1.0)
        ok = c > -1.0 + _CUT_TOL
        theta = np.arccos(c)
        rest = y - c[:, None] * z
        s = np.linalg.norm(rest, axis=1)
        small = theta < 1e-9
        factor = np.where(small, 1.0, theta / np.where(s > 0, s, 1.0))
        return factor[:, None] * rest, ok

    def transport_to_batch(self, p: np.ndarray, v: np.ndarray, z: np.ndarray):
        # P v = v - <v,z> / (1 + <p,z>) (p + z).  With s = p + z, <v,s> =
        # <v,z> on T_p and |s|^2 = 2 (1 + <p,z>), so P is the reflection
        # through s-perp; that form keeps full accuracy near the antipode.
        c = p @ z
        ok = c > -1.0 + _CUT_TOL
        s = p + z
        k = 2.0 * row_dots(v, s) / np.where(ok, row_dots(s, s), 1.0)
        return v - k[:, None] * s, ok

    def distance_to_batch(self, p: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.arccos(np.clip(p @ z, -1.0, 1.0))

    def second_fundamental(self, z: np.ndarray) -> np.ndarray:
        # II(u, v) = -<u, v> z for the outward normal row z.
        d = self._dim
        return np.broadcast_to(-np.eye(d), (z.shape[0], 1, d, d))

    def ricci_matrix(self, z: np.ndarray) -> np.ndarray:
        d = self._dim
        return np.broadcast_to((d - 1.0) * np.eye(d), (z.shape[0], d, d))

    def fiber_from_coeffs(self, m: np.ndarray, sigma: float) -> np.ndarray:
        a = 1.0 + m[:, 0]
        d = self._dim
        out = np.zeros_like(a)
        for j in range(0, d + 1, 2):
            out += math.comb(d, j) * _EVEN_MOMENTS[j] * sigma**j * a ** (d - j)
        return out

    def frames_batch(self, z: np.ndarray) -> np.ndarray:
        # tangent rows: rows 2..D of the Householder reflection
        # H = I - 2 w w^T / |w|^2 with w = z + sign(z_0) e_0, which maps e_0
        # to -sign(z_0) z (|w|^2 >= 2); normal row: z
        w = z.copy()
        w[:, 0] += np.where(z[:, 0] >= 0.0, 1.0, -1.0)
        scale = 2.0 / np.sum(w * w, axis=1)
        tangent = np.eye(self.ambient_dim)[None, 1:, :] \
            - (scale[:, None] * w[:, 1:])[:, :, None] * w[:, None, :]
        return np.concatenate([tangent, z[:, None, :]], axis=1)

    def polar_chords(self, v: np.ndarray):
        rho = np.linalg.norm(v, axis=1)
        sinc = np.sinc(rho / math.pi)
        chord = np.column_stack([sinc[:, None] * v, np.cos(rho) - 1.0])
        return chord, (self._dim - 1) * np.log(sinc)

    @property
    def band_radius(self) -> float:
        return math.acos(1.0 - self.tube_radius)

    def random_coords(self, rng: np.random.Generator, n: int) -> np.ndarray:
        x = rng.standard_normal((n, self.ambient_dim))
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    # ---- quadrature ------------------------------------------------------

    def grid(self, resolution: int) -> tuple[np.ndarray, np.ndarray]:
        """Product rule (nodes, weights): uniform angle on S^1, Gauss-Legendre
        in t times a uniform angle on S^2, and for d >= 3 a rule in the
        polar angle chi times the S^{d-1} rule.  On S^3 chi takes the
        Gauss-Jacobi (1/2, 1/2) rule in cos chi, whose nodes
        chi_k = k pi / (n + 1) and weights pi sin^2 chi_k / (n + 1) are
        closed-form; it is exact for degree 2n - 1 in cos chi against the
        sin^2 chi weight, where Gauss-Legendre in chi needs about half again
        as many nodes for the same error.  On S^4 chi takes Gauss-Legendre.
        """
        return _sphere_grid(self._dim, check_resolution(resolution))


def _sphere_grid(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    if d <= 2:
        if d == 1:
            theta = 2.0 * math.pi * np.arange(n) / n
            nodes = np.column_stack([np.cos(theta), np.sin(theta)])
            weights = np.full(n, 2.0 * math.pi / n)
        else:
            nodes, weights = _sphere2_grid(n)
        return nodes / np.linalg.norm(nodes, axis=1, keepdims=True), weights
    if d == 3:
        chi = math.pi * np.arange(1, n + 1) / (n + 1)
        w_chi = math.pi * np.sin(chi) ** 2 / (n + 1)
    else:
        chi, w_chi = gauss_legendre(n, 0.0, math.pi)
        w_chi = w_chi * np.sin(chi) ** (d - 1)
    # a product of unit rows is unit to rounding, so it is not renormalized
    sub_nodes, sub_w = _sphere_grid(d - 1, n)
    nodes = np.concatenate(
        [np.repeat(np.cos(chi), sub_nodes.shape[0])[:, None],
         np.einsum("i,jk->ijk", np.sin(chi), sub_nodes).reshape(-1, d)],
        axis=1)
    return nodes, np.outer(w_chi, sub_w).ravel()


def _sphere2_grid(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre x uniform product rule on S^2: n x 2n nodes."""
    t, wt = gauss_legendre(n, -1.0, 1.0)
    nphi = 2 * n
    phi = 2.0 * math.pi * np.arange(nphi) / nphi
    rho = np.sqrt(np.clip(1.0 - t * t, 0.0, None))
    nodes = np.empty((n, nphi, 3))
    nodes[:, :, 0] = rho[:, None] * np.cos(phi)[None, :]
    nodes[:, :, 1] = rho[:, None] * np.sin(phi)[None, :]
    nodes[:, :, 2] = t[:, None]
    weights = np.repeat(wt * (2.0 * math.pi / nphi), nphi)
    return nodes.reshape(-1, 3), weights
