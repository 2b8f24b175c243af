"""Unit spheres S^d embedded in R^{d+1}, d in {1, 2, 3, 4}."""
from __future__ import annotations

import math

import numpy as np

from ..errors import UnsupportedManifold
from .base import Manifold, row_dots, row_norms, weighted_sums

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

    # Row kernels broadcast each per-row scalar along the rows of the
    # transposed (D, n) view, which are contiguous on column-major rows and
    # n long on row-major ones, and return rows in the memory order of
    # their input.

    def project_batch(self, x: np.ndarray):
        norms = row_norms(x)
        dist = np.abs(norms - 1.0)
        in_tube = dist < self.tube_radius
        safe = np.where(norms > 1e-15, norms, 1.0)
        proj = (x.T / safe).T
        # Degenerate rows (near the center) get a placeholder pole.
        bad = norms <= 1e-15
        if np.any(bad):
            proj[bad] = 0.0
            proj[bad, 0] = 1.0
            in_tube = in_tube & ~bad
        return proj, dist, in_tube

    def tangent_project_batch(self, z: np.ndarray, w: np.ndarray, *,
                              out: np.ndarray | None = None) -> np.ndarray:
        # z may be one row broadcast over w's; the result takes w's order
        out = np.empty_like(w) if out is None else out
        np.multiply(row_dots(w, z), z.T, out=out.T)
        np.subtract(w.T, out.T, out=out.T)
        return out

    def exp_batch(self, z: np.ndarray, v: np.ndarray, *,
                  norms: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
        # half-angle form: with u = tan(r/2), cos r = (1 - u^2) / (1 + u^2)
        # and sin r / r = (u / (r/2)) / (1 + u^2); the row normalization
        # removes the common 1 / (1 + u^2), so one trig call per row does.
        r = row_norms(v) if norms is None else norms
        half = 0.5 * r
        u = np.tan(half)
        if r.min(initial=np.inf) < 1e-12:
            small = r < 1e-12
            along = np.where(small, 1.0 + half**2 / 3.0,
                             u / np.where(small, 1.0, half))
        else:
            along = u / half
        # written into out, which may be z: each entry of z is read only
        # to form its own entry of the product
        points = np.multiply(1.0 - u * u, z.T,
                             out=None if out is None else out.T)
        points += along * v.T
        points /= row_norms(points.T)
        return points.T if out is None else out

    def log_batch(self, z: np.ndarray, y: np.ndarray):
        c = np.clip(row_dots(z, y), -1.0, 1.0)
        ok = c > -1.0 + _CUT_TOL
        theta = np.arccos(c)
        rest = y.T - c * z.T
        s = row_norms(rest.T)
        small = theta < 1e-9
        factor = np.where(small, 1.0, theta / np.where(s > 0, s, 1.0))
        rest *= factor
        return rest.T, ok

    def transport_to_batch(self, p: np.ndarray, v: np.ndarray, z: np.ndarray):
        # P v = v - <v,z> / (1 + <p,z>) (p + z).  With s = p + z, <v,s> =
        # <v,z> on T_p and |s|^2 = 2 (1 + <p,z>), so P is the reflection
        # through s-perp; that form keeps full accuracy near the antipode.
        c = p @ z
        ok = c > -1.0 + _CUT_TOL
        s = p + z
        k = 2.0 * row_dots(v, s) / np.where(ok, row_dots(s, s), 1.0)
        return (v.T - k * s.T).T, ok

    def transport_sums(self, p: np.ndarray, v: np.ndarray, z: np.ndarray,
                       w: np.ndarray):
        # transport_to_batch's P v = v - k (p + z) with k = <v, p + z> /
        # (1 + <p, z>) for every pair (z_j, p_i), laid out (P, n), sums to
        # w @ v - (w k) @ p - sum(w k) z.  1 + <p, z> is |p + z|^2 / 2, and
        # that form keeps full accuracy near the antipode; it is taken on
        # the pairs with <p, z> < 0 that some weight reaches, which no
        # window of radius at most pi/2 holds.
        c = (z[:, None, :] @ p.T)[:, 0]
        ok = c > -1.0 + _CUT_TOL
        k = (z[:, None, :] @ v.T)[:, 0]
        k += row_dots(v, p)
        den = 1.0 + c
        far = np.flatnonzero((c < 0.0) & np.any(w, axis=0))
        if far.size:
            j, i = np.divmod(far, c.shape[1])
            s = p[i] + z[j]
            den[j, i] = 0.5 * row_dots(s, s)
        if not ok.all():
            den[~ok] = 1.0
            w = w * ok
        k /= den
        wk = w * k
        sums = weighted_sums(w, v)
        sums -= weighted_sums(wk, p)
        sums -= wk.sum(axis=-1)[..., None] * z
        return sums, w.sum(axis=-1)

    def distance_to_batch(self, p: np.ndarray, z: np.ndarray) -> np.ndarray:
        c = (z[..., None, :] @ p.T)[..., 0, :]
        return np.arccos(np.clip(c, -1.0, 1.0, out=c), out=c)

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
        rho = row_norms(v)
        sinc = np.sinc(rho / math.pi)
        chord = np.empty((v.shape[0], self.ambient_dim))
        np.multiply(sinc, v.T, out=chord.T[:-1])
        np.subtract(np.cos(rho), 1.0, out=chord[:, -1])
        return chord, (self._dim - 1) * np.log(sinc)

    @property
    def band_radius(self) -> float:
        return math.acos(1.0 - self.tube_radius)

    def random_coords(self, rng: np.random.Generator, n: int) -> np.ndarray:
        x = rng.standard_normal((n, self.ambient_dim))
        np.divide(x.T, row_norms(x), out=x.T)
        return x
