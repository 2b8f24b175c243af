"""Flat product torus S^1(R1) x S^1(R2) embedded in R^4."""
from __future__ import annotations

import math

import numpy as np

from .base import Manifold
from .quadrature import check_resolution

_CUT_TOL = 1e-12


class FlatTorus(Manifold):
    """Product of two circles with the flat product metric.

    Coordinates are (R1 cos a, R1 sin a, R2 cos b, R2 sin b).  The embedding
    is flat (Ric = 0) but extrinsically curved: the shape operators are
    diag(-1/R1, 0) and diag(0, -1/R2) for the outward per-circle normals.
    """

    def __init__(self, r1: float, r2: float):
        if not (r1 > 0 and r2 > 0):
            raise ValueError("radii must be positive")
        self._r = (float(r1), float(r2))
        self._radii = np.array(self._r)

    # ---- identity / scalars ------------------------------------------

    @property
    def name(self) -> str:
        return f"FlatTorus({self._r[0]:g},{self._r[1]:g})"

    def key(self) -> tuple:
        return ("flat_torus", self._r)

    @property
    def radii(self) -> tuple[float, float]:
        return self._r

    @property
    def ambient_dim(self) -> int:
        return 4

    @property
    def intrinsic_dim(self) -> int:
        return 2

    @property
    def reach(self) -> float:
        return min(self._r)

    @property
    def injectivity_radius(self) -> float:
        return math.pi * min(self._r)

    @property
    def volume(self) -> float:
        return (2.0 * math.pi) ** 2 * self._r[0] * self._r[1]

    # ---- chart -----------------------------------------------------------

    def angles(self, x: np.ndarray) -> np.ndarray:
        return np.arctan2(x[..., 1::2], x[..., 0::2])

    def from_angles(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        r1, r2 = self._r
        return np.stack([r1 * np.cos(theta[..., 0]), r1 * np.sin(theta[..., 0]),
                         r2 * np.cos(theta[..., 1]), r2 * np.sin(theta[..., 1])],
                        axis=-1)

    # ---- kernels -------------------------------------------------------
    #
    # Each kernel works on the two circle blocks (x, y) = (z[:, 0::2],
    # z[:, 1::2]) at once.  turn(z) = (-y, x) rotates each block by a right
    # angle and is R_i times circle i's unit tangent, so every kernel is a
    # per-circle dot product and one rotation, written into an array of the
    # caller's memory order.

    def embed_tangent(self, z: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Ambient rows of the tangent vectors at rows ``z`` whose
        coordinates in the unit tangent rows of :meth:`frames_batch` are
        ``c``, shape (n, 2)."""
        return self._turned(z, c / self._radii)

    @staticmethod
    def _turned(z: np.ndarray, s: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """Rows s_i * turn(z_i) for per-circle scalars ``s`` (n, 2), in z's
        memory order, or written into ``out`` (``z`` may then be one row)."""
        out = np.empty_like(z) if out is None else out
        np.multiply(s, -z[..., 1::2], out=out[:, 0::2])
        np.multiply(s, z[..., 0::2], out=out[:, 1::2])
        return out

    @staticmethod
    def _turn_dots(z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Per-circle dot products <w_i, turn(z_i)>, shape (n, 2)."""
        return w[..., 1::2] * z[..., 0::2] - w[..., 0::2] * z[..., 1::2]

    def _angles_from(self, z: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Signed angle from each circle block of ``z`` to that of ``y``."""
        return np.arctan2(self._turn_dots(z, y),
                          y[..., 0::2] * z[..., 0::2] + y[..., 1::2] * z[..., 1::2])

    def project_batch(self, x: np.ndarray):
        r = self._radii
        norms = np.sqrt(x[:, 0::2] ** 2 + x[:, 1::2] ** 2)
        dist = np.hypot(norms[:, 0] - r[0], norms[:, 1] - r[1])
        bad = np.any(norms <= 1e-15, axis=1)
        in_tube = (dist < self.tube_radius) & ~bad
        safe = np.where(norms > 1e-15, norms, 1.0)
        proj = np.empty_like(x)
        proj[:, 0::2] = r * x[:, 0::2] / safe
        proj[:, 1::2] = r * x[:, 1::2] / safe
        proj[bad] = [r[0], 0.0, r[1], 0.0]
        return proj, dist, in_tube

    def tangent_project_batch(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self._turned(z, self._turn_dots(z, w) / self._radii ** 2)

    def exp_batch(self, z: np.ndarray, v: np.ndarray, *,
                  norms: np.ndarray | None = None) -> np.ndarray:
        # rotate each circle block by its step angle <v_i, e_i> / R_i
        phi = self._turn_dots(z, v) / self._radii ** 2
        c, s = np.cos(phi), np.sin(phi)
        x, y = z[:, 0::2], z[:, 1::2]
        out = np.empty_like(z)
        out[:, 0::2] = c * x - s * y
        out[:, 1::2] = s * x + c * y
        return out

    def log_batch(self, z: np.ndarray, y: np.ndarray):
        delta = self._angles_from(z, y)
        ok = np.all(np.abs(delta) < math.pi - _CUT_TOL, axis=-1)
        return self._turned(z, delta), ok

    def transport_to_batch(self, p: np.ndarray, v: np.ndarray, z: np.ndarray):
        # Flat connection: per-circle components are preserved along any path.
        out = self._turned(z, self._turn_dots(p, v) / self._radii ** 2,
                           np.empty_like(v))
        return out, np.ones(p.shape[0], dtype=bool)

    def distance_to_batch(self, p: np.ndarray, z: np.ndarray) -> np.ndarray:
        delta = self._angles_from(z, p)
        return np.hypot(self._r[0] * delta[:, 0], self._r[1] * delta[:, 1])

    def second_fundamental(self, z: np.ndarray) -> np.ndarray:
        h = np.zeros((2, 2, 2))
        h[0, 0, 0] = -1.0 / self._r[0]
        h[1, 1, 1] = -1.0 / self._r[1]
        return np.broadcast_to(h, (z.shape[0], 2, 2, 2))

    def ricci_matrix(self, z: np.ndarray) -> np.ndarray:
        return np.zeros((z.shape[0], 2, 2))

    def fiber_from_coeffs(self, m: np.ndarray, sigma: float) -> np.ndarray:
        # det(I - W_u) = (1 + u1/R1)(1 + u2/R2): linear per independent
        # coordinate, so the Gaussian average drops sigma entirely.
        return (1.0 + m[:, 0] / self._r[0]) * (1.0 + m[:, 1] / self._r[1])

    def frames_batch(self, z: np.ndarray) -> np.ndarray:
        # rows: the two unit tangents turn(z_i) / R_i, then the two
        # outward normals z_i / R_i, each on its own circle block
        u = z / np.repeat(self._radii, 2)
        out = np.zeros((z.shape[0], 4, 4))
        out[:, [0, 1], [0, 2]] = -u[:, 1::2]
        out[:, [0, 1], [1, 3]] = u[:, 0::2]
        out[:, [2, 2, 3, 3], [0, 1, 2, 3]] = u
        return out

    def polar_chords(self, v: np.ndarray):
        r = self._radii
        chord = np.column_stack([r * np.sin(v / r), r * (np.cos(v / r) - 1.0)])
        return chord, np.zeros(v.shape[0])

    @property
    def band_radius(self) -> float:
        # the normal offset grows fastest along a single circle
        return min(r * math.acos(1.0 - self.tube_radius / r) for r in self._r)

    def random_coords(self, rng: np.random.Generator, n: int) -> np.ndarray:
        theta = rng.uniform(-math.pi, math.pi, size=(n, 2))
        return self.from_angles(theta)

    def grid(self, resolution: int) -> tuple[np.ndarray, np.ndarray]:
        """Uniform angles on both circles: (nodes, weights), n^2 nodes."""
        n = check_resolution(resolution)
        theta = 2.0 * math.pi * np.arange(n) / n - math.pi
        t1, t2 = np.meshgrid(theta, theta, indexing="ij")
        nodes = self.from_angles(np.stack([t1.ravel(), t2.ravel()], axis=-1))
        w = np.full(n * n, self._r[0] * self._r[1] * (2.0 * math.pi / n) ** 2)
        return nodes, w
