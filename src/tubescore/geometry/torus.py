"""Flat product torus S^1(R1) x S^1(R2) embedded in R^4."""
from __future__ import annotations

import math

import numpy as np

from .base import Manifold, wrap_angle
from .quadrature import QuadratureGrid, check_resolution

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

    # ---- block helpers -------------------------------------------------

    @staticmethod
    def _blocks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x[..., 0:2], x[..., 2:4]

    def angles(self, x: np.ndarray) -> np.ndarray:
        b1, b2 = self._blocks(x)
        return np.stack([np.arctan2(b1[..., 1], b1[..., 0]),
                         np.arctan2(b2[..., 1], b2[..., 0])], axis=-1)

    def from_angles(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        r1, r2 = self._r
        return np.stack([r1 * np.cos(theta[..., 0]), r1 * np.sin(theta[..., 0]),
                         r2 * np.cos(theta[..., 1]), r2 * np.sin(theta[..., 1])],
                        axis=-1)

    def _frame_vectors(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unit tangent and outward normal directions per block at rows ``z``."""
        r1, r2 = self._r
        b1, b2 = self._blocks(z)
        n1 = b1 / r1
        n2 = b2 / r2
        e1 = np.stack([-n1[..., 1], n1[..., 0]], axis=-1)
        e2 = np.stack([-n2[..., 1], n2[..., 0]], axis=-1)
        return np.stack([e1, e2], axis=-2), np.stack([n1, n2], axis=-2)

    # ---- kernels -------------------------------------------------------

    def constraint_residual_batch(self, x: np.ndarray) -> np.ndarray:
        b1, b2 = self._blocks(x)
        d1 = np.linalg.norm(b1, axis=-1) - self._r[0]
        d2 = np.linalg.norm(b2, axis=-1) - self._r[1]
        return np.hypot(d1, d2)

    def project_batch(self, x: np.ndarray):
        r1, r2 = self._r
        b1, b2 = self._blocks(x)
        n1 = np.linalg.norm(b1, axis=-1)
        n2 = np.linalg.norm(b2, axis=-1)
        dist = np.hypot(n1 - r1, n2 - r2)
        bad = (n1 <= 1e-15) | (n2 <= 1e-15)
        in_tube = (dist < self.tube_radius) & ~bad
        s1 = np.where(n1 > 1e-15, n1, 1.0)[:, None]
        s2 = np.where(n2 > 1e-15, n2, 1.0)[:, None]
        proj = np.concatenate([r1 * b1 / s1, r2 * b2 / s2], axis=-1)
        if np.any(bad):
            proj = proj.copy()
            proj[bad] = [r1, 0.0, r2, 0.0]
        return proj, dist, in_tube

    def tangent_project_batch(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        e, _ = self._frame_vectors(z)
        w1, w2 = self._blocks(w)
        a1 = np.sum(w1 * e[..., 0, :], axis=-1, keepdims=True)
        a2 = np.sum(w2 * e[..., 1, :], axis=-1, keepdims=True)
        return np.concatenate([a1 * e[..., 0, :], a2 * e[..., 1, :]], axis=-1)

    def exp_batch(self, z: np.ndarray, v: np.ndarray, *,
                  norms: np.ndarray | None = None) -> np.ndarray:
        e, _ = self._frame_vectors(z)
        v1, v2 = self._blocks(v)
        a1 = np.sum(v1 * e[..., 0, :], axis=-1)
        a2 = np.sum(v2 * e[..., 1, :], axis=-1)
        theta = self.angles(z)
        theta = theta + np.stack([a1 / self._r[0], a2 / self._r[1]], axis=-1)
        return self.from_angles(theta)

    def log_batch(self, z: np.ndarray, y: np.ndarray):
        delta = wrap_angle(self.angles(y) - self.angles(z))
        ok = np.all(np.abs(delta) < math.pi - _CUT_TOL, axis=-1)
        e, _ = self._frame_vectors(z)
        r1, r2 = self._r
        v = (r1 * delta[..., 0:1]) * self._pad(e[..., 0, :], 0) \
            + (r2 * delta[..., 1:2]) * self._pad(e[..., 1, :], 1)
        return v, ok

    @staticmethod
    def _pad(block: np.ndarray, which: int) -> np.ndarray:
        zeros = np.zeros_like(block)
        parts = [block, zeros] if which == 0 else [zeros, block]
        return np.concatenate(parts, axis=-1)

    def transport_to_batch(self, p: np.ndarray, v: np.ndarray, z: np.ndarray):
        # Flat connection: per-angle components are preserved along any path.
        e_p, _ = self._frame_vectors(p)
        v1, v2 = self._blocks(v)
        a1 = np.sum(v1 * e_p[..., 0, :], axis=-1, keepdims=True)
        a2 = np.sum(v2 * e_p[..., 1, :], axis=-1, keepdims=True)
        e_z, _ = self._frame_vectors(z[None, :])
        out = a1 * self._pad(e_z[..., 0, :], 0) + a2 * self._pad(e_z[..., 1, :], 1)
        ok = np.ones(p.shape[0], dtype=bool)
        return out, ok

    def distance_to_batch(self, p: np.ndarray, z: np.ndarray) -> np.ndarray:
        delta = wrap_angle(self.angles(p) - self.angles(z[None, :]))
        return np.hypot(self._r[0] * delta[..., 0], self._r[1] * delta[..., 1])

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
        e, nrm = self._frame_vectors(z)
        out = np.zeros((z.shape[0], 4, 4))
        for row, (vecs, block) in enumerate(((e, 0), (e, 1), (nrm, 0), (nrm, 1))):
            out[:, row, 2 * block:2 * block + 2] = vecs[:, block]
        return out

    def polar_chords(self, v: np.ndarray):
        r = np.array(self._r)
        chord = np.column_stack([r * np.sin(v / r), r * (np.cos(v / r) - 1.0)])
        return chord, np.zeros(v.shape[0])

    @property
    def band_radius(self) -> float:
        # the normal offset grows fastest along a single circle
        return min(r * math.acos(1.0 - self.tube_radius / r) for r in self._r)

    def random_coords(self, rng: np.random.Generator, n: int) -> np.ndarray:
        theta = rng.uniform(-math.pi, math.pi, size=(n, 2))
        return self.from_angles(theta)

    def grid(self, resolution: int, **kwargs) -> QuadratureGrid:
        if kwargs:
            raise TypeError(f"unexpected grid options: {sorted(kwargs)}")
        n = check_resolution(resolution)
        theta = 2.0 * math.pi * np.arange(n) / n - math.pi
        t1, t2 = np.meshgrid(theta, theta, indexing="ij")
        nodes = self.from_angles(np.stack([t1.ravel(), t2.ravel()], axis=-1))
        w = np.full(n * n, self._r[0] * self._r[1] * (2.0 * math.pi / n) ** 2)
        return QuadratureGrid(self, nodes, w, resolution=n)
