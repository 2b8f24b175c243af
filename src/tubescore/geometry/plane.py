"""Affine d-planes in R^D: the curvature-free reference geometry."""
from __future__ import annotations

import math

import numpy as np

from .base import Manifold
from .quadrature import check_resolution, gauss_legendre


class AffinePlane(Manifold):
    """Affine subspace basepoint + span(frame) with the induced flat metric.

    ``frame`` holds orthonormal rows spanning the tangent space.  The reach
    and injectivity radius are infinite, so projection never fails and the
    exponential map is plain addition.
    """

    def __init__(self, basepoint, frame):
        basepoint = np.asarray(basepoint, dtype=float)
        frame = np.asarray(frame, dtype=float)
        if frame.ndim != 2 or basepoint.ndim != 1 or frame.shape[1] != basepoint.shape[0]:
            raise ValueError("frame must be (d, D) and basepoint (D,)")
        if frame.shape[0] >= frame.shape[1]:
            raise ValueError("need d < D")
        gram = frame @ frame.T
        if not np.allclose(gram, np.eye(frame.shape[0]), atol=1e-12):
            raise ValueError("frame rows must be orthonormal")
        self._p0 = basepoint
        self._frame = frame
        # tangent rows, then their orthonormal complement: the one frame
        # of every point, broadcast by frames_batch
        self._full_frame = np.concatenate([
            frame, _gram_schmidt_complement(frame, self.codim, self.ambient_dim)])

    @classmethod
    def axis_aligned(cls, d: int, ambient: int) -> "AffinePlane":
        if not 1 <= d < ambient:
            raise ValueError("need 1 <= d < D")
        return cls(np.zeros(ambient), np.eye(ambient)[:d])

    # ---- identity / scalars ------------------------------------------

    @property
    def name(self) -> str:
        return f"AffinePlane({self.intrinsic_dim},{self.ambient_dim})"

    def key(self) -> tuple:
        return ("affine_plane", self._p0.tobytes(), self._frame.tobytes())

    @property
    def ambient_dim(self) -> int:
        return self._p0.shape[0]

    @property
    def intrinsic_dim(self) -> int:
        return self._frame.shape[0]

    @property
    def reach(self) -> float:
        return math.inf

    @property
    def injectivity_radius(self) -> float:
        return math.inf

    @property
    def volume(self) -> float:
        return math.inf

    @property
    def frame(self) -> np.ndarray:
        return self._frame.copy()

    # ---- chart helpers --------------------------------------------------

    def chart(self, x: np.ndarray) -> np.ndarray:
        """In-plane coordinates of ambient rows."""
        return (x - self._p0) @ self._frame.T

    def embed(self, c: np.ndarray) -> np.ndarray:
        """Ambient coordinates of chart rows."""
        return self._p0 + np.asarray(c, dtype=float) @ self._frame

    def embed_tangent(self, c: np.ndarray) -> np.ndarray:
        return np.asarray(c, dtype=float) @ self._frame

    # ---- kernels -------------------------------------------------------

    def project_batch(self, x: np.ndarray):
        proj = self._p0 + ((x - self._p0) @ self._frame.T) @ self._frame
        dist = np.linalg.norm(x - proj, axis=-1)
        return proj, dist, np.ones(x.shape[0], dtype=bool)

    def tangent_project_batch(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        return (w @ self._frame.T) @ self._frame

    def exp_batch(self, z: np.ndarray, v: np.ndarray, *,
                  norms: np.ndarray | None = None) -> np.ndarray:
        return z + v

    def log_batch(self, z: np.ndarray, y: np.ndarray):
        return y - z, np.ones(z.shape[0] if z.ndim > 1 else y.shape[0], dtype=bool)

    def transport_to_batch(self, p: np.ndarray, v: np.ndarray, z: np.ndarray):
        return v.copy(), np.ones(p.shape[0], dtype=bool)

    def distance_to_batch(self, p: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.linalg.norm(p - z[None, :], axis=-1)

    def second_fundamental(self, z: np.ndarray) -> np.ndarray:
        d = self.intrinsic_dim
        return np.zeros((z.shape[0], self.codim, d, d))

    def ricci_matrix(self, z: np.ndarray) -> np.ndarray:
        d = self.intrinsic_dim
        return np.zeros((z.shape[0], d, d))

    def fiber_from_coeffs(self, m: np.ndarray, sigma: float) -> np.ndarray:
        return np.ones(m.shape[0])

    def frames_batch(self, z: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self._full_frame,
                               (z.shape[0],) + self._full_frame.shape)

    def polar_chords(self, v: np.ndarray):
        n = v.shape[0]
        return np.column_stack([v, np.zeros((n, self.codim))]), np.zeros(n)

    @property
    def band_radius(self) -> float:
        return math.inf

    def random_coords(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.embed(rng.standard_normal((n, self.intrinsic_dim)))

    def grid(self, resolution: int, half_width: float = 8.0,
             center=None) -> tuple[np.ndarray, np.ndarray]:
        """Gauss-Legendre product rule (nodes, weights) on a chart box of the
        given half width; the weights sum to the box volume."""
        n = check_resolution(resolution)
        d = self.intrinsic_dim
        if center is None:
            center = np.zeros(d)
        center = np.asarray(center, dtype=float)
        x, w = gauss_legendre(n, -half_width, half_width)
        axes = np.meshgrid(*([x] * d), indexing="ij")
        coords = np.stack([a.ravel() for a in axes], axis=-1) + center
        weights = np.ones(n**d)
        for wa in np.meshgrid(*([w] * d), indexing="ij"):
            weights *= wa.ravel()
        return self.embed(coords), weights


def _gram_schmidt_complement(rows: np.ndarray, dim: int, ambient: int) -> np.ndarray:
    """First ``dim`` ambient axes orthonormalized against ``rows`` (in order)."""
    basis: list[np.ndarray] = []
    for a in np.eye(ambient):
        w = a - rows.T @ (rows @ a)
        for b in basis:
            w = w - (b @ w) * b
        nrm = np.linalg.norm(w)
        if nrm > 1e-8:
            basis.append(w / nrm)
        if len(basis) == dim:
            break
    if len(basis) != dim:
        raise RuntimeError("failed to complete an orthonormal frame")
    return np.array(basis)
