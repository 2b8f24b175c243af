"""Affine d-planes in R^D: the curvature-free reference geometry."""
from __future__ import annotations

import math

import numpy as np

from .base import Manifold, weighted_sums


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
        # of every point, broadcast by frames_batch.  The rows are
        # orthonormal, so [frame; I] has rank D and the last D - d columns
        # of its Q complete the frame.
        d, D = frame.shape
        q, _ = np.linalg.qr(np.concatenate([frame, np.eye(D)]).T)
        self._full_frame = np.concatenate([frame, q[:, d:].T])

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

    def transport_sums(self, p: np.ndarray, v: np.ndarray, z: np.ndarray,
                       w: np.ndarray):
        return weighted_sums(w, v), w.sum(axis=-1)

    def distance_to_batch(self, p: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.linalg.norm(p - z[..., None, :], axis=-1)

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
