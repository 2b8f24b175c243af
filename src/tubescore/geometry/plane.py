"""Affine d-planes in R^D: the curvature-free reference geometry."""
from __future__ import annotations

import math

import numpy as np

from .base import Manifold, weighted_sums

# OpenBLAS runs a product of m rows by k by n columns on its threads once
# m n k reaches 262,144, and on a busy machine such a product of 100,000
# rows waited about 50 ms for the second core where one thread takes 1 ms.
# The plane's products over many rows go in row blocks of at most this
# product, so each stays on the calling thread.  The blocks are of equal
# size, so none holds a single row: numpy hands a one-row product to the
# BLAS's vector kernel, whose bits differ from the matrix kernel's.  On two
# rows or more, a row's bits have not depended on the block that holds it
# (test_plane_products_over_many_rows checks it).
_SERIAL_PRODUCT = 65_536


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
        self._block = max(2, _SERIAL_PRODUCT // (d * D))

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

    def _by_blocks(self, kernel, x: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        """``kernel`` on the row blocks of ``x``, gathered into one array
        (``out`` when given); anything but a long batch of rows is one
        block."""
        if x.ndim != 2 or len(x) <= self._block:
            if out is None:
                return kernel(x)
            out[...] = kernel(x)
            return out
        n = len(x)
        count = -(-n // self._block)
        for i in range(count):
            block = slice(i * n // count, (i + 1) * n // count)
            rows = kernel(x[block])
            if out is None:
                out = np.empty((n, rows.shape[1]))
            out[block] = rows
        return out

    def chart(self, x: np.ndarray) -> np.ndarray:
        """In-plane coordinates of ambient rows."""
        return self._by_blocks(lambda b: (b - self._p0) @ self._frame.T, x)

    def embed(self, c: np.ndarray) -> np.ndarray:
        """Ambient coordinates of chart rows."""
        return self._by_blocks(lambda b: self._p0 + b @ self._frame,
                               np.asarray(c, dtype=float))

    def embed_tangent(self, c: np.ndarray) -> np.ndarray:
        return self._by_blocks(lambda b: b @ self._frame,
                               np.asarray(c, dtype=float))

    # ---- kernels -------------------------------------------------------

    def project_batch(self, x: np.ndarray):
        proj = self._by_blocks(
            lambda b: self._p0 + ((b - self._p0) @ self._frame.T) @ self._frame,
            x)
        dist = np.linalg.norm(x - proj, axis=-1)
        return proj, dist, np.ones(x.shape[0], dtype=bool)

    def tangent_project_batch(self, z: np.ndarray, w: np.ndarray, *,
                              out: np.ndarray | None = None) -> np.ndarray:
        return self._by_blocks(lambda b: (b @ self._frame.T) @ self._frame,
                               w, out)

    def exp_batch(self, z: np.ndarray, v: np.ndarray, *,
                  norms: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
        return np.add(z, v, out=out)

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
