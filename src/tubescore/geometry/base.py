"""Core embedded-manifold types.

A point is a length-D row of ambient coordinates and a tangent vector at it
is another such row; a batch of either is an (n, D) array.  The concrete
manifolds implement every operation as a batch kernel over rows, and a
kernel that can fail at some rows (projection outside the tube, log map or
transport at the cut locus) returns a mask of the rows it answered.  The
frames of :meth:`Manifold.frames_batch` are the one frame convention.
"""
from __future__ import annotations

import abc
import math

import numpy as np

from ..errors import ManifoldMismatch

POINT_ATOL = 1e-10


class Manifold(abc.ABC):
    """A smooth compact-or-affine manifold isometrically embedded in R^D."""

    # ---- identity ----------------------------------------------------

    @property
    @abc.abstractmethod
    def name(self) -> str: ...

    @abc.abstractmethod
    def key(self) -> tuple:
        """Hashable identity used for equality and grid caching."""

    def __eq__(self, other):
        return isinstance(other, Manifold) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return self.name

    # ---- scalar geometry ----------------------------------------------

    @property
    @abc.abstractmethod
    def ambient_dim(self) -> int: ...

    @property
    @abc.abstractmethod
    def intrinsic_dim(self) -> int: ...

    @property
    @abc.abstractmethod
    def reach(self) -> float: ...

    @property
    @abc.abstractmethod
    def injectivity_radius(self) -> float: ...

    @property
    @abc.abstractmethod
    def volume(self) -> float: ...

    @property
    def codim(self) -> int:
        return self.ambient_dim - self.intrinsic_dim

    @property
    def tube_radius(self) -> float:
        """Working tube radius r0 = 0.9 * reach."""
        return 0.9 * self.reach

    # ---- array kernels (batch, no wrapper types) -----------------------

    @abc.abstractmethod
    def project_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest-point projection of ambient rows.

        Returns ``(proj, dist, in_tube)``; ``dist`` is each row's exact
        distance to the manifold, and rows with ``in_tube`` False carry an
        arbitrary valid point in ``proj`` and must be discarded by the caller.
        """

    @abc.abstractmethod
    def tangent_project_batch(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ambient rows ``w`` onto T_{z_i}M."""

    @abc.abstractmethod
    def exp_batch(self, z: np.ndarray, v: np.ndarray, *,
                  norms: np.ndarray | None = None) -> np.ndarray:
        """Rowwise exponential map Exp_{z_i}(v_i).

        ``norms``, when given, holds ``row_norms(v)``; a manifold whose map
        needs the step lengths uses it in place of its own pass.
        """

    @abc.abstractmethod
    def log_batch(self, z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rowwise log map with an ``ok`` mask (False at/near the cut locus)."""

    @abc.abstractmethod
    def transport_to_batch(
        self, p: np.ndarray, v: np.ndarray, z: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Parallel transport of ``v_i`` at ``p_i`` to the single point ``z``."""

    @abc.abstractmethod
    def distance_to_batch(self, p: np.ndarray, z: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def second_fundamental(self, z: np.ndarray) -> np.ndarray:
        """Coefficients h[n, a, i, j] = <II(e_i, e_j), n_a> at rows ``z``,
        in the frames of :meth:`frames_batch`, shape (n, D - d, d, d)."""

    @abc.abstractmethod
    def ricci_matrix(self, z: np.ndarray) -> np.ndarray:
        """Intrinsic Ricci operator at rows ``z`` in the tangent rows of
        :meth:`frames_batch`, shape (n, d, d)."""

    @abc.abstractmethod
    def fiber_from_coeffs(self, m: np.ndarray, sigma: float) -> np.ndarray:
        """Gaussian fiber average of the tube Jacobian det(I - W_u).

        ``m`` holds normal-frame coefficients, shape (N, D - d); ``u`` is
        integrated over the whole normal space with mean ``m`` and scale
        ``sigma`` (no tube truncation; the Jacobian determinant is a
        polynomial of degree <= d, so the average is a closed form).
        """

    @abc.abstractmethod
    def frames_batch(self, z: np.ndarray) -> np.ndarray:
        """Orthonormal ambient frames at rows ``z``, shape (n, D, D).

        The first d rows of each frame span the tangent space and the rest
        the normal space.  These are the library's only frames: the
        coordinates of :meth:`polar_chords`, :meth:`fiber_from_coeffs`,
        :meth:`second_fundamental` and :meth:`ricci_matrix` are taken in
        them.  The result may be a read-only view.
        """

    @abc.abstractmethod
    def polar_chords(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Chord of Exp_z(v) in the frames of :meth:`frames_batch`.

        ``v`` holds tangent coordinates, shape (N, d).  Returns the chord
        Exp_z(v) - z in frame coordinates (N, D), tangential part G(v) first
        and normal part m(v) after it, and the log Jacobian of Exp_z (N,).
        The geometries are homogeneous, so neither depends on z:
        Exp_z(v) = z + chord @ F(z) at every base point.
        """

    @property
    @abc.abstractmethod
    def band_radius(self) -> float:
        """Largest geodesic radius whose disk stays inside the tube band."""

    @abc.abstractmethod
    def random_coords(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Generic sample points for tests (uniform where the volume is finite)."""

    @abc.abstractmethod
    def grid(self, resolution: int, **kwargs) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic quadrature rule: (nodes, weights) for integrals
        sum_j w_j f(y_j), nodes as coordinate rows.  On a compact manifold
        the weights sum to the volume."""

    def curvature_bundle(self, z: np.ndarray):
        """Curvature data at the coordinate rows ``z``."""
        from .curvature import build_bundle

        return build_bundle(self, z)

    def point_row(self, z) -> np.ndarray:
        """``z`` as a float row, checked to be a point of this manifold:
        its shape is (D,) and its distance to the manifold, as
        :meth:`project_batch` measures it, at most POINT_ATOL.  Raises
        ManifoldMismatch otherwise."""
        z = np.asarray(z, dtype=float)
        if (z.shape != (self.ambient_dim,)
                or not self.project_batch(z[None, :])[1][0] <= POINT_ATOL):
            raise ManifoldMismatch(f"row {z} is not a point of {self.name}")
        return z


def wrap_angle(theta: np.ndarray) -> np.ndarray:
    """Wrap to (-pi, pi]."""
    out = np.mod(theta + math.pi, 2.0 * math.pi) - math.pi
    return np.where(out == -math.pi, math.pi, out)


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dot products of two (n, D) arrays, summed column by column.

    The sum runs left to right, which is the order numpy's reduction uses
    on rows of fewer than 8 entries, so the bits equal
    ``np.sum(a * b, axis=1)`` while narrow rows cost about a third.
    """
    out = a[:, 0] * b[:, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j] * b[:, j]
    return out


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean row norms in the order of ``row_dots``; the bits of
    ``np.linalg.norm(x, axis=1)`` on rows of fewer than 8 entries."""
    return np.sqrt(row_dots(x, x))
