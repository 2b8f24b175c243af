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
        """Hashable identity used for equality and as the key of the
        oracle's cached polar rules."""

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
    def tangent_project_batch(self, z: np.ndarray, w: np.ndarray, *,
                              out: np.ndarray | None = None) -> np.ndarray:
        """Orthogonal projection of ambient rows ``w`` onto T_{z_i}M.

        ``out``, when given, is an array of w's shape that receives the
        projection and is returned; it must share no memory with ``z`` or
        ``w``.  The bits are those of the call without it.
        """

    @abc.abstractmethod
    def exp_batch(self, z: np.ndarray, v: np.ndarray, *,
                  norms: np.ndarray | None = None,
                  out: np.ndarray | None = None) -> np.ndarray:
        """Rowwise exponential map Exp_{z_i}(v_i).

        ``norms``, when given, holds ``row_norms(v)``; a manifold whose map
        needs the step lengths uses it in place of its own pass.  ``out``,
        when given, is an array of z's shape that receives the points and
        is returned; it may be ``z`` itself, which then steps in place, but
        must share no memory with ``v``.  The bits are those of the call
        without it.
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
    def transport_sums(
        self, p: np.ndarray, v: np.ndarray, z: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Weighted sums of the transports of ``v_i`` at ``p_i`` to each
        row of ``z``, without forming them.

        ``p`` and ``v`` hold n feet and their tangent rows, ``z`` holds P
        destination rows and ``w`` the (K, P, n) weights.  Returns the
        (K, P, D) sums of w[k, j, i] times the transport of v_i to z_j, and
        the (K, P) sums of those weights, both over the pairs that
        :meth:`transport_to_batch` answers (pairs at the cut locus are
        left out).  Each (k, j) row is summed on its own, through
        :func:`weighted_sums`, so its bits do not depend on the other rows.
        """

    @abc.abstractmethod
    def distance_to_batch(self, p: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Geodesic distances from the rows ``p`` to the point row ``z``,
        shape (n,), or to each of P point rows, shape (P, n); row j of the
        latter has the bits of the call with ``z[j]`` alone."""

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


# most column-major rows whose products row_dots forms all at once.  One
# product and one reduction make fewer passes than the column loop, which
# pays while the (D, n) product stays in cache.  Timed interleaved on one
# core of a 2-core Xeon for D = 3 to 5, the reduction took 0.4 to 0.6 times
# the loop's time at 64 and 128 rows, 0.6 to 0.8 at 2,048, 0.8 to 1.1 at
# 4,096, 1.0 at 8,192, 0.9 to 1.2 at 16,384 and 1.35 to 1.6 at 32,768 and
# 65,536 rows, with twice its memory.
_DOTS_AT_ONCE = 8192


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dot products of two (n, D) arrays, summed column by column.

    The sum runs left to right, which is the order numpy's reduction uses
    on rows of fewer than 8 entries, so the bits equal
    ``np.sum(a * b, axis=1)`` while narrow rows cost about a third.
    Column-major rows (a Langevin chain's state) of at most
    ``_DOTS_AT_ONCE`` rows form every product at once, as the (D, n)
    transpose, and sum it with one reduction down its columns, which also
    adds left to right; it starts from -0.0, which leaves every sum's bits
    as they are.
    """
    if (a.shape[0] <= _DOTS_AT_ONCE and a.T.flags.c_contiguous
            and b.T.flags.c_contiguous):
        return np.add.reduce(a.T * b.T, axis=0, initial=-0.0)
    out = a[:, 0] * b[:, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j] * b[:, j]
    return out


def row_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances ||a_i - b_i||^2 between the rows of two (n, D)
    arrays, summed column by column in the order of ``row_dots``; the bits
    of ``np.sum((a - b) ** 2, axis=1)`` on rows of fewer than 8 entries.
    Only one column of a - b is held at a time."""
    out = a[:, 0] - b[:, 0]
    out *= out
    for j in range(1, a.shape[1]):
        col = a[:, j] - b[:, j]
        col *= col
        out += col
    return out


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean row norms in the order of ``row_dots``; the bits of
    ``np.linalg.norm(x, axis=1)`` on rows of fewer than 8 entries."""
    return np.sqrt(row_dots(x, x))


def weighted_sums(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The sums over i of ``w[..., i] * x[i]``, shape w.shape[:-1] + (D,).

    Each weight row is its own vector-matrix product.  One matrix product
    over all the rows would be faster, but the BLAS picks its kernels by
    the number of rows, so a row's bits would change with the rows summed
    beside it.
    """
    return (w[..., None, :] @ x)[..., 0, :]
