"""Core embedded-manifold types.

Points and tangent vectors are thin validated wrappers around ambient
coordinate arrays; all numerical work happens in array-level kernels that the
concrete manifolds implement, so batch callers never pay per-sample object
overhead.
"""
from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from ..errors import (
    BeyondInjectivity,
    CutLocus,
    ManifoldMismatch,
    OutsideTube,
)

POINT_ATOL = 1e-10
TANGENT_ATOL = 1e-10


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


def ensure_same_manifold(a: "Manifold", b: "Manifold") -> None:
    if a != b:
        raise ManifoldMismatch(f"manifolds differ: {a.name} vs {b.name}")


@dataclass(frozen=True, eq=False)
class ManifoldPoint:
    """A point on a manifold, stored in ambient coordinates."""

    manifold: "Manifold"
    coords: np.ndarray

    def __post_init__(self):
        coords = _readonly(self.coords)
        if coords.shape != (self.manifold.ambient_dim,):
            raise ValueError(
                f"expected coords of shape ({self.manifold.ambient_dim},), got {coords.shape}"
            )
        res = float(self.manifold.constraint_residual_batch(coords[None, :])[0])
        if not res <= POINT_ATOL:
            raise ValueError(f"point violates manifold constraint: residual {res:.3e}")
        object.__setattr__(self, "coords", coords)

    def __repr__(self):
        return f"ManifoldPoint({self.manifold.name}, {np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True, eq=False)
class TangentVector:
    """An ambient vector constrained to the tangent space at ``point``."""

    point: ManifoldPoint
    vec: np.ndarray

    def __post_init__(self):
        vec = _readonly(self.vec)
        if vec.shape != self.point.coords.shape:
            raise ValueError("tangent vector and base point dimensions differ")
        z = self.point.coords[None, :]
        tang = self.point.manifold.tangent_project_batch(z, vec[None, :])[0]
        res = float(np.linalg.norm(vec - tang))
        if not res <= TANGENT_ATOL * max(1.0, float(np.linalg.norm(vec))):
            raise ValueError(f"vector has a normal component: residual {res:.3e}")
        object.__setattr__(self, "vec", vec)

    @property
    def manifold(self) -> "Manifold":
        return self.point.manifold

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def __repr__(self):
        return f"TangentVector(at {np.array2string(self.point.coords, precision=4)}, {np.array2string(self.vec, precision=6)})"


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
    def constraint_residual_batch(self, x: np.ndarray) -> np.ndarray:
        """Distance of ambient rows to the manifold (exact for our geometries)."""

    @abc.abstractmethod
    def project_batch(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest-point projection of ambient rows.

        Returns ``(proj, dist, in_tube)``; rows with ``in_tube`` False carry an
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
    def tangent_basis(self, z: np.ndarray) -> np.ndarray:
        """Deterministic orthonormal tangent frame, shape (d, D)."""

    @abc.abstractmethod
    def normal_basis(self, z: np.ndarray) -> np.ndarray:
        """Deterministic orthonormal normal frame, shape (D - d, D)."""

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
        the normal space.  These are the frames in which :meth:`polar_chords`
        holds; the tangent rows need not equal :meth:`tangent_basis`.
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
    def grid(self, resolution: int, **kwargs):
        """Deterministic quadrature grid; see :mod:`tubescore.geometry.quadrature`."""

    # ---- typed wrappers -------------------------------------------------

    def point(self, coords) -> ManifoldPoint:
        return ManifoldPoint(self, np.asarray(coords, dtype=float))

    def tangent(self, z: ManifoldPoint, vec) -> TangentVector:
        ensure_same_manifold(self, z.manifold)
        return TangentVector(z, np.asarray(vec, dtype=float))

    def project(self, x) -> ManifoldPoint:
        x = np.asarray(x, dtype=float)
        proj, dist, in_tube = self.project_batch(x[None, :])
        if not in_tube[0]:
            raise OutsideTube(
                f"distance {dist[0]:.4g} exceeds the tube radius {self.tube_radius:.4g}"
            )
        return self.point(proj[0])

    def tangent_projector(self, z: ManifoldPoint) -> np.ndarray:
        ensure_same_manifold(self, z.manifold)
        basis = self.tangent_basis(z.coords)
        return basis.T @ basis

    def exp_map(self, z: ManifoldPoint, v: TangentVector) -> ManifoldPoint:
        ensure_same_manifold(self, z.manifold)
        if v.point is not z and not np.array_equal(v.point.coords, z.coords):
            raise ValueError("tangent vector is based at a different point")
        r = v.norm()
        if r >= self.injectivity_radius:
            raise BeyondInjectivity(
                f"step length {r:.4g} >= injectivity radius {self.injectivity_radius:.4g}"
            )
        out = self.exp_batch(z.coords[None, :], v.vec[None, :])[0]
        return self.point(out)

    def log_map(self, z: ManifoldPoint, y: ManifoldPoint) -> TangentVector:
        ensure_same_manifold(self, z.manifold)
        ensure_same_manifold(self, y.manifold)
        v, ok = self.log_batch(z.coords[None, :], y.coords[None, :])
        if not ok[0]:
            raise CutLocus("points are at or numerically near the cut locus")
        return TangentVector(z, v[0])

    def parallel_transport(
        self, z: ManifoldPoint, y: ManifoldPoint, v: TangentVector
    ) -> TangentVector:
        ensure_same_manifold(self, z.manifold)
        ensure_same_manifold(self, y.manifold)
        out, ok = self.transport_to_batch(z.coords[None, :], v.vec[None, :], y.coords)
        if not ok[0]:
            raise CutLocus("no unique minimizing geodesic between the points")
        return TangentVector(y, out[0])

    def geodesic_distance(self, z: ManifoldPoint, y: ManifoldPoint) -> float:
        ensure_same_manifold(self, z.manifold)
        ensure_same_manifold(self, y.manifold)
        return float(self.distance_to_batch(y.coords[None, :], z.coords)[0])

    def fiber_factor(self, z: ManifoldPoint, m, sigma: float) -> float:
        """Fiber average of the tube Jacobian for a normal offset ``m`` at ``z``."""
        ensure_same_manifold(self, z.manifold)
        m = np.asarray(m, dtype=float)
        if m.shape != (self.ambient_dim,):
            raise ValueError("normal offset must be an ambient vector")
        nb = self.normal_basis(z.coords)
        coeffs = nb @ m
        tang_part = m - coeffs @ nb
        if np.linalg.norm(tang_part) > TANGENT_ATOL * max(1.0, float(np.linalg.norm(m))):
            raise ValueError("offset has a tangential component")
        value = float(self.fiber_from_coeffs(coeffs[None, :], float(sigma))[0])
        # Underflow guard keeps downstream log-domain accumulation finite.
        return max(value, 1e-300)

    def curvature_bundle(self, z: np.ndarray):
        """Curvature data at the coordinate rows ``z``."""
        from .curvature import build_bundle

        return build_bundle(self, z)

    def random_point(self, rng: np.random.Generator) -> ManifoldPoint:
        return self.point(self.random_coords(rng, 1)[0])


def gram_schmidt_complement(rows: np.ndarray, dim: int, ambient: int) -> np.ndarray:
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
