import numpy as np
import pytest

from tubescore import AffinePlane, FlatTorus, Sphere


def make_manifold(name):
    if name.startswith("sphere"):
        return Sphere(int(name[-1]))
    if name == "torus":
        return FlatTorus(1.0, 1.0)
    if name == "torus12":
        return FlatTorus(1.0, 2.0)
    if name == "plane":
        return AffinePlane.axis_aligned(2, 4)
    if name == "oblique_plane":
        # a seeded rotated frame and a nonzero basepoint: the normal
        # complement is no pair of coordinate axes
        rng = np.random.default_rng(7)
        rotation, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        return AffinePlane(rng.standard_normal(4), rotation[:, :2].T)
    raise ValueError(name)


ALL_MANIFOLDS = ["sphere1", "sphere2", "sphere3", "sphere4", "torus", "torus12", "plane",
                 "oblique_plane"]
GRIDDED_MANIFOLDS = ["sphere1", "sphere2", "sphere3", "torus", "torus12", "plane"]


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def tangent_rows(manifold, z):
    """The tangent rows of the frame at the point row ``z``, shape (d, D)."""
    return manifold.frames_batch(z[None])[0, :manifold.intrinsic_dim]


def random_tangent(manifold, z, rng, scale=1.0):
    """Tangent rows at the point rows ``z``: Gaussian coordinates of the
    given scale in each row's frame, shape (n, D)."""
    frames = manifold.frames_batch(z)[:, :manifold.intrinsic_dim]
    coeffs = scale * rng.standard_normal((z.shape[0], manifold.intrinsic_dim))
    return np.einsum("nk,nkD->nD", coeffs, frames)


def fd_gradient(fn, manifold, z, step=1e-4):
    """Central geodesic differences of the row function ``fn`` at the point
    row ``z``, along the frame's tangent rows, as an ambient tangent vector."""
    basis = tangent_rows(manifold, z)
    steps = np.concatenate([step * basis, -step * basis])
    vals = fn(manifold.exp_batch(np.broadcast_to(z, steps.shape), steps))
    d = basis.shape[0]
    return ((vals[:d] - vals[d:]) / (2.0 * step)) @ basis


def fd_laplacian(fn, manifold, z, step=1e-3):
    """Geodesic second differences of the row function ``fn`` at the point
    row ``z``, summed over the frame's tangent rows."""
    basis = tangent_rows(manifold, z)
    steps = np.concatenate([step * basis, -step * basis])
    vals = fn(manifold.exp_batch(np.broadcast_to(z, steps.shape), steps))
    d = basis.shape[0]
    mid = fn(z[None])[0]
    return float(np.sum(vals[:d] - 2.0 * mid + vals[d:]) / step**2)
