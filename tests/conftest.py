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
    raise ValueError(name)


ALL_MANIFOLDS = ["sphere1", "sphere2", "sphere3", "sphere4", "torus", "torus12", "plane"]
GRIDDED_MANIFOLDS = ["sphere1", "sphere2", "sphere3", "torus", "torus12", "plane"]


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def random_tangent(manifold, z, rng, scale=1.0):
    basis = manifold.tangent_basis(z.coords)
    return manifold.tangent(z, (scale * rng.standard_normal(manifold.intrinsic_dim)) @ basis)


def fd_gradient(fn, manifold, z, step=1e-4):
    """Central geodesic differences of the row function ``fn`` at the point
    row ``z``, along the tangent basis, as an ambient tangent vector."""
    basis = manifold.tangent_basis(z)
    steps = np.concatenate([step * basis, -step * basis])
    vals = fn(manifold.exp_batch(np.broadcast_to(z, steps.shape), steps))
    d = basis.shape[0]
    return ((vals[:d] - vals[d:]) / (2.0 * step)) @ basis


def fd_laplacian(fn, manifold, z, step=1e-3):
    """Geodesic second differences of the row function ``fn`` at the point
    row ``z``, summed over the tangent basis."""
    basis = manifold.tangent_basis(z)
    steps = np.concatenate([step * basis, -step * basis])
    vals = fn(manifold.exp_batch(np.broadcast_to(z, steps.shape), steps))
    d = basis.shape[0]
    mid = fn(z[None])[0]
    return float(np.sum(vals[:d] - 2.0 * mid + vals[d:]) / step**2)
