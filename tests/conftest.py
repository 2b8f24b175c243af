import math

import numpy as np
import pytest

from tubescore import AffinePlane, FlatTorus, Sphere
from tubescore.densities import (
    IsotropicGaussian,
    ProductVonMises,
    Uniform,
    VonMisesFisher,
)
from tubescore.geometry.quadrature import gauss_legendre, sphere_rule


def wrap_angle(theta):
    """Wrap to (-pi, pi]."""
    out = np.mod(theta + math.pi, 2.0 * math.pi) - math.pi
    return np.where(out == -math.pi, math.pi, out)


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


# ---------------------------------------------------------------------------
# test references: volume rules off the spheres and closed-form Laplacians


def volume_rule(manifold, n, half_width=8.0):
    """Deterministic product rule (nodes, weights), nodes as coordinate
    rows: ``sphere_rule`` on S^1 to S^3, n uniform angles on each circle of
    a flat torus, and n Gauss-Legendre nodes per axis on the chart box
    [-half_width, half_width]^d of a plane.  On a compact manifold the
    weights sum to the volume, on a plane to the box volume."""
    if isinstance(manifold, Sphere):
        return sphere_rule(manifold.intrinsic_dim, n)
    if isinstance(manifold, FlatTorus):
        theta = 2.0 * math.pi * np.arange(n) / n - math.pi
        t1, t2 = np.meshgrid(theta, theta, indexing="ij")
        nodes = manifold.from_angles(np.stack([t1.ravel(), t2.ravel()],
                                              axis=-1))
        r1, r2 = manifold.radii
        return nodes, np.full(n * n, r1 * r2 * (2.0 * math.pi / n) ** 2)
    d = manifold.intrinsic_dim
    x, w = gauss_legendre(n, -half_width, half_width)
    coords = np.stack([a.ravel() for a in np.meshgrid(*([x] * d),
                                                      indexing="ij")], axis=-1)
    weights = np.ones(n**d)
    for wa in np.meshgrid(*([w] * d), indexing="ij"):
        weights *= wa.ravel()
    return manifold.embed(coords), weights


def log_laplacian(model, coords):
    """Delta_M log q at each row, in closed form for the four densities."""
    if isinstance(model, VonMisesFisher):
        # <mu, z> restricted to S^d is a first spherical harmonic:
        # Delta_M <mu, z> = -d <mu, z>
        return -model.kappa * model.manifold.intrinsic_dim * (coords @ model.mu)
    if isinstance(model, ProductVonMises):
        delta = model.manifold.angles(coords) - np.asarray(model.phases)
        (r1, r2), (k1, k2) = model.manifold.radii, model.kappas
        return (-k1 * np.cos(delta[:, 0]) / r1**2
                - k2 * np.cos(delta[:, 1]) / r2**2)
    if isinstance(model, IsotropicGaussian):
        return np.full(coords.shape[0],
                       -model.manifold.intrinsic_dim / model.tau**2)
    if isinstance(model, Uniform):
        return np.zeros(coords.shape[0])
    raise TypeError(f"no closed-form Laplacian for {type(model).__name__}")


# ---------------------------------------------------------------------------
# reference row kernels: the (n, D) formulas that broadcast each per-row
# scalar across a row's few entries; the library's kernels work on the
# transposed rows and must give these bits in the same memory order


def same_rows(got, want):
    """Equal bits, shape and memory order."""
    return (np.array_equal(got, want)
            and got.flags.c_contiguous == want.flags.c_contiguous
            and got.flags.f_contiguous == want.flags.f_contiguous)


def reference_sample_chi(marginal, u):
    return np.interp(u, marginal._chi_cdf, marginal._chi)


def reference_vmf_sample_coords(model, n, rng):
    chi = reference_sample_chi(model.t_marginal(), rng.random(n))
    t = np.cos(chi)
    s = np.sin(chi)
    w = rng.standard_normal((n, model.manifold.ambient_dim))
    w -= (w @ model.mu)[:, None] * model.mu[None, :]
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    out = t[:, None] * model.mu[None, :] + s[:, None] * w
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def reference_sphere_project(manifold, x):
    norms = np.linalg.norm(x, axis=1)
    dist = np.abs(norms - 1.0)
    in_tube = dist < manifold.tube_radius
    safe = np.where(norms > 1e-15, norms, 1.0)
    proj = x / safe[:, None]
    bad = norms <= 1e-15
    if np.any(bad):
        proj = proj.copy()
        proj[bad] = 0.0
        proj[bad, 0] = 1.0
        in_tube = in_tube & ~bad
    return proj, dist, in_tube


def reference_sphere_tangent_project(z, w):
    return w - np.sum(w * z, axis=1)[:, None] * z


def reference_sphere_log(z, y, cut_tol=1e-12):
    c = np.clip(np.sum(z * y, axis=1), -1.0, 1.0)
    ok = c > -1.0 + cut_tol
    theta = np.arccos(c)
    rest = y - c[:, None] * z
    s = np.linalg.norm(rest, axis=1)
    small = theta < 1e-9
    factor = np.where(small, 1.0, theta / np.where(s > 0, s, 1.0))
    return factor[:, None] * rest, ok


def reference_sphere_transport(p, v, z, cut_tol=1e-12):
    c = p @ z
    ok = c > -1.0 + cut_tol
    s = p + z
    k = 2.0 * np.sum(v * s, axis=1) / np.where(ok, np.sum(s * s, axis=1), 1.0)
    return v - k[:, None] * s, ok


def reference_sphere_polar_chords(manifold, v):
    rho = np.linalg.norm(v, axis=1)
    sinc = np.sinc(rho / math.pi)
    chord = np.column_stack([sinc[:, None] * v, np.cos(rho) - 1.0])
    return chord, (manifold.intrinsic_dim - 1) * np.log(sinc)


def reference_sphere_random_coords(manifold, rng, n):
    x = rng.standard_normal((n, manifold.ambient_dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)
