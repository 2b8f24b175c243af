import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad, quad

from tubescore import AffinePlane, FlatTorus, Sphere, VonMisesFisher
from tubescore.errors import BeyondInjectivity, ManifoldMismatch
from tubescore.geometry import gauss_legendre, wrap_angle
from tubescore.geometry.base import POINT_ATOL, row_dots, row_norms
from tubescore.langevin import ChainConfig, DriftSpec, run_chains

from conftest import (
    ALL_MANIFOLDS,
    GRIDDED_MANIFOLDS,
    make_manifold,
    random_tangent,
    tangent_rows,
)

# Properties run on the batch kernels over generated rows: few examples,
# each of many rows.
SEEDS = st.integers(0, 2**32 - 1)
ROWS = settings(max_examples=5, deadline=None, derandomize=True)
N = 200


def generated(M, seed, n=N):
    """n generated point rows of M, and the generator that drew them."""
    rng = np.random.default_rng(seed)
    return M.random_coords(rng, n), rng


def normal_rows(M, z):
    """Normal rows of the frames at the point rows z, (n, D - d, D)."""
    return M.frames_batch(z)[:, M.intrinsic_dim:]


def tangent_residual(M, z, v):
    """Norm of each row's normal part at z, relative to max(1, |v|)."""
    normal = v - M.tangent_project_batch(z, v)
    return row_norms(normal) / np.maximum(1.0, row_norms(v))


def pair_distances(M, a, b):
    """Geodesic distances d_M(a_i, b_i) between paired point rows."""
    return np.array([M.distance_to_batch(x[None], y)[0] for x, y in zip(a, b)])


# ---------------------------------------------------------------------------
# point rows, tangent rows, projection


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
@ROWS
@given(seed=SEEDS)
def test_point_validation_rejects_off_manifold(name, seed):
    M = make_manifold(name)
    z, _ = generated(M, seed)
    off = z + 1e-3 * np.ones(M.ambient_dim)
    assert M.project_batch(z)[1].max() <= POINT_ATOL
    assert M.project_batch(off)[1].min() > POINT_ATOL
    for good, bad in zip(z[:20], off[:20]):
        assert np.array_equal(M.point_row(good), good)
        with pytest.raises(ManifoldMismatch):
            M.point_row(bad)


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
@ROWS
@given(seed=SEEDS)
def test_tangent_validation_rejects_normal_component(name, seed):
    M = make_manifold(name)
    z, rng = generated(M, seed)
    v = random_tangent(M, z, rng)
    assert tangent_residual(M, z, v).max() <= 1e-10
    bent = v + 0.5 * normal_rows(M, z)[:, 0]
    assert tangent_residual(M, z, bent).min() > 1e-10


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
@ROWS
@given(seed=SEEDS)
def test_projection_orthogonality(name, seed):
    M = make_manifold(name)
    z, _ = generated(M, seed)
    normals = normal_rows(M, z)
    offset = 0.4 * M.tube_radius if math.isfinite(M.tube_radius) else 0.7
    x = z + offset * normals[:, 0] + (0.3 * offset) * normals[:, -1]
    proj, _, in_tube = M.project_batch(x)
    assert in_tube.all()
    assert M.project_batch(proj)[1].max() <= POINT_ATOL
    tangent = M.frames_batch(proj)[:, :M.intrinsic_dim]
    resid = np.einsum("nkD,nD->nk", tangent, x - proj)
    assert np.max(np.abs(resid)) <= 1e-10


def test_projection_outside_tube_sphere():
    # the center and a row beyond the tube are masked; 1.89 is just inside
    # the tube boundary |r - 1| < 0.9
    x = np.array([[0.0, 0.0, 0.0], [2.5, 0.0, 0.0], [1.89, 0.0, 0.0]])
    _, _, in_tube = Sphere(2).project_batch(x)
    assert in_tube.tolist() == [False, False, True]


def test_projection_outside_tube_torus():
    x = np.array([[0.0, 0.0, 1.0, 0.0], [1.3, 0.0, 0.2, -0.2]])
    proj, _, in_tube = FlatTorus(1.0, 1.0).project_batch(x)
    assert in_tube.tolist() == [False, True]
    assert np.allclose(proj[1, :2], [1.0, 0.0])


# ---------------------------------------------------------------------------
# exp / log / transport / distance


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
@ROWS
@given(seed=SEEDS)
def test_exp_log_roundtrip(name, seed):
    M = make_manifold(name)
    z, rng = generated(M, seed)
    v = random_tangent(M, z, rng, scale=0.4)
    y = M.exp_batch(z, v)
    assert M.project_batch(y)[1].max() <= 1e-10
    w, ok = M.log_batch(z, y)
    assert ok.all()
    assert tangent_residual(M, z, w).max() <= 1e-10
    norms = row_norms(v)
    assert np.all(np.abs(w - v).max(axis=1) <= 1e-9 * np.maximum(1.0, norms))
    assert np.abs(pair_distances(M, y, z) - norms).max() <= 1e-9


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
@ROWS
@given(seed=SEEDS)
def test_transport_is_isometric(name, seed):
    # feet anywhere, carried to a few destinations; rows that the ok mask
    # refuses (at the cut locus of the destination) are skipped
    M = make_manifold(name)
    p, rng = generated(M, seed)
    u, v = random_tangent(M, p, rng), random_tangent(M, p, rng)
    bound = 1e-10 * np.maximum(1.0, row_norms(u) * row_norms(v))
    for dest in M.random_coords(rng, 4):
        tu, ok = M.transport_to_batch(p, u, dest)
        tv, ok_v = M.transport_to_batch(p, v, dest)
        assert np.array_equal(ok, ok_v)
        at = np.repeat(dest[None], ok.sum(), axis=0)
        assert tangent_residual(M, at, tu[ok]).max(initial=0.0) <= 1e-10
        gap = np.abs(row_dots(tu, tv) - row_dots(u, v))
        assert np.all(gap[ok] <= bound[ok])


def test_sphere_exp_mixed_rows(rng):
    # zero steps, steps under the 1e-12 series cut-off and ordinary steps,
    # interleaved in one call: each row is evaluated on its own, whichever
    # branch the batch as a whole takes
    M = Sphere(3)
    z = M.random_coords(rng, 12)
    v = M.tangent_project_batch(z, rng.standard_normal((12, 4)))
    zero, tiny = np.arange(0, 12, 3), np.arange(1, 12, 3)
    ordinary = np.arange(2, 12, 3)
    v[zero] = 0.0
    lengths = np.array([1e-14, 3e-14, 1e-13, 5e-13])
    v[tiny] *= (lengths / row_norms(v[tiny]))[:, None]
    out = M.exp_batch(z, v)
    assert np.array_equal(out[ordinary],
                          M.exp_batch(z[ordinary], v[ordinary]))
    tol = 4 * np.finfo(float).eps
    assert np.abs(out[zero] - z[zero]).max() <= tol
    assert np.abs(out[tiny] - (z[tiny] + v[tiny])).max() <= tol
    # precomputed norms and a column-major layout leave every bit alone
    assert np.array_equal(M.exp_batch(z, v, norms=row_norms(v)), out)
    assert np.array_equal(
        M.exp_batch(np.asfortranarray(z), np.asfortranarray(v)), out)


@ROWS
@given(seed=SEEDS)
def test_transport_roundtrip_sphere(seed):
    M = Sphere(2)
    p, rng = generated(M, seed, n=20)
    v = random_tangent(M, p, rng)
    for dest in M.random_coords(rng, 2):
        there, ok = M.transport_to_batch(p, v, dest)
        assert ok.all()
        back = np.array([M.transport_to_batch(dest[None], t[None], foot)[0][0]
                         for t, foot in zip(there, p)])
        assert np.max(np.abs(back - v)) <= 1e-10


def _geodesic_transport(p, v, z):
    """Reference transport along the great circle from p to z, through its
    angle (arccos, sin, cos): independent of the closed form under test."""
    c = p @ z
    w = z[None, :] - c[:, None] * p
    s = np.linalg.norm(w, axis=1)
    aligned = s < 1e-12
    u = w / np.where(aligned, 1.0, s)[:, None]
    a = np.sum(v * u, axis=1)
    theta = np.arccos(np.clip(c, -1.0, 1.0))
    out = v + a[:, None] * ((np.cos(theta) - 1.0)[:, None] * u
                            - np.sin(theta)[:, None] * p)
    out = np.where(aligned[:, None], v, out)
    return out - (out @ z)[:, None] * z[None, :]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sphere_transport_closed_form(dim, rng):
    M = Sphere(dim)
    z = M.random_coords(rng, 1)[0]
    # feet at every angle from 0 to pi - 1e-3, plus z itself
    n = 400
    angle = np.concatenate([rng.uniform(0.0, math.pi - 1e-3, n - 2),
                            [math.pi - 1e-3, 0.0]])
    u = M.tangent_project_batch(np.broadcast_to(z, (n, dim + 1)),
                                rng.standard_normal((n, dim + 1)))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    p = np.cos(angle)[:, None] * z + np.sin(angle)[:, None] * u
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    v = M.tangent_project_batch(p, rng.standard_normal((n, dim + 1)))
    got, ok = M.transport_to_batch(p, v, z)
    assert ok.all()
    assert np.max(np.abs(got - _geodesic_transport(p, v, z))) <= 1e-12
    assert np.max(np.abs(got[-1] - v[-1])) <= 1e-15
    # random pairs, and the antipode, whose transport is masked
    p = np.vstack([M.random_coords(rng, 50), -z])
    v = M.tangent_project_batch(p, rng.standard_normal((51, dim + 1)))
    got, ok = M.transport_to_batch(p, v, z)
    keep = (p @ z) > -1.0 + 1e-3
    assert np.max(np.abs(got[keep] - _geodesic_transport(p, v, z)[keep])) \
        <= 1e-12
    assert not ok[-1] and ok[:-1].all()
    assert np.all(np.isfinite(got))


@ROWS
@given(seed=SEEDS)
def test_cut_locus_and_injectivity_errors(seed):
    # the kernels mask pairs at the cut locus: antipodes on the sphere, a
    # half turn of either circle on the torus
    M = Sphere(2)
    z, rng = generated(M, seed, n=50)
    _, ok = M.log_batch(z, -z)
    assert not ok.any()
    v = random_tangent(M, -z, rng)
    for i in range(3):
        _, ok = M.transport_to_batch(-z, v, z[i])
        assert not ok[i] and np.delete(ok, i).all()

    T = FlatTorus(1.0, 2.0)
    theta = rng.uniform(-math.pi, math.pi, size=(50, 2))
    other = rng.uniform(-3.0, 3.0, size=50)
    for axis in (0, 1):
        shift = np.zeros((50, 2))
        shift[:, axis] = math.pi
        shift[:, 1 - axis] = other
        _, ok = T.log_batch(T.from_angles(theta), T.from_angles(theta + shift))
        assert not ok.any()

    # a chain step as long as the injectivity radius is refused
    q = VonMisesFisher(M, np.array([0.0, 0.0, 1.0]), 2.0)
    cfg = ChainConfig(step=0.9, n_steps=1, burn_in=0, thinning=1, seed=seed,
                      initial=[1.0, 0.0, 0.0])
    with pytest.raises(BeyondInjectivity):
        run_chains(q, DriftSpec("intrinsic", scale=50.0), cfg)


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
@ROWS
@given(seed=SEEDS)
def test_triangle_inequality(name, seed):
    M = make_manifold(name)
    a, rng = generated(M, seed)
    b, c = M.random_coords(rng, N), M.random_coords(rng, N)
    dab, dbc, dac = (pair_distances(M, x, y) for x, y in ((a, b), (b, c), (a, c)))
    assert np.all(dac <= dab + dbc + 1e-12)


@ROWS
@given(seed=SEEDS)
def test_torus_distance_matches_flat_metric(seed):
    # angle offsets short of a half turn: the distance is the flat metric
    T = FlatTorus(1.0, 2.0)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-math.pi, math.pi, size=(N, 2))
    delta = rng.uniform(-3.1, 3.1, size=(N, 2))
    got = pair_distances(T, T.from_angles(theta + delta), T.from_angles(theta))
    expect = np.hypot(1.0 * delta[:, 0], 2.0 * delta[:, 1])
    assert np.abs(got - expect).max() <= 1e-12


@ROWS
@given(seed=SEEDS)
def test_torus_embed_tangent_uses_the_frames(seed):
    # coordinates c in the unit tangent rows of frames_batch, and back
    T = FlatTorus(1.0, 2.0)
    z, rng = generated(T, seed)
    c = rng.standard_normal((N, 2))
    tangent = T.frames_batch(z)[:, :2]
    v = T.embed_tangent(z, c)
    assert np.abs(v - np.einsum("nk,nkD->nD", c, tangent)).max() <= 1e-14
    assert np.abs(np.einsum("nkD,nD->nk", tangent, v) - c).max() <= 1e-14


# ---------------------------------------------------------------------------
# frames and curvature


def projector(M, z):
    """The tangent projector at the point row z, as a (D, D) matrix."""
    D = M.ambient_dim
    return M.tangent_project_batch(np.repeat(z[None], D, axis=0), np.eye(D))


def test_tangent_projector_examples():
    z = np.array([1.0, 0.0, 0.0])
    assert np.allclose(projector(Sphere(2), z), np.eye(3) - np.outer(z, z),
                       atol=1e-14)
    zt = np.array([1.0, 0.0, 1.0, 0.0])
    assert np.allclose(projector(FlatTorus(1.0, 1.0), zt),
                       np.diag([0.0, 1.0, 0.0, 1.0]), atol=1e-14)


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
@ROWS
@given(seed=SEEDS)
def test_frames_orthonormal_and_adapted(name, seed):
    M = make_manifold(name)
    z, rng = generated(M, seed)
    frames = M.frames_batch(z)
    gram = frames @ frames.transpose(0, 2, 1)
    assert np.max(np.abs(gram - np.eye(M.ambient_dim))) <= 1e-12
    # the tangent rows reproduce the tangent projector of the batch kernels
    tangent = frames[:, :M.intrinsic_dim]
    w = rng.standard_normal(z.shape)
    coeffs = np.einsum("nkD,nD->nk", tangent, w)
    assert np.allclose(M.tangent_project_batch(z, w),
                       np.einsum("nk,nkD->nD", coeffs, tangent), atol=1e-12)


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_gauss_equation(name, seed):
    # one batched call over 100 generated feet; every row passes
    M = make_manifold(name)
    bundle = M.curvature_bundle(M.random_coords(np.random.default_rng(seed), 100))
    assert bundle.frame_residual().shape == (100,)
    assert bundle.frame_residual().max() <= 1e-12
    assert bundle.gauss_residual().max() <= 1e-9


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_sphere_closed_forms(dim, rng):
    M = Sphere(dim)
    z = M.random_coords(rng, 20)
    b = M.curvature_bundle(z)
    assert np.max(np.abs(b.weingarten_mean - dim * np.eye(dim))) <= 1e-12
    assert np.max(np.abs(b.ricci - (dim - 1) * np.eye(dim))) <= 1e-12
    assert np.max(np.abs(b.shape_sum - np.eye(dim))) <= 1e-12
    assert np.allclose(b.mean_curvature_vector(), -dim * z, atol=1e-12)


def test_torus_extrinsic_operator(rng):
    for r1, r2 in [(1.0, 1.0), (1.0, 2.0)]:
        M = FlatTorus(r1, r2)
        b = M.curvature_bundle(M.random_coords(rng, 20))
        expect = 0.5 * np.diag([1.0 / r1**2, 1.0 / r2**2])
        assert np.max(np.abs(b.extrinsic_operator() - expect)) <= 1e-12
        assert np.max(np.abs(b.extrinsic_operator_shape_form() - expect)) <= 1e-12
        assert np.max(np.abs(b.ricci)) == 0.0


# ---------------------------------------------------------------------------
# chord map: G(v), the tangential part of Exp_z(v) - z, as the oracle
# integrates it (``polar_chords``, in the frame coordinates of z)


def frame_chord(M, z, v):
    """G(v) for the tangent rows v at the point row z, as ambient rows."""
    tangent = tangent_rows(M, z)
    chord, _ = M.polar_chords(v @ tangent.T)
    return chord[:, :M.intrinsic_dim] @ tangent


@pytest.mark.parametrize("name", ["sphere2", "sphere3", "torus", "torus12"])
@ROWS
@given(seed=SEEDS)
def test_chord_cubic_slope(name, seed):
    M = make_manifold(name)
    z, rng = generated(M, seed, n=1)
    direction = random_tangent(M, z, rng)[0]
    direction /= np.linalg.norm(direction)
    radii = np.logspace(-2.3, -0.7, 9)
    v = radii[:, None] * direction
    errs = row_norms(frame_chord(M, z[0], v) - v)
    assert np.all(errs > 0)
    slope = np.polyfit(np.log(radii), np.log(errs), 1)[0]
    assert slope >= 2.9


@pytest.mark.parametrize("name", ["sphere2", "sphere3", "torus", "torus12", "plane"])
@ROWS
@given(seed=SEEDS)
def test_chord_odd_part_vanishes(name, seed):
    # All supported geometries have an exactly odd chord map, so the even
    # remainder sits at machine zero, far below any C*||v||^4 envelope.
    M = make_manifold(name)
    z, rng = generated(M, seed, n=10)
    for foot in z:
        v = random_tangent(M, np.repeat(foot[None], 20, axis=0), rng, scale=0.3)
        total = frame_chord(M, foot, v) + frame_chord(M, foot, -v)
        assert row_norms(total).max() <= 1e-12


@ROWS
@given(seed=SEEDS)
def test_chord_map_sphere_closed_form(seed):
    M = Sphere(2)
    z, rng = generated(M, seed, n=1)
    v = random_tangent(M, np.repeat(z, N, axis=0), rng, scale=0.8)
    rho = row_norms(v)[:, None]
    assert np.allclose(frame_chord(M, z[0], v), np.sin(rho) / rho * v, atol=1e-12)


# ---------------------------------------------------------------------------
# fiber factor: fiber_from_coeffs on the coordinates of an ambient normal
# offset in the normal rows of frames_batch


def fiber(M, z, m, sigma):
    """Fiber factor at the point rows z for the normal offset rows m."""
    coeffs = np.einsum("nkD,nD->nk", normal_rows(M, z), m)
    return M.fiber_from_coeffs(coeffs, sigma)


@ROWS
@given(seed=SEEDS)
def test_fiber_factor_sphere2_example(seed):
    M = Sphere(2)
    z, _ = generated(M, seed)
    for m0, sig in [(0.0, 0.1), (-0.2, 0.3), (0.15, 0.02)]:
        got = fiber(M, z, m0 * z, sig)
        assert np.abs(got - ((1 + m0) ** 2 + sig**2)).max() <= 1e-14


@ROWS
@given(seed=SEEDS)
def test_fiber_factor_torus_product(seed):
    M = FlatTorus(1.0, 2.0)
    z, _ = generated(M, seed)
    n = normal_rows(M, z)
    got = fiber(M, z, 0.2 * n[:, 0] - 0.3 * n[:, 1], 0.17)
    assert np.abs(got - (1 + 0.2 / 1.0) * (1 - 0.3 / 2.0)).max() <= 1e-14


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(seed=SEEDS, m0=st.floats(-0.6, 0.6), sig=st.floats(0.02, 0.4))
def test_fiber_factor_sphere_matches_quadrature(dim, seed, m0, sig):
    M = Sphere(dim)
    z, _ = generated(M, seed, n=20)
    got = fiber(M, z, m0 * z, sig)
    ref = quad(
        lambda u: math.exp(-((u - m0) ** 2) / (2 * sig**2))
        / math.sqrt(2 * math.pi * sig**2)
        * (1 + u) ** dim,
        m0 - 40 * sig,
        m0 + 40 * sig,
    )[0]
    assert np.abs(got - ref).max() <= 1e-8 * max(1.0, abs(ref))


def test_fiber_factor_torus_matches_quadrature(rng):
    M = FlatTorus(1.0, 2.0)
    z = M.random_coords(rng, N)
    n = normal_rows(M, z)
    m1, m2, sig = 0.25, -0.4, 0.2

    def integrand(u2, u1):
        gauss = math.exp(-((u1 - m1) ** 2 + (u2 - m2) ** 2) / (2 * sig**2))
        return gauss / (2 * math.pi * sig**2) * (1 + u1 / 1.0) * (1 + u2 / 2.0)

    ref = dblquad(integrand, m2 - 12 * sig, m2 + 12 * sig, m1 - 12 * sig, m1 + 12 * sig)[0]
    got = fiber(M, z, m1 * n[:, 0] + m2 * n[:, 1], sig)
    assert np.abs(got - ref).max() <= 1e-8


# ---------------------------------------------------------------------------
# quadrature grids


@pytest.mark.parametrize("name", ["sphere1", "sphere2", "sphere3", "sphere4", "torus",
                                  "torus12"])
def test_grid_weight_sums(name):
    M = make_manifold(name)
    nodes, w = M.grid(16)
    assert abs(w.sum() - M.volume) <= 1e-3 * M.volume
    assert nodes.shape == (w.size, M.ambient_dim) and w.size >= 8


def test_grid_polynomial_integral():
    nodes, w = Sphere(2).grid(16)
    mu = np.array([0.0, 0.0, 1.0])
    val = w @ (nodes @ mu) ** 2
    assert abs(val - 4 * math.pi / 3) <= 1e-10


@pytest.mark.parametrize("m", [8, 12, 24])
def test_sphere3_grid_moments(m):
    # the Gauss-Jacobi rule in cos(chi) times the S^2 grid integrates low
    # moments of S^3 to roundoff: |S^3| = 2 pi^2, E x_i^2 = 1/4,
    # E x_0^4 = 1/8 and E x_0^2 x_3^2 = 1/24
    x, w = Sphere(3).grid(m)
    vol = 2.0 * math.pi**2
    assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-14)
    assert w.sum() == pytest.approx(vol, rel=1e-13)
    assert np.allclose(w @ x**2, vol / 4, rtol=1e-13)
    assert w @ x[:, 0]**4 == pytest.approx(vol / 8, rel=1e-13)
    assert w @ (x[:, 0]**2 * x[:, 3]**2) == pytest.approx(vol / 24, rel=1e-13)
    assert np.abs(w @ x).max() <= 1e-13


@pytest.mark.parametrize("name", GRIDDED_MANIFOLDS)
def test_grid_refinement_monotone(name):
    # integrands sharp enough that every grid is still converging between
    # resolutions 16 and 24, and of order one so the slack stays above the
    # rounding of the sums: a peak of width 1/sqrt(24) at x0 = 1 on the
    # compact manifolds, a unit Gaussian times exp(x1) on the plane's box
    M = make_manifold(name)

    def f(x):
        if name == "plane":
            return np.exp(-0.5 * x[:, 0] ** 2 + x[:, 1])
        return np.exp(24.0 * (x[:, 0] - 1.0))

    nodes, w = M.grid(96 if M.intrinsic_dim < 3 else 48)
    ref = w @ f(nodes)

    def err(res):
        nodes, w = M.grid(res)
        return abs(w @ f(nodes) - ref)

    errors = [err(r) for r in (8, 12, 16, 24)]
    for lo, hi in zip(errors[1:], errors[:-1]):
        assert lo <= hi + 1e-12


@pytest.mark.parametrize("n", [8, 9, 24, 48, 512])
def test_gauss_legendre_matches_numpy(n):
    from tubescore.geometry.quadrature import _legendre_rule
    x, w = _legendre_rule(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(x - xr)) <= np.finfo(float).eps
    # relative to the largest weight: the end weights of large rules are
    # only as good as their nodes (at n = 512 numpy and scipy differ in the
    # 9th digit of the 2.8e-5 end weight)
    assert np.max(np.abs(w - wr)) <= 7e-12 * wr.max()
    assert abs(w.sum() - 2.0) <= 1e-14
    lo, hi = 0.3, 2.0
    xt, wt = gauss_legendre(n, lo, hi)
    assert np.array_equal(xt, lo + 0.85 * (x + 1.0))
    assert np.array_equal(wt, 0.85 * w)


def _eval_legendre_rule(n):
    """The rule built on scipy.special.eval_legendre, as the reference:
    the same Newton iteration as ``_legendre_rule``."""
    from scipy.special import eval_legendre

    k = np.arange(1, (n + 1) // 2 + 1)
    x = (np.cos(np.pi * (k - 0.25) / (n + 0.5))
         * (1.0 - (n - 1) / (8.0 * n**3)))
    for _ in range(10):
        p, q = eval_legendre(n, x), eval_legendre(n - 1, x)
        step = p * (1.0 - x * x) / (n * (q - x * p))
        x -= step
        if np.max(np.abs(step)) <= 1e-15:
            break
    w = 2.0 * (1.0 - x * x) / (n * eval_legendre(n - 1, x)) ** 2
    mirror = slice(-1 - n % 2, None, -1)
    x, w = np.concatenate([-x, x[mirror]]), np.concatenate([w, w[mirror]])
    return x, 2.0 * w / w.sum()


@pytest.mark.parametrize("n", [2, 3, 7, 64, 513])
def test_legendre_recurrence_matches_eval_legendre(n):
    from scipy.special import eval_legendre

    from tubescore.geometry.quadrature import _legendre_pair
    x = np.linspace(-1.0, 1.0, 4001)
    x = x[np.abs(x) >= 1e-5]  # below, eval_legendre sums a power series
    p, q = _legendre_pair(n, x)
    assert np.array_equal(p, eval_legendre(n, x))
    assert np.array_equal(q, eval_legendre(n - 1, x))


@pytest.mark.parametrize("n", [8, 10, 24, 48, 512, 1024])
def test_legendre_rule_matches_eval_legendre(n):
    from tubescore.geometry.quadrature import _legendre_rule
    x, w = _legendre_rule(n)
    xr, wr = _eval_legendre_rule(n)
    assert np.array_equal(x, xr) and np.array_equal(w, wr)


@pytest.mark.parametrize("n", [5, 9])
def test_odd_legendre_rule_near_eval_legendre(n):
    # the middle root of an odd rule is 0 up to roundoff; there the
    # reference's power series and the recurrence round differently, and
    # the weights, normalized to sum 2, move by an ulp with it
    from tubescore.geometry.quadrature import _legendre_rule
    x, w = _legendre_rule(n)
    xr, wr = _eval_legendre_rule(n)
    mid = n // 2
    assert abs(x[mid] - xr[mid]) <= 1e-16
    assert np.array_equal(np.delete(x, mid), np.delete(xr, mid))
    assert np.all(np.abs(w - wr) <= 2 * np.spacing(wr))


def test_gauss_legendre_rule_cached_read_only():
    from tubescore.geometry.quadrature import _legendre_rule
    x, w = _legendre_rule(24)
    assert _legendre_rule(24)[0] is x
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0
    # transplanted copies are the caller's to change
    xt, wt = gauss_legendre(24, 0.0, 1.0)
    xt[0] = wt[0] = 5.0
    assert _legendre_rule(24)[0][0] == x[0] != 5.0


def test_grid_resolution_floor():
    with pytest.raises(ValueError):
        Sphere(2).grid(4)


def test_grid_nodes_valid_points():
    M = FlatTorus(1.0, 2.0)
    nodes, _ = M.grid(8)
    assert np.max(M.project_batch(nodes)[1]) <= 1e-12


# ---------------------------------------------------------------------------
# misc helpers


def test_wrap_angle():
    assert wrap_angle(np.array([math.pi])) == math.pi
    assert wrap_angle(np.array([-math.pi]))[0] == math.pi
    assert abs(wrap_angle(np.array([3 * math.pi / 2]))[0] + math.pi / 2) <= 1e-12


@pytest.mark.parametrize("width", range(1, 8))
def test_row_reductions_match_numpy(width, rng):
    # left-to-right column sums are numpy's order on rows under 8 entries
    a = rng.standard_normal((500, width)) * np.exp(rng.uniform(-30, 30, (500, width)))
    b = rng.standard_normal((500, width))
    assert np.array_equal(row_dots(a, b), np.sum(a * b, axis=1))
    assert np.array_equal(row_norms(a), np.linalg.norm(a, axis=1))


def test_plane_chart_roundtrip(rng):
    M = AffinePlane(np.array([1.0, 0.0, 2.0, 0.0]), np.eye(4)[1:3])
    c = rng.standard_normal((5, 2))
    assert np.allclose(M.chart(M.embed(c)), c, atol=1e-14)
