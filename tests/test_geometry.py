import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad, quad

from tubescore import AffinePlane, FlatTorus, Sphere
from tubescore.errors import (
    BeyondInjectivity,
    CutLocus,
    ManifoldMismatch,
    OutsideTube,
)
from tubescore.geometry import gauss_legendre, wrap_angle
from tubescore.geometry.base import row_dots, row_norms

from conftest import ALL_MANIFOLDS, GRIDDED_MANIFOLDS, make_manifold, random_tangent


# ---------------------------------------------------------------------------
# points, tangents, projection


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
def test_point_validation_rejects_off_manifold(name, rng):
    M = make_manifold(name)
    z = M.random_point(rng)
    with pytest.raises(ValueError):
        M.point(z.coords + 1e-3 * np.ones(M.ambient_dim))


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
def test_tangent_validation_rejects_normal_component(name, rng):
    M = make_manifold(name)
    z = M.random_point(rng)
    nb = M.normal_basis(z.coords)
    with pytest.raises(ValueError):
        M.tangent(z, 0.5 * nb[0])


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
def test_projection_orthogonality(name, rng):
    M = make_manifold(name)
    for _ in range(25):
        z = M.random_point(rng)
        nb = M.normal_basis(z.coords)
        offset = 0.4 * M.tube_radius if math.isfinite(M.tube_radius) else 0.7
        x = z.coords + offset * nb[0] + (0.3 * offset) * nb[-1]
        p = M.project(x)
        basis = M.tangent_basis(p.coords)
        resid = basis @ (x - p.coords)
        assert np.max(np.abs(resid)) <= 1e-10


def test_projection_outside_tube_sphere():
    M = Sphere(2)
    with pytest.raises(OutsideTube):
        M.project(np.zeros(3))
    with pytest.raises(OutsideTube):
        M.project(np.array([2.5, 0.0, 0.0]))
    # 1.89 is just inside the tube boundary |r - 1| < 0.9
    M.project(np.array([1.89, 0.0, 0.0]))


def test_projection_outside_tube_torus():
    M = FlatTorus(1.0, 1.0)
    with pytest.raises(OutsideTube):
        M.project(np.array([0.0, 0.0, 1.0, 0.0]))
    p = M.project(np.array([1.3, 0.0, 0.2, -0.2]))
    assert np.allclose(p.coords[:2], [1.0, 0.0])


def test_manifold_mismatch_guard(rng):
    a, b = Sphere(2), Sphere(3)
    za, zb = a.random_point(rng), b.random_point(rng)
    with pytest.raises(ManifoldMismatch):
        a.geodesic_distance(za, zb)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# exp / log / transport / distance


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
def test_exp_log_roundtrip(name, rng):
    M = make_manifold(name)
    for _ in range(40):
        z = M.random_point(rng)
        v = random_tangent(M, z, rng, scale=0.4)
        y = M.exp_map(z, v)
        assert M.constraint_residual_batch(y.coords[None])[0] <= 1e-10
        w = M.log_map(z, y)
        assert np.max(np.abs(w.vec - v.vec)) <= 1e-9 * max(1.0, v.norm())
        assert abs(M.geodesic_distance(z, y) - v.norm()) <= 1e-9


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
def test_transport_is_isometric(name, rng):
    M = make_manifold(name)
    for _ in range(20):
        z = M.random_point(rng)
        y = M.random_point(rng)
        try:
            u = random_tangent(M, z, rng)
            v = random_tangent(M, z, rng)
            tu = M.parallel_transport(z, y, u)
            tv = M.parallel_transport(z, y, v)
        except CutLocus:
            continue
        assert abs(tu.vec @ tv.vec - u.vec @ v.vec) <= 1e-10 * max(1.0, u.norm() * v.norm())


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


def test_transport_roundtrip_sphere(rng):
    M = Sphere(2)
    for _ in range(10):
        z, y = M.random_point(rng), M.random_point(rng)
        v = random_tangent(M, z, rng)
        back = M.parallel_transport(y, z, M.parallel_transport(z, y, v))
        assert np.max(np.abs(back.vec - v.vec)) <= 1e-10


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


def test_cut_locus_and_injectivity_errors(rng):
    M = Sphere(2)
    z = M.point([0.0, 0.0, 1.0])
    anti = M.point([0.0, 0.0, -1.0])
    with pytest.raises(CutLocus):
        M.log_map(z, anti)
    with pytest.raises(BeyondInjectivity):
        M.exp_map(z, M.tangent(z, [3.2, 0.0, 0.0]))

    T = FlatTorus(1.0, 2.0)
    zt = T.point(T.from_angles(np.array([0.0, 0.0])))
    yt = T.point(T.from_angles(np.array([math.pi, 0.3])))
    with pytest.raises(CutLocus):
        T.log_map(zt, yt)


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
def test_triangle_inequality(name, rng):
    M = make_manifold(name)
    for _ in range(50):
        a, b, c = (M.random_point(rng) for _ in range(3))
        dab = M.geodesic_distance(a, b)
        dbc = M.geodesic_distance(b, c)
        dac = M.geodesic_distance(a, c)
        assert dac <= dab + dbc + 1e-12


def test_torus_distance_matches_flat_metric():
    T = FlatTorus(1.0, 2.0)
    z = T.point(T.from_angles(np.array([0.1, -0.4])))
    y = T.point(T.from_angles(np.array([0.4, 0.1])))
    expect = math.hypot(1.0 * 0.3, 2.0 * 0.5)
    assert abs(T.geodesic_distance(z, y) - expect) <= 1e-12


# ---------------------------------------------------------------------------
# frames and curvature


def test_tangent_projector_examples():
    s = Sphere(2)
    z = s.point([1.0, 0.0, 0.0])
    assert np.allclose(s.tangent_projector(z), np.eye(3) - np.outer(z.coords, z.coords), atol=1e-14)

    t = FlatTorus(1.0, 1.0)
    zt = t.point([1.0, 0.0, 1.0, 0.0])
    assert np.allclose(t.tangent_projector(zt), np.diag([0.0, 1.0, 0.0, 1.0]), atol=1e-14)


@pytest.mark.parametrize("name", ALL_MANIFOLDS)
def test_frames_orthonormal_and_adapted(name, rng):
    M = make_manifold(name)
    for _ in range(10):
        z = M.random_point(rng)
        tf = M.tangent_basis(z.coords)
        nf = M.normal_basis(z.coords)
        full = np.concatenate([tf, nf])
        assert np.max(np.abs(full @ full.T - np.eye(M.ambient_dim))) <= 1e-12
        # frame reproduces the tangent projector used by batch kernels
        w = rng.standard_normal(M.ambient_dim)
        assert np.allclose(
            M.tangent_project_batch(z.coords[None], w[None])[0], (tf @ w) @ tf, atol=1e-12
        )


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
    """G(v) for a tangent vector v at z, as an ambient vector."""
    tangent_rows = M.frames_batch(z.coords[None])[0, :M.intrinsic_dim]
    chord, _ = M.polar_chords((tangent_rows @ v.vec)[None])
    return chord[0, :M.intrinsic_dim] @ tangent_rows


@pytest.mark.parametrize("name", ["sphere2", "sphere3", "torus", "torus12"])
def test_chord_cubic_slope(name, rng):
    M = make_manifold(name)
    z = M.random_point(rng)
    direction = random_tangent(M, z, rng)
    direction = M.tangent(z, direction.vec / direction.norm())
    radii = np.logspace(-2.3, -0.7, 9)
    errs = []
    for r in radii:
        v = M.tangent(z, r * direction.vec)
        g = frame_chord(M, z, v)
        errs.append(np.linalg.norm(g - v.vec))
    errs = np.asarray(errs)
    assert np.all(errs > 0)
    slope = np.polyfit(np.log(radii), np.log(errs), 1)[0]
    assert slope >= 2.9


@pytest.mark.parametrize("name", ["sphere2", "sphere3", "torus", "torus12", "plane"])
def test_chord_odd_part_vanishes(name, rng):
    # All supported geometries have an exactly odd chord map, so the even
    # remainder sits at machine zero, far below any C*||v||^4 envelope.
    M = make_manifold(name)
    for _ in range(10):
        z = M.random_point(rng)
        v = random_tangent(M, z, rng, scale=0.3)
        neg = M.tangent(z, -v.vec)
        total = frame_chord(M, z, v) + frame_chord(M, z, neg)
        assert np.linalg.norm(total) <= 1e-12


def test_chord_map_sphere_closed_form(rng):
    M = Sphere(2)
    z = M.random_point(rng)
    v = random_tangent(M, z, rng, scale=0.8)
    rho = v.norm()
    g = frame_chord(M, z, v)
    assert np.allclose(g, math.sin(rho) / rho * v.vec, atol=1e-12)


# ---------------------------------------------------------------------------
# fiber factor


def test_fiber_factor_sphere2_example(rng):
    M = Sphere(2)
    z = M.random_point(rng)
    for m0, sig in [(0.0, 0.1), (-0.2, 0.3), (0.15, 0.02)]:
        got = M.fiber_factor(z, m0 * z.coords, sig)
        assert abs(got - ((1 + m0) ** 2 + sig**2)) <= 1e-14


def test_fiber_factor_torus_product(rng):
    M = FlatTorus(1.0, 2.0)
    z = M.random_point(rng)
    nb = M.normal_basis(z.coords)
    got = M.fiber_factor(z, 0.2 * nb[0] - 0.3 * nb[1], 0.17)
    assert abs(got - (1 + 0.2 / 1.0) * (1 - 0.3 / 2.0)) <= 1e-14


def test_fiber_factor_rejects_tangential_offset(rng):
    M = Sphere(2)
    z = M.random_point(rng)
    v = random_tangent(M, z, rng)
    with pytest.raises(ValueError):
        M.fiber_factor(z, v.vec, 0.1)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_fiber_factor_sphere_matches_quadrature(dim, rng):
    M = Sphere(dim)
    z = M.random_point(rng)
    for _ in range(12):
        m0 = rng.uniform(-0.6, 0.6)
        sig = rng.uniform(0.02, 0.4)
        got = M.fiber_factor(z, m0 * z.coords, sig)
        ref = quad(
            lambda u: math.exp(-((u - m0) ** 2) / (2 * sig**2))
            / math.sqrt(2 * math.pi * sig**2)
            * (1 + u) ** dim,
            m0 - 40 * sig,
            m0 + 40 * sig,
        )[0]
        assert abs(got - ref) <= 1e-8 * max(1.0, abs(ref))


def test_fiber_factor_torus_matches_quadrature(rng):
    M = FlatTorus(1.0, 2.0)
    z = M.random_point(rng)
    nb = M.normal_basis(z.coords)
    m1, m2, sig = 0.25, -0.4, 0.2

    def integrand(u2, u1):
        gauss = math.exp(-((u1 - m1) ** 2 + (u2 - m2) ** 2) / (2 * sig**2))
        return gauss / (2 * math.pi * sig**2) * (1 + u1 / 1.0) * (1 + u2 / 2.0)

    ref = dblquad(integrand, m2 - 12 * sig, m2 + 12 * sig, m1 - 12 * sig, m1 + 12 * sig)[0]
    got = M.fiber_factor(z, m1 * nb[0] + m2 * nb[1], sig)
    assert abs(got - ref) <= 1e-8


# ---------------------------------------------------------------------------
# quadrature grids


@pytest.mark.parametrize("name", ["sphere1", "sphere2", "sphere3", "sphere4", "torus",
                                  "torus12"])
def test_grid_weight_sums(name):
    M = make_manifold(name)
    g = M.grid(16)
    assert abs(g.weight_sum - M.volume) <= 1e-3 * M.volume
    assert g.n_nodes >= 8


def test_grid_polynomial_integral():
    M = Sphere(2)
    g = M.grid(16)
    mu = np.array([0.0, 0.0, 1.0])
    val = g.integrate((g.node_coords @ mu) ** 2)
    assert abs(val - 4 * math.pi / 3) <= 1e-10


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

    fine = M.grid(96 if M.intrinsic_dim < 3 else 48)
    ref = fine.integrate(f(fine.node_coords))

    def err(res):
        g = M.grid(res)
        return abs(g.integrate(f(g.node_coords)) - ref)

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
    g = M.grid(8)
    assert np.max(M.constraint_residual_batch(g.node_coords)) <= 1e-12


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
