"""Quadrature oracle: flat closed forms, symmetry, expansion coefficients,
posterior identities, and convergence behavior."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from tubescore.densities import (
    IsotropicGaussian,
    ProductVonMises,
    Uniform,
    VonMisesFisher,
)
from tubescore.errors import (
    ConfigError,
    DegenerateScore,
    ManifoldMismatch,
    QuadratureNotConverged,
    UnsupportedManifold,
)
from tubescore.geometry import AffinePlane, FlatTorus, Sphere
from tubescore import oracle as oracle_mod
from tubescore.oracle import (
    ANGULAR_RULE,
    BASE_RESOLUTION,
    FiberPosterior,
    RBOracle,
    extract_extrinsic_coefficient,
    extrinsic_term,
    predicted_expansion,
    score_second_moment,
)

PLANE = AffinePlane.axis_aligned(2, 4)
TAU = 0.9


def flat_density():
    return IsotropicGaussian(PLANE, [0.0, 0.0], TAU)


def sphere_vmf(d, kappa=2.0):
    mu = np.zeros(d + 1)
    mu[-1] = 1.0
    return VonMisesFisher(Sphere(d), mu, kappa)


def equator_point(d):
    """The row e_0 of S^d, a point on the equator of the vMF mean axis."""
    zc = np.zeros(d + 1)
    zc[0] = 1.0
    return zc


def target(q, sigma, z, **kw):
    """The oracle's target at the point row z."""
    return RBOracle(q, sigma, **kw).target_coords(z[None])[0]


def feet(M, seed, n=50, first=None):
    """n generated feet of M, after the optional fixed row ``first``."""
    rows = M.random_coords(np.random.default_rng(seed), n)
    return rows if first is None else np.vstack([first, rows])


SEEDS = st.integers(0, 2**32 - 1)


class TestFlatOracle:
    def test_matches_closed_form_tweedie_score(self):
        q = flat_density()
        rng = np.random.default_rng(5)
        pts = PLANE.embed(TAU * rng.standard_normal((50, 2)))
        for sig in (0.05, 0.1, 0.2, 0.4):
            oracle = RBOracle(q, sig)
            got = oracle.target_coords(pts)
            expect = PLANE.embed_tangent(-PLANE.chart(pts) / (TAU**2 + sig**2))
            assert np.abs(got - expect).max() <= 1e-6
            assert oracle.convergence_report["max_estimate"] <= oracle.rel_tol

    @pytest.mark.parametrize("d", [3, 4])
    def test_higher_plane_matches_closed_form_tweedie_score(self, d):
        # the 2-sphere and 3-sphere direction rules against -x / (tau^2 + sigma^2)
        plane = AffinePlane.axis_aligned(d, d + 1)
        q = IsotropicGaussian(plane, np.zeros(d), TAU)
        pts = plane.embed(TAU * np.random.default_rng(6).standard_normal((8, d)))
        for sig in (0.05, 0.1, 0.2, 0.4):
            oracle = RBOracle(q, sig)
            got = oracle.target_coords(pts)
            expect = plane.embed_tangent(-plane.chart(pts) / (TAU**2 + sig**2))
            assert np.abs(got - expect).max() <= 1e-6
            assert oracle.convergence_report["max_estimate"] <= oracle.rel_tol

    def test_second_order_remainder_matches_closed_form(self):
        # r - s - sigma^2 b = -t sigma^4 / (tau^4 (tau^2 + sigma^2)) exactly
        q = flat_density()
        z = PLANE.embed(np.array([[1.0, -0.4]]))
        t_norm = np.linalg.norm(PLANE.chart(z)[0])
        for sig in (0.1, 0.3):
            r = RBOracle(q, sig).target_coords(z)
            ex = predicted_expansion(z, q, sig)
            resid = np.linalg.norm((r - ex.score - sig**2 * ex.tweedie)[0])
            closed = t_norm * sig**4 / (TAU**4 * (TAU**2 + sig**2))
            assert resid == pytest.approx(closed, rel=1e-6)

    def test_second_order_slope(self):
        q = flat_density()
        z = PLANE.embed(np.array([[1.0, -0.4]]))
        sigs = np.geomspace(0.05, 0.4, 7)
        vals = []
        for sig in sigs:
            r = RBOracle(q, sig).target_coords(z)
            ex = predicted_expansion(z, q, sig)
            vals.append(np.linalg.norm((r - ex.score - sig**2 * ex.tweedie)[0]))
        slope = np.polyfit(np.log(sigs), np.log(vals), 1)[0]
        assert slope >= 3.8


class TestSymmetry:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_uniform_sphere_target_vanishes(self, d):
        r = target(Uniform(Sphere(d)), 0.1, equator_point(d))
        assert np.linalg.norm(r) <= 1e-8

    def test_uniform_torus_target_vanishes(self):
        T2 = FlatTorus(1.0, 1.0)
        z = np.array([1.0, 0.0, 1.0, 0.0])
        assert np.linalg.norm(target(Uniform(T2), 0.1, z)) <= 1e-8


class TestExpansion:
    def test_leading_order_plateau(self):
        q = sphere_vmf(2)
        z = np.array([[math.sqrt(1 - 0.09), 0.0, 0.3]])
        ratios = []
        for sig in (0.1, 0.05, 0.025):
            r = RBOracle(q, sig).target_coords(z)
            ratios.append(np.linalg.norm(r - q.score_batch(z)) / sig**2)
        assert max(ratios) / min(ratios) < 1.5

    def test_full_prediction_remainder_shrinks(self):
        q = sphere_vmf(2)
        z = np.array([[math.sqrt(1 - 0.09), 0.0, 0.3]])
        rems = []
        for sig in (0.1, 0.05):
            r = RBOracle(q, sig).target_coords(z)
            ex = predicted_expansion(z, q, sig)
            rems.append(np.linalg.norm(r - ex.predicted) / sig**2)
        # the scaled remainder should drop markedly (roughly like sigma^2)
        assert rems[1] < 0.5 * rems[0]

    def test_terms_assemble_exactly(self):
        q = sphere_vmf(3)
        z = feet(Sphere(3), 5, first=equator_point(3))
        ex = predicted_expansion(z, q, 0.07)
        assembled = ex.score + 0.07**2 * (ex.tweedie + ex.extrinsic)
        assert ex.predicted.shape == z.shape
        assert np.array_equal(ex.predicted, assembled)

    def test_uniform_expansion_is_zero(self):
        z = feet(Sphere(2), 6, first=equator_point(2))
        ex = predicted_expansion(z, Uniform(Sphere(2)), 0.1)
        assert np.linalg.norm(ex.predicted) == 0.0

    @pytest.mark.parametrize("d,coef", [(1, 0.5), (2, 0.0), (3, -0.5), (4, -1.0)])
    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(seed=SEEDS)
    @example(seed=0)
    def test_sphere_extrinsic_term_is_scalar_multiple(self, d, coef, seed):
        # (1 - d/2) times the score on S^d, at the equator of the vMF mean
        # and 50 generated feet, for a generated mean; zero on S^2
        M = Sphere(d)
        mu = M.random_coords(np.random.default_rng(seed + 1), 1)[0]
        q = VonMisesFisher(M, mu, 2.0)
        z = feet(M, seed, first=equator_point(d))
        g = extrinsic_term(z, q)
        assert g.shape == z.shape
        assert np.abs(g - coef * q.score_batch(z)).max() <= 1e-12

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(seed=SEEDS, phases=st.tuples(st.floats(-3.0, 3.0),
                                        st.floats(-3.0, 3.0)))
    @example(seed=0, phases=(0.3, -0.5))
    def test_torus_extrinsic_term_operator(self, seed, phases):
        # (W_H/2 - Ric) = diag(1/(2 R1^2), 1/(2 R2^2)) in the angle frame
        T = FlatTorus(1.0, 2.0)
        q = ProductVonMises(T, (1.5, 0.7), phases)
        z = feet(T, seed, first=T.from_angles(np.array([0.8, 1.9])))
        g = extrinsic_term(z, q)
        s = q.score_batch(z)
        frame = T.frames_batch(z)[:, :2]
        comps = np.einsum("nkD,nD->nk", frame, s) * [0.5, 0.125]
        expect = np.einsum("nk,nkD->nD", comps, frame)
        assert np.abs(g - expect).max() <= 1e-12

    def test_extrinsic_forms_agree(self):
        rng = np.random.default_rng(17)
        for M in (Sphere(3), FlatTorus(1.0, 2.0)):
            bundle = M.curvature_bundle(M.random_coords(rng, 20))
            a = bundle.extrinsic_operator()
            b = bundle.extrinsic_operator_shape_form()
            assert a.shape == (20, M.intrinsic_dim, M.intrinsic_dim)
            assert np.abs(a - b).max() <= 1e-10

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(seed=SEEDS)
    @example(seed=0)
    def test_plane_extrinsic_is_zero(self, seed):
        q = flat_density()
        z = feet(PLANE, seed, first=PLANE.embed(np.array([0.4, 0.2])))
        assert np.linalg.norm(extrinsic_term(z, q)) == 0.0


class TestCoefficientExtraction:
    @pytest.mark.parametrize("d,pred", [(1, 0.5), (3, -0.5)])
    def test_sphere_coefficients(self, d, pred):
        fit = extract_extrinsic_coefficient(equator_point(d)[None],
                                            sphere_vmf(d), 0.05)
        assert abs(fit.alpha[0] - pred) <= 0.01
        assert fit.alpha_pred[0] == pytest.approx(pred, abs=1e-12)
        assert fit.orthogonal[0] <= 1e-6

    def test_sphere3_coefficient_off_grid_pole(self):
        # a probe on the equator of the vMF mean that lines up with no axis
        z = np.array([[0.6, 0.8, 0.0, 0.0]])
        fit = extract_extrinsic_coefficient(z, sphere_vmf(3), 0.05)
        assert abs(fit.alpha[0] + 0.5) <= 0.01
        assert fit.orthogonal[0] <= 1e-6

    def test_sphere2_coefficient_vanishes(self):
        fit = extract_extrinsic_coefficient(equator_point(2)[None],
                                            sphere_vmf(2), 0.05)
        assert abs(fit.alpha[0]) <= 0.01

    def test_torus_coefficient(self):
        T2 = FlatTorus(1.0, 1.0)
        q = ProductVonMises(T2, (1.5, 1.5), (0.0, 0.0))
        z = T2.from_angles(np.array([[0.9, -1.3]]))
        fit = extract_extrinsic_coefficient(z, q, 0.05)
        assert abs(fit.alpha[0] - 0.5) <= 0.01

    def test_convergence_trend_in_sigma(self):
        q = sphere_vmf(1)
        z = equator_point(1)[None]
        devs = [abs(extract_extrinsic_coefficient(z, q, s).alpha[0] - 0.5)
                for s in (0.05, 0.08)]
        assert devs[0] <= devs[1] + 0.05

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(seed=SEEDS, at=st.integers(0, 20))
    @example(seed=0, at=0)
    def test_degenerate_score_raises(self, seed, at):
        # one row at the vMF mode, where the score vanishes, among
        # generated feet: the whole call is refused
        q = sphere_vmf(2)
        z = np.insert(feet(Sphere(2), seed, n=20), at, q.mu, axis=0)
        with pytest.raises(DegenerateScore):
            extract_extrinsic_coefficient(z, q, 0.05)


class TestPosteriorSuite:
    def test_stein_residual_circle(self):
        post = FiberPosterior(equator_point(1), sphere_vmf(1), 0.1)
        assert post.stein_residual() <= 1e-5

    def test_stein_residual_sphere2(self):
        post = FiberPosterior(equator_point(2), sphere_vmf(2), 0.1)
        assert post.stein_residual() <= 1e-4

    def test_stein_uniform_symmetry(self):
        post = FiberPosterior(equator_point(1), Uniform(Sphere(1)), 0.1)
        assert post.stein_residual() <= 1e-8

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_second_moment_near_gaussian(self, d):
        m2 = FiberPosterior(equator_point(d), sphere_vmf(d), 0.025).moment(2)
        assert 0.8 * d <= m2 / 0.025**2 <= 1.2 * d

    def test_fourth_moment_plateau(self):
        vals = [FiberPosterior(equator_point(2), sphere_vmf(2), s).moment(4) / s**4
                for s in (0.1, 0.05, 0.025)]
        assert max(vals) / min(vals) < 1.5
        # limiting Gaussian value d(d+2) = 8
        assert vals[-1] == pytest.approx(8.0, rel=0.05)

    def test_first_moment_half_normal_limit(self):
        m1 = FiberPosterior(equator_point(1), Uniform(Sphere(1)), 0.025).moment(1)
        assert m1 / 0.025 == pytest.approx(math.sqrt(2.0 / math.pi), rel=0.01)
        # signed mean vanishes by symmetry
        post = FiberPosterior(equator_point(1), Uniform(Sphere(1)), 0.025)
        assert np.linalg.norm(post.mean_v()) <= 1e-10

    def test_chord_ratio_plateau(self):
        vals = [FiberPosterior(equator_point(2), sphere_vmf(2), s).chord_ratio()
                for s in (0.1, 0.05, 0.025)]
        assert max(vals) / min(vals) < 1.5

    def test_chord_ratio_uniform_is_zero(self):
        post = FiberPosterior(equator_point(2), Uniform(Sphere(2)), 0.1)
        assert post.chord_ratio() <= 1e-6

    def test_moment_order_validated(self):
        with pytest.raises(ValueError):
            FiberPosterior(equator_point(1), sphere_vmf(1), 0.1).moment(7)

    @pytest.mark.parametrize("d", [3, 4])
    def test_stein_residual_higher_spheres(self, d):
        z = np.full(d + 1, 1.0) / math.sqrt(d + 1)
        assert FiberPosterior(z, sphere_vmf(d), 0.1).stein_residual() <= 1e-4

    def test_stein_residual_torus_and_plane(self):
        T2 = FlatTorus(1.0, 2.0)
        q = ProductVonMises(T2, (1.0, 1.5), (0.3, -0.2))
        z = T2.from_angles(np.array([0.9, -1.3]))
        assert FiberPosterior(z, q, 0.1).stein_residual() <= 1e-4
        zp = PLANE.embed(np.array([[0.4, -0.7]]))[0]
        assert FiberPosterior(zp, flat_density(), 0.1).stein_residual() <= 1e-6

    def test_unsupported_manifolds_rejected(self):
        # no direction rule above four tangent dimensions
        plane = AffinePlane.axis_aligned(5, 6)
        q = IsotropicGaussian(plane, np.zeros(5), 1.0)
        with pytest.raises(ConfigError):
            RBOracle(q, 0.1)
        with pytest.raises(ConfigError):
            FiberPosterior(np.zeros(6), q, 0.1)
        with pytest.raises(UnsupportedManifold):
            Sphere(5)


class TestOracleMechanics:
    def test_sigma_clamp(self):
        q = sphere_vmf(2)
        for bad in (0.005, 0.6, -0.1):
            with pytest.raises(ConfigError):
                RBOracle(q, bad)

    def test_resolution_cap_raises(self):
        # no tolerance is met before the next rule would pass MAX_RULE_NODES
        oracle = RBOracle(sphere_vmf(3), 0.05, rel_tol=0.0)
        with pytest.raises(QuadratureNotConverged):
            oracle.target_coords(equator_point(3)[None])

    def test_tighter_tolerance_agrees(self):
        q = sphere_vmf(2)
        z = np.array([0.6, 0.0, 0.8])
        a = target(q, 0.1, z)
        b = target(q, 0.1, z, rel_tol=1e-12)
        assert np.allclose(a, b, rtol=0, atol=1e-10)

    def test_manifold_mismatch(self):
        q = sphere_vmf(2)
        with pytest.raises(ManifoldMismatch):
            FiberPosterior(equator_point(3), q, 0.1)
        with pytest.raises(ValueError, match="ambient_dim"):
            target(q, 0.1, equator_point(3))

    def test_batch_matches_single(self):
        q = sphere_vmf(2)
        rng = np.random.default_rng(23)
        pts = Sphere(2).random_coords(rng, 6)
        oracle = RBOracle(q, 0.1)
        batch = oracle.target_coords(pts)
        for i, row in enumerate(pts):
            single = oracle.target_coords(row[None])[0]
            assert np.allclose(batch[i], single, atol=1e-12)

    @pytest.mark.parametrize("name", ["sphere1", "sphere2", "sphere3", "torus"])
    def test_matches_global_grid_sum(self, name):
        # reference: the posterior node sum over a global grid of the
        # manifold; S^3 is probed at its grid pole, where the global grid is
        # dense enough to resolve sigma
        if name == "torus":
            M = FlatTorus(1.0, 1.0)
            q = ProductVonMises(M, (1.5, 1.5), (0.0, 0.0))
            z = M.from_angles(np.array([0.9, -1.3]))
        else:
            q = sphere_vmf(int(name[-1]))
            M = q.manifold
            z = {"sphere1": np.array([0.6, 0.8]),
                 "sphere2": np.array([0.48, 0.6, 0.64]),
                 "sphere3": np.array([1.0, 0.0, 0.0, 0.0])}[name]
        sig = 0.1
        nodes, weights = M.grid({"sphere3": 48}.get(name, 160))
        chords = nodes - z
        frame = M.frames_batch(z[None])[0]
        d = M.intrinsic_dim
        tang = chords @ frame[:d].T
        m = chords @ frame[d:].T
        band = np.linalg.norm(m, axis=1) < M.tube_radius
        tang, m = tang[band], m[band]
        lw = (np.log(weights[band])
              + q.log_density_batch(nodes[band])
              - np.sum(tang * tang, axis=1) / (2 * sig**2)
              + np.log(M.fiber_from_coeffs(m, sig)))
        w = np.exp(lw - lw.max())
        expect = (w @ tang / w.sum()) @ frame[:d] / sig**2
        got = RBOracle(q, sig).target_coords(z[None])[0]
        assert np.linalg.norm(got - expect) <= 1e-8 * np.linalg.norm(expect)

    def test_node_count_independent_of_sigma(self):
        q = sphere_vmf(2)
        pts = Sphere(2).random_coords(np.random.default_rng(3), 50)
        counts = []
        for sig in (0.02, 0.2):
            oracle = RBOracle(q, sig)
            oracle.target_coords(pts)
            counts.append(oracle.convergence_report["nodes_per_query"])
        assert counts[0] == counts[1]

    def test_torus_vmf_target_matches_prediction(self):
        T2 = FlatTorus(1.0, 1.0)
        q = ProductVonMises(T2, (1.5, 1.5), (0.0, 0.0))
        z = T2.from_angles(np.array([[0.9, -1.3]]))
        r = RBOracle(q, 0.05).target_coords(z)
        ex = predicted_expansion(z, q, 0.05)
        assert np.linalg.norm(r - ex.predicted) <= 2e-5

    def test_score_second_moment_quadrature(self):
        # E_q kappa^2 (1 - t^2) for vMF via the 1-D marginal
        for d in (1, 2, 3, 4):
            q = sphere_vmf(d)
            marg = q.t_marginal()
            expect = 4.0 * marg.moment(lambda t: 1.0 - t * t)
            assert score_second_moment(q) == pytest.approx(expect, rel=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
    def test_score_second_moment_plane_closed_form(self, d, tau):
        # E ||c - mean||^2 / tau^4 = d / tau^2, also off the chart origin
        q = IsotropicGaussian(AffinePlane.axis_aligned(d, d + 1),
                              np.linspace(5.0, -3.0, d), tau)
        assert score_second_moment(q) == pytest.approx(d / tau**2, rel=1e-10)


class TestRefinement:
    """Each error estimate refines only its own axis of the polar rule."""

    @staticmethod
    def base_pair(d):
        return (2 * BASE_RESOLUTION,
                oracle_mod._finer_angles(d, ANGULAR_RULE[d][0]))

    def test_radial_failure_refines_only_the_radius(self):
        # on S^3 at sigma = 0.05 the base directions are at roundoff, while
        # 24 radial nodes leave about 1e-9
        q = sphere_vmf(3)
        pts = Sphere(3).random_coords(np.random.default_rng(11), 4)
        base = RBOracle(q, 0.05)
        r_base = base.target_coords(pts)
        tight = RBOracle(q, 0.05, rel_tol=1e-11)
        r_tight = tight.target_coords(pts)
        rep = tight.convergence_report
        n_base, m_base = self.base_pair(3)
        assert (base.convergence_report["resolution"],
                base.convergence_report["angular_resolution"]) == (n_base, m_base)
        assert rep["resolution"] > n_base
        assert rep["angular_resolution"] == m_base
        assert rep["max_estimate"] <= 1e-11
        assert np.abs(r_tight - r_base).max() <= 1e-8

    def test_angular_failure_refines_only_the_directions(self):
        # a wide latent seen through sigma = 0.3 from far off its mean
        # varies with the direction faster than the base circle rule resolves
        q = flat_density()
        z = PLANE.embed(np.array([[2.0, -1.0], [1.5, 1.5]]))
        oracle = RBOracle(q, 0.3)
        got = oracle.target_coords(z)
        rep = oracle.convergence_report
        n_base, m_base = self.base_pair(2)
        assert rep["resolution"] == n_base
        assert rep["angular_resolution"] > m_base
        expect = PLANE.embed_tangent(-PLANE.chart(z) / (TAU**2 + 0.3**2))
        assert np.abs(got - expect).max() <= 1e-6

    def test_fiber_posterior_uses_the_accepted_pair(self):
        # the posterior view rebuilds the refined rule, so its mean chord
        # is the oracle's target node for node
        q = flat_density()
        z = PLANE.embed(np.array([2.0, -1.0]))
        oracle = RBOracle(q, 0.3)
        expect = oracle.target_coords(z[None])[0]
        rep = oracle.convergence_report
        post = FiberPosterior(z, q, 0.3)
        assert post.weights.size == oracle_mod.grid_node_count(
            PLANE, rep["resolution"], rep["angular_resolution"])
        frame = PLANE.frames_batch(z[None])[0, :2]
        got = post.expectation(post.chord) / 0.3**2 @ frame
        assert np.abs(got - expect).max() <= 1e-12

    def test_reused_rules_are_not_counted_twice(self):
        # a radial refinement at (48, m) evaluates (48, m) and (96, m') only;
        # (48, m') comes from the base state
        q = sphere_vmf(3)
        oracle = RBOracle(q, 0.05, rel_tol=1e-11)
        oracle.target_coords(equator_point(3)[None])
        M, m = Sphere(3), ANGULAR_RULE[3][0]
        m_fine = oracle_mod._finer_angles(3, m)
        count = oracle_mod.grid_node_count
        expect = (count(M, 24, m) + count(M, 24, m_fine) + count(M, 48, m_fine)
                  + count(M, 48, m) + count(M, 96, m_fine))
        assert oracle.convergence_report["nodes"] == expect

    @pytest.mark.parametrize("sig", [0.05, 0.4])
    def test_sphere4_rules_under_10mb(self, monkeypatch, sig):
        built = []
        cached = oracle_mod._polar_rule

        def record(*args):
            built.append(cached(*args))
            return built[-1]

        monkeypatch.setattr(oracle_mod, "_polar_rule", record)
        RBOracle(sphere_vmf(4), sig).target_coords(
            Sphere(4).random_coords(np.random.default_rng(2), 3))
        assert built
        for rule in built:
            size = rule.v.nbytes + rule.chord.nbytes + rule.log_w.nbytes
            assert size < 10 * 2**20

    def test_sphere3_direction_rule_exact(self):
        # the d = 4 directions are the public S^3 grid, whose moments
        # tests/test_geometry.py checks; cached, so read-only
        m = ANGULAR_RULE[4][0]
        x, w = oracle_mod._directions(4, m)
        ref_x, ref_w = Sphere(3).grid(m)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert not x.flags.writeable and not w.flags.writeable


def random_rotation(rng, n):
    qm, r = np.linalg.qr(rng.standard_normal((n, n)))
    return qm * np.sign(np.diag(r))


class TestEquivariance:
    """The target commutes with the symmetries of the geometry."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @settings(max_examples=3, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), sig=st.sampled_from([0.03, 0.1, 0.3]))
    def test_sphere_rotation(self, d, seed, sig):
        # r(Rz; R.q) = R r(z; q) for a random rotation R and a rotated vMF
        rng = np.random.default_rng(seed)
        M = Sphere(d)
        mu = M.random_coords(rng, 1)[0]
        z = M.random_coords(rng, 2)
        R = random_rotation(rng, d + 1)
        r = RBOracle(VonMisesFisher(M, mu, 2.0), sig).target_coords(z)
        r_rot = RBOracle(VonMisesFisher(M, R @ mu, 2.0), sig).target_coords(z @ R.T)
        scale = max(1.0, float(np.abs(r).max()))
        assert np.abs(r_rot - r @ R.T).max() <= 1e-8 * scale

    @settings(max_examples=6, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), sig=st.sampled_from([0.03, 0.1, 0.3]))
    def test_torus_translation(self, seed, sig):
        # shifting the angles of both the foot and the density phases keeps
        # the target's components in the angle frame
        rng = np.random.default_rng(seed)
        T = FlatTorus(1.0, 2.0)
        theta = rng.uniform(-math.pi, math.pi, size=(3, 2))
        shift = rng.uniform(-math.pi, math.pi, size=2)
        phases = rng.uniform(-math.pi, math.pi, size=2)
        q = ProductVonMises(T, (1.5, 0.7), tuple(phases))
        q_shift = ProductVonMises(T, (1.5, 0.7), tuple(phases + shift))
        z, z_shift = T.from_angles(theta), T.from_angles(theta + shift)
        r = RBOracle(q, sig).target_coords(z)
        r_shift = RBOracle(q_shift, sig).target_coords(z_shift)
        a_frames = T.frames_batch(z)[:, :2]
        b_frames = T.frames_batch(z_shift)[:, :2]
        for i in range(3):
            a = a_frames[i] @ r[i]
            b = b_frames[i] @ r_shift[i]
            assert np.abs(a - b).max() <= 1e-8 * max(1.0, float(np.abs(a).max()))

    @pytest.mark.parametrize("name", ["sphere1", "sphere2", "sphere3",
                                      "sphere4", "torus", "plane"])
    def test_polar_chords_match_exp(self, name):
        # the homogeneous chord table reproduces Exp_z at every base point
        M = {"sphere1": Sphere(1), "sphere2": Sphere(2), "sphere3": Sphere(3),
             "sphere4": Sphere(4), "torus": FlatTorus(1.0, 2.0),
             "plane": PLANE}[name]
        rng = np.random.default_rng(8)
        z = M.random_coords(rng, 5)
        frames = M.frames_batch(z)
        d = M.intrinsic_dim
        assert np.allclose(frames @ frames.transpose(0, 2, 1), np.eye(M.ambient_dim),
                           atol=1e-12)
        v = 0.7 * rng.standard_normal((5, d)) / math.sqrt(d)
        chord, _ = M.polar_chords(v)
        got = z + np.einsum("nk,nkD->nD", chord, frames)
        expect = M.exp_batch(z, np.einsum("nk,nkD->nD", v, frames[:, :d]))
        assert np.abs(got - expect).max() <= 1e-12
