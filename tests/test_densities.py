"""Density models: closed-form derivatives vs geodesic finite differences,
normalization, sampler distribution checks, and stream determinism."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import i0e, i1e

from tubescore.densities import (
    IsotropicGaussian,
    ProductVonMises,
    SphereTMarginal,
    Uniform,
    VonMisesFisher,
    _circle_law,
)
from tubescore.errors import ConfigError, ManifoldMismatch, UnsupportedManifold
from tubescore.geometry import AffinePlane, FlatTorus, Sphere

from conftest import (
    fd_gradient,
    fd_laplacian,
    log_laplacian,
    reference_sample_chi,
    reference_vmf_sample_coords,
    same_rows,
    volume_rule,
    wrap_angle,
)

MU3 = np.array([0.3, -0.5, 0.81, 0.0]) / np.linalg.norm([0.3, -0.5, 0.81, 0.0])


def all_models():
    return [
        VonMisesFisher(Sphere(1), np.array([0.6, 0.8]), 1.7),
        VonMisesFisher(Sphere(2), np.array([0.0, 0.0, 1.0]), 2.0),
        VonMisesFisher(Sphere(2), np.array([0.6, 0.0, 0.8]), 3.2),
        VonMisesFisher(Sphere(3), MU3, 2.5),
        ProductVonMises(FlatTorus(1.0, 1.0), (1.2, 2.3), (0.4, -1.1)),
        ProductVonMises(FlatTorus(1.0, 2.0), (2.0, 0.7), (0.0, 2.5)),
        IsotropicGaussian(AffinePlane.axis_aligned(2, 4), [0.3, -0.2], 1.1),
        Uniform(Sphere(2)),
        Uniform(FlatTorus(1.0, 2.0)),
    ]


SHORT_NAMES = {"VonMisesFisher": "vmf", "ProductVonMises": "product_vonmises",
               "IsotropicGaussian": "gaussian", "Uniform": "uniform"}
MODEL_IDS = [f"{SHORT_NAMES[type(m).__name__]}-{m.manifold.name}"
             for m in all_models()]


@pytest.fixture(params=range(len(MODEL_IDS)), ids=MODEL_IDS)
def model(request):
    return all_models()[request.param]


class TestDerivatives:
    def test_score_matches_fd_gradient(self, model):
        rng = np.random.default_rng(41)
        M = model.manifold
        coords = M.random_coords(rng, 12)
        scores = model.score_batch(coords)
        for z, s in zip(coords, scores):
            g_fd = fd_gradient(model.log_density_batch, M, z)
            assert np.linalg.norm(g_fd - s) <= 1e-6 * max(1.0, np.linalg.norm(s))

    def test_laplacian_matches_fd_stencil(self, model):
        rng = np.random.default_rng(42)
        M = model.manifold
        coords = M.random_coords(rng, 12)
        laps = log_laplacian(model, coords)
        for z, lap in zip(coords, laps):
            lap_fd = fd_laplacian(model.log_density_batch, M, z)
            assert abs(lap_fd - lap) <= 1e-5 * max(1.0, abs(lap_fd))

    def test_tweedie_term_is_half_grad_of_bracket(self, model):
        rng = np.random.default_rng(43)
        M = model.manifold

        def bracket(rows):
            return (log_laplacian(model, rows)
                    + np.sum(model.score_batch(rows) ** 2, axis=1))

        coords = M.random_coords(rng, 12)
        drifts = model.tweedie_batch(coords)
        for z, b in zip(coords, drifts):
            b_fd = 0.5 * fd_gradient(bracket, M, z)
            assert np.linalg.norm(b_fd - b) <= 1e-6 * max(1.0, np.linalg.norm(b))

    def test_score_is_tangent(self, model):
        rng = np.random.default_rng(44)
        M = model.manifold
        coords = M.random_coords(rng, 50)
        s = model.score_batch(coords)
        resid = s - M.tangent_project_batch(coords, s)
        assert np.abs(resid).max() <= 1e-10


AMBIENT_SCORE_MODELS = [
    *(VonMisesFisher(Sphere(d), mu / np.linalg.norm(mu), kappa)
      for d, mu, kappa in ((1, np.array([0.6, -0.8]), 1.7),
                           (2, np.array([0.3, -0.5, 0.81]), 2.0),
                           (3, MU3, 2.5),
                           (4, np.array([0.2, 0.7, -0.4, 0.1, 0.5]), 6.0))),
    ProductVonMises(FlatTorus(1.0, 2.0), (2.0, 0.7), (0.0, 2.5)),
    IsotropicGaussian(AffinePlane.axis_aligned(2, 4), [0.3, -0.2], 1.1),
    Uniform(Sphere(3)),
    Uniform(FlatTorus(1.0, 2.0)),
]


@pytest.mark.parametrize("model", AMBIENT_SCORE_MODELS,
                         ids=lambda m: f"{type(m).__name__}-{m.manifold.name}")
@settings(max_examples=5, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_ambient_score_projects_to_the_score(model, seed):
    # the Langevin step projects the ambient field with its noise, so the
    # field's tangent projection must be the score at every point
    M = model.manifold
    coords = M.random_coords(np.random.default_rng(seed), 40)
    field = model.ambient_score_batch(coords)
    assert field.shape in {coords.shape, (M.ambient_dim,)}
    projected = M.tangent_project_batch(
        coords, np.broadcast_to(field, coords.shape))
    score = model.score_batch(coords)
    scale = 1.0 + np.abs(field).max()
    assert np.abs(projected - score).max() <= 1e-14 * scale


class TestNormalization:
    def test_density_integrates_to_one(self, model):
        M = model.manifold
        if isinstance(M, AffinePlane):
            nodes, w = volume_rule(M, 64, half_width=9.0)
        else:
            nodes, w = volume_rule(M, 160 if M.intrinsic_dim <= 2 else 48)
        mass = w @ np.exp(model.log_density_batch(nodes))
        assert abs(mass - 1.0) <= 1e-10

    def test_log_density_batch_matches_scalar(self, model):
        # every row kernel evaluates each row on its own: a row of a batch
        # call equals the call on that row alone
        rng = np.random.default_rng(45)
        coords = model.manifold.random_coords(rng, 5)
        for kernel in (model.log_density_batch, model.score_batch,
                       model.tweedie_batch):
            batch = kernel(coords)
            for i, row in enumerate(coords):
                assert np.allclose(batch[i], kernel(row[None])[0],
                                   rtol=0, atol=1e-12)


class TestScaledBessel:
    """The circle rule behind the product von Mises normalizer and score
    moment, against scipy.special.i0e and i1e as the references."""

    KAPPAS = [0.0, 1e-300, 1e-8, 0.5, 8.0, 8.0 + 1e-9, 30.0, 700.0, 1e4, 1e6]

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_log_i0_within_two_ulp(self, kappa):
        # an absolute bound below 1: log I0 only enters the normalizer
        # beside log(4 pi^2 R1 R2), where an error of ulp(1) is invisible
        ref = math.log(i0e(kappa)) + kappa
        got = _circle_law(kappa)[0]
        assert abs(got - ref) <= 2 * math.ulp(max(1.0, ref))

    def test_matches_scipy(self):
        # scipy's own log(i0e(kappa)) + kappa is up to 3.02 ulp(1) from the
        # 40-digit value over these kappas (at kappa = 2.75e-7), so the
        # bound leaves one ulp for the rule's rounding on top of that
        rng = np.random.default_rng(17)
        kappas = np.concatenate([self.KAPPAS, rng.uniform(0.0, 16.0, 500),
                                 np.exp(rng.uniform(-20.0, 20.0, 500))])
        for kappa in kappas[kappas > 0].tolist():
            log_i0, sin2 = _circle_law(kappa)
            ref = math.log(i0e(kappa)) + kappa
            assert abs(log_i0 - ref) <= 4 * math.ulp(max(1.0, ref)), kappa
            assert sin2 == pytest.approx(i1e(kappa) / (kappa * i0e(kappa)),
                                         rel=1e-14, abs=0), kappa
        assert _circle_law(0.0) == (0.0, 0.5)

    def test_node_count_bounded(self, monkeypatch):
        # the rule sums every node with math.fsum; past kappa ~ 373 it stops
        # where the integrand underflows, so no finite kappa costs more
        sizes = []
        fsum = math.fsum

        def counting_fsum(values):
            sizes.append(len(values))
            return fsum(values)

        monkeypatch.setattr(math, "fsum", counting_fsum)
        kappas = np.concatenate([np.linspace(0.0, 2000.0, 2001),
                                 np.geomspace(1e-10, 1.7e308, 2000)])
        for kappa in kappas.tolist():
            log_i0, sin2 = _circle_law(kappa)
            assert math.isfinite(log_i0) and 0.0 < sin2 <= 0.5 + 1e-15, kappa
        assert max(sizes) <= 106

    def test_torus_builds_no_t_marginal(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("SphereTMarginal built")

        monkeypatch.setattr(SphereTMarginal, "__init__", refuse)
        q = ProductVonMises(FlatTorus(1.0, 2.0), (2e4, 1e300))
        assert math.isfinite(q._log_norm)
        assert q.score_second_moment() == pytest.approx(
            2e4 * i1e(2e4) / i0e(2e4) + 1e300 / 4.0, rel=1e-13)

    def test_normalizer(self):
        q = ProductVonMises(FlatTorus(1.0, 2.0), (2.0, 0.7))
        assert q._log_norm == (math.log(8.0 * math.pi**2)
                               + math.log(i0e(2.0)) + 2.0
                               + math.log(i0e(0.7)) + 0.7)


class TestTMarginal:
    def test_mean_matches_bessel_ratio_on_circle(self):
        marg = SphereTMarginal(1, 2.0)
        assert marg.mean() == pytest.approx(i1e(2.0) / i0e(2.0), abs=1e-12)

    def test_mean_matches_coth_identity_on_sphere2(self):
        marg = SphereTMarginal(2, 2.0)
        assert marg.mean() == pytest.approx(1.0 / math.tanh(2.0) - 0.5, abs=1e-12)

    def test_second_moment_on_sphere2(self):
        marg = SphereTMarginal(2, 2.0)
        exact = 1.0 + 2.0 / 4.0 - 2.0 / (2.0 * math.tanh(2.0))
        assert marg.moment(lambda t: t * t) == pytest.approx(exact, abs=1e-12)

    @pytest.mark.parametrize("dim, kappa", [
        (0, 2.0), (-1, 2.0), (2.5, 2.0), (2.0, 2.0), (2, -3.0)])
    def test_bad_dim_or_kappa_refused(self, dim, kappa):
        with pytest.raises(ConfigError):
            SphereTMarginal(dim, kappa)

    def test_cdf_endpoints(self):
        marg = SphereTMarginal(2, 1.3)
        assert marg.cdf(np.array([-1.0]))[0] == pytest.approx(0.0, abs=1e-12)
        assert marg.cdf(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-12)


class TestSamplers:
    N = 100_000

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_vmf_t_coordinate_distribution(self, dim):
        mu = np.zeros(dim + 1)
        mu[-1] = 1.0
        q = VonMisesFisher(Sphere(dim), mu, 2.0)
        X = q.sample_coords_seeded(self.N, seed=11)
        assert np.abs(np.linalg.norm(X, axis=1) - 1.0).max() <= 1e-12
        ks = stats.ks_1samp(X @ mu, q.t_marginal().cdf)
        assert ks.statistic <= 0.012

    def test_vmf_direction_symmetry(self):
        # on S^1 the direction is one of the two unit normals to mu, so the
        # bound checks that the sign is balanced
        for dim, mu in ((2, np.array([0.0, 0.0, 1.0])), (1, np.array([0.6, 0.8]))):
            q = VonMisesFisher(Sphere(dim), mu, 2.0)
            X = q.sample_coords_seeded(self.N, seed=11)
            w = X - (X @ mu)[:, None] * mu[None, :]
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            assert np.linalg.norm(w.mean(axis=0)) <= 0.015

    def test_product_vonmises_angle_marginals(self):
        T = FlatTorus(1.0, 2.0)
        uniform = stats.uniform(loc=-math.pi, scale=2.0 * math.pi)
        for kappas in ((1.5, 0.8), (0.0, 0.8)):
            q = ProductVonMises(T, kappas, (0.3, -1.0))
            ang = T.angles(q.sample_coords_seeded(self.N, seed=12))
            for i in range(2):
                delta = wrap_angle(ang[:, i] - q.phases[i])
                law = stats.vonmises(kappa=q.kappas[i]) if q.kappas[i] > 0 else uniform
                ks = stats.ks_1samp(delta, law.cdf)
                assert ks.statistic <= 0.012

    def test_gaussian_chart_marginals(self):
        P = AffinePlane.axis_aligned(2, 4)
        g = IsotropicGaussian(P, [0.5, -1.0], 0.8)
        c = P.chart(g.sample_coords_seeded(self.N, seed=13))
        for i in range(2):
            ks = stats.ks_1samp(c[:, i], stats.norm(loc=g.mean[i], scale=g.tau).cdf)
            assert ks.statistic <= 0.012

    def test_uniform_sphere_height_is_uniform(self):
        u = Uniform(Sphere(2))
        X = u.sample_coords_seeded(self.N, seed=14)
        ks = stats.ks_1samp(X[:, 2], stats.uniform(loc=-1.0, scale=2.0).cdf)
        assert ks.statistic <= 0.012

    def test_streams_are_deterministic_and_sharded(self):
        q = ProductVonMises(FlatTorus(1.0, 2.0), (1.5, 0.8), (0.3, -1.0))
        a = q.sample_coords_seeded(70_000, seed=5)
        b = q.sample_coords_seeded(70_000, seed=5)
        c = q.sample_coords_seeded(90_000, seed=5)
        assert np.array_equal(a, b)
        # first shard is a fixed block, so a longer run shares the prefix
        assert np.array_equal(a[:65_536], c[:65_536])
        assert not np.array_equal(a, q.sample_coords_seeded(70_000, seed=6))


class TestSamplerBits:
    """The vMF sampler against its row-major reference, bit for bit.

    np.interp precomputes its slopes only when it has at least as many
    queries as table nodes (8,193), so the counts straddle that; at kappa
    1e4 the cdf table has flat runs.
    """

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("kappa", [0.0, 2.0, 1e4])
    @pytest.mark.parametrize("n", [0, 1, 7, 8192, 8194])
    def test_vmf_sample_coords(self, dim, kappa, n):
        M = Sphere(dim)
        q = VonMisesFisher(M, M.random_coords(np.random.default_rng(dim), 1)[0], kappa)
        got = q.sample_coords(n, np.random.default_rng(n))
        assert same_rows(got, reference_vmf_sample_coords(q, n, np.random.default_rng(n)))

    @pytest.mark.parametrize("kappa", [0.0, 2.0, 1e4])
    @pytest.mark.parametrize("n", [7, 8192, 8194])
    def test_sample_chi_on_unsorted_queries(self, kappa, n):
        marg = SphereTMarginal(2, kappa)
        rng = np.random.default_rng(n)
        u = rng.random(n)
        u[1::3] = u[0]  # duplicates
        u[2::5] = 0.0
        u[3::7] = marg._chi_cdf[rng.integers(0, marg._chi_cdf.size, u[3::7].size)]
        assert same_rows(marg.sample_chi(u), reference_sample_chi(marg, u))


class TestValidation:
    def test_vmf_rejects_non_sphere(self):
        with pytest.raises(ManifoldMismatch):
            VonMisesFisher(FlatTorus(1.0, 1.0), np.array([1.0, 0.0, 0.0, 0.0]), 1.0)

    def test_vmf_rejects_bad_mu(self):
        with pytest.raises(ValueError):
            VonMisesFisher(Sphere(2), np.array([1.0, 1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            VonMisesFisher(Sphere(2), np.array([1.0, 0.0]), 1.0)

    def test_vmf_rejects_negative_kappa(self):
        with pytest.raises(ConfigError):
            VonMisesFisher(Sphere(2), np.array([0.0, 0.0, 1.0]), -0.5)

    def test_gaussian_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            IsotropicGaussian(AffinePlane.axis_aligned(2, 4), [0.0, 0.0], 0.0)

    def test_uniform_rejects_infinite_volume(self):
        with pytest.raises(UnsupportedManifold):
            Uniform(AffinePlane.axis_aligned(2, 4))
