"""Local averaging, risk Monte Carlo, sweeps, and the coarsening split."""
import numpy as np
import pytest

from tubescore.densities import IsotropicGaussian, Uniform, VonMisesFisher
from tubescore.errors import ConfigError, EmptyWindow, ManifoldMismatch
from tubescore.estimators import (
    _linear_quantiles,
    bandwidth_mse,
    binned_means,
    calibrate_bandwidth,
    coarsening_check,
    epanechnikov,
    equal_mass_bins,
    local_average,
    optimal_bandwidth,
    probe_points,
    projected_risk,
    variance_sweep,
    window_cap,
)
from tubescore.geometry import AffinePlane, Sphere
from tubescore.langevin import ChainConfig, DriftSpec, run_chains
from tubescore.oracle import FiberPosterior, RBOracle
from tubescore.targets import CorruptedBatch, corrupt, flat_reduction_residuals

S2 = Sphere(2)
MU = np.array([0.0, 0.0, 1.0])


@pytest.fixture(scope="module")
def vmf2():
    return VonMisesFisher(S2, MU, 2.0)


@pytest.fixture(scope="module")
def data(vmf2):
    return corrupt(vmf2, 0.1, 20_000, 11)


@pytest.fixture(scope="module")
def oracle(vmf2):
    return RBOracle(vmf2, 0.1)


@pytest.fixture(scope="module")
def r_data(data, oracle):
    return oracle.target_coords(data.foot)


@pytest.fixture(scope="module")
def calib(vmf2):
    return corrupt(vmf2, 0.1, 20_000, 12)


@pytest.fixture(scope="module")
def r_calib(calib, oracle):
    return oracle.target_coords(calib.foot)


def score_values(data, scale=1.0):
    """scale times the score of the batch's density at its feet."""
    return scale * data.density.score_batch(data.foot)


def take(data, idx):
    """The rows idx of a batch, as a batch of their own."""
    return CorruptedBatch(data.density, data.sigma, data.latents[idx],
                          data.noisy[idx], data.foot[idx], data.targets[idx])


def single_foot(q, foot, target):
    """A one-row batch whose foot and target are given directly."""
    foot = np.array([foot], float)
    return CorruptedBatch(q, 0.1, foot, foot, foot, np.array([target], float))


class TestDataset:
    def test_in_tube_filter_and_counts(self, vmf2):
        ds = corrupt(vmf2, 0.4, 5000, 3)
        assert len(ds) + ds.n_outside == 5000
        assert ds.n_outside > 0
        assert ds.foot.shape == ds.targets.shape == (len(ds), 3)
        assert projected_risk(ds, ds.targets).n == len(ds)

    def test_plane_never_discards(self):
        plane = AffinePlane.axis_aligned(2, 4)
        q = IsotropicGaussian(plane, [0.0, 0.0], 1.0)
        ds = corrupt(q, 0.3, 2000, 7)
        assert ds.n_outside == 0 and len(ds) == 2000


class TestKernel:
    def test_epanechnikov_values(self):
        assert epanechnikov(np.array([0.0, 0.5, 1.0, 2.0])) == pytest.approx(
            [1.0, 0.75, 0.0, 0.0])


def average(data, z, h):
    """The local average at the probe row z and one bandwidth, as a single
    tangent row."""
    est, doublings = local_average(data, z, [h])
    assert est.shape == (1, z.size) and doublings.tolist() == [0]
    return est[0]


class TestLocalAverage:
    def test_single_sample_at_probe(self, data):
        z = data.foot[0]
        est = average(take(data, slice(0, 1)), z, 0.5)
        assert np.allclose(est, data.targets[0], atol=1e-12)

    def test_permutation_invariance(self, data):
        z = np.array([1.0, 0.0, 0.0])
        order = np.random.default_rng(0).permutation(len(data))
        a = average(data, z, 0.4)
        b = average(take(data, order), z, 0.4)
        assert np.allclose(a, b, atol=1e-12)

    def test_estimate_is_tangent(self, data):
        z = np.array([0.0, 1.0, 0.0])
        est = average(data, z, 0.4)
        assert abs(est @ z) <= 1e-12

    def test_uniform_symmetry_shrinks(self):
        u = Uniform(S2)
        z = np.array([1.0, 0.0, 0.0])
        small = corrupt(u, 0.1, 500, 2)
        big = corrupt(u, 0.1, 50_000, 2)
        e_small = np.linalg.norm(average(small, z, 0.8))
        e_big = np.linalg.norm(average(big, z, 0.8))
        assert e_big < e_small

    def test_error_decreases_with_n(self, vmf2, oracle):
        z = np.array([1.0, 0.0, 0.0])
        r = oracle.target_coords(z[None])[0]
        errs = []
        for n in (1000, 10_000, 100_000):
            per_rep = []
            for rep in range(5):
                ds = corrupt(vmf2, 0.1, n, 100 + rep)
                h = optimal_bandwidth(2.8, 0.1, n, 2)
                per_rep.append(np.sum((average(ds, z, h) - r) ** 2))
            errs.append(np.mean(per_rep))
        assert errs[0] > errs[1] > errs[2]

    def test_empty_window(self, vmf2, data):
        z = -MU  # antipode of the mode: sparse region
        # every foot lies beyond the widening cap (pi/2 on S^2) of z
        assert window_cap(S2) == pytest.approx(np.pi / 2)
        far = S2.distance_to_batch(data.foot, z) > np.pi / 2 + 0.05
        with pytest.raises(EmptyWindow):
            local_average(take(data, far), z, [1e-4])
        # a window that holds only the cut locus of z has no estimate
        anti = single_foot(vmf2, MU, [1.0, 0.0, 0.0])
        with pytest.raises(EmptyWindow):
            local_average(anti, z, [3.2])

    @pytest.mark.parametrize("caller", ["local_average", "fiber_posterior",
                                        "run_chains"])
    def test_manifold_mismatch(self, data, vmf2, caller):
        # every caller that takes a point row checks it the same way: a row
        # of S^3 and a row off S^2 are refused before any work is done
        def call(z):
            if caller == "local_average":
                return local_average(data, z, [0.4])
            if caller == "fiber_posterior":
                return FiberPosterior(z, vmf2, 0.1)
            cfg = ChainConfig(n_steps=10, initial=z)
            return run_chains(vmf2, DriftSpec("intrinsic"), cfg)

        for z in (np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0])):
            with pytest.raises(ManifoldMismatch):
                call(z)

    def test_bandwidths_validated(self, data):
        with pytest.raises(ConfigError):
            local_average(data, MU, [0.4, 0.0])

    def test_many_bandwidths_equal_single_calls(self, data):
        # one distance pass, one window and one transport serve every
        # bandwidth; each row matches its own single-bandwidth call
        hs = [0.05, 0.4, 0.1, 0.8, 0.4, 0.2]
        for row in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8])):
            est, doublings = local_average(data, row, hs)
            assert est.shape == (len(hs), 3)
            assert doublings.tolist() == [0] * len(hs)
            for h, got in zip(hs, est):
                assert np.max(np.abs(got - average(data, row, h))) <= 1e-13


class TestProjectedRisk:
    def test_exact_field_gives_zero(self, data):
        sub = take(data, slice(0, 50))
        assert projected_risk(sub, sub.targets).mean == 0.0

    def test_flat_reduction_consistency(self):
        plane = AffinePlane.axis_aligned(2, 4)
        tau = 0.9
        q = IsotropicGaussian(plane, [0.0, 0.0], tau)
        sigma = 0.15
        batch = corrupt(q, sigma, 20_000, 19)

        def tweedie(foot):
            return q.score_batch(foot) * (tau**2 / (tau**2 + sigma**2))
        lhs, rhs = flat_reduction_residuals(batch, lambda x: tweedie(x))
        risk = projected_risk(batch, tweedie(batch.foot))
        assert risk.mean == pytest.approx(lhs.mean(), rel=1e-12)
        assert risk.mean == pytest.approx(rhs.mean(), rel=1e-12)

    def test_field_shape_validated(self, data):
        with pytest.raises(ConfigError):
            projected_risk(data, data.foot[:, :2])

    def test_pythagorean_within_se(self, data, r_data):
        for h in (np.zeros_like(data.foot), score_values(data, 2.0)):
            gap = coarsening_check(data, r_data, r_data, h)
            assert abs(gap.gap_mean) <= 3.0 * gap.gap_se

    @pytest.mark.parametrize("field", ["zero", "twice_score"])
    def test_identity_split_is_the_paired_gap(self, data, r_data, field):
        # the paired statistic ||T-h||^2 - ||T-r||^2 - ||r-h||^2, kept here
        # as the reference: at eta_S = r the coarsening term is exactly zero
        # and the split's residual has the same mean and standard error
        h = (np.zeros_like(data.foot) if field == "zero"
             else score_values(data, 2.0))
        p = (np.sum((data.targets - h) ** 2, axis=1)
             - np.sum((data.targets - r_data) ** 2, axis=1)
             - np.sum((r_data - h) ** 2, axis=1))
        res = coarsening_check(data, r_data, r_data, h)
        assert res.coarsening_term == 0.0
        assert res.gap_mean == float(p.mean())
        assert res.gap_se == float(p.std(ddof=1) / np.sqrt(p.size))
        if field == "zero":
            assert coarsening_check(data, r_data, r_data) == res

    def test_gap_matches_risk_bookkeeping(self, data, r_data):
        h_vals = score_values(data, 2.0)
        gap = coarsening_check(data, r_data, r_data, h_vals)
        risk_h = projected_risk(data, h_vals).mean
        risk_r = projected_risk(data, r_data).mean
        cross = np.mean(np.sum((r_data - h_vals) ** 2, axis=1))
        assert gap.gap_mean == pytest.approx(risk_h - risk_r - cross, abs=1e-9)

    def test_rb_minimality(self, data, r_data):
        rb = projected_risk(data, r_data)
        for h in (np.zeros_like(data.foot), score_values(data),
                  score_values(data, 2.0)):
            other = projected_risk(data, h)
            tol = 3.0 * np.hypot(rb.se, other.se)
            assert rb.mean <= other.mean + tol

    def test_bayes_floor(self, vmf2):
        sigma = 0.05
        ds = corrupt(vmf2, sigma, 20_000, 23)
        rb = projected_risk(ds, RBOracle(vmf2, sigma).target_coords(ds.foot))
        assert 0.9 <= rb.mean * sigma**2 / 2.0 <= 1.1


class TestVarianceSweep:
    def test_slope_and_columns(self, vmf2):
        res = variance_sweep(vmf2, [0.05, 0.1, 0.2], 5000, 3,
                             rb_subsample=500)
        assert -2.2 <= res.slope <= -1.8
        assert res.raw_second_moment.shape == (3,)
        # conditioned column stays order-1 while the raw one blows up
        assert res.rb_second_moment.max() < 3.0
        assert res.raw_second_moment[0] > 100.0
        assert np.all(res.discards >= 0)

    def test_deterministic(self, vmf2):
        a = variance_sweep(vmf2, [0.1, 0.2], 2000, 9, rb_subsample=200)
        b = variance_sweep(vmf2, [0.1, 0.2], 2000, 9, rb_subsample=200)
        assert np.array_equal(a.raw_second_moment, b.raw_second_moment)
        assert np.array_equal(a.rb_second_moment, b.rb_second_moment)

    def test_needs_two_sigmas(self, vmf2):
        with pytest.raises(ConfigError):
            variance_sweep(vmf2, [0.1], 100, 0)


class TestMSESweep:
    """The probe MSE of local averaging across bandwidths and sample sizes:
    calibrate_bandwidth picks the rate constant and bandwidth_mse scores
    each cell, as the finite-sample study drives them."""

    def test_rate_mode(self, vmf2, oracle):
        probes = probe_points(vmf2, 42, 8)
        r_true = oracle.target_coords(probes)
        c, widened = calibrate_bandwidth(vmf2, 0.1, 1000, probes, r_true,
                                         repetitions=4, seed=42)
        assert np.isfinite(c) and c > 0 and widened >= 0
        mses = []
        for i, n in enumerate((1000, 10_000)):
            h = optimal_bandwidth(c, 0.1, n, 2)
            assert h > 0
            (mse,), _, _ = bandwidth_mse(vmf2, 0.1, n, [h], probes, r_true,
                                         repetitions=4, seed=42,
                                         label=f"sweep.mse.{i}")
            mses.append(mse)
        assert min(mses) > 0
        assert mses[1] < mses[0]  # the two-point rate slope is negative

    def test_small_h_blows_up(self, vmf2, oracle):
        probes = probe_points(vmf2, 5, 4)
        r_true = oracle.target_coords(probes)
        (wide, narrow), _, _ = bandwidth_mse(
            vmf2, 0.1, 1000, [0.9, 0.225], probes, r_true, repetitions=4,
            seed=5, label="sweep.mse.0")
        assert narrow > 2.0 * wide

    def test_deterministic(self, vmf2, oracle):
        probes = probe_points(vmf2, 8, 8)
        r_true = oracle.target_coords(probes)
        a, b = (bandwidth_mse(vmf2, 0.1, 1000, [0.5], probes, r_true,
                              repetitions=3, seed=8, label="sweep.mse.0")[0]
                for _ in range(2))
        assert np.array_equal(a, b)

    def test_validation(self, vmf2, oracle):
        probes = probe_points(vmf2, 0, 2)
        r_true = oracle.target_coords(probes)
        with pytest.raises(ConfigError):
            bandwidth_mse(vmf2, 0.1, 100, [0.5], probes, r_true,
                          repetitions=0, seed=0, label="sweep.mse.0")
        with pytest.raises(ConfigError):
            bandwidth_mse(vmf2, 0.1, 100, [-0.5], probes, r_true,
                          repetitions=2, seed=0, label="sweep.mse.0")

    def test_probe_points_strong_scores(self, vmf2):
        pts = probe_points(vmf2, 3, 8)
        norms = np.linalg.norm(vmf2.score_batch(pts), axis=1)
        assert norms.min() >= 1.0  # kappa=2 tops out at 2
        again = probe_points(vmf2, 3, 8)
        assert np.array_equal(pts, again)

    def test_widening_counted_then_raises(self, data):
        # foot cluster at geodesic distance 0.25-0.35 from the probe: h=0.2
        # reaches it after one doubling (0.4), h=0.05 after three
        z = np.array([1.0, 0.0, 0.0])
        dists = S2.distance_to_batch(data.foot, z)
        ring = (dists > 0.25) & (dists < 0.35)
        ds = take(data, ring)
        est, doublings = local_average(ds, z, [0.2, 0.05, 0.4])
        assert doublings.tolist() == [1, 3, 0] and np.all(np.isfinite(est))
        # the widened windows are the doubled bandwidths
        assert np.array_equal(est, local_average(ds, z, [0.4, 0.4, 0.4])[0])
        # feet all beyond pi/2 of the probe: widening stops at the cap
        far = dists > np.pi / 2 + 0.05
        with pytest.raises(EmptyWindow):
            local_average(take(data, far), z, [0.2])

    def test_sweep_widens_past_one_doubling(self, vmf2, oracle):
        # a quarter of the pilot bandwidth at n = 1000: at this seed some
        # probe window is still empty after one doubling, and repeated
        # doubling keeps every MSE finite
        seed = 2872064946
        probes = probe_points(vmf2, seed, 8)
        h = 0.25 * optimal_bandwidth(1.0, 0.1, 1000, 2)
        mse, se, widened = bandwidth_mse(
            vmf2, 0.1, 1000, [h], probes, oracle.target_coords(probes),
            repetitions=20, seed=seed, label="sweep.mse.0")
        assert np.all(np.isfinite(mse)) and np.all(np.isfinite(se))
        assert widened > 0

    def test_bandwidth_mse_shapes(self, vmf2, oracle):
        probes = probe_points(vmf2, 4, 3)
        r_true = oracle.target_coords(probes)
        mse, se, widened = bandwidth_mse(
            vmf2, 0.1, 2000, [0.3, 0.6], probes, r_true, repetitions=3,
            seed=4, label="sweep.mse.0")
        assert mse.shape == se.shape == (2,) and widened >= 0
        one, _, _ = bandwidth_mse(
            vmf2, 0.1, 2000, [0.6], probes, r_true, repetitions=3, seed=4,
            label="sweep.mse.0")
        assert mse[1] == pytest.approx(one[0], rel=1e-13)
        with pytest.raises(ConfigError):
            bandwidth_mse(vmf2, 0.1, 2000, [0.3], probes, r_true,
                          repetitions=0, seed=4, label="sweep.mse.0")


class TestCoarsening:
    def test_equal_mass_bins(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(10_000)
        edges = equal_mass_bins(vals, 8)
        assert edges.shape == (7,)
        assert np.all(np.diff(edges) > 0)
        counts = np.bincount(np.searchsorted(edges, vals), minlength=8)
        assert counts.min() > 1100 and counts.max() < 1400

    def test_linear_quantiles_match_numpy(self):
        rng = np.random.default_rng(3)
        probs = [0.025, 0.975]
        for n in (1, 2, 7, 4000):
            for _ in range(20):
                vals = rng.standard_normal(n) * np.exp(rng.uniform(-5, 5, n))
                assert np.array_equal(_linear_quantiles(vals, probs),
                                      np.quantile(vals, probs))

    def test_identity_coarsening(self, data, r_data):
        res = coarsening_check(data, r_data, r_data)
        assert res.coarsening_term == 0.0
        assert abs(res.gap_mean) <= 3.0 * res.gap_se

    def test_constant_coarsening(self, data, r_data, r_calib):
        eta_s = np.broadcast_to(r_calib.mean(axis=0), r_data.shape)
        res = coarsening_check(data, r_data, eta_s)
        assert res.coarsening_term > 0.0
        assert abs(res.gap_mean) <= 3.0 * res.gap_se

    def test_binned_coarsening(self, data, r_data, calib, r_calib):
        edges = equal_mass_bins(calib.foot[:, 0], 8)

        def labels(batch):
            return np.searchsorted(edges, batch.foot[:, 0])

        eta_s = binned_means(labels(calib), r_calib, labels(data))
        res = coarsening_check(data, r_data, eta_s)
        assert abs(res.gap_mean) <= 3.0 * res.gap_se
        # three terms plus the paired residual reproduce the total exactly
        assert res.total == pytest.approx(
            res.fiber_term + res.coarsening_term + res.approx_term
            + res.gap_mean, abs=1e-9)
        # an S-measurable h: one fixed vector per bin label
        levels = np.linspace(-2.0, 2.0, 8)[:, None] * MU
        res = coarsening_check(data, r_data, eta_s, levels[labels(data)])
        assert res.approx_term > 0.0
        assert abs(res.gap_mean) <= 3.0 * res.gap_se
        assert res.total == pytest.approx(
            res.fiber_term + res.coarsening_term + res.approx_term
            + res.gap_mean, abs=1e-9)

    def test_binned_means(self):
        labels_cal = np.array([0, 1, 0, 1, 3])
        values_cal = np.array([[1.0, 0.0], [2.0, 1.0], [3.0, 0.0],
                               [4.0, 1.0], [5.0, 5.0]])
        got = binned_means(labels_cal, values_cal, np.array([1, 0, 1, 3]))
        assert np.array_equal(got, [[3.0, 1.0], [2.0, 0.0], [3.0, 1.0],
                                    [5.0, 5.0]])
        # a label the calibration rows never carry has no mean
        with pytest.raises(ConfigError, match="unseen"):
            binned_means(labels_cal, values_cal, np.array([0, 2]))
        with pytest.raises(ConfigError, match="labels for"):
            binned_means(labels_cal[:3], values_cal, np.array([0]))

    def test_validation(self, data, r_data):
        with pytest.raises(ConfigError):
            coarsening_check(data, r_data[:, :2], r_data)
        with pytest.raises(ConfigError):
            coarsening_check(data, r_data, r_data[:10])
        with pytest.raises(ConfigError):
            coarsening_check(data, r_data, r_data, h=r_data[:10])
