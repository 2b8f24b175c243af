"""Local averaging, risk Monte Carlo, sweeps, and the coarsening split."""
import os

import numpy as np
import pytest

from tubescore import estimators
from tubescore.densities import IsotropicGaussian, Uniform, VonMisesFisher
from tubescore.errors import ConfigError, EmptyWindow, ManifoldMismatch
from tubescore.estimators import (
    _cell_seed,
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
    window_cap,
)
from tubescore.geometry import AffinePlane, Sphere
from tubescore.langevin import ChainConfig, run_chains
from tubescore.oracle import FiberPosterior, RBOracle
from tubescore.targets import CorruptedBatch, corrupt, flat_reduction_residuals

from conftest import make_manifold

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
        # the risk averages over every in-tube row
        mean, _ = projected_risk(ds, np.zeros_like(ds.foot))
        assert mean == np.mean(np.sum(ds.targets ** 2, axis=1))

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
    est, doublings = local_average(data, z[None], [h])
    assert est.shape == (1, 1, z.size) and doublings.tolist() == [[0]]
    return est[0, 0]


def gathered_average(data, z, hs):
    """The (K, D) local averages at the probe row z by the window formula:
    every foot's target moved to z by transport_to_batch, then weighted and
    summed in one matrix product."""
    M = data.manifold
    dist = M.distance_to_batch(data.foot, z)
    moved, ok = M.transport_to_batch(data.foot, data.targets, z)
    w = epanechnikov(dist / np.asarray(hs, float)[:, None]) * ok
    est = (w @ moved) / w.sum(axis=1)[:, None]
    return M.tangent_project_batch(np.broadcast_to(z, est.shape), est)


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
            local_average(take(data, far), z[None], [1e-4])
        # a window that holds only the cut locus of z has no estimate
        anti = single_foot(vmf2, MU, [1.0, 0.0, 0.0])
        with pytest.raises(EmptyWindow):
            local_average(anti, z[None], [3.2])

    @pytest.mark.parametrize("caller", ["local_average", "fiber_posterior",
                                        "run_chains"])
    def test_manifold_mismatch(self, data, vmf2, caller):
        # every caller that takes a point row checks it the same way: a row
        # of S^3 and a row off S^2 are refused before any work is done
        def call(z):
            if caller == "local_average":
                return local_average(data, z[None], [0.4])
            if caller == "fiber_posterior":
                return FiberPosterior(z, vmf2, 0.1)
            cfg = ChainConfig(n_steps=10, initial=z)
            return run_chains(vmf2, 1.0, cfg)

        for z in (np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0])):
            with pytest.raises(ManifoldMismatch):
                call(z)

    def test_bandwidths_validated(self, data):
        with pytest.raises(ConfigError):
            local_average(data, MU[None], [0.4, 0.0])

    def test_probes_must_be_rows(self, data):
        with pytest.raises(ManifoldMismatch):
            local_average(data, MU, [0.4])

    def test_many_bandwidths_equal_single_calls(self, data):
        # one pass over the feet serves every probe and bandwidth; each
        # entry matches its own single-bandwidth call
        hs = [0.05, 0.4, 0.1, 0.8, 0.4, 0.2]
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
        est, doublings = local_average(data, rows, hs)
        assert est.shape == (2, len(hs), 3)
        assert doublings.tolist() == [[0] * len(hs)] * 2
        for row, row_est in zip(rows, est):
            for h, got in zip(hs, row_est):
                assert np.max(np.abs(got - average(data, row, h))) <= 1e-13

    @pytest.mark.parametrize("name", ["sphere2", "torus12", "oblique_plane"])
    def test_probe_rows_equal_single_probe_calls(self, name):
        # a probe's row of a P-probe call has the bits of a call with that
        # probe alone, widened windows included: at h = 0.05 some of the
        # 1000 feet's windows are empty and double
        M = make_manifold(name)
        q = (VonMisesFisher(M, MU, 2.0) if name == "sphere2"
             else Uniform(M) if name == "torus12"
             else IsotropicGaussian(M, [0.0, 0.0], 1.0))
        data = corrupt(q, 0.1, 1000, 31)
        probes = M.random_coords(np.random.default_rng(31), 9)
        hs = [0.05, 0.3, 0.6]
        est, doublings = local_average(data, probes, hs)
        assert doublings.any()
        for j, row in enumerate(probes):
            one, one_doublings = local_average(data, row[None], hs)
            assert np.array_equal(one[0], est[j])
            assert np.array_equal(one_doublings[0], doublings[j])

    @pytest.mark.parametrize("n", [1, estimators._BLOCK - 1,
                                   estimators._BLOCK, estimators._BLOCK + 1])
    def test_block_edges(self, data, n):
        # one row, and a row short of, exactly and a row past a whole block
        # of feet, against the window formula; permuting the rows, which
        # moves the block edges, moves no estimate by more than roundoff
        sub = take(data, slice(0, n))
        # the first foot, and the point a geodesic step of 1 away from it
        step = S2.tangent_project_batch(sub.foot[:1], np.array([[1.0, 0, 0]]))
        step /= np.linalg.norm(step)
        rows = np.vstack([sub.foot[:1], S2.exp_batch(sub.foot[:1], step)])
        # 2.5 reaches beyond the equator of each probe
        hs = [0.4, 0.8, 2.5]
        est, doublings = local_average(sub, rows, hs)
        assert est.shape == (2, 3, 3)
        for row, row_est, row_doublings in zip(rows, est, doublings):
            wide = np.where(row_doublings > 0, np.minimum(
                np.ldexp(hs, row_doublings), np.pi / 2), hs)
            ref = gathered_average(sub, row, wide)
            assert np.max(np.abs(row_est - ref)) <= 1e-13
        order = np.random.default_rng(n).permutation(n)
        again, _ = local_average(take(sub, order), rows, hs)
        assert np.max(np.abs(again - est)) <= 1e-13


class TestProjectedRisk:
    def test_exact_field_gives_zero(self, data):
        sub = take(data, slice(0, 50))
        assert projected_risk(sub, sub.targets)[0] == 0.0

    def test_flat_reduction_consistency(self):
        plane = AffinePlane.axis_aligned(2, 4)
        tau = 0.9
        q = IsotropicGaussian(plane, [0.0, 0.0], tau)
        sigma = 0.15
        batch = corrupt(q, sigma, 20_000, 19)

        def tweedie(foot):
            return q.score_batch(foot) * (tau**2 / (tau**2 + sigma**2))
        lhs, rhs = flat_reduction_residuals(batch)(tweedie(batch.foot))
        risk, _ = projected_risk(batch, tweedie(batch.foot))
        assert risk == pytest.approx(lhs.mean(), rel=1e-12)
        assert risk == pytest.approx(rhs.mean(), rel=1e-12)

    def test_field_shape_validated(self, data):
        with pytest.raises(ConfigError):
            projected_risk(data, data.foot[:, :2])

    def test_pythagorean_within_se(self, data, r_data):
        for h in (np.zeros_like(data.foot), score_values(data, 2.0)):
            gap = coarsening_check(data, r_data, r_data, h)
            assert abs(gap["gap_mean"]) <= 3.0 * gap["gap_se"]

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
        assert res["coarsening_term"] == 0.0
        assert res["gap_mean"] == float(p.mean())
        assert res["gap_se"] == float(p.std(ddof=1) / np.sqrt(p.size))
        if field == "zero":
            assert coarsening_check(data, r_data, r_data) == res

    def test_gap_matches_risk_bookkeeping(self, data, r_data):
        h_vals = score_values(data, 2.0)
        gap = coarsening_check(data, r_data, r_data, h_vals)
        risk_h, _ = projected_risk(data, h_vals)
        risk_r, _ = projected_risk(data, r_data)
        cross = np.mean(np.sum((r_data - h_vals) ** 2, axis=1))
        assert gap["gap_mean"] == pytest.approx(risk_h - risk_r - cross, abs=1e-9)

    def test_rb_minimality(self, data, r_data):
        rb, rb_se = projected_risk(data, r_data)
        for h in (np.zeros_like(data.foot), score_values(data),
                  score_values(data, 2.0)):
            other, other_se = projected_risk(data, h)
            tol = 3.0 * np.hypot(rb_se, other_se)
            assert rb <= other + tol

    def test_bayes_floor(self, vmf2):
        sigma = 0.05
        ds = corrupt(vmf2, sigma, 20_000, 23)
        r = RBOracle(vmf2, sigma).target_coords(ds.foot)
        rb, _ = projected_risk(ds, r)
        assert 0.9 <= rb * sigma**2 / 2.0 <= 1.1


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
        est, doublings = local_average(ds, z[None], [0.2, 0.05, 0.4])
        assert doublings.tolist() == [[1, 3, 0]] and np.all(np.isfinite(est))
        # the widened windows are the doubled bandwidths
        assert np.array_equal(
            est, local_average(ds, z[None], [0.4, 0.4, 0.4])[0])
        # feet all beyond pi/2 of the probe: widening stops at the cap
        far = dists > np.pi / 2 + 0.05
        with pytest.raises(EmptyWindow):
            local_average(take(data, far), z[None], [0.2])

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

    @pytest.mark.parametrize("case", ["uneven", "widening"])
    def test_split_matches_in_process(self, vmf2, oracle, monkeypatch, case):
        # 7 repetitions on 3 CPUs cut as 2, 2 and 3; the widening case is
        # test_sweep_widens_past_one_doubling's, so doublings cross the pipe
        if case == "uneven":
            seed, n, hs, reps = 4, 1000, [0.3, 0.6], 7
        else:
            seed, n, reps = 2872064946, 1000, 20
            hs = [0.25 * optimal_bandwidth(1.0, 0.1, n, 2)]
        probes = probe_points(vmf2, seed, 8)
        r_true = oracle.target_coords(probes)

        def sweep():
            return bandwidth_mse(vmf2, 0.1, n, hs, probes, r_true,
                                 repetitions=reps, seed=seed,
                                 label="sweep.mse.0")

        def no_fork():
            raise AssertionError("forked on one CPU")
        monkeypatch.setattr(estimators, "MIN_PROCESS_DRAWS", 1)
        with monkeypatch.context() as one_cpu:
            one_cpu.setattr(os, "sched_getaffinity", lambda pid: {0})
            one_cpu.setattr(os, "fork", no_fork)
            mse, se, widened = sweep()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        split_mse, split_se, split_widened = sweep()
        assert np.array_equal(split_mse, mse) and np.array_equal(split_se, se)
        assert split_widened == widened
        assert widened > 0 if case == "widening" else widened == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("n, seed, failing", [
        (6, 14, None), (1000, 6, {5}), (1000, 6, {3, 4}),
        (1000, 6, {1, 2})], ids=["drawn", "last_worker", "first_worker",
                                 "caller"])
    def test_split_failure_has_the_unsplit_message(self, vmf2, oracle,
                                                   monkeypatch, n, seed,
                                                   failing):
        # 7 repetitions on 3 CPUs are cut [0, 2), [2, 4), [4, 7).  "drawn":
        # 6 draws leave a window empty at repetitions 2 and 5 alone.  The
        # others fail the repetitions in ``failing``, each with its own
        # message: at 3 and 4 the last worker fails first in time, at 1
        # and 2 the first worker fails before the caller reaches 1
        probes = probe_points(vmf2, seed, 8)
        r_true = oracle.target_coords(probes)
        if failing is not None:
            reps = {_cell_seed(seed, "sweep.mse.0", rep): rep
                    for rep in range(7)}
            draw = estimators.corrupt

            def failing_corrupt(q, sigma, n, cell_seed):
                if reps[cell_seed] in failing:
                    raise EmptyWindow(
                        f"no samples at repetition {reps[cell_seed]}")
                return draw(q, sigma, n, cell_seed)
            monkeypatch.setattr(estimators, "corrupt", failing_corrupt)

        def message():
            with pytest.raises(EmptyWindow) as err:
                bandwidth_mse(vmf2, 0.1, n, [0.5], probes, r_true,
                              repetitions=7, seed=seed, label="sweep.mse.0")
            return str(err.value)
        monkeypatch.setattr(estimators, "MIN_PROCESS_DRAWS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        unsplit = message()
        assert unsplit == (
            "no samples within bandwidth 1.571 of probe" if failing is None
            else f"no samples at repetition {min(failing)}")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert message() == unsplit
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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
        assert res["coarsening_term"] == 0.0
        assert abs(res["gap_mean"]) <= 3.0 * res["gap_se"]

    def test_conditioned_target_as_the_field(self, data, r_data):
        # h = r: every term but the fiber term and every residual is exactly
        # zero, so the gap is zero standard errors
        res = coarsening_check(data, r_data, r_data, r_data)
        assert res["total"] == res["fiber_term"]
        assert res["coarsening_term"] == res["approx_term"] == 0.0
        assert res["gap_mean"] == res["gap_se"] == res["gap_over_se"] == 0.0
        assert all(type(v) is float for v in res.values())

    def test_constant_coarsening(self, data, r_data, r_calib):
        eta_s = np.broadcast_to(r_calib.mean(axis=0), r_data.shape)
        res = coarsening_check(data, r_data, eta_s)
        assert res["coarsening_term"] > 0.0
        assert abs(res["gap_mean"]) <= 3.0 * res["gap_se"]

    def test_binned_coarsening(self, data, r_data, calib, r_calib):
        edges = equal_mass_bins(calib.foot[:, 0], 8)

        def labels(batch):
            return np.searchsorted(edges, batch.foot[:, 0])

        eta_s = binned_means(labels(calib), r_calib, labels(data))
        res = coarsening_check(data, r_data, eta_s)
        assert abs(res["gap_mean"]) <= 3.0 * res["gap_se"]
        # three terms plus the paired residual reproduce the total exactly
        assert res["total"] == pytest.approx(
            res["fiber_term"] + res["coarsening_term"] + res["approx_term"]
            + res["gap_mean"], abs=1e-9)
        # an S-measurable h: one fixed vector per bin label
        levels = np.linspace(-2.0, 2.0, 8)[:, None] * MU
        res = coarsening_check(data, r_data, eta_s, levels[labels(data)])
        assert res["approx_term"] > 0.0
        assert abs(res["gap_mean"]) <= 3.0 * res["gap_se"]
        assert res["total"] == pytest.approx(
            res["fiber_term"] + res["coarsening_term"] + res["approx_term"]
            + res["gap_mean"], abs=1e-9)

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
