"""Chain mechanics, drift family validation, and equilibrium diagnostics."""
import os
import signal
import time

import numpy as np
import pytest

from tubescore import langevin
from tubescore.densities import (
    ProductVonMises,
    SphereTMarginal,
    Uniform,
    VonMisesFisher,
)
from tubescore.errors import BeyondInjectivity, ConfigError, UnsupportedManifold
from tubescore.geometry import FlatTorus, Sphere
from tubescore.langevin import (
    ChainConfig,
    DriftSpec,
    ks_distance,
    marginal_diagnostic,
    run_chains,
    two_sample_ks,
)
from tubescore.rng import derive_rng

S2 = Sphere(2)
MU = np.array([0.0, 0.0, 1.0])


def generic_unit(dim):
    """A unit vector on no coordinate axis.  At an axis mean, z @ mu is
    exact in any memory order, so only a generic mean can show a reduction
    whose bits depend on the layout or the number of rows."""
    d = derive_rng(5, "test.generic_unit", dim).standard_normal(dim)
    return d / np.linalg.norm(d)


@pytest.fixture(scope="module")
def vmf2():
    return VonMisesFisher(S2, MU, 2.0)


@pytest.fixture(scope="module")
def vmf2_generic():
    return VonMisesFisher(S2, generic_unit(3), 2.0)


class TestDriftSpec:
    def test_kind_validated(self):
        with pytest.raises(ConfigError):
            DriftSpec("metropolis")

    def test_raw_needs_alpha_and_sigma(self):
        # sigma comes from the spec and alpha from the density's sphere
        with pytest.raises(ConfigError):
            DriftSpec("raw_ambient")
        with pytest.raises(ConfigError):
            DriftSpec("raw_ambient", 5.0)  # sigma outside the clamp
        # the third positional argument was alpha; it must not quietly
        # become the keyword-only scale
        with pytest.raises(TypeError):
            DriftSpec("raw_ambient", 0.3, 0.5)

    def test_scale_positive(self):
        with pytest.raises(ConfigError):
            DriftSpec("intrinsic", scale=0.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_alpha_comes_from_the_sphere(self, dim):
        q = VonMisesFisher(Sphere(dim), np.eye(dim + 1)[-1], 2.0)
        alpha = 1.0 - dim / 2.0
        raw = DriftSpec("raw_ambient", 0.3).factor(q)
        assert raw == pytest.approx(1.0 + 0.09 * alpha, abs=1e-12)
        assert DriftSpec("debiased", 0.3).factor(q) == pytest.approx(
            raw * (1.0 - 0.09 * alpha), abs=1e-12)
        assert DriftSpec("debiased", 0.3, scale=2.0).factor(q) == \
            2.0 * DriftSpec("debiased", 0.3).factor(q)
        assert DriftSpec("intrinsic", 0.3, scale=1.5).factor(q) == 1.5

    def test_scalar_alpha_is_sphere_only(self):
        T2 = FlatTorus(1.0, 1.0)
        q = ProductVonMises(T2, (1.0, 1.0))
        with pytest.raises(UnsupportedManifold):
            DriftSpec("raw_ambient", 0.3).factor(q)
        with pytest.raises(UnsupportedManifold):
            run_chains(q, DriftSpec("debiased", 0.3),
                       ChainConfig(n_steps=10), 2)
        # intrinsic is fine anywhere
        assert DriftSpec("intrinsic").factor(q) == 1.0

    def test_factor_values(self):
        q3 = VonMisesFisher(Sphere(3), np.array([0., 0., 0., 1.]), 2.0)
        assert DriftSpec("raw_ambient", 0.3).factor(q3) == \
            pytest.approx(0.955, abs=1e-12)
        assert DriftSpec("debiased", 0.3).factor(q3) == \
            pytest.approx(0.955 * 1.045, abs=1e-12)


class TestChainConfig:
    def test_defaults(self):
        cfg = ChainConfig(n_steps=1000)
        assert cfg.burn_in == 200 and cfg.thinning == 5
        assert cfg.kept_count() == 160

    def test_validation(self):
        with pytest.raises(ConfigError):
            ChainConfig(step=0.0)
        with pytest.raises(ConfigError):
            ChainConfig(n_steps=100, burn_in=200)
        with pytest.raises(ConfigError):
            ChainConfig(thinning=0)

    def test_step_bound_uses_injectivity(self):
        ChainConfig(step=0.9).validate_for(S2)  # 0.1 pi^2 ~ 0.987
        with pytest.raises(ConfigError):
            ChainConfig(step=1.0).validate_for(S2)

    def test_plane_has_no_step_bound(self):
        from tubescore.geometry import AffinePlane
        ChainConfig(step=100.0).validate_for(AffinePlane.axis_aligned(2, 4))


class TestStepping:
    @staticmethod
    def one_step(q, z0, eps, seed, n=8000):
        cfg = ChainConfig(step=eps, n_steps=1, burn_in=0, thinning=1,
                          seed=seed, initial=z0)
        return run_chains(q, DriftSpec("intrinsic"), cfg, n)[:, 0]

    def test_brownian_displacement_scaling(self):
        z0 = np.array([1.0, 0.0, 0.0])
        eps = 1e-4
        # the uniform density has zero score, so the step is pure noise
        ends = self.one_step(Uniform(S2), z0, eps, 0)
        d2 = S2.distance_to_batch(ends, z0) ** 2
        assert np.mean(d2) / (2 * eps * 2) == pytest.approx(1.0, abs=0.05)

    def test_drift_pushes_toward_mode(self, vmf2):
        z0 = np.array([1.0, 0.0, 0.0])  # t = 0 < mode
        gains = self.one_step(vmf2, z0, 4e-3, 1) @ MU
        assert np.mean(gains) > 3.0 * np.std(gains) / np.sqrt(len(gains))

    def test_beyond_injectivity(self, vmf2):
        cfg = ChainConfig(step=0.9, n_steps=10, seed=0)
        with pytest.raises(BeyondInjectivity):
            run_chains(vmf2, DriftSpec("intrinsic", scale=50.0), cfg, 2)


class TestCoupledChains:
    """A tuple of drift specs runs every chain once per spec on shared noise."""

    S3_PAIR = (DriftSpec("raw_ambient", 0.3), DriftSpec("debiased", 0.3))

    @pytest.fixture(scope="class")
    def vmf3(self):
        return VonMisesFisher(Sphere(3), np.array([0., 0., 0., 1.]), 2.0)

    @pytest.fixture(scope="class")
    def vmf3_generic(self):
        return VonMisesFisher(Sphere(3), generic_unit(4), 2.0)

    def test_sphere3_pair_equals_single_runs(self, vmf3, vmf3_generic):
        cfg = ChainConfig(step=1e-3, n_steps=300, seed=11)
        for q in (vmf3, vmf3_generic):
            coupled = run_chains(q, self.S3_PAIR, cfg, 5)
            assert coupled.shape == (2, 5, cfg.kept_count(), 4)
            for spec, run in zip(self.S3_PAIR, coupled):
                assert np.array_equal(run, run_chains(q, spec, cfg, 5))

    def test_torus_pair_equals_single_runs(self):
        T2 = FlatTorus(1.0, 1.0)
        q = ProductVonMises(T2, (1.5, 1.5))
        specs = (DriftSpec("intrinsic"), DriftSpec("intrinsic", scale=1.5))
        cfg = ChainConfig(step=1e-3, n_steps=300, seed=12)
        coupled = run_chains(q, specs, cfg, 3)
        for spec, run in zip(specs, coupled):
            assert np.array_equal(run, run_chains(q, spec, cfg, 3))

    def test_chain_count_prefix_stable(self, vmf3, vmf3_generic):
        cfg = ChainConfig(step=1e-3, n_steps=300, seed=7)
        for q in (vmf3, vmf3_generic):
            wide = run_chains(q, self.S3_PAIR, cfg, 8)
            narrow = run_chains(q, self.S3_PAIR, cfg, 3)
            assert np.array_equal(wide[:, :3], narrow)

    def test_one_spec_tuple_keeps_the_spec_axis(self, vmf2):
        cfg = ChainConfig(step=1e-3, n_steps=50, seed=3)
        single = run_chains(vmf2, DriftSpec("intrinsic"), cfg, 2)
        coupled = run_chains(vmf2, (DriftSpec("intrinsic"),), cfg, 2)
        assert np.array_equal(coupled, single[None])

    @pytest.mark.parametrize("case", ["sphere3_pair", "sphere2_single",
                                      "torus_pair", "all_burn_in"])
    def test_direction_keeps_only_the_projection(self, vmf2, vmf2_generic,
                                                 vmf3, vmf3_generic, case):
        torus = ProductVonMises(FlatTorus(1.0, 1.0), (1.5, 1.5))
        one = DriftSpec("intrinsic")
        torus_pair = (one, DriftSpec("intrinsic", scale=1.5))
        cfg = ChainConfig(step=1e-3, n_steps=300, seed=11)
        burnt = ChainConfig(step=1e-3, n_steps=100, burn_in=100, seed=1)
        kept = cfg.kept_count()
        laws, spec, c, n, shape = {
            "sphere3_pair": ((vmf3, vmf3_generic), self.S3_PAIR, cfg, 5,
                             (2, 5, kept)),
            "sphere2_single": ((vmf2, vmf2_generic), one, cfg, 4, (4, kept)),
            "torus_pair": ((torus,), torus_pair, cfg, 3, (2, 3, kept)),
            "all_burn_in": ((vmf2,), one, burnt, 3, (3, 0)),
        }[case]
        for q in laws:
            d = derive_rng(5, "test.direction").standard_normal(
                q.manifold.ambient_dim)
            d /= np.linalg.norm(d)
            t = run_chains(q, spec, c, n, direction=d)
            assert t.shape == shape
            assert np.array_equal(t, run_chains(q, spec, c, n) @ d)

    def test_noise_block_size_does_not_matter(self, vmf3_generic,
                                              monkeypatch):
        # 300 steps fill no whole block of either size, and 5 chains no
        # whole fill group of 2
        torus = ProductVonMises(FlatTorus(1.0, 1.5), (1.5, 1.0))
        cfg = ChainConfig(step=1e-3, n_steps=300, seed=13)
        d = generic_unit(4)
        runs = [lambda: run_chains(vmf3_generic, self.S3_PAIR, cfg, 5,
                                   direction=d),
                lambda: run_chains(torus, DriftSpec("intrinsic"), cfg, 5)]
        default = [run() for run in runs]
        monkeypatch.setattr(langevin, "NOISE_BLOCK", 7)
        monkeypatch.setattr(langevin, "NOISE_GROUP", 2)
        for run, expected in zip(runs, default):
            assert np.array_equal(run(), expected)

    @pytest.mark.parametrize("case", ["sphere3_pair", "sphere3_direction",
                                      "torus_pair", "all_burn_in"])
    def test_split_runs_match_in_process(self, vmf2, vmf3, vmf3_generic,
                                         monkeypatch, case):
        # odd chain counts cut the chains inside a NOISE_GROUP; the default
        # MIN_PROCESS_CHAINS keeps these small references in-process
        torus = ProductVonMises(FlatTorus(1.0, 1.5), (1.5, 1.0))
        cfg = ChainConfig(step=1e-3, n_steps=300, seed=11)
        d4 = generic_unit(4)
        runs = {
            "sphere3_pair": [
                lambda q=q: run_chains(q, self.S3_PAIR, cfg, 7)
                for q in (vmf3, vmf3_generic)],
            "sphere3_direction": [
                lambda q=q: run_chains(q, self.S3_PAIR, cfg, 7, direction=d4)
                for q in (vmf3, vmf3_generic)],
            "torus_pair": [lambda: run_chains(
                torus, (DriftSpec("intrinsic"),
                        DriftSpec("intrinsic", scale=1.5)), cfg, 5)],
            "all_burn_in": [lambda: run_chains(
                vmf2, DriftSpec("intrinsic"),
                ChainConfig(step=1e-3, n_steps=100, burn_in=100, seed=1), 5)],
        }[case]
        default = [run() for run in runs]
        monkeypatch.setattr(langevin, "MIN_PROCESS_CHAINS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert len(langevin._chain_ranges(3)) == 3
        for run, expected in zip(runs, default):
            assert np.array_equal(run(), expected)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_one_cpu_runs_in_process(self, vmf3_generic, monkeypatch):
        cfg = ChainConfig(step=1e-3, n_steps=300, seed=11)
        expected = run_chains(vmf3_generic, self.S3_PAIR, cfg, 7)

        def no_fork():
            raise AssertionError("forked on one CPU")
        monkeypatch.setattr(langevin, "MIN_PROCESS_CHAINS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(os, "fork", no_fork)
        assert np.array_equal(
            run_chains(vmf3_generic, self.S3_PAIR, cfg, 7), expected)

    @pytest.mark.parametrize("scale, seed", [(1.0, 5), (50.0, 0)])
    def test_split_failure_has_the_unsplit_message(self, vmf2, monkeypatch,
                                                   scale, seed):
        # at scale 1 the first failing iterate falls in a worker's range and
        # the caller's own range fails later; at scale 50 every range fails
        # at iterate 1 and the longest step lies in a worker's range
        spec = DriftSpec("intrinsic", scale=scale)
        cfg = ChainConfig(step=0.9, n_steps=10, seed=seed)

        def message(n):
            with pytest.raises(BeyondInjectivity) as err:
                run_chains(vmf2, spec, cfg, n)
            return str(err.value)
        unsplit = message(7)
        assert message(2) != unsplit  # chains 0 and 1 alone fail otherwise
        monkeypatch.setattr(langevin, "MIN_PROCESS_CHAINS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert message(7) == unsplit
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("exc, n_steps", [(ValueError, 300),
                                              (KeyboardInterrupt, 3_000_000)])
    def test_split_exceptions_reach_the_caller(self, monkeypatch, exc,
                                               n_steps):
        # ValueError is raised in the workers only and reaches the caller
        # once its own range is done; KeyboardInterrupt is raised in the
        # caller only, and the workers' chains are long enough that the
        # test would take minutes unless they are killed
        q = VonMisesFisher(S2, MU, 2.0)
        caller = os.getpid()
        score = q.score_batch

        def failing_score(z):
            if (os.getpid() == caller) == (exc is KeyboardInterrupt):
                raise exc("from the chain step")
            return score(z)
        monkeypatch.setattr(q, "score_batch", failing_score)
        monkeypatch.setattr(langevin, "MIN_PROCESS_CHAINS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        cfg = ChainConfig(step=1e-3, n_steps=n_steps, seed=1)
        start = time.perf_counter()
        with pytest.raises(exc, match="from the chain step"):
            run_chains(q, DriftSpec("intrinsic"), cfg, 3, direction=MU)
        assert time.perf_counter() - start < 60.0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_split_failure_stops_the_other_ranges(self, monkeypatch):
        # the workers' chains leave the injectivity radius at iterate 1;
        # the caller's own range would step for minutes unless it stops at
        # its next noise block
        q = VonMisesFisher(S2, MU, 2.0)
        caller = os.getpid()
        score = q.score_batch

        def steep_score(z):
            return score(z) if os.getpid() == caller else 1e6 * score(z)
        monkeypatch.setattr(q, "score_batch", steep_score)
        monkeypatch.setattr(langevin, "MIN_PROCESS_CHAINS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        cfg = ChainConfig(step=1e-3, n_steps=3_000_000, seed=1)
        start = time.perf_counter()
        with pytest.raises(BeyondInjectivity, match=r"at iterate 1$"):
            run_chains(q, DriftSpec("intrinsic"), cfg, 3, direction=MU)
        assert time.perf_counter() - start < 10.0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_killed_worker_is_reported(self, monkeypatch):
        q = VonMisesFisher(S2, MU, 2.0)
        caller = os.getpid()
        score = q.score_batch

        def dying_score(z):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return score(z)
        monkeypatch.setattr(q, "score_batch", dying_score)
        monkeypatch.setattr(langevin, "MIN_PROCESS_CHAINS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        cfg = ChainConfig(step=1e-3, n_steps=300, seed=1)
        with pytest.raises(RuntimeError, match="sent no result"):
            run_chains(q, DriftSpec("intrinsic"), cfg, 3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_empty_tuple_rejected(self, vmf2):
        with pytest.raises(ConfigError):
            run_chains(vmf2, (), ChainConfig(n_steps=10), 2)

    def test_beyond_injectivity(self, vmf2):
        cfg = ChainConfig(step=0.9, n_steps=10, seed=0)
        specs = (DriftSpec("intrinsic"), DriftSpec("intrinsic", scale=50.0))
        with pytest.raises(BeyondInjectivity):
            run_chains(vmf2, specs, cfg, 2)


@pytest.mark.parametrize("q", [
    VonMisesFisher(S2, generic_unit(3), 2.0),
    ProductVonMises(FlatTorus(1.0, 2.0), (1.5, 0.7), (0.3, -1.1)),
], ids=["sphere", "torus"])
def test_step_kernels_keep_bits_and_layout(q):
    # run_chains steps a column-major state: on it each step kernel must
    # give the bits of the row-major copy and return column-major rows
    M = q.manifold
    rng = derive_rng(4, "test.step_kernels")
    z = M.random_coords(rng, 37)
    w = rng.standard_normal(z.shape)
    v = 0.1 * M.tangent_project_batch(z, w)
    for kernel, args in ((M.exp_batch, (z, v)),
                         (M.tangent_project_batch, (z, w)),
                         (q.score_batch, (z,))):
        rows = kernel(*args)
        cols = kernel(*(np.asfortranarray(a) for a in args))
        assert cols.flags.f_contiguous
        assert np.array_equal(cols, rows)


class TestChains:
    def test_run_chain_points_on_manifold(self, vmf2):
        cfg = ChainConfig(step=1e-3, n_steps=200, seed=4)
        rows = run_chains(vmf2, DriftSpec("intrinsic"), cfg)[0]
        assert rows.shape == (cfg.kept_count(), 3)
        assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() <= 1e-10

    def test_empty_when_all_burn_in(self, vmf2):
        cfg = ChainConfig(step=1e-3, n_steps=100, burn_in=100, seed=1)
        assert run_chains(vmf2, DriftSpec("intrinsic"), cfg)[0].shape == (0, 3)
        assert run_chains(vmf2, DriftSpec("intrinsic"), cfg, 3).shape == (3, 0, 3)

    def test_deterministic_and_seed_sensitive(self, vmf2):
        cfg = ChainConfig(step=1e-3, n_steps=300, seed=7)
        a = run_chains(vmf2, DriftSpec("intrinsic"), cfg, 4)
        b = run_chains(vmf2, DriftSpec("intrinsic"), cfg, 4)
        assert np.array_equal(a, b)
        other = run_chains(vmf2, DriftSpec("intrinsic"),
                           ChainConfig(step=1e-3, n_steps=300, seed=8), 4)
        assert not np.array_equal(a, other)

    def test_chain_count_prefix_stable(self, vmf2, vmf2_generic):
        cfg = ChainConfig(step=1e-3, n_steps=300, seed=7)
        for q in (vmf2, vmf2_generic):
            wide = run_chains(q, DriftSpec("intrinsic"), cfg, 8)
            narrow = run_chains(q, DriftSpec("intrinsic"), cfg, 3)
            assert np.array_equal(wide[:3], narrow)

    def test_explicit_initial(self, vmf2):
        z0 = [0, 1, 0]
        cfg = ChainConfig(step=1e-3, n_steps=20, burn_in=0, thinning=1,
                          seed=2, initial=z0)
        # stored as a tuple of floats: a copy, hashed and compared by value
        z0[0] = 1
        assert cfg.initial == (0.0, 1.0, 0.0)
        assert all(type(x) is float for x in cfg.initial)
        same = ChainConfig(step=1e-3, n_steps=20, burn_in=0, thinning=1,
                           seed=2, initial=np.array([0.0, 1.0, 0.0]))
        assert cfg == same and hash(cfg) == hash(same)
        assert cfg != ChainConfig(step=1e-3, n_steps=20, burn_in=0,
                                  thinning=1, seed=2, initial=[1, 0, 0])
        out = run_chains(vmf2, DriftSpec("intrinsic"), cfg, 2)
        assert out.shape == (2, 20, 3)
        # every chain starts at the row: the first iterate is one short step
        # from it
        assert np.all(S2.distance_to_batch(out[:, 0], np.array(cfg.initial))
                      < 0.5)

    def test_constraint_held_everywhere(self, vmf2):
        cfg = ChainConfig(step=1e-3, n_steps=2000, seed=3)
        out = run_chains(vmf2, DriftSpec("intrinsic"), cfg, 8)
        radii = np.linalg.norm(out.reshape(-1, 3), axis=1)
        assert np.abs(radii - 1.0).max() <= 1e-10

    def test_equilibrium_mean(self, vmf2):
        cfg = ChainConfig(step=1e-3, n_steps=10_000, seed=6)
        out = run_chains(vmf2, DriftSpec("intrinsic"), cfg, 32)
        t = out @ MU
        per_chain = t.mean(axis=1)
        se = per_chain.std(ddof=1) / np.sqrt(per_chain.size)
        target = SphereTMarginal(2, 2.0).mean()
        assert abs(per_chain.mean() - target) <= 3.0 * se

    def test_torus_chain_runs(self):
        T2 = FlatTorus(1.0, 1.0)
        q = ProductVonMises(T2, (1.5, 1.5))
        cfg = ChainConfig(step=1e-3, n_steps=500, seed=5)
        out = run_chains(q, DriftSpec("intrinsic"), cfg, 4)
        res = T2.project_batch(out.reshape(-1, 4))[1]
        assert res.max() <= 1e-10


class TestDiagnostics:
    def test_ks_distance_uniform_grid(self):
        v = (np.arange(1000) + 0.5) / 1000
        assert ks_distance(v, lambda t: t) <= 1e-3

    def test_two_sample_ks_bounds(self):
        a = np.linspace(0, 1, 500)
        assert two_sample_ks(a, a) <= 1 / 500 + 1e-12
        assert two_sample_ks(a, a + 10.0) == pytest.approx(1.0)

    def test_exact_sampler_matches_marginal(self, vmf2):
        pts = vmf2.sample_coords_seeded(100_000, 13)
        diag = marginal_diagnostic(pts @ MU, vmf2)
        assert diag.ks <= 0.012
        assert abs(diag.mean_bias) <= 0.01
        assert diag.n == 100_000

    def test_uniform_marginal(self):
        u = Uniform(S2)
        pts = u.sample_coords_seeded(50_000, 14)
        diag = marginal_diagnostic(pts @ MU, u)
        assert diag.ks <= 0.012
        assert abs(diag.target_mean) <= 1e-12

    def test_sphere_only(self):
        T2 = FlatTorus(1.0, 1.0)
        q = ProductVonMises(T2, (1.0, 1.0))
        with pytest.raises(UnsupportedManifold):
            marginal_diagnostic(np.zeros(10), q)

    def test_empty_samples_rejected(self, vmf2):
        with pytest.raises(ConfigError):
            marginal_diagnostic(np.zeros((2, 0)), vmf2)


class TestEquivalences:
    def test_scaled_drift_matches_scaled_kappa(self, vmf2):
        q3 = VonMisesFisher(S2, MU, 3.0)
        a = run_chains(vmf2, DriftSpec("intrinsic", scale=1.5),
                       ChainConfig(step=1e-3, n_steps=10_000, seed=41), 64,
                       direction=MU)
        b = run_chains(q3, DriftSpec("intrinsic"),
                       ChainConfig(step=1e-3, n_steps=10_000, seed=42), 64,
                       direction=MU)
        assert two_sample_ks(a, b) <= 0.03
        assert marginal_diagnostic(a, q3).ks <= 0.03

    def test_step_halving_stable(self, vmf2):
        means, ses = [], []
        for eps, steps in ((1e-3, 10_000), (5e-4, 20_000)):
            out = run_chains(vmf2, DriftSpec("intrinsic"),
                             ChainConfig(step=eps, n_steps=steps, seed=31), 48)
            per_chain = (out @ MU).mean(axis=1)
            means.append(per_chain.mean())
            ses.append(per_chain.std(ddof=1) / np.sqrt(per_chain.size))
        assert abs(means[0] - means[1]) <= 2.0 * np.hypot(*ses)

    def test_debias_beats_raw_on_sphere3(self):
        # sigma = 0.5 amplifies the drift mismatch so the miniature run
        # separates; the experiment driver reruns this at sigma = 0.3
        S3 = Sphere(3)
        q = VonMisesFisher(S3, np.array([0., 0., 0., 1.]), 2.0)
        cfg = ChainConfig(step=1e-3, n_steps=10_000, seed=17)
        raw, deb = run_chains(q, (DriftSpec("raw_ambient", 0.5),
                                  DriftSpec("debiased", 0.5)), cfg, 96)
        tm = q.t_marginal().mean()
        t_raw = (raw @ q.mu).mean(axis=1)
        t_deb = (deb @ q.mu).mean(axis=1)
        # paired bootstrap of |pooled bias| difference over shared chains
        rng = derive_rng(99, "test.bootstrap")
        idx = rng.integers(0, t_raw.size, size=(2000, t_raw.size))
        d = (np.abs(t_deb[idx].mean(axis=1) - tm)
             - np.abs(t_raw[idx].mean(axis=1) - tm))
        assert np.quantile(d, 0.975) < 0.0
