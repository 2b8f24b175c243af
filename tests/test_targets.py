"""Corruption model and raw targets on coordinate rows: exact closed forms,
the flat reduction identity, moment growth, and stream determinism."""
import math

import numpy as np
import pytest

from tubescore import targets as tg
from tubescore.densities import IsotropicGaussian, VonMisesFisher
from tubescore.errors import ConfigError, ManifoldMismatch
from tubescore.geometry import AffinePlane, Sphere

PLANE = AffinePlane.axis_aligned(2, 4)
TAU = 0.9
SIGMA = 0.3
CIRCLE_VMF = VonMisesFisher(Sphere(1), np.array([0.0, 1.0]), 1.0)


def flat_batch(n=20_000, seed=101):
    q = IsotropicGaussian(PLANE, [0.0, 0.0], TAU)
    return tg.corrupt(q, SIGMA, n, seed)


def one_draw(q, sigma, latent, noisy):
    """A batch holding the single draw (latent, noisy)."""
    return tg.CorruptedBatch.from_draws(q, sigma, np.array([latent], float),
                                        np.array([noisy], float))


def field_suite():
    return [
        lambda p: np.zeros_like(p),
        lambda p: -PLANE.chart(p) @ PLANE.frame / (TAU**2 + SIGMA**2),
        lambda p: np.sin(p),
        lambda p: p * 2.0 + 1.0,
        lambda p: np.stack([p[:, 1], -p[:, 0], p[:, 3] ** 2, np.cos(p[:, 2])], axis=-1),
    ]


class TestCorrupt:
    def test_noise_moment_matches_ambient_dimension(self):
        q = VonMisesFisher(Sphere(2), np.array([0.0, 0.0, 1.0]), 2.0)
        n = 50_000
        b = tg.corrupt(q, 0.1, n, seed=9)
        ratio = np.mean(np.sum((b.noisy - b.latents) ** 2, axis=1)) / 0.01
        assert abs(ratio - 3.0) <= 5.0 / math.sqrt(n)

    def test_streams_are_bit_reproducible(self):
        # at sigma = 0.4 draws leave the tube, so a batch's rows are a
        # subset of its draws; a whole shard of draws still gives the
        # leading rows of every longer batch
        q = VonMisesFisher(Sphere(2), np.array([0.0, 0.0, 1.0]), 2.0)
        a = tg.corrupt(q, 0.4, 70_000, seed=9)
        b = tg.corrupt(q, 0.4, 70_000, seed=9)
        assert np.array_equal(a.noisy, b.noisy)
        assert np.array_equal(a.latents, b.latents)
        assert np.array_equal(a.targets, b.targets)
        assert a.n_outside == b.n_outside
        shard = tg.corrupt(q, 0.4, 65_536, seed=9)
        longer = tg.corrupt(q, 0.4, 80_000, seed=9)
        assert 0 < shard.n_outside < a.n_outside < longer.n_outside
        for big in (a, longer):
            k = len(shard)
            assert np.array_equal(big.noisy[:k], shard.noisy)
            assert np.array_equal(big.foot[:k], shard.foot)
            assert np.array_equal(big.targets[:k], shard.targets)

    def test_purely_normal_noise_gives_zero_target(self):
        # X = (1 + sigma) e1 projects back to the latent, so T = 0
        q = VonMisesFisher(Sphere(2), np.array([0.0, 0.0, 1.0]), 2.0)
        b = one_draw(q, 0.3, [1.0, 0.0, 0.0], [1.3, 0.0, 0.0])
        assert len(b) == 1 and b.n_outside == 0
        assert np.array_equal(b.foot[0], [1.0, 0.0, 0.0])
        assert np.linalg.norm(b.targets[0]) == 0.0

    def test_in_tube_rate_is_high_and_flagging_works(self):
        q = VonMisesFisher(Sphere(2), np.array([0.0, 0.0, 1.0]), 2.0)
        b = tg.corrupt(q, 0.25, 50_000, seed=21)
        # tube radius 0.9, sigma 0.25: draws leave the tube but rarely; the
        # batch holds the others and counts the ones that left
        assert 0 < b.n_outside < 0.01 * 50_000
        assert len(b) + b.n_outside == 50_000
        for a in (b.latents, b.noisy, b.foot, b.targets):
            assert a.shape == (len(b), 3)
        dist = np.abs(np.linalg.norm(b.noisy, axis=1) - 1.0)
        assert dist.max() < Sphere(2).tube_radius
        assert np.array_equal(Sphere(2).project_batch(b.noisy)[1], dist)
        # every row has a foot, so only the cut locus masks a logmap target
        _, ok = b.logmap_targets()
        assert ok.all()

    def test_rejects_bad_sigma(self):
        q = VonMisesFisher(Sphere(2), np.array([0.0, 0.0, 1.0]), 2.0)
        with pytest.raises(ConfigError, match="sigma must be positive"):
            tg.corrupt(q, 0.0, 10, seed=1)


class TestRawTarget:
    def test_circle_signed_length_is_sine_over_sigma_sq(self):
        theta, sig = 0.37, 0.25
        foot = np.array([math.cos(theta), math.sin(theta)])
        b = one_draw(CIRCLE_VMF, sig, [1.0, 0.0], foot * 1.1)
        assert np.allclose(b.foot[0], foot, atol=1e-15)
        e_th = np.array([-math.sin(theta), math.cos(theta)])
        assert b.targets[0] @ e_th == pytest.approx(
            -math.sin(theta) / sig**2, abs=1e-12)

    def test_plane_target_is_projected_chord(self):
        b = flat_batch(n=200, seed=5)
        expect = (b.latents - b.foot) / SIGMA**2
        assert np.allclose(b.targets, expect, atol=1e-12)

    def test_target_equals_projected_noise_form(self):
        # P_T(z)(Z - z) = P_T(z)(Z - X) because X - z is purely normal
        q = VonMisesFisher(Sphere(2), np.array([0.0, 0.0, 1.0]), 2.0)
        b = tg.corrupt(q, 0.1, 2000, seed=13)
        alt = b.manifold.tangent_project_batch(b.foot, b.latents - b.noisy) / b.sigma**2
        assert np.max(np.abs(b.targets - alt)) <= 1e-10

    def test_view_matches_batch_row(self):
        # the batch holds the in-tube draws in their order, each row as a
        # one-draw batch of that draw has it
        q = VonMisesFisher(Sphere(2), np.array([0.0, 0.0, 1.0]), 2.0)
        rng = np.random.default_rng(13)
        latents = q.sample_coords(400, rng)
        noisy = latents + 0.45 * rng.standard_normal(latents.shape)
        keep = np.flatnonzero(Sphere(2).project_batch(noisy)[2])
        assert 0 < keep.size < 400
        b = tg.CorruptedBatch.from_draws(q, 0.45, latents, noisy)
        assert len(b) == keep.size and b.n_outside == 400 - keep.size
        assert np.array_equal(b.latents, latents[keep])
        assert np.array_equal(b.noisy, noisy[keep])
        for i in (0, 7, keep.size - 1):
            row = one_draw(q, 0.45, latents[keep[i]], noisy[keep[i]])
            assert np.array_equal(b.targets[i], row.targets[0])
            assert np.array_equal(b.foot[i], row.foot[0])
        outside = np.setdiff1d(np.arange(400), keep)[0]
        empty = one_draw(q, 0.45, latents[outside], noisy[outside])
        assert len(empty) == 0 and empty.n_outside == 1
        assert empty.targets.shape == (0, 3)


class TestLogmapTarget:
    def test_circle_signed_length_is_angle_over_sigma_sq(self):
        theta, sig = 0.37, 0.25
        foot = np.array([math.cos(theta), math.sin(theta)])
        b = one_draw(CIRCLE_VMF, sig, [1.0, 0.0], foot * 1.1)
        TL, ok = b.logmap_targets()
        e_th = np.array([-math.sin(theta), math.cos(theta)])
        assert ok.tolist() == [True]
        assert TL[0] @ e_th == pytest.approx(-theta / sig**2, abs=1e-12)

    def test_matches_raw_on_plane(self):
        b = flat_batch(n=500, seed=6)
        TL, ok = b.logmap_targets()
        assert np.all(ok)
        assert np.allclose(TL, b.targets, atol=1e-12)

    def test_cut_locus_is_masked(self):
        # the foot is antipodal to the latent: no logmap target there
        b = one_draw(CIRCLE_VMF, 0.3, [1.0, 0.0], [-1.2, 0.0])
        _, ok = b.logmap_targets()
        assert len(b) == 1 and ok.tolist() == [False]

    def test_discrepancy_ratio_is_bounded_in_sigma(self):
        # E||T - Tlog||^2 / sigma^2 stays within a factor 1.5 across the grid
        q = VonMisesFisher(Sphere(2), np.array([0.0, 0.0, 1.0]), 2.0)
        ratios = []
        for sig in (0.1, 0.05, 0.025):
            b = tg.corrupt(q, sig, 100_000, seed=7)
            TL, ok = b.logmap_targets()
            diff = np.sum((b.targets[ok] - TL[ok]) ** 2, axis=1)
            ratios.append(np.mean(diff) / sig**2)
        assert max(ratios) / min(ratios) < 1.5


class TestSecondMoment:
    @pytest.mark.parametrize("sig", [0.1, 0.05])
    def test_scaled_second_moment_near_intrinsic_dim(self, sig):
        q = VonMisesFisher(Sphere(2), np.array([0.0, 0.0, 1.0]), 2.0)
        b = tg.corrupt(q, sig, 100_000, seed=7)
        T = b.targets
        val = sig**2 * np.mean(np.sum(T**2, axis=1))
        assert 0.9 * 2.0 <= val <= 1.1 * 2.0


class TestFlatReduction:
    def test_per_sample_identity_all_fields(self):
        b = flat_batch()
        for h in field_suite():
            lhs, rhs = tg.flat_reduction_residuals(b, h(b.foot))
            assert np.max(np.abs(lhs - rhs) / (1.0 + lhs)) <= 1e-12

    def test_scalar_variant_matches(self):
        # a single draw's residuals equal its row of the full batch
        b = flat_batch(n=20, seed=8)
        h = field_suite()[3]
        lhs, rhs = tg.flat_reduction_residuals(b, h(b.foot))
        one = one_draw(b.density, SIGMA, b.latents[4], b.noisy[4])
        (l0,), (r0,) = tg.flat_reduction_residuals(one, h(one.foot))
        assert l0 == pytest.approx(lhs[4], rel=1e-12)
        assert r0 == pytest.approx(rhs[4], rel=1e-12)

    def test_zero_field_gives_projected_chord_norm(self):
        b = flat_batch(n=100, seed=9)
        lhs, rhs = tg.flat_reduction_residuals(b, np.zeros_like(b.foot))
        expect = np.sum((b.latents - b.foot) ** 2, axis=1) / SIGMA**4
        assert np.allclose(lhs, expect, rtol=1e-12)
        assert np.allclose(rhs, expect, rtol=1e-12)

    def test_optimal_field_is_ambient_score(self):
        # h*(t) = -t/(tau^2+sigma^2) makes g_h the exact ambient score of the
        # corrupted marginal; check against a finite-difference gradient.
        # A draw at x whose latent is x + sigma^2 fd has the ambient
        # residual fd - g_h(x), so lhs is ||fd - g_h(x)||^2.
        def log_p(x):
            c = PLANE.chart(x[None])[0]
            nrm = x - PLANE.embed(c[None])[0]
            return (-0.5 * np.sum(c**2) / (TAU**2 + SIGMA**2)
                    - 0.5 * np.sum(nrm**2) / SIGMA**2
                    - math.log(2 * math.pi * (TAU**2 + SIGMA**2))
                    - math.log(2 * math.pi * SIGMA**2))

        hstar = lambda p: -PLANE.chart(p) @ PLANE.frame / (TAU**2 + SIGMA**2)
        q = IsotropicGaussian(PLANE, [0.0, 0.0], TAU)
        rng = np.random.default_rng(3)
        for _ in range(10):
            x = rng.standard_normal(4)
            fd = np.zeros(4)
            for j in range(4):
                e = np.zeros(4)
                e[j] = 1e-6
                fd[j] = (log_p(x + e) - log_p(x - e)) / 2e-6
            one = one_draw(q, SIGMA, x + SIGMA**2 * fd, x)
            (lhs,), _ = tg.flat_reduction_residuals(one, hstar(one.foot))
            assert math.sqrt(lhs) <= 1e-6 * max(1.0, np.linalg.norm(fd))

    def test_ambient_field_edge_cases(self):
        # the zero field's g_0 vanishes in the plane and is -x/sigma^2 at a
        # normal x; a draw at x with latent x + sigma^2 g makes lhs zero
        q = IsotropicGaussian(PLANE, [0.0, 0.0], TAU)
        inplane = PLANE.embed(np.array([[0.7, -0.2]]))[0]
        normal = np.array([0.0, 0.0, 1.0, 0.0])
        for x, g in ((inplane, np.zeros(4)), (normal, -normal / 0.25)):
            one = one_draw(q, 0.5, x + 0.25 * g, x)
            (lhs,), _ = tg.flat_reduction_residuals(one, np.zeros((1, 4)))
            assert math.sqrt(lhs) <= 1e-14

    def test_field_shape_validated(self):
        # one row of values would broadcast over every draw
        b = flat_batch(n=10, seed=2)
        with pytest.raises(ConfigError, match="field values have shape"):
            tg.flat_reduction_residuals(b, np.zeros(4))

    def test_rejects_non_plane(self):
        q = VonMisesFisher(Sphere(2), np.array([0.0, 0.0, 1.0]), 2.0)
        b = tg.corrupt(q, 0.1, 10, seed=2)
        with pytest.raises(ManifoldMismatch):
            tg.flat_reduction_residuals(b, np.zeros_like(b.foot))
