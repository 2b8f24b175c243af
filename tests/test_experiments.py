"""Driver-level checks at reduced scale; full-scale runs live in the
acceptance module."""
import json

import numpy as np
import pytest

from tubescore import experiments as ex
from tubescore.cli import STUDIES


class TestGeometryDriver:
    def test_residuals_small_everywhere(self):
        out = ex.run_geometry_check(seed=0, n_points=20)
        assert out["max_gauss_residual"] <= 1e-9
        assert out["max_frame_residual"] <= 1e-9
        assert out["max_closed_form_residual"] <= 1e-12
        assert len(out["rows"]) == 7

    def test_sphere_rows_have_closed_form(self):
        out = ex.run_geometry_check(seed=1, n_points=5)
        by_name = {r["manifold"]: r for r in out["rows"]}
        for name in ("sphere1", "sphere2", "sphere3", "sphere4"):
            assert "closed_form_residual" in by_name[name]
        assert "closed_form_residual" not in by_name["torus_1_1"]
        assert "closed_form_residual" not in by_name["plane_2_4"]

    def test_deterministic(self):
        a = ex.run_geometry_check(seed=3, n_points=8)
        b = ex.run_geometry_check(seed=3, n_points=8)
        assert a == b

    def test_serializable(self):
        json.dumps(ex.run_geometry_check(seed=0, n_points=3))


class TestFlatDriver:
    def test_reduction_exact_and_remainder_quartic(self):
        out = ex.run_flat_check(d=2, ambient=4, tau=1.0, sigma=0.1,
                                n=20_000, seed=0)
        assert out["max_rel_residual"] <= 1e-12
        assert out["oracle_closed_form_error"] <= 1e-6
        assert out["second_order_slope"] >= 3.8
        assert len(out["fields"]) == 5
        assert len(out["second_order_remainders"]) == 7

    def test_remainders_decrease_with_sigma(self):
        out = ex.run_flat_check(n=1000, seed=0)
        rems = out["second_order_remainders"]
        assert rems == sorted(rems)  # sigmas ascend, remainder grows

    def test_other_shape(self):
        out = ex.run_flat_check(d=1, ambient=3, tau=0.8, sigma=0.2,
                                n=5000, seed=2)
        assert out["max_rel_residual"] <= 1e-12
        assert out["second_order_slope"] >= 3.5


class TestVarianceDriver:
    def test_collapse_summaries(self):
        q = ex.sphere_vmf(2, 2.0)
        out = ex.run_variance_collapse(q, np.geomspace(0.05, 0.2, 3),
                                       5000, 42)
        assert -2.2 <= out["slope"] <= -1.8
        assert 0.9 <= out["smallest_sigma_ratio"] <= 1.1
        assert out["max_rb_deviation"] <= 0.15
        assert len(out["rows"]) == 3
        columns = list(STUDIES["variance-collapse"].columns)
        assert all(list(row) == columns for row in out["rows"])

    def test_smallest_sigma_is_min_not_first(self):
        q = ex.sphere_vmf(2, 2.0)
        out = ex.run_variance_collapse(q, [0.2, 0.1], 2000, 0)
        assert out["smallest_sigma"] == pytest.approx(0.1)

    def test_deterministic(self):
        q = ex.sphere_vmf(2, 2.0)
        a = ex.run_variance_collapse(q, [0.1, 0.2], 2000, 5)
        b = ex.run_variance_collapse(q, [0.1, 0.2], 2000, 5)
        assert a == b


class TestExtrinsicDriver:
    def test_default_set_matches_predictions(self):
        out = ex.run_extrinsic_coef(ex.default_extrinsic_models(2.0),
                                    [0.05, 0.08])
        assert len(out["rows"]) == 8
        preds = {"sphere1": 0.5, "sphere2": 0.0, "sphere3": -0.5,
                 "torus_1_1": 0.5}
        for row in out["rows"]:
            assert row["alpha_pred"] == pytest.approx(
                preds[row["manifold"]], abs=1e-10)
            assert abs(row["alpha_hat"] - row["alpha_pred"]) <= 0.05

    def test_trend_toward_prediction(self):
        out = ex.run_extrinsic_coef(ex.default_extrinsic_models(2.0),
                                    [0.05, 0.08])
        for name in ("sphere1", "sphere3", "torus_1_1"):
            errs = {row["sigma"]: abs(row["alpha_hat"] - row["alpha_pred"])
                    for row in out["rows"] if row["manifold"] == name}
            assert errs[0.05] <= errs[0.08] + 0.05

    def test_single_model(self):
        out = ex.run_extrinsic_coef([("sphere1", ex.sphere_vmf(1, 2.0))],
                                    [0.05])
        assert len(out["rows"]) == 1
        assert out["rows"][0]["alpha_hat"] == pytest.approx(0.5, abs=0.02)


class TestSteinDriver:
    def test_all_windows(self):
        out = ex.run_stein_suite(logmap_n=20_000, seed=0)
        assert out["stein_residual_sphere1"] <= 1e-5
        assert out["stein_residual_sphere2"] <= 1e-4
        assert out["stein_residual_uniform"] <= 1e-8
        m = out["second_moment_over_sigma2"]
        assert 0.8 * 1 <= m["sphere1"] <= 1.2 * 1
        assert 0.8 * 2 <= m["sphere2"] <= 1.2 * 2
        assert out["chord_plateau_factor"] < 1.5
        assert out["logmap_plateau_factor"] < 1.5

    def test_logmap_ratios_positive_and_o_sigma(self):
        out = ex.run_stein_suite(logmap_n=10_000, seed=1)
        ratios = out["logmap_ratios"]
        assert all(r > 0 for r in ratios)
        # the unnormalized gap itself must shrink ~ sigma^2
        sigmas = out["logmap_ratio_sigmas"]
        gaps = [r * s**2 for r, s in zip(ratios, sigmas)]
        assert gaps[0] > gaps[-1] * 4


class TestPythagoreanDriver:
    def test_decomposition_within_3se(self):
        out = ex.run_pythagorean(n=20_000, seed=3)
        for name, c in out["coarsenings"].items():
            assert c["gap_over_se"] <= 3.0, name
        for name, g in out["pythagorean"].items():
            assert g["gap_over_se"] <= 3.0, name

    def test_term_structure(self):
        out = ex.run_pythagorean(n=10_000, seed=5)
        cs = out["coarsenings"]
        assert cs["identity"]["coarsening_term"] == 0.0
        assert cs["constant"]["coarsening_term"] > 0.0
        fibers = {c["fiber_term"] for c in cs.values()}
        assert len(fibers) == 1  # same data, same oracle term
        assert 0 < cs["bin8"]["coarsening_term"] \
            < cs["constant"]["coarsening_term"]

    def test_zero_field_is_the_identity_split(self):
        # h = 0 in the identity coarsening is the identity split itself,
        # reported in both blocks
        out = ex.run_pythagorean(n=2000, seed=2)
        identity = out["coarsenings"]["identity"]
        assert out["pythagorean"]["zero"] == {
            k: identity[k] for k in ("gap_mean", "gap_se", "gap_over_se")}

    def test_one_oracle_pass_per_dataset(self, monkeypatch):
        rows = []
        target_coords = ex.RBOracle.target_coords

        def counted(self, queries):
            rows.append(len(queries))
            return target_coords(self, queries)
        monkeypatch.setattr(ex.RBOracle, "target_coords", counted)
        ex.run_pythagorean(n=2000, seed=1)
        # the evaluation feet, then the calibration feet
        assert len(rows) == 2


class TestFiniteSampleDriver:
    def test_modes_and_summaries(self):
        out = ex.run_finite_sample(repetitions=3, seed=42)
        assert -0.8 <= out["rate_slope"] <= -0.3
        modes = {r["mode"] for r in out["rows"]}
        assert modes == {"rate", "fixed", "small_h"}
        fixed_rows = [r for r in out["rows"] if r["mode"] == "fixed"]
        assert all(r["h"] == out["fixed_h"] for r in fixed_rows)
        assert out["small_h_blowup_ratio"] >= 2.0
        assert out["fixed_plateau_ratio"] >= 0.6
        small = [r for r in out["rows"] if r["mode"] == "small_h"]
        assert [r["mse"] for r in small] == sorted(
            r["mse"] for r in small)  # shrinking h inflates variance

    def test_deterministic(self):
        a = ex.run_finite_sample(n_grid=(200, 2000), repetitions=2, seed=9)
        b = ex.run_finite_sample(n_grid=(200, 2000), repetitions=2, seed=9)
        assert a == b

    def test_one_draw_per_dataset(self, monkeypatch):
        from tubescore import estimators
        calls = []
        corrupt = estimators.corrupt

        def counted(q, sigma, n, seed):
            calls.append(n)
            return corrupt(q, sigma, n, seed)
        monkeypatch.setattr(estimators, "corrupt", counted)
        ex.run_finite_sample(n_grid=(1000, 2000, 4000), repetitions=20,
                             seed=3)
        # 20 calibration datasets, then 20 per cell; every bandwidth of a
        # cell (rate, frozen and, at the smallest n, the three undersized
        # ones) is scored on the same draw
        assert calls == [1000] * 40 + [2000] * 20 + [4000] * 20


class TestLangevinDriver:
    def test_structure_and_determinism(self):
        kw = dict(seed=11, marginal_chains=4, marginal_steps=600,
                  debias_chains=6, debias_steps=600,
                  scaled_chains=4, scaled_steps=600)
        a = ex.run_langevin_suite(**kw)
        b = ex.run_langevin_suite(**kw)
        assert a == b
        assert a["marginal"]["n_kept"] == 4 * (600 - 120) // 5
        lo, hi = a["debias"]["bootstrap_ci"]
        assert lo <= a["debias"]["abs_bias_difference"] <= hi
        assert 0 <= a["scaled"]["two_sample_ks"] <= 1

    def test_drift_factors_recorded(self):
        out = ex.run_langevin_suite(seed=1, marginal_chains=2,
                                    marginal_steps=300, debias_chains=2,
                                    debias_steps=300, scaled_chains=2,
                                    scaled_steps=300)
        assert out["debias"]["raw_factor"] == pytest.approx(0.955)
        assert out["debias"]["debiased_factor"] == pytest.approx(
            0.955 * 1.045)
