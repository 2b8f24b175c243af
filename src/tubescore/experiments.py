"""Experiment drivers behind the command-line harness.

Each driver runs one self-contained study at a reproducible seed and returns
plain dictionaries of Python scalars and lists, ready for serialization.
Nothing here prints or writes files; the CLI owns formatting.
"""
from __future__ import annotations

import numpy as np

from .densities import (
    DensityModel,
    IsotropicGaussian,
    ProductVonMises,
    Uniform,
    VonMisesFisher,
)
from .errors import ConfigError
from .estimators import (
    _linear_quantiles,
    bandwidth_mse,
    binned_means,
    calibrate_bandwidth,
    coarsening_check,
    equal_mass_bins,
    optimal_bandwidth,
    probe_points,
    projected_risk,
    variance_sweep,
)
from .geometry import AffinePlane, FlatTorus, Sphere
from .langevin import (
    ChainConfig,
    DriftSpec,
    marginal_diagnostic,
    run_chains,
    two_sample_ks,
)
from .oracle import (
    FiberPosterior,
    RBOracle,
    extract_extrinsic_coefficient,
    predicted_expansion,
    score_second_moment,
)
from .rng import derive_rng
from .targets import corrupt, flat_reduction_residuals

GEOMETRY_SUITE = (
    ("sphere1", lambda: Sphere(1)),
    ("sphere2", lambda: Sphere(2)),
    ("sphere3", lambda: Sphere(3)),
    ("sphere4", lambda: Sphere(4)),
    ("torus_1_1", lambda: FlatTorus(1.0, 1.0)),
    ("torus_1_2", lambda: FlatTorus(1.0, 2.0)),
    ("plane_2_4", lambda: AffinePlane.axis_aligned(2, 4)),
)


def run_geometry_check(seed: int = 0, n_points: int = 100) -> dict:
    """Curvature-identity residuals at random points of every geometry."""
    rows = []
    for name, make in GEOMETRY_SUITE:
        M = make()
        rng = derive_rng(seed, f"experiments.geometry.{name}")
        bundle = M.curvature_bundle(M.random_coords(rng, n_points))
        row = {"manifold": name,
               "gauss_residual": float(bundle.gauss_residual().max()),
               "frame_residual": float(bundle.frame_residual().max())}
        if isinstance(M, Sphere):
            d = M.intrinsic_dim
            row["closed_form_residual"] = max(
                float(np.abs(bundle.weingarten_mean - d * np.eye(d)).max()),
                float(np.abs(bundle.ricci - (d - 1) * np.eye(d)).max()))
        rows.append(row)
    return {
        "n_points": n_points,
        "seed": seed,
        "rows": rows,
        "max_gauss_residual": max(r["gauss_residual"] for r in rows),
        "max_frame_residual": max(r["frame_residual"] for r in rows),
        "max_closed_form_residual": max(
            r.get("closed_form_residual", 0.0) for r in rows),
    }


def flat_test_fields(plane: AffinePlane, tau: float, sigma: float):
    """Five ambient test fields covering the shapes the reduction must hit:
    zero, the Bayes-optimal field, and three generic nonlinearities."""
    return [
        ("zero", lambda p: np.zeros_like(p)),
        ("bayes", lambda p: plane.embed_tangent(
            -plane.chart(p) / (tau**2 + sigma**2))),
        ("sinusoid", lambda p: np.sin(p)),
        ("affine", lambda p: 2.0 * p + 1.0),
        ("mixed", lambda p: np.stack(
            [p[:, 1], -p[:, 0]]
            + [p[:, j] ** 2 for j in range(2, p.shape[1])], axis=-1)),
    ]


def run_flat_check(d: int = 2, ambient: int = 4, tau: float = 1.0,
                   sigma: float = 0.1, n: int = 100_000,
                   seed: int = 0) -> dict:
    """Exactness of the flat reduction plus the second-order remainder."""
    plane = AffinePlane.axis_aligned(d, ambient)
    q = IsotropicGaussian(plane, np.zeros(d), tau)
    batch = corrupt(q, sigma, n, seed)

    worst = 0.0
    per_field = []
    for name, h in flat_test_fields(plane, tau, sigma):
        lhs, rhs = flat_reduction_residuals(batch, h)
        rel = float(np.max(np.abs(lhs - rhs) / (1.0 + lhs)))
        per_field.append({"field": name, "max_rel_residual": rel})
        worst = max(worst, rel)

    # closed-form agreement of the quadrature target at seeded points
    rng = derive_rng(seed, "experiments.flat.points")
    pts = plane.embed(tau * rng.standard_normal((50, d)))
    oracle_err = 0.0
    for sig in (0.05, sigma, 0.4):
        got = RBOracle(q, sig).target_coords(pts)
        expect = plane.embed_tangent(-plane.chart(pts) / (tau**2 + sig**2))
        oracle_err = max(oracle_err, float(np.abs(got - expect).max()))

    # the remainder after the full second-order prediction decays ~ sigma^4
    z = default_extrinsic_probe(q)
    sigs = np.geomspace(0.05, 0.4, 7)
    rems = []
    for sig in sigs:
        r = RBOracle(q, float(sig)).target_coords(z)
        ex = predicted_expansion(z, q, float(sig))
        rems.append(float(np.linalg.norm(r[0] - ex.predicted[0])))
    slope = float(np.polyfit(np.log(sigs), np.log(rems), 1)[0])

    return {
        "d": d, "ambient": ambient, "tau": tau, "sigma": sigma, "n": n,
        "seed": seed,
        "fields": per_field,
        "max_rel_residual": worst,
        "oracle_closed_form_error": oracle_err,
        "second_order_slope": slope,
        "second_order_sigmas": [float(s) for s in sigs],
        "second_order_remainders": rems,
    }


def sphere_vmf(d: int, kappa: float) -> VonMisesFisher:
    """vMF on the unit d-sphere with the mean at the last coordinate axis."""
    mu = np.zeros(d + 1)
    mu[-1] = 1.0
    return VonMisesFisher(Sphere(d), mu, kappa)


def run_variance_collapse(q: DensityModel, sigma_grid, n: int, seed: int,
                          rb_subsample: int = 20_000) -> dict:
    """Raw vs conditioned second moments across sigma, with the -2 slope.

    The conditioned column is compared with E||grad log q||^2, so a density
    whose score vanishes is refused before anything is drawn."""
    ssm = float(score_second_moment(q))
    if ssm == 0.0:
        raise ConfigError("the score of this density vanishes, so "
                          "max_rb_deviation is undefined; use kappa > 0")
    res = variance_sweep(q, sigma_grid, n, seed, rb_subsample=rb_subsample)
    d = q.manifold.intrinsic_dim
    i0 = int(np.argmin(res.sigma))
    table = {"sigma": res.sigma, "raw_second_moment": res.raw_second_moment,
             "rb_second_moment": res.rb_second_moment, "raw_se": res.raw_se,
             "rb_se": res.rb_se, "discards": res.discards}
    return {
        "rows": [dict(zip(table, row))
                 for row in zip(*(col.tolist() for col in table.values()))],
        "slope": float(res.slope),
        "n": int(res.n),
        "rb_subsample": int(res.rb_subsample),
        "seed": seed,
        "smallest_sigma": float(res.sigma[i0]),
        "smallest_sigma_ratio": float(
            res.raw_second_moment[i0] * res.sigma[i0] ** 2 / d),
        "score_second_moment": ssm,
        "max_rb_deviation": float(
            np.abs(res.rb_second_moment - ssm).max() / ssm),
    }


def default_extrinsic_models(kappa: float = 2.0):
    """The standard comparison set: three spheres and the square torus."""
    return [
        ("sphere1", sphere_vmf(1, kappa)),
        ("sphere2", sphere_vmf(2, kappa)),
        ("sphere3", sphere_vmf(3, kappa)),
        ("torus_1_1", ProductVonMises(FlatTorus(1.0, 1.0), (1.5, 1.5),
                                      (0.0, 0.0))),
    ]


def default_extrinsic_probe(q: DensityModel) -> np.ndarray:
    """A fixed evaluation point with a healthy score for each geometry, as
    one coordinate row."""
    M = q.manifold
    if isinstance(M, Sphere):
        zc = np.zeros((1, M.ambient_dim))
        zc[0, 0] = 1.0  # on the equator relative to the mean axis e_D
        return zc
    if isinstance(M, FlatTorus):
        return M.from_angles(np.array([[0.9, -1.3]]))
    if isinstance(M, AffinePlane):
        return M.embed(0.9 * (-1.0) ** np.arange(M.intrinsic_dim)[None])
    raise ConfigError(f"no default probe for {type(M).__name__}")


def run_extrinsic_coef(models, sigmas) -> dict:
    """Fitted curvature coefficients against the operator prediction.

    The prediction is the score-aligned component of the curvature
    correction, exact for any geometry in the comparison set.
    """
    rows = []
    for name, q in models:
        z = default_extrinsic_probe(q)
        for sig in sigmas:
            fit = extract_extrinsic_coefficient(z, q, float(sig))
            rows.append({
                "manifold": name, "sigma": float(sig),
                "alpha_hat": float(fit.alpha[0]),
                "alpha_pred": float(fit.alpha_pred[0]),
                "orth_residual": float(fit.orthogonal[0]),
            })
    return {"rows": rows, "sigmas": [float(s) for s in sigmas]}


def run_stein_suite(sigma: float = 0.1, moment_sigma: float = 0.025,
                    kappa: float = 2.0, logmap_n: int = 100_000,
                    seed: int = 0) -> dict:
    """Posterior identities, moment windows, and both remainder plateaus."""
    q1 = sphere_vmf(1, kappa)
    q2 = sphere_vmf(2, kappa)
    z1 = np.array([1.0, 0.0])
    z2 = np.array([1.0, 0.0, 0.0])

    out = {"sigma": sigma, "moment_sigma": moment_sigma, "seed": seed}
    for key, z, q in (("sphere1", z1, q1), ("sphere2", z2, q2),
                      ("uniform", z1, Uniform(Sphere(1)))):
        out[f"stein_residual_{key}"] = float(
            FiberPosterior(z, q, sigma).stein_residual())

    moments = {}
    for d, q, z in ((1, q1, z1), (2, q2, z2)):
        post = FiberPosterior(z, q, moment_sigma)
        moments[f"sphere{d}"] = float(post.moment(2) / moment_sigma**2)
    out["second_moment_over_sigma2"] = moments

    plateau_sigmas = (0.1, 0.05, 0.025)
    chord = {}
    for d, q, z in ((1, q1, z1), (2, q2, z2)):
        chord[f"sphere{d}"] = [
            float(FiberPosterior(z, q, s).chord_ratio())
            for s in plateau_sigmas]
    out["chord_ratio_sigmas"] = list(plateau_sigmas)
    out["chord_ratios"] = chord
    out["chord_plateau_factor"] = float(max(
        max(v) / min(v) for v in chord.values()))

    # chord-vs-logmap targets differ by O(sigma) per sample, so the mean
    # squared gap divided by sigma^2 settles to a constant
    ratios = []
    for s in plateau_sigmas:
        batch = corrupt(q2, s, logmap_n, seed)
        logm, ok = batch.logmap_targets()
        diff = np.sum((batch.targets[ok] - logm[ok]) ** 2, axis=1)
        ratios.append(float(diff.mean()) / s**2)
    out["logmap_ratio_sigmas"] = list(plateau_sigmas)
    out["logmap_ratios"] = ratios
    out["logmap_plateau_factor"] = float(max(ratios) / min(ratios))
    return out


def _calibration_seed(seed: int) -> int:
    return int(derive_rng(seed, "experiments.calibration").integers(2**63))


def run_pythagorean(kappa: float = 2.0, sigma: float = 0.1, n: int = 100_000,
                    seed: int = 0) -> dict:
    """Three-term decomposition and the risk-gap identity on the 2-sphere."""
    q = sphere_vmf(2, kappa)
    oracle = RBOracle(q, sigma)
    data = corrupt(q, sigma, n, seed)
    calib = corrupt(q, sigma, n, _calibration_seed(seed))
    # one oracle pass per dataset
    r_data = oracle.target_coords(data.foot)
    r_calib = oracle.target_coords(calib.foot)

    # E[r | S] at the data feet for each coarsening S; the constant and
    # binned means come from the independent calibration batch, so they
    # enter the data batch as fixed functions of S
    edges = equal_mass_bins(calib.foot[:, 0], 8)
    conditional_means = {
        "identity": r_data,
        "constant": np.broadcast_to(r_calib.mean(axis=0), r_data.shape),
        "bin8": binned_means(np.searchsorted(edges, calib.foot[:, 0]),
                             r_calib, np.searchsorted(edges, data.foot[:, 0])),
    }

    def gap(res):
        return {"gap_mean": float(res.gap_mean), "gap_se": float(res.gap_se),
                "gap_over_se": float(abs(res.gap_mean) / res.gap_se)}

    splits = {name: coarsening_check(data, r_data, eta_s)
              for name, eta_s in conditional_means.items()}
    coarsenings = {name: {"fiber_term": float(res.fiber_term),
                          "coarsening_term": float(res.coarsening_term),
                          "approx_term": float(res.approx_term),
                          "total": float(res.total), **gap(res)}
                   for name, res in splits.items()}

    # the identity coarsening at a field h: risk(h) = risk(r) + E||r - h||^2;
    # at h = 0 it is the identity split above
    twice_score = coarsening_check(data, r_data, r_data,
                                   2.0 * q.score_batch(data.foot))
    gaps = {"zero": gap(splits["identity"]), "twice_score": gap(twice_score)}

    rb_risk = projected_risk(data, r_data)
    return {
        "sigma": sigma, "n": n, "seed": seed,
        "coarsenings": coarsenings,
        "pythagorean": gaps,
        "rb_risk": float(rb_risk.mean),
        "rb_risk_se": float(rb_risk.se),
        "rb_risk_sigma2_over_d": float(
            rb_risk.mean * sigma**2 / q.manifold.intrinsic_dim),
    }


def run_finite_sample(kappa: float = 2.0, sigma: float = 0.1,
                      n_grid=(1000, 10_000, 100_000), repetitions: int = 20,
                      seed: int = 0) -> dict:
    """Bandwidth rate study in three modes sharing probes and datasets:
    the calibrated shrinking rule, a frozen bandwidth, and undersized
    bandwidths at the smallest sample size."""
    q = sphere_vmf(2, kappa)
    n_grid = sorted(int(v) for v in n_grid)
    d = q.manifold.intrinsic_dim
    probes = probe_points(q, seed, 8)
    r_true = RBOracle(q, sigma).target_coords(probes)

    c, widened = calibrate_bandwidth(q, sigma, n_grid[0], probes, r_true,
                                     repetitions=repetitions, seed=seed)
    rate_hs = [optimal_bandwidth(c, sigma, n, d) for n in n_grid]
    h_frozen = rate_hs[0]
    pilot = optimal_bandwidth(1.0, sigma, n_grid[0], d)
    small_hs = [pilot, 0.5 * pilot, 0.25 * pilot]

    # each cell scores its rate and frozen bandwidths, and the smallest
    # cell also the undersized ones, on one draw per repetition
    modes = ("rate", "fixed", "small_h", "small_h", "small_h")
    rows = []
    for i, n in enumerate(n_grid):
        hs = [rate_hs[i], h_frozen] + (small_hs if i == 0 else [])
        mse, se, w = bandwidth_mse(q, sigma, n, hs, probes, r_true,
                                   repetitions=repetitions, seed=seed,
                                   label=f"sweep.mse.{i}")
        widened += w
        rows += [{"mode": mode, "n": n, "h": float(h), "mse": float(m),
                  "se": float(e)} for mode, h, m, e in zip(modes, hs, mse, se)]
    rows.sort(key=lambda r: modes.index(r["mode"]))
    by_mode = {mode: [r["mse"] for r in rows if r["mode"] == mode]
               for mode in modes}
    return {
        "sigma": sigma, "repetitions": repetitions, "seed": seed,
        "n_grid": n_grid,
        "rows": rows,
        "rate_slope": float(np.polyfit(np.log(n_grid),
                                       np.log(by_mode["rate"]), 1)[0]),
        "calibrated_c": float(c),
        "widened": widened,
        "fixed_h": float(h_frozen),
        "fixed_plateau_ratio": by_mode["fixed"][-1] / by_mode["fixed"][-2],
        "fixed_over_rate_at_largest_n": (by_mode["fixed"][-1]
                                         / by_mode["rate"][-1]),
        "small_h_values": [float(h) for h in small_hs],
        "small_h_mse": by_mode["small_h"],
        "small_h_blowup_ratio": (by_mode["small_h"][-1]
                                 / by_mode["small_h"][0]),
    }


def run_langevin_suite(sigma: float = 0.3, kappa: float = 2.0,
                       step: float = 1e-3, seed: int = 0,
                       marginal_chains: int = 64,
                       marginal_steps: int = 20_000,
                       debias_chains: int = 512,
                       debias_steps: int = 30_000,
                       scaled_chains: int = 128,
                       scaled_steps: int = 20_000,
                       scale: float = 1.5) -> dict:
    """The three equilibrium studies: marginal fit on the 2-sphere,
    drift debiasing on the 3-sphere, and scaled-drift equivalence.
    Chains keep only t = mu . z, the one coordinate the studies read."""
    cfg, cfg3, cfg_scaled = (ChainConfig(step=step, n_steps=n, seed=seed)
                             for n in (marginal_steps, debias_steps,
                                       scaled_steps))
    for name, chains, c in (("marginal", marginal_chains, cfg),
                            ("debias", debias_chains, cfg3),
                            ("scaled", scaled_chains, cfg_scaled)):
        if chains < 1 or c.kept_count() < 1:
            raise ConfigError(
                f"the {name} study keeps no iterate: {chains} chains of"
                f" {c.n_steps} steps, burn-in {c.burn_in},"
                f" thinning {c.thinning}")
    if debias_chains < 2:
        # the paired bootstrap needs chains to resample
        raise ConfigError(
            f"the debias study needs at least 2 chains, got {debias_chains}")

    q2 = sphere_vmf(2, kappa)
    samples = run_chains(q2, DriftSpec("intrinsic"), cfg, marginal_chains,
                         direction=q2.mu)
    diag = marginal_diagnostic(samples, q2)
    marginal = {
        "n_kept": int(diag.n), "ks": float(diag.ks),
        "mean_bias": float(diag.mean_bias),
        "mean_t": float(diag.mean_t),
        "target_mean": float(diag.target_mean),
        "n_chains": marginal_chains, "n_steps": marginal_steps,
    }

    q3 = sphere_vmf(3, kappa)
    raw = DriftSpec("raw_ambient", sigma)
    debiased = DriftSpec("debiased", sigma)
    t = run_chains(q3, (raw, debiased), cfg3, debias_chains, direction=q3.mu)
    t_raw, t_deb = t.mean(axis=2)
    del t  # the kept iterates, freed before the bootstrap's gathers
    tm = float(q3.t_marginal().mean())
    # paired bootstrap over chains; both drifts share the chain noise, so
    # resampling the same chain indices cancels the common fluctuation
    rng = derive_rng(seed, "experiments.langevin.bootstrap")
    idx = rng.integers(0, t_raw.size, size=(4000, t_raw.size))
    diffs = (np.abs(t_deb[idx].mean(axis=1) - tm)
             - np.abs(t_raw[idx].mean(axis=1) - tm))
    lo, hi = _linear_quantiles(diffs, [0.025, 0.975])
    debias = {
        "sigma": sigma,
        "raw_factor": raw.factor(q3),
        "debiased_factor": debiased.factor(q3),
        "target_mean": tm,
        "raw_bias": float(t_raw.mean() - tm),
        "debiased_bias": float(t_deb.mean() - tm),
        "abs_bias_difference": float(abs(t_deb.mean() - tm)
                                     - abs(t_raw.mean() - tm)),
        "bootstrap_ci": [float(lo), float(hi)],
        "n_chains": debias_chains, "n_steps": debias_steps,
    }

    q_scaled = sphere_vmf(2, scale * kappa)
    a = run_chains(q2, DriftSpec("intrinsic", scale=scale), cfg_scaled,
                   scaled_chains, direction=q2.mu)
    b = run_chains(q_scaled, DriftSpec("intrinsic"),
                   ChainConfig(step=step, n_steps=scaled_steps, seed=seed + 1),
                   scaled_chains, direction=q2.mu)
    scaled = {
        "scale": scale,
        "two_sample_ks": float(two_sample_ks(a, b)),
        "vs_analytic_ks": float(marginal_diagnostic(a, q_scaled).ks),
        "n_each": int(a.size),
        "n_chains": scaled_chains, "n_steps": scaled_steps,
    }

    return {"seed": seed, "step": step, "kappa": kappa,
            "marginal": marginal, "debias": debias, "scaled": scaled}
