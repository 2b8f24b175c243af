"""Sample-based estimators on corrupted draws.

Local averaging with parallel transport, projected-risk Monte Carlo, the
variance-collapse sweep, the finite-sample bandwidth sweeps, and the
three-term coarsening decomposition check.  Everything here is deterministic
given the master seed: sweep cells and repetitions derive independent
streams, and all reductions run in fixed order.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .densities import DensityModel
from .errors import ConfigError, EmptyWindow
from .geometry import (
    Manifold,
    ManifoldPoint,
    TangentVector,
    ensure_same_manifold,
)
from .oracle import RBOracle
from .rng import seed_sequence
from .targets import CorruptedBatch, corrupt

RB_SUBSAMPLE = 20_000


# ---------------------------------------------------------------------------
# data container


@dataclass(frozen=True)
class Dataset:
    """In-tube corrupted samples with their raw tangent targets.

    foot[i] is the tube projection of noisy draw i and targets[i] the raw
    tangent target at that foot; rows outside the tube were dropped and
    counted in n_discarded.
    """

    density: DensityModel
    sigma: float
    foot: np.ndarray
    targets: np.ndarray
    n_discarded: int
    seed: int | None = None

    @property
    def manifold(self) -> Manifold:
        return self.density.manifold

    def __len__(self) -> int:
        return self.foot.shape[0]

    @classmethod
    def from_batch(cls, batch: CorruptedBatch) -> "Dataset":
        keep = batch.in_tube
        targets = batch.raw_targets()[keep]
        return cls(batch.density, batch.sigma, batch.foot[keep],
                   targets, int(np.sum(~keep)), batch.seed)

    def permuted(self, order: np.ndarray) -> "Dataset":
        return Dataset(self.density, self.sigma, self.foot[order],
                       self.targets[order], self.n_discarded, self.seed)


def collect(q: DensityModel, sigma: float, n: int, seed: int) -> Dataset:
    """Draw n corrupted samples and keep the in-tube ones."""
    return Dataset.from_batch(corrupt(q, sigma, n, seed))


# ---------------------------------------------------------------------------
# kernel regression


@dataclass(frozen=True)
class KernelSpec:
    """Epanechnikov kernel with bandwidth h.

    K(t) = max(0, 1 - t^2): supported on [0, 1] and bounded away from zero
    on [0, 1/2], which is what the local-averaging analysis needs.
    """

    bandwidth: float
    shape: str = "epanechnikov"

    def __post_init__(self):
        if self.shape != "epanechnikov":
            raise ConfigError(f"unsupported kernel shape {self.shape!r}")
        if not self.bandwidth > 0:
            raise ConfigError("bandwidth must be positive")

    def weights(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.maximum(0.0, 1.0 - t * t)

    def widened(self, factor: float = 2.0) -> "KernelSpec":
        return KernelSpec(self.bandwidth * factor, self.shape)


def local_average(data: Dataset, z: ManifoldPoint,
                  kernel: KernelSpec) -> TangentVector:
    """Kernel-weighted average of the targets, transported to z.

    Each target is carried from its foot to z along the minimizing geodesic,
    weighted by K(d_M(foot, z) / h), and projected to the tangent space at z
    (a no-op for transported vectors, kept for form).  Samples whose foot is
    at the cut locus of z have no distinguished geodesic and get weight zero.

    Raises EmptyWindow when no sample lies within the bandwidth; the caller
    decides whether to widen.
    """
    M = data.manifold
    ensure_same_manifold(M, z.manifold)
    zc = z.coords
    dist = M.distance_to_batch(data.foot, zc)
    w = kernel.weights(dist / kernel.bandwidth)
    idx = np.flatnonzero(w > 0.0)
    if idx.size == 0:
        raise EmptyWindow(
            f"no samples within bandwidth {kernel.bandwidth:.4g} of probe")
    moved, ok = M.transport_to_batch(data.foot[idx], data.targets[idx], zc)
    w = np.where(ok, w[idx], 0.0)
    total = w.sum()
    if total <= 0.0:
        raise EmptyWindow("all in-bandwidth samples sit at the cut locus")
    est = (w @ moved) / total
    est = M.tangent_project_batch(zc[None, :], est[None, :])[0]
    return TangentVector(z, est)


# ---------------------------------------------------------------------------
# risk estimates


@dataclass(frozen=True)
class RiskEstimate:
    """Monte Carlo risk with its standard error."""

    mean: float
    se: float
    n: int


def _field_values(values, foot: np.ndarray) -> np.ndarray:
    vals = np.asarray(values, dtype=float)
    if vals.shape != foot.shape:
        raise ConfigError(
            f"field values have shape {vals.shape}, expected {foot.shape}")
    return vals


def zero_field(foot: np.ndarray) -> np.ndarray:
    return np.zeros_like(foot)


def score_field(q: DensityModel, scale: float = 1.0):
    """Ambient score field x -> scale * grad_M log q(x), rows on M."""
    def h(foot):
        return scale * q.score_batch(foot)
    return h


def projected_risk(data: Dataset, values: np.ndarray) -> RiskEstimate:
    """Monte Carlo estimate of E || T - h(foot) ||^2 with standard error.

    values holds h at the feet, one row per sample of data.
    """
    vals = _field_values(values, data.foot)
    sq = np.sum((data.targets - vals) ** 2, axis=1)
    n = sq.size
    se = sq.std(ddof=1) / np.sqrt(n) if n > 1 else 0.0
    return RiskEstimate(float(sq.mean()), float(se), int(n))


@dataclass(frozen=True)
class PairedGap:
    """Per-sample decomposition residual: mean should sit within a few SE
    of zero when the middle field is the conditional mean of the targets."""

    gap_mean: float
    gap_se: float
    n: int

    @property
    def within(self) -> float:
        # |mean| measured in standard errors
        return abs(self.gap_mean) / self.gap_se if self.gap_se > 0 else np.inf


def pythagorean_gap(data: Dataset, h_values: np.ndarray,
                    r_values: np.ndarray) -> PairedGap:
    """Paired check of risk(h) = risk(rb) + E||rb - h||^2.

    h_values and r_values hold the field under test and the quadrature
    target at the feet of data.  Uses the per-sample statistic
    ||T-h||^2 - ||T-r||^2 - ||r-h||^2 whose expectation vanishes exactly;
    pairing keeps the standard error far below the sizes of the individual
    terms.
    """
    h_vals = _field_values(h_values, data.foot)
    r_vals = _field_values(r_values, data.foot)
    p = (np.sum((data.targets - h_vals) ** 2, axis=1)
         - np.sum((data.targets - r_vals) ** 2, axis=1)
         - np.sum((r_vals - h_vals) ** 2, axis=1))
    n = p.size
    return PairedGap(float(p.mean()), float(p.std(ddof=1) / np.sqrt(n)), n)


# ---------------------------------------------------------------------------
# variance-collapse sweep


@dataclass(frozen=True)
class VarianceSweepResult:
    sigma: np.ndarray
    raw_second_moment: np.ndarray
    rb_second_moment: np.ndarray
    raw_se: np.ndarray
    rb_se: np.ndarray
    discards: np.ndarray
    slope: float
    n: int
    rb_subsample: int

    columns = ("sigma", "raw_second_moment", "rb_second_moment",
               "raw_se", "rb_se", "discards")

    def rows(self):
        for i in range(self.sigma.size):
            yield (self.sigma[i], self.raw_second_moment[i],
                   self.rb_second_moment[i], self.raw_se[i],
                   self.rb_se[i], int(self.discards[i]))


def _cell_seed(master: int, label: str, index: int) -> int:
    return int(seed_sequence(master, label, index).generate_state(1)[0])


def variance_sweep(q: DensityModel, sigma_grid: Sequence[float], n: int,
                   seed: int, *, rb_subsample: int = RB_SUBSAMPLE) -> VarianceSweepResult:
    """Second moments of the raw and conditioned targets across sigma.

    The raw column uses all in-tube draws; the conditioned column evaluates
    the quadrature target at a fixed-size subsample of the feet (the oracle
    call dominates the cost and its Monte Carlo error is tiny next to the
    15 percent tolerance the flatness check uses).
    """
    sigmas = np.asarray(list(sigma_grid), dtype=float)
    if sigmas.size < 2:
        raise ConfigError("sigma grid needs at least two points")
    raw_m, rb_m, raw_se, rb_se, disc = [], [], [], [], []
    for i, sig in enumerate(sigmas):
        data = collect(q, float(sig), n, _cell_seed(seed, "sweep.variance", i))
        sq = np.sum(data.targets ** 2, axis=1)
        raw_m.append(sq.mean())
        raw_se.append(sq.std(ddof=1) / np.sqrt(sq.size))
        feet = data.foot[:min(rb_subsample, len(data))]
        r = RBOracle(q, float(sig)).target_coords(feet)
        rsq = np.sum(r ** 2, axis=1)
        rb_m.append(rsq.mean())
        rb_se.append(rsq.std(ddof=1) / np.sqrt(rsq.size))
        disc.append(data.n_discarded)
    slope = float(np.polyfit(np.log(sigmas), np.log(raw_m), 1)[0])
    return VarianceSweepResult(
        sigmas, np.array(raw_m), np.array(rb_m), np.array(raw_se),
        np.array(rb_se), np.array(disc, dtype=int), slope, n,
        min(rb_subsample, n))


# ---------------------------------------------------------------------------
# finite-sample bandwidth sweeps


def probe_points(q: DensityModel, seed: int, n_probes: int = 8,
                 candidates: int = 64) -> np.ndarray:
    """Deterministic probe set with score norm bounded away from zero.

    Draws candidates from q and keeps the strongest-score ones; for the
    densities here that avoids the modes and antipodes where the target
    degenerates and relative MSE loses meaning.
    """
    pts = q.sample_coords_seeded(candidates, seed, label="estimators.probes")
    norms = np.linalg.norm(q.score_batch(pts), axis=1)
    order = np.argsort(-norms, kind="stable")
    return pts[order[:n_probes]]


def optimal_bandwidth(c: float, sigma: float, n: int, d: int) -> float:
    return c * (1.0 / (sigma**2 * n)) ** (1.0 / (d + 2))


@dataclass(frozen=True)
class MSESweepResult:
    n_grid: np.ndarray
    h_used: np.ndarray
    mse: np.ndarray
    se: np.ndarray
    slope: float
    c: float
    widened: int
    sigma: float
    repetitions: int

    columns = ("n", "h", "mse", "se")

    def rows(self):
        for i in range(self.n_grid.size):
            yield (int(self.n_grid[i]), self.h_used[i],
                   self.mse[i], self.se[i])


class _WidenCount:
    def __init__(self):
        self.count = 0


def _estimate_at_probes(data: Dataset, probes: np.ndarray, h: float,
                        widen: _WidenCount) -> np.ndarray:
    out = np.empty_like(probes)
    for j, row in enumerate(probes):
        z = data.manifold.point(row)
        try:
            out[j] = local_average(data, z, KernelSpec(h)).vec
        except EmptyWindow:
            # one doubling, reported via the counter; a second miss is real
            widen.count += 1
            out[j] = local_average(data, z, KernelSpec(2.0 * h)).vec
    return out


def _probe_mse(q, sigma, n, h, repetitions, seed, label, probes, r_true,
               widen: _WidenCount):
    per_rep = np.empty(repetitions)
    for rep in range(repetitions):
        data = collect(q, sigma, n, _cell_seed(seed, label, rep))
        est = _estimate_at_probes(data, probes, h, widen)
        per_rep[rep] = np.mean(np.sum((est - r_true) ** 2, axis=1))
    se = per_rep.std(ddof=1) / np.sqrt(repetitions) if repetitions > 1 else 0.0
    return float(per_rep.mean()), float(se)


def mse_sweep(q: DensityModel, sigma: float, n_grid: Sequence[int],
              h_rule="optimal", repetitions: int = 20, seed: int = 0, *,
              n_probes: int = 8, probes: np.ndarray | None = None,
              calibration_factors=(0.5, 1.0, 1.41, 2.0, 2.83)) -> MSESweepResult:
    """Mean squared error of the local average against the quadrature target.

    h_rule is "optimal" for the rate-matched bandwidth c*(1/(sigma^2 n))
    ** (1/(d+2)) with c picked by the empirical 5-point grid at the smallest
    n, a float for a fixed bandwidth, or a callable n -> h.  Probes are fixed
    across cells so the sweep isolates the estimation error.
    """
    ns = np.asarray(sorted(int(v) for v in n_grid), dtype=int)
    if ns.size == 0 or ns[0] < 1:
        raise ConfigError("n grid must hold positive sample counts")
    if repetitions < 1:
        raise ConfigError("repetitions must be at least 1")
    if probes is None:
        probes = probe_points(q, seed, n_probes)
    M = q.manifold
    oracle = RBOracle(q, sigma)
    r_true = oracle.target_coords(probes)
    widen = _WidenCount()
    d = M.intrinsic_dim

    c = np.nan
    if h_rule == "optimal":
        pilot = optimal_bandwidth(1.0, sigma, int(ns[0]), d)
        # candidate windows must stay inside a normal ball or the transport
        # bias bound behind the rate has no meaning
        h_cap = 0.5 * M.injectivity_radius
        grid = np.array([min(f * pilot, h_cap) for f in calibration_factors])
        if grid.size != 5:
            raise ConfigError("bandwidth calibration uses a 5-point grid")
        # paired over repetitions: one dataset scores all five bandwidths
        scores = np.zeros(grid.size)
        for rep in range(repetitions):
            data = collect(q, sigma, int(ns[0]),
                           _cell_seed(seed, "sweep.mse.calib", rep))
            for k, h in enumerate(grid):
                est = _estimate_at_probes(data, probes, float(h), widen)
                scores[k] += np.mean(np.sum((est - r_true) ** 2, axis=1))
        best = float(grid[int(np.argmin(scores))])
        c = best / (1.0 / (sigma**2 * ns[0])) ** (1.0 / (d + 2))

        def rule(n):
            return optimal_bandwidth(c, sigma, n, d)
    elif callable(h_rule):
        rule = h_rule
    else:
        h_fixed = float(h_rule)
        if not h_fixed > 0:
            raise ConfigError("fixed bandwidth must be positive")

        def rule(n):
            return h_fixed

    hs, mses, ses = [], [], []
    for i, n in enumerate(ns):
        h = float(rule(int(n)))
        m, s = _probe_mse(q, sigma, int(n), h, repetitions, seed,
                          f"sweep.mse.{i}", probes, r_true, widen)
        hs.append(h)
        mses.append(m)
        ses.append(s)
    slope = (float(np.polyfit(np.log(ns), np.log(mses), 1)[0])
             if ns.size > 1 else np.nan)
    return MSESweepResult(ns, np.array(hs), np.array(mses), np.array(ses),
                          slope, float(c), widen.count, float(sigma),
                          repetitions)


# ---------------------------------------------------------------------------
# coarsening decomposition


def equal_mass_bins(values: np.ndarray, k: int = 8) -> np.ndarray:
    """Interior bin edges splitting values into k equal-mass bins."""
    qs = np.linspace(0.0, 1.0, k + 1)[1:-1]
    return np.quantile(np.asarray(values, dtype=float), qs)


def first_coordinate_bins(calibration_foot: np.ndarray, k: int = 8):
    """Coarse statistic: bin index of the first ambient coordinate.

    Edges come from the calibration batch so the statistic is a fixed
    deterministic function when applied to fresh data.
    """
    edges = equal_mass_bins(calibration_foot[:, 0], k)

    def stat(foot):
        return np.searchsorted(edges, foot[:, 0])
    return stat


@dataclass(frozen=True)
class CoarseningResult:
    """Three-term split of E||T - eta(S)||^2 plus the paired residual."""

    fiber_term: float
    coarsening_term: float
    approx_term: float
    total: float
    gap_mean: float
    gap_se: float
    n: int

    @property
    def terms(self):
        return (self.fiber_term, self.coarsening_term, self.approx_term)


def _calibration_target(calibration: Dataset | None,
                        r_calibration: np.ndarray | None,
                        kind: str) -> np.ndarray:
    if calibration is None or r_calibration is None:
        raise ConfigError(f"{kind} coarsening needs a calibration batch "
                          "and its quadrature target")
    return _field_values(r_calibration, calibration.foot)


def coarsening_check(data: Dataset, coarse_stat, *, r: np.ndarray,
                     calibration: Dataset | None = None,
                     r_calibration: np.ndarray | None = None,
                     eta: np.ndarray | None = None) -> CoarseningResult:
    """Estimate the three-term decomposition for a coarsening S of the foot.

    r holds the quadrature target at the feet of data, and r_calibration
    the same at the feet of calibration.  coarse_stat is "identity" (S
    determines the foot, so the conditional mean is the quadrature target
    itself), "constant" (S carries nothing, conditional mean is the global
    target mean), or a callable mapping foot rows to a finite set of
    labels.  The conditional mean given a label is estimated from an
    independent calibration dataset so it enters the evaluation batch as a
    fixed function.  eta is the S-measurable field under test, given as
    values at the evaluation feet; None means zero.
    """
    r_eval = _field_values(r, data.foot)
    if coarse_stat == "identity":
        eta_s = r_eval
    elif coarse_stat == "constant":
        r_cal = _calibration_target(calibration, r_calibration, "constant")
        eta_s = np.broadcast_to(r_cal.mean(axis=0), r_eval.shape)
    elif callable(coarse_stat):
        r_cal = _calibration_target(calibration, r_calibration, "binned")
        s_cal = np.asarray(coarse_stat(calibration.foot))
        s_eval = np.asarray(coarse_stat(data.foot))
        labels = np.unique(np.concatenate([s_cal, s_eval]))
        means = np.zeros((labels.size, r_eval.shape[1]))
        for j, lab in enumerate(labels):
            hit = s_cal == lab
            if not hit.any():
                raise ConfigError(
                    f"label {lab!r} unseen in the calibration batch")
            means[j] = r_cal[hit].mean(axis=0)
        eta_s = means[np.searchsorted(labels, s_eval)]
    else:
        raise ConfigError(f"unrecognized coarse statistic {coarse_stat!r}")

    if eta is None:
        eta_vals = np.zeros_like(r_eval)
    else:
        eta_vals = _field_values(eta, data.foot)

    t = data.targets
    a = np.sum((t - r_eval) ** 2, axis=1)
    b = np.sum((r_eval - eta_s) ** 2, axis=1)
    cterm = np.sum((eta_s - eta_vals) ** 2, axis=1)
    tot = np.sum((t - eta_vals) ** 2, axis=1)
    gap = tot - a - b - cterm
    n = gap.size
    return CoarseningResult(
        float(a.mean()), float(b.mean()), float(cterm.mean()),
        float(tot.mean()), float(gap.mean()),
        float(gap.std(ddof=1) / np.sqrt(n)), n)
