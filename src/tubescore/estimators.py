"""Sample-based estimators on corrupted draws.

Local averaging with parallel transport, projected-risk Monte Carlo, the
finite-sample bandwidth sweeps, and the one risk split,
``coarsening_check``.  The risk estimators take field values at the feet as
(n, D) arrays, never callables, and return builtin floats.  Everything here
is deterministic given the master seed: sweep cells and repetitions derive
independent streams, and all reductions run in fixed order.
"""
from __future__ import annotations

import numpy as np

from .densities import DensityModel
from .errors import ConfigError, EmptyWindow
from .geometry import Manifold
from .rng import seed_sequence
from .targets import CorruptedBatch, _field_values, corrupt

CALIBRATION_FACTORS = (0.5, 1.0, 1.41, 2.0, 2.83)


# ---------------------------------------------------------------------------
# kernel regression


def epanechnikov(t: np.ndarray) -> np.ndarray:
    """The Epanechnikov kernel K(t) = max(0, 1 - t^2).

    Supported on [0, 1] and bounded away from zero on [0, 1/2], which is
    what the local-averaging analysis needs.
    """
    t = np.asarray(t, dtype=float)
    return np.maximum(0.0, 1.0 - t * t)


def window_cap(M: Manifold) -> float:
    """Largest bandwidth a window is calibrated or widened to: half the
    injectivity radius, so every window stays inside a normal ball and the
    transport bias bound behind the rate keeps its meaning."""
    return 0.5 * M.injectivity_radius


def local_average(data: CorruptedBatch, z: np.ndarray,
                  bandwidths) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-weighted averages of the targets at K bandwidths, moved to z.

    Each target is carried from its foot to the probe row z along the
    minimizing geodesic and weighted by K(d_M(foot, z) / h); feet at the
    cut locus of z get weight zero.  Distances are computed once, and
    targets transported once over the widest window.  Returns the (K, D)
    averages, row k at bandwidths[k], and each bandwidth's doublings.

    An empty window's bandwidth doubles until the window holds a sample,
    up to window_cap; EmptyWindow is raised when it is still empty there,
    or when every in-window foot sits at the cut locus.
    """
    M = data.manifold
    z = M.point_row(z)
    hs = np.array(bandwidths, dtype=float, ndmin=1)
    if not np.all(hs > 0):
        raise ConfigError("bandwidth must be positive")
    dist = M.distance_to_batch(data.foot, z)
    nearest = dist.min(initial=np.inf)
    cap = window_cap(M)
    doublings = np.zeros(hs.size, dtype=int)
    for k in range(hs.size):
        while epanechnikov(nearest / hs[k]) == 0.0:
            if hs[k] >= cap or nearest == np.inf:
                raise EmptyWindow(
                    f"no samples within bandwidth {hs[k]:.4g} of probe")
            hs[k] = min(2.0 * hs[k], cap)
            doublings[k] += 1
    idx = np.flatnonzero(epanechnikov(dist / hs.max()) > 0.0)
    moved, ok = M.transport_to_batch(data.foot[idx], data.targets[idx], z)
    w = epanechnikov(dist[idx] / hs[:, None]) * ok
    total = w.sum(axis=1)
    if not np.all(total > 0.0):
        raise EmptyWindow("all in-bandwidth samples sit at the cut locus")
    est = (w @ moved) / total[:, None]
    est = M.tangent_project_batch(np.broadcast_to(z, est.shape), est)
    return est, doublings


# ---------------------------------------------------------------------------
# risk estimates


def projected_risk(data: CorruptedBatch,
                   values: np.ndarray) -> tuple[float, float]:
    """Monte Carlo estimate of E || T - h(foot) ||^2 and its standard error.

    values holds h at the feet, one row per sample of data.
    """
    vals = _field_values(values, data)
    sq = np.sum((data.targets - vals) ** 2, axis=1)
    se = sq.std(ddof=1) / np.sqrt(sq.size) if sq.size > 1 else 0.0
    return float(sq.mean()), float(se)


# ---------------------------------------------------------------------------
# finite-sample bandwidth sweeps


def _cell_seed(master: int, label: str, index: int) -> int:
    return int(seed_sequence(master, label, index).generate_state(1)[0])


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


def bandwidth_mse(q: DensityModel, sigma: float, n: int, bandwidths,
                  probes: np.ndarray, r_true: np.ndarray, *,
                  repetitions: int, seed: int, label: str):
    """Probe MSE of the local average at K bandwidths, in one pass.

    Repetition rep draws its dataset once, from the stream (seed, label,
    rep), and scores every bandwidth on it against r_true, the quadrature
    target at the probes.  Returns the (K,) MSE over repetitions, its
    standard error, and the number of doublings.
    """
    if repetitions < 1:
        raise ConfigError("repetitions must be at least 1")
    hs = np.array(bandwidths, dtype=float, ndmin=1)
    per_rep = np.empty((hs.size, repetitions))
    est = np.empty((hs.size,) + probes.shape)
    widened = 0
    for rep in range(repetitions):
        data = corrupt(q, sigma, n, _cell_seed(seed, label, rep))
        for j, z in enumerate(probes):
            est[:, j], doublings = local_average(data, z, hs)
            widened += int(doublings.sum())
        per_rep[:, rep] = np.mean(np.sum((est - r_true) ** 2, axis=2), axis=1)
        del data  # free this draw before corrupt makes the next one
    se = (per_rep.std(axis=1, ddof=1) / np.sqrt(repetitions)
          if repetitions > 1 else np.zeros(hs.size))
    return per_rep.mean(axis=1), se, widened


def calibrate_bandwidth(q: DensityModel, sigma: float, n: int,
                        probes: np.ndarray, r_true: np.ndarray, *,
                        repetitions: int, seed: int):
    """The c of the rate rule c*(1/(sigma^2 n))**(1/(d+2)), picked by
    probe MSE among five multiples of the c = 1 pilot at n, capped at
    window_cap; returns c and the number of doublings."""
    d = q.manifold.intrinsic_dim
    pilot = optimal_bandwidth(1.0, sigma, n, d)
    h_cap = window_cap(q.manifold)
    grid = np.array([min(f * pilot, h_cap) for f in CALIBRATION_FACTORS])
    mse, _, widened = bandwidth_mse(q, sigma, n, grid, probes, r_true,
                                    repetitions=repetitions, seed=seed,
                                    label="sweep.mse.calib")
    best = float(grid[int(np.argmin(mse))])
    return best / pilot, widened


# ---------------------------------------------------------------------------
# the risk split


def _linear_quantiles(values: np.ndarray, probs) -> np.ndarray:
    """np.quantile's linear-interpolation quantiles of values at probs,
    bit for bit, taken from a sorted copy: np.quantile imports numpy.ma on
    first use, about 20 ms, to ask whether its index array is masked."""
    v = np.sort(np.asarray(values, dtype=float))
    at = (v.size - 1) * np.asarray(probs, dtype=float)
    lo = np.floor(at)
    t = at - lo
    i = lo.astype(int)
    a, b = v[i], v[np.minimum(i + 1, v.size - 1)]
    d = b - a
    return np.where(t >= 0.5, b - d * (1 - t), a + d * t)


def equal_mass_bins(values: np.ndarray, k: int = 8) -> np.ndarray:
    """Interior bin edges splitting values into k equal-mass bins."""
    return _linear_quantiles(values, np.linspace(0.0, 1.0, k + 1)[1:-1])


def binned_means(labels_cal, values_cal, labels) -> np.ndarray:
    """The mean of values_cal over the calibration rows that carry each
    label, read off at labels: one row per entry of labels.

    Estimated from an independent calibration batch, the binned mean enters
    the evaluation batch as a fixed function of the label.  A label the
    calibration rows never carry raises ConfigError.
    """
    labels_cal = np.asarray(labels_cal)
    values_cal = np.asarray(values_cal, dtype=float)
    labels = np.asarray(labels)
    if values_cal.shape[:1] != labels_cal.shape:
        raise ConfigError(f"{labels_cal.shape[0]} calibration labels for "
                          f"{values_cal.shape[0]} value rows")
    # with an index output np.unique skips its numpy.ma check (and import)
    seen, at = np.unique(np.concatenate([labels_cal, labels]),
                         return_inverse=True)
    means = np.zeros((seen.size, values_cal.shape[1]))
    for j, lab in enumerate(seen):
        hit = labels_cal == lab
        if not hit.any():
            raise ConfigError(
                f"label {lab!r} unseen in the calibration batch")
        means[j] = values_cal[hit].mean(axis=0)
    return means[at[labels_cal.size:]]


def coarsening_check(data: CorruptedBatch, r: np.ndarray, eta_s: np.ndarray,
                     h: np.ndarray | None = None) -> dict:
    """The risk split E||T - h||^2 = E||T - r||^2 + E||r - eta_S||^2
    + E||eta_S - h||^2 for a coarsening S of the foot.

    r holds the conditioned target E[T | foot] at the feet of data, eta_s
    its conditional mean E[r | S] at the same feet, and h an S-measurable
    field under test (None means zero); all are (n, D) arrays.  The terms
    are the fiber, coarsening and approximation terms.  The per-sample
    residual ||T-h||^2 minus the three terms has expectation zero, and
    pairing keeps its standard error far below the sizes of the terms.  The
    identity coarsening, eta_s = r, makes the coarsening term exactly zero
    and leaves the Pythagorean identity risk(h) = risk(r) + E||r - h||^2.
    Returns the mean of each term and of their total (``fiber_term``,
    ``coarsening_term``, ``approx_term``, ``total``), and the residual's
    mean, standard error and their ratio (``gap_mean``, ``gap_se``,
    ``gap_over_se``).
    """
    r = _field_values(r, data)
    eta_s = _field_values(eta_s, data)
    h = np.zeros_like(r) if h is None else _field_values(h, data)
    t = data.targets
    a = np.sum((t - r) ** 2, axis=1)
    b = np.sum((r - eta_s) ** 2, axis=1)
    cterm = np.sum((eta_s - h) ** 2, axis=1)
    tot = np.sum((t - h) ** 2, axis=1)
    gap = tot - a - b - cterm
    gap_mean = float(gap.mean())
    gap_se = float(gap.std(ddof=1) / np.sqrt(gap.size))
    return {"fiber_term": float(a.mean()), "coarsening_term": float(b.mean()),
            "approx_term": float(cterm.mean()), "total": float(tot.mean()),
            "gap_mean": gap_mean, "gap_se": gap_se,
            # h = r = eta_s makes every residual exactly zero, and so gap_se
            "gap_over_se": abs(gap_mean) / gap_se if gap_mean else 0.0}
