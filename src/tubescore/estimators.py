"""Sample-based estimators on corrupted draws.

Local averaging with parallel transport, projected-risk Monte Carlo, the
finite-sample bandwidth sweeps, and the one risk split,
``coarsening_check``.  The risk estimators take field values at the feet as
(n, D) arrays, never callables, and return builtin floats.  Everything here
is deterministic given the master seed: sweep cells and repetitions derive
independent streams, and all reductions run in fixed order, so a sweep
whose repetitions run split across the usable CPUs gives the same bits.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from . import split
from .densities import DensityModel
from .errors import ConfigError, EmptyWindow, ManifoldMismatch
from .geometry import Manifold
from .geometry.base import row_norms, row_sq_dists
from .rng import seed_sequence
from .targets import CorruptedBatch, _field_values, corrupt

CALIBRATION_FACTORS = (0.5, 1.0, 1.41, 2.0, 2.83)
# fewest draws, summed over its repetitions, worth a process of their own.
# On a 2-core machine shared with other work, 20 repetitions at 8 probes
# and 2 bandwidths, split in two against run in one process, over five
# series of 12 to 30 alternating pairs: the split was faster in 68 of 94
# pairs at n = 1000 (10,000 draws a range; median 14.0 against 17.4 ms in
# the last series) and in 68 of 94 at n = 400 (4,000 a range; 9.8 against
# 12.3 ms), but in 5 and 0 of 20 in the series where the other core was
# busy.  Below 10,000 draws the gain is no surer, so the floor stays there.
MIN_PROCESS_DRAWS = 10_000
# feet per block of local_average's pass: the weights of a calibration
# call (5 bandwidths, 8 probes) take 1.3 MB, and a block's sums keep their
# bits whatever the dataset's size
_BLOCK = 4096


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


def local_average(data: CorruptedBatch, probes: np.ndarray,
                  bandwidths) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-weighted averages of the targets at K bandwidths, moved to
    each of the P probe rows.

    Each target is carried from its foot to the probe along the minimizing
    geodesic and weighted by K(d_M(foot, probe) / h); feet at the cut locus
    of the probe get weight zero.  The feet are walked once, in blocks, for
    every probe and bandwidth, through the manifold's ``transport_sums``.
    Returns the (P, K, D) averages, entry [j, k] at probe j and
    bandwidths[k], and the (P, K) doublings of each bandwidth.  A probe's
    row has the bits of a call with that probe alone.

    An empty window's bandwidth doubles until the window holds a sample,
    up to window_cap, and the probes with a doubled window are summed again.
    EmptyWindow is raised when a window is still empty at the cap (for the
    first such probe in order), or else when every in-window foot of some
    window sits at the cut locus.
    """
    M = data.manifold
    probes = np.asarray(probes, dtype=float)
    if probes.ndim != 2:
        raise ManifoldMismatch(
            f"probes of shape {probes.shape} are not rows of {M.name}")
    z = np.array([M.point_row(row) for row in probes]).reshape(probes.shape)
    hs = np.array(bandwidths, dtype=float, ndmin=1)
    if not np.all(hs > 0):
        raise ConfigError("bandwidth must be positive")
    h = np.repeat(hs[:, None], len(z), axis=1)
    sums, mass, nearest = _window_sums(data, z, h)
    cap = window_cap(M)
    doublings = np.zeros(h.shape, dtype=int)
    for j, near in enumerate(nearest):
        for k in range(hs.size):
            while epanechnikov(near / h[k, j]) == 0.0:
                if h[k, j] >= cap or near == np.inf:
                    raise EmptyWindow(f"no samples within bandwidth "
                                      f"{h[k, j]:.4g} of probe")
                h[k, j] = min(2.0 * h[k, j], cap)
                doublings[k, j] += 1
    widened = np.flatnonzero(doublings.any(axis=0))
    if widened.size:
        sums[:, widened], mass[:, widened], _ = _window_sums(
            data, z[widened], h[:, widened])
    if not np.all(mass > 0.0):
        raise EmptyWindow("all in-bandwidth samples sit at the cut locus")
    est = (sums / mass[..., None]).transpose(1, 0, 2).reshape(-1, z.shape[1])
    est = M.tangent_project_batch(np.repeat(z, hs.size, axis=0), est)
    return est.reshape(len(z), hs.size, z.shape[1]), doublings.T


def _window_sums(data: CorruptedBatch, z: np.ndarray, h: np.ndarray):
    """One pass over the feet, _BLOCK rows at a time: the (K, P, D)
    weighted sums of the targets moved to each probe row z_j and the (K, P)
    weight masses, under the Epanechnikov kernel at bandwidth h[k, j], and
    each probe's nearest foot distance."""
    M = data.manifold
    sums = np.zeros(h.shape + (M.ambient_dim,))
    mass = np.zeros(h.shape)
    nearest = np.full(len(z), np.inf)
    for start in range(0, len(data), _BLOCK):
        foot = data.foot[start:start + _BLOCK]
        dist = M.distance_to_batch(foot, z)
        np.minimum(nearest, dist.min(axis=1), out=nearest)
        block_sums, block_mass = M.transport_sums(
            foot, data.targets[start:start + _BLOCK], z,
            epanechnikov(dist / h[..., None]))
        sums += block_sums
        mass += block_mass
    return sums, mass, nearest


# ---------------------------------------------------------------------------
# risk estimates


def projected_risk(data: CorruptedBatch,
                   values: np.ndarray) -> tuple[float, float]:
    """Monte Carlo estimate of E || T - h(foot) ||^2 and its standard error.

    values holds h at the feet, one row per sample of data.
    """
    sq = row_sq_dists(data.targets, _field_values(values, data))
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
    norms = row_norms(q.score_batch(pts))
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

    The repetitions are split into contiguous ranges, one per usable CPU
    (``split.ranges``), each of at least ``MIN_PROCESS_DRAWS`` draws; a
    smaller sweep stays in this process.  This process scores the first
    range and a forked worker each other range, every one writing its
    repetitions' MSE rows into one shared (K, repetitions) array and
    returning its doublings.  Each repetition depends on its own stream
    alone, so the split changes no result.  A range stops at its first
    failing repetition, and this process's own exception is raised first,
    else the first worker's in range order: the failure of the first
    failing repetition, as in an unsplit run.
    """
    if repetitions < 1:
        raise ConfigError("repetitions must be at least 1")
    hs = np.array(bandwidths, dtype=float, ndmin=1)
    task = partial(_score_repetitions, q, sigma, n, hs, probes, r_true,
                   seed, label)
    parts = split.ranges(repetitions, -(-MIN_PROCESS_DRAWS // max(n, 1)))
    per_rep, widened = split.run(task, parts, (hs.size, repetitions))
    se = (per_rep.std(axis=1, ddof=1) / np.sqrt(repetitions)
          if repetitions > 1 else np.zeros(hs.size))
    return per_rep.mean(axis=1), se, sum(widened)


def _score_repetitions(q: DensityModel, sigma: float, n: int, hs: np.ndarray,
                       probes: np.ndarray, r_true: np.ndarray, seed: int,
                       label: str, reps: range, out: np.ndarray,
                       stops: np.ndarray, slot: int) -> int:
    """Write the MSE row of repetition ``reps[k]`` to ``out[:, k]`` and
    return the range's doublings.  ``stops`` and ``slot`` go unread: the
    calling process finishes its own range whatever the workers do, since
    its failure is the one raised, so no range gains by stopping early."""
    widened = 0
    for k, rep in enumerate(reps):
        data = corrupt(q, sigma, n, _cell_seed(seed, label, rep))
        est, doublings = local_average(data, probes, hs)
        widened += int(doublings.sum())
        out[:, k] = np.mean(np.sum((est - r_true[:, None]) ** 2, axis=2),
                            axis=0)
        del data  # free this draw before corrupt makes the next one
    return widened


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
    a = row_sq_dists(t, r)
    b = row_sq_dists(r, eta_s)
    cterm = row_sq_dists(eta_s, h)
    tot = row_sq_dists(t, h)
    gap = tot - a - b - cterm
    gap_mean = float(gap.mean())
    gap_se = float(gap.std(ddof=1) / np.sqrt(gap.size))
    return {"fiber_term": float(a.mean()), "coarsening_term": float(b.mean()),
            "approx_term": float(cterm.mean()), "total": float(tot.mean()),
            "gap_mean": gap_mean, "gap_se": gap_se,
            # h = r = eta_s makes every residual exactly zero, and so gap_se
            "gap_over_se": abs(gap_mean) / gap_se if gap_mean else 0.0}
