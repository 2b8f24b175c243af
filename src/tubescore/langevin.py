"""Intrinsic Langevin sampling driven by a constant factor of the score.

Chains step by the exponential map, Exp_z(eps * drift + sqrt(2 eps) * xi)
with xi standard normal in the tangent space, so iterates never leave the
manifold.  Every drift is a positive factor times the score: 1.0 for the
exact score, a rescaling for the scaled-drift equivalence, and the sigma^2
surrogate's factors, which ``oracle.surrogate_factors`` computes.  Large runs
split their chains across the usable CPUs in forked workers.  A run keeps
every kept iterate, or only its projection onto one direction, or with
``average=True`` only each chain's mean of those values, summed in place so
that no buffer of kept iterates is ever allocated.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from . import split
from .densities import DensityModel, SphereTMarginal
from .errors import BeyondInjectivity, ConfigError
from .geometry.base import row_norms
from .rng import derive_rng

NOISE_BLOCK = 256
NOISE_GROUP = 64
# fewest chains worth a process of their own: on a 2-core machine a step of
# the S^3 pair costs about 55 to 70 us at 32 to 128 chains, 100 us at 256
# and 150 us at 512, so halving a run of 256 chains saves about a third of
# each step.  The langevin study's 128-chain runs (the scaled pair) already
# run side by side, one per CPU; halving them would put four processes on
# two cores.
MIN_PROCESS_CHAINS = 128


@dataclass(frozen=True)
class ChainConfig:
    """Discretization settings for one run.

    Steps of size eps must resolve the geometry: eps <= 0.1 * injectivity^2
    keeps the Brownian increment scale sqrt(2 eps) well under the scale on
    which the exponential map folds.

    ``initial``, when given, is a length-D coordinate row at which every
    chain starts; it is stored as a tuple of floats, so configs hash and
    compare by value, and ``run_chains`` checks that it is a point of the
    density's manifold.  Without it, each chain draws its own start from
    the density.
    """

    step: float = 1e-3
    n_steps: int = 10_000
    burn_in: int | None = None
    thinning: int = 5
    seed: int = 0
    initial: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.initial is not None:
            row = np.array(self.initial, dtype=float, ndmin=1)
            object.__setattr__(self, "initial", tuple(row.tolist()))
        if not self.step > 0:
            raise ConfigError("step must be positive")
        if self.n_steps < 1:
            raise ConfigError("n_steps must be positive")
        if self.burn_in is None:
            object.__setattr__(self, "burn_in", self.n_steps // 5)
        if not 0 <= self.burn_in <= self.n_steps:
            raise ConfigError("burn_in must lie in [0, n_steps]")
        if self.thinning < 1:
            raise ConfigError("thinning must be at least 1")

    def validate_for(self, manifold) -> None:
        inj = manifold.injectivity_radius
        if np.isfinite(inj) and self.step > 0.1 * inj**2:
            raise ConfigError(
                f"step {self.step:.4g} too coarse: limit is 0.1 inj^2"
                f" = {0.1 * inj**2:.4g}")

    def kept_count(self) -> int:
        return (self.n_steps - self.burn_in) // self.thinning


def _initial_rows(q: DensityModel, config: ChainConfig, chains: range):
    if config.initial is not None:
        return np.tile(config.initial, (len(chains), 1))
    # one draw per chain from its own stream, so chain c is the same
    # object no matter how many chains run beside it
    rows = [q.sample_coords_seeded(1, config.seed, label=f"langevin.init.{c}")[0]
            for c in chains]
    return np.asarray(rows)


def run_chains(q: DensityModel, factor: float | tuple[float, ...],
               config: ChainConfig, n_chains: int = 1, *,
               direction: np.ndarray | None = None,
               average: bool = False) -> np.ndarray:
    """Run independent chains in lockstep; returns (n_chains, kept, D).

    Chain c draws its noise from a dedicated stream, so results for chain c
    do not depend on n_chains.  Kept samples are the post-burn-in iterates
    at the thinning stride.

    The drift is ``factor`` times the score of q; every factor must be
    positive and finite.  ``factor`` may be a tuple of factors.  Each chain
    then runs once per factor, every copy from the chain's initial point
    and on the chain's noise, and the result is (len(factor), n_chains,
    kept, D): the single-factor runs stacked, bit for bit wherever the
    manifold's kernels are row-wise (spheres and tori).

    A step never evaluates the score.  It takes an ambient field G whose
    tangent projection is the score (``q.ambient_score_batch``), adds
    sqrt(2 eps) xi to eps f G and projects the sum onto the tangent space
    once: P_z(eps f G + sqrt(2 eps) xi) = eps f score + sqrt(2 eps) P_z xi.
    A vMF's G is the constant vector kappa mu: a range evaluates it once,
    forms eps f G for its rows once and adds that to each step's noise.
    Other densities give their score, one row per row, which each step
    scales row by row by eps times its copy's factor.  The sum, its
    projection (``tangent_project_batch(out=)``) and the state, stepped in
    place (``exp_batch(out=)``), live in buffers the range allocates once.
    One norm pass over the projection serves the injectivity check and the
    exponential map, which on a sphere takes one trig call per row
    (``Sphere.exp_batch``).

    The chain state is held as its (D, rows) transpose, so each per-row
    scalar such as a row norm or dot product runs over contiguous columns
    of the column-major rows the kernels see.  Kernels that the step calls
    (the density's field, the manifold's tangent projection and
    exponential map) must therefore be elementwise in rows: a BLAS
    reduction such as ``z @ mu`` gives bits that depend on the memory
    order and on the number of rows.  The spheres, tori and the vMF,
    product von Mises and uniform fields keep this rule.  Noise is drawn
    ``NOISE_BLOCK`` steps at a time per chain, in the chain's own stream
    order, and laid out once per block as (steps, D, chains), multiplied
    by sqrt(2 eps), ``NOISE_GROUP`` chains at a time; neither size changes
    any result.  Each chain's noise is held once and read by every copy
    through a broadcast.

    The chains are split into contiguous ranges, one per usable CPU
    (``split.ranges``), each of at least ``MIN_PROCESS_CHAINS`` chains; a
    smaller run stays in this process.  This process steps the first
    range and a forked worker steps each other range (``split.run``),
    every one writing its chains' kept iterates straight into one shared
    output.
    Each range builds its chains' noise streams and initial points itself,
    and every step kernel is row-wise, so the split changes no result: it
    is the same rule that makes chain c independent of n_chains.  When a
    step reaches the injectivity radius, ``BeyondInjectivity`` names the
    first such iterate over all ranges and the longest step at it, as an
    unsplit run does: a range that fails records its iterate, and every
    other range stops once it has stepped past the first one recorded.  A
    worker's other exceptions are raised here, and its range tells the
    others to stop at once.

    With ``direction`` (a finite vector of shape (D,), checked before any
    step), each kept iterate z is stored only as z @ direction and the
    trailing D axis is dropped: the result is (n_chains, kept), or
    (len(factor), n_chains, kept) for a tuple, and equals the row result @
    direction bit for bit (the product is formed on a row-major copy of
    the state, as on the row result).

    With ``average=True``, each chain keeps only the mean of its kept
    values, z or z @ direction, and the kept axis is dropped: the result
    is (n_chains[, D]), or (len(factor), n_chains[, D]) for a tuple.  Each
    range adds every kept value into its chains' block of the shared
    output and the sum is divided by the kept count at the end, so no
    buffer of kept iterates exists in this process or in any worker, and
    the memory is that of the state, not of the run's length.  A running
    sum is not numpy's pairwise mean, so the means agree with the mean
    of the kept result over its kept axis to rounding, not bit for bit;
    like the kept result, they are the same bits in any split, at any
    noise block size and for any chain count.  A config that keeps no
    iterate has no mean and is refused.
    """
    M = q.manifold
    config.validate_for(M)
    if config.initial is not None:
        M.point_row(config.initial)
    if n_chains < 1:
        raise ConfigError("need at least one chain")
    factors = factor if isinstance(factor, tuple) else (factor,)
    if not factors or not all(np.isfinite(f) and f > 0 for f in factors):
        raise ConfigError("drift factors must be one or more positive"
                          f" finite numbers, got {factor!r}")
    if direction is not None:
        direction = np.asarray(direction, dtype=float)
        if (direction.shape != (M.ambient_dim,)
                or not np.isfinite(direction).all()):
            raise ConfigError(
                f"direction must be a finite vector of shape"
                f" ({M.ambient_dim},), got shape {direction.shape}")
    kept = config.kept_count()
    if average and kept < 1:
        raise ConfigError(
            f"no kept iterate to average: {config.n_steps} steps, burn-in"
            f" {config.burn_in}, thinning {config.thinning}")
    item = (M.ambient_dim,) if direction is None else ()  # one kept value
    shape = (len(factors), n_chains, *(() if average else (kept,)), *item)
    run = partial(_run_range, q, factors, config, direction, average)
    out, hits = split.run(run, split.ranges(n_chains, MIN_PROCESS_CHAINS),
                          shape)
    hits = [h for h in hits if h is not None]
    if hits:
        step_idx, longest = min(hits, key=lambda h: (h[0], -h[1]))
        raise BeyondInjectivity(
            f"step length {longest:.4g} at iterate {step_idx}")
    if average:
        out /= kept
    return out if isinstance(factor, tuple) else out[0]


def _run_range(q: DensityModel, factors: tuple, config: ChainConfig,
               direction: np.ndarray | None, average: bool, chains: range,
               out: np.ndarray, stops: np.ndarray,
               slot: int) -> tuple[int, float] | None:
    """Step ``chains`` of every copy, writing kept iterate k of copy s and
    chain ``chains[j]`` to ``out[s, j, k]``, or with ``average`` adding it
    to ``out[s, j]``, which starts at zero.

    Returns None, or (iterate, longest step) at the first iterate whose
    longest step reaches the injectivity radius, where the range stops.
    ``stops`` holds one iterate per range of the run (inf while it runs):
    this range writes its failing iterate to ``stops[slot]``, and at each
    noise block it returns None once it has stepped to the smallest
    iterate in ``stops``, where its result can no longer matter.
    """
    M = q.manifold
    ambient_score, project, exp = (q.ambient_score_batch,
                                   M.tangent_project_batch, M.exp_batch)
    n = len(chains)
    copies = len(factors)
    # copy s of chain chains[j] is row s * n + j; eps times its factor
    drift = config.step * np.repeat(factors, n)[:, None]
    root = np.sqrt(2.0 * config.step)
    inj = M.injectivity_radius
    bounded = np.isfinite(inj)
    burn_in, thinning = config.burn_in, config.thinning
    # the state, stepped in place: column-major (rows, D), so its transpose
    # is the row-major (D, rows) array
    z = np.asfortranarray(np.tile(_initial_rows(q, config, chains),
                                  (copies, 1)))
    D = M.ambient_dim
    item = (D,) if direction is None else ()  # one kept value
    gens = [derive_rng(config.seed, "langevin.noise", c) for c in chains]
    steps = min(NOISE_BLOCK, config.n_steps)
    fill = np.empty((min(NOISE_GROUP, n), steps, D))
    # noise[b, :, j] is sqrt(2 eps) times chain j's draw for step b, once
    # per chain: every copy reads it through a broadcast over the copies
    noise = np.empty((steps, D, n))
    # the column-major (rows, D) drift plus noise, whose (D, rows)
    # transpose is viewed as (D, copies, n), and its tangent projection
    move = np.empty((copies * n, D), order="F")
    by_copy = move.T.reshape(D, copies, n)
    v = np.empty_like(move)
    # a field given as one vector is the same at every point, so at every
    # step: eps f G is formed once, as the (D, rows) array that each step
    # adds to its noise
    gradient = ambient_score(z)
    constant = (np.ascontiguousarray((drift * gradient).T)
                if gradient.ndim == 1 else None)

    k = 0
    step_idx = 0
    while step_idx < config.n_steps:
        if step_idx >= stops.min():
            return None
        block = min(NOISE_BLOCK, config.n_steps - step_idx)
        for c0 in range(0, n, len(fill)):
            group = gens[c0:c0 + len(fill)]
            for g, stream in zip(group, fill):
                g.standard_normal(out=stream[:block])
            drawn = fill[:len(group), :block]
            drawn *= root
            noise[:block, :, c0:c0 + len(group)] = drawn.transpose(1, 2, 0)
        for b in range(block):
            step_idx += 1
            if constant is None:
                np.multiply(drift, ambient_score(z), out=move)
                by_copy += noise[b][:, None]
            else:
                by_copy[...] = noise[b][:, None]
                np.add(move.T, constant, out=move.T)
            project(z, move, out=v)
            norms = None
            if bounded:
                norms = row_norms(v)
                longest = norms.max()
                if longest >= inj:
                    stops[slot] = step_idx
                    return step_idx, float(longest)
            exp(z, v, norms=norms, out=z)
            past = step_idx - burn_in
            if past > 0 and past % thinning == 0:
                kept = (z if direction is None
                        else np.ascontiguousarray(z) @ direction)
                kept = kept.reshape(copies, n, *item)
                if average:
                    out += kept
                else:
                    out[:, :, k] = kept
                    k += 1
    return None


# ---------------------------------------------------------------------------
# equilibrium diagnostics


def ks_distance(values: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance of a sample against a CDF callable."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    if n == 0:
        raise ConfigError("empty sample")
    f = np.asarray(cdf(v), dtype=float)
    hi = np.abs(f - np.arange(1, n + 1) / n).max()
    lo = np.abs(f - np.arange(0, n) / n).max()
    return float(max(hi, lo))


def two_sample_ks(a: np.ndarray, b: np.ndarray) -> float:
    """KS distance between the empirical CDFs of two samples.

    The CDFs differ most at a point of one of the samples, so both are
    evaluated at a's points and then at b's, never on the joined grid of
    both: the larger maximum is the same float at half the memory.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ConfigError("empty sample")
    return float(max(
        np.abs(np.searchsorted(a, grid, side="right") / a.size
               - np.searchsorted(b, grid, side="right") / b.size).max()
        for grid in (a, b)))


def marginal_diagnostic(t: np.ndarray, law: SphereTMarginal) -> dict:
    """Compare chain output t = mu . z against a law of t.

    t holds projections of samples onto the mean axis mu (any unit axis
    for the uniform law), in any shape, such as the (chains, kept) result
    of ``run_chains(direction=mu)``; chains are pooled.  ``law`` is the
    reference, of which only ``cdf`` and ``mean()`` are read: the density's
    own ``q.t_marginal()`` (``SphereTMarginal(d, 0.0)`` for the uniform
    law) measures equilibrium error of the sampler, discretization
    included.  Returns the pooled sample count ``n_kept``, the KS distance
    ``ks``, the sample mean ``mean_t``, the law's mean ``target_mean`` and
    their difference ``mean_bias``.
    """
    t = np.asarray(t, dtype=float).ravel()
    if t.size == 0:
        raise ConfigError("no samples to diagnose")
    ks = ks_distance(t, law.cdf)
    mean_t = float(t.mean())
    target = float(law.mean())
    return {"n_kept": t.size, "ks": ks, "mean_bias": mean_t - target,
            "mean_t": mean_t, "target_mean": target}

