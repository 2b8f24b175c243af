"""Intrinsic Langevin sampling with the closed-form drift family.

Chains step by the exponential map, Exp_z(eps * drift + sqrt(2 eps) * xi)
with xi standard normal in the tangent space, so iterates never leave the
manifold.  Every drift is a constant multiple of the score: the exact score,
the extrinsic-only sigma^2 surrogate (1 + sigma^2 alpha) * score and its
debiased correction, each with an optional scalar rescaling.  Large runs
split their chains across the usable CPUs in forked workers.  A run keeps
every kept iterate, or only its projection onto one direction, or with
``average=True`` only each chain's mean of those values, summed in place so
that no buffer of kept iterates is ever allocated.
"""
from __future__ import annotations

import mmap
import os
import pickle
import signal
from dataclasses import KW_ONLY, dataclass
from functools import partial

import numpy as np

from .densities import DensityModel, SphereTMarginal
from .errors import BeyondInjectivity, ConfigError, UnsupportedManifold
from .geometry import Sphere
from .geometry.base import row_norms
from .oracle import check_sigma
from .rng import derive_rng

DRIFT_KINDS = ("intrinsic", "raw_ambient", "debiased")
NOISE_BLOCK = 256
NOISE_GROUP = 64
# fewest chains worth a process of their own: on a 2-core machine a step of
# the S^3 pair costs about the same at 32 to 128 chains and grows beyond, so
# halving a run of fewer than 256 chains saves less than the fork costs
MIN_PROCESS_CHAINS = 128


@dataclass(frozen=True)
class DriftSpec:
    """Which drift field to run: ``factor(q)`` times the score of q.

    kind "intrinsic" is the exact score; "raw_ambient" is
    (1 + sigma^2 alpha) * score, the extrinsic-only sigma^2 surrogate;
    "debiased" multiplies that by (1 - sigma^2 alpha).  ``scale``
    (keyword-only) rescales any of them, which is how the scaled-drift
    equivalence is exercised.  The surrogate is not the field that a
    tube-conditioned regression learns: that field, the Rao-Blackwellized
    target r_sigma, also carries the intrinsic Tweedie term at order
    sigma^2, which "raw_ambient" omits and which dominates at sigma = 0.3
    on S^3.
    """

    kind: str
    sigma: float = 0.0
    _: KW_ONLY
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise ConfigError(f"unknown drift kind {self.kind!r}")
        if self.kind != "intrinsic":
            check_sigma(self.sigma)
        if not np.isfinite(self.scale) or self.scale <= 0:
            raise ConfigError("drift scale must be positive")

    def factor(self, q: DensityModel) -> float:
        """The constant by which this drift multiplies the score of q.

        alpha is the sphere coefficient 1 - d/2 of q's manifold S^d.  On
        other manifolds the curvature correction is a full operator, and
        the scalar shortcut is refused.
        """
        if self.kind == "intrinsic":
            return self.scale
        M = q.manifold
        if not isinstance(M, Sphere):
            raise UnsupportedManifold(
                "scalar alpha drifts are sphere-only; elsewhere the"
                " curvature correction is a full operator")
        alpha = 1.0 - M.intrinsic_dim / 2.0
        factor = self.scale * (1.0 + self.sigma**2 * alpha)
        if self.kind == "debiased":
            factor *= 1.0 - self.sigma**2 * alpha
        return factor


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


def _chain_ranges(n_chains: int) -> list[range]:
    """Contiguous chain ranges, one per process: at most one per usable
    CPU, and each of at least MIN_PROCESS_CHAINS chains."""
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)
    parts = max(1, min(cpus, n_chains // MIN_PROCESS_CHAINS))
    cuts = [n_chains * i // parts for i in range(parts + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def run_chains(q: DensityModel, spec: DriftSpec | tuple[DriftSpec, ...],
               config: ChainConfig, n_chains: int = 1, *,
               direction: np.ndarray | None = None,
               average: bool = False) -> np.ndarray:
    """Run independent chains in lockstep; returns (n_chains, kept, D).

    Chain c draws its noise from a dedicated stream, so results for chain c
    do not depend on n_chains.  Kept samples are the post-burn-in iterates
    at the thinning stride.

    ``spec`` may be a tuple of drift specs.  Each chain then runs once per
    spec, every copy from the chain's initial point and on the chain's
    noise, and the result is (len(spec), n_chains, kept, D): the single-spec
    runs stacked, bit for bit wherever the manifold's kernels are row-wise
    (spheres and tori).  The noise is drawn once per step for all copies,
    and every copy shares one ``q.score_batch`` call on all rows, scaled
    row by row by its spec's ``factor(q)``.

    The chain state is held column-major (Fortran order), so each per-row
    scalar such as a row norm or dot product runs over contiguous columns.
    Kernels that the step calls (the density's score, the manifold's
    tangent projection and exponential map) must therefore be elementwise
    in rows: a BLAS reduction such as ``z @ mu`` gives bits that depend on
    the memory order and on the number of rows.  The spheres, tori and the
    vMF, product von Mises and uniform scores keep this rule.  Noise is
    drawn ``NOISE_BLOCK`` steps at a time per chain, in the chain's own
    stream order, and rearranged once per block into the state's layout,
    ``NOISE_GROUP`` chains at a time; neither size changes any result.

    The chains are split into contiguous ranges, one per usable CPU
    (``os.sched_getaffinity``), each of at least ``MIN_PROCESS_CHAINS``
    chains; a smaller run stays in this process.  This process steps the
    first range and a forked worker steps each other range, every one
    writing its chains' kept iterates straight into one shared output.
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
    (len(spec), n_chains, kept) for a tuple, and equals the row result @
    direction bit for bit (the product is formed on a row-major copy of
    the state, as on the row result).

    With ``average=True``, each chain keeps only the mean of its kept
    values, z or z @ direction, and the kept axis is dropped: the result
    is (n_chains[, D]), or (len(spec), n_chains[, D]) for a tuple.  Each
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
    specs = spec if isinstance(spec, tuple) else (spec,)
    if not specs:
        raise ConfigError("need at least one drift spec")
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
    factors = [s.factor(q) for s in specs]
    item = (M.ambient_dim,) if direction is None else ()  # one kept value
    shape = (len(specs), n_chains, *(() if average else (kept,)), *item)
    run = partial(_run_range, q, factors, config, direction, average)
    out, hits = _run_split(run, _chain_ranges(n_chains), shape)
    hits = [h for h in hits if h is not None]
    if hits:
        step_idx, longest = min(hits, key=lambda h: (h[0], -h[1]))
        raise BeyondInjectivity(
            f"step length {longest:.4g} at iterate {step_idx}")
    if average:
        out /= kept
    return out if isinstance(spec, tuple) else out[0]


def _run_range(q: DensityModel, factors: list[float], config: ChainConfig,
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
    n = len(chains)
    copies = len(factors)
    # copy s of chain chains[j] is row s * n + j
    factor = np.repeat(factors, n)[:, None]
    eps = config.step
    root = np.sqrt(2.0 * eps)
    inj = M.injectivity_radius

    rows = copies * n
    z = np.asfortranarray(np.tile(_initial_rows(q, config, chains),
                                  (copies, 1)))
    D = M.ambient_dim
    item = (D,) if direction is None else ()  # one kept value
    gens = [derive_rng(config.seed, "langevin.noise", c) for c in chains]
    steps = min(NOISE_BLOCK, config.n_steps)
    fill = np.empty((min(NOISE_GROUP, n), steps, D))
    # noise[b, :, s, j] is chain j's draw for step b, copied once per
    # copy, so noise[b] reads as the column-major (rows, D) array of a step
    noise = np.empty((steps, D, copies, n))

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
            noise[:block, :, :, c0:c0 + len(group)] = \
                fill[:len(group), :block].transpose(1, 2, 0)[:, :, None]
        for b in range(block):
            step_idx += 1
            drift = factor * q.score_batch(z)
            xi = noise[b].reshape(D, rows).T
            v = eps * drift + root * M.tangent_project_batch(z, xi)
            norms = None
            if np.isfinite(inj):
                norms = row_norms(v)
                longest = norms.max()
                if longest >= inj:
                    stops[slot] = step_idx
                    return step_idx, float(longest)
            z = M.exp_batch(z, v, norms=norms)
            past = step_idx - config.burn_in
            if past > 0 and past % config.thinning == 0:
                kept = (z if direction is None
                        else np.ascontiguousarray(z) @ direction)
                kept = kept.reshape(copies, n, *item)
                if average:
                    out += kept
                else:
                    out[:, :, k] = kept
                    k += 1
    return None


def _run_split(run, ranges: list[range], shape: tuple):
    """``run(chains, out[:, chains], stops, i)`` for the first range here
    and for every other range i in a forked worker; returns (out, hits).

    ``out`` lives in one shared anonymous mapping, zero-filled at the
    start, written in place by every process and returned without a copy.
    The mapping ends in ``stops``, one slot per range for ``_run_range``;
    a worker that raises sets its slot to 0, which stops every range at
    its next noise block.  Each worker sends back its range's hit, or the
    exception it raised, through a pipe.  This process's own exception is
    raised here, or else the exception of the first worker, in range
    order, that sent one.  Every worker is reaped before this returns or
    raises; when this process fails, is interrupted or reads a worker's
    exception, the workers still running are killed first.
    """
    size = int(np.prod(shape))
    buffer = mmap.mmap(-1, (size + len(ranges)) * np.dtype(float).itemsize)
    out = np.frombuffer(buffer, count=size).reshape(shape)
    stops = np.frombuffer(buffer, offset=size * np.dtype(float).itemsize)
    stops[:] = np.inf
    workers = []  # (pid, read end of its pipe)
    try:
        for slot, chains in enumerate(ranges[1:], start=1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                _worker(run, chains, out, stops, slot, w)
            os.close(w)
            workers.append((pid, r))
        first = ranges[0]
        hits = [run(first, out[:, first.start:first.stop], stops, 0)]
        for pid, r in workers:
            hits.append(_receive(pid, r))
    except BaseException:
        for pid, _ in workers:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, r in workers:
            os.close(r)
            os.waitpid(pid, 0)
    return out, hits


def _worker(run, chains: range, out: np.ndarray, stops: np.ndarray,
            slot: int, fd: int):
    """Body of a forked worker: run range ``slot`` and send the outcome.

    It leaves through ``os._exit`` whatever happens, so it never returns
    into the caller's stack, runs no exit handler and flushes none of the
    stdio buffers it inherited.
    """
    try:
        try:
            message = ("hit", run(chains, out[:, chains.start:chains.stop],
                                  stops, slot))
        except BaseException as exc:  # sent to the caller, who re-raises
            stops[slot] = 0.0
            message = ("raise", exc)
        data = pickle.dumps(message)
        with open(fd, "wb") as fh:
            fh.write(data)
    finally:
        os._exit(0)


def _receive(pid: int, fd: int) -> tuple[int, float] | None:
    """The hit a worker sent, or the exception it raised, raised here."""
    with open(fd, "rb", closefd=False) as fh:
        data = fh.read()
    if not data:
        raise RuntimeError(
            f"chain worker {pid} sent no result: it was killed, or raised"
            " an exception that could not be pickled")
    kind, value = pickle.loads(data)
    if kind == "raise":
        raise value
    return value


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

