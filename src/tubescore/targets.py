"""Gaussian corruption of manifold-supported latents, as coordinate rows.

A draw is X = Z + sigma * xi with xi standard normal in the ambient space.
The raw tangent target at the foot point z = pi(X) is

    T = (1/sigma^2) P_T(z) (Z - z),

and the logmap variant replaces the projected chord with Exp_z^{-1}(Z).
The projection exists only inside the tube, so a batch holds the draws
whose noise stayed in it and counts the others.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
import numpy as np

from .densities import DensityModel
from .errors import ConfigError, ManifoldMismatch
from .geometry import AffinePlane, Manifold
from .geometry.base import row_sq_dists
from .rng import derive_rng, shard_sizes


@dataclass(frozen=True, eq=False)
class CorruptedBatch:
    """Corrupted draws that stayed in the tube, one row each.

    Row i holds the latent Z_i (``latents``), the noisy draw X_i
    (``noisy``), its tube projection (``foot``) and the raw tangent target
    there (``targets``).  ``n_outside`` counts the draws that left the tube,
    whose rows the batch does not hold.
    """

    density: DensityModel
    sigma: float
    latents: np.ndarray
    noisy: np.ndarray
    foot: np.ndarray
    targets: np.ndarray
    n_outside: int = 0

    @classmethod
    def from_draws(cls, density: DensityModel, sigma: float,
                   latents: np.ndarray, noisy: np.ndarray) -> "CorruptedBatch":
        """Project noisy rows to their feet, form the raw targets and drop
        the rows that left the tube."""
        M = density.manifold
        foot, _, in_tube = M.project_batch(noisy)
        targets = M.tangent_project_batch(foot, latents - foot) / sigma**2
        rows = (latents, noisy, foot, targets)
        n_outside = int(np.count_nonzero(~in_tube))
        if n_outside:
            rows = tuple(a[in_tube] for a in rows)
        return cls(density, float(sigma), *rows, n_outside)

    @property
    def manifold(self) -> Manifold:
        return self.density.manifold

    def __len__(self) -> int:
        return self.foot.shape[0]

    def logmap_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """Logmap targets and a mask, False where the latent sits at the cut
        locus of the foot."""
        v, ok = self.manifold.log_batch(self.foot, self.latents)
        return v / self.sigma**2, ok


def _draws(q: DensityModel, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The n latents and standard-normal noise rows of ``corrupt``, which
    do not depend on sigma."""
    D = q.manifold.ambient_dim
    latents, noise = np.empty((n, D)), np.empty((n, D))
    start = 0
    for i, size in enumerate(shard_sizes(n)):
        rows = slice(start, start + size)
        latents[rows] = q.sample_coords(size, derive_rng(seed, "targets.latent", i))
        noise[rows] = derive_rng(seed, "targets.noise", i).standard_normal((size, D))
        start += size
    return latents, noise


def _check_sigma(sigma: float) -> None:
    if sigma <= 0:
        raise ConfigError("sigma must be positive")


def corrupt(q: DensityModel, sigma: float, n: int, seed: int) -> CorruptedBatch:
    """Draw n corrupted samples with sharded, seed-derived streams and keep
    the ones inside the tube.

    Shard i consumes exactly one latent stream and one noise stream, so
    every whole shard of draws is the same whatever the total size.  A
    partial last shard need not be a prefix of a longer one: a sampler may
    spend its stream differently for a different count.
    """
    return next(corrupt_at_sigmas(q, (sigma,), n, seed))


def corrupt_at_sigmas(q: DensityModel, sigmas, n: int, seed: int):
    """Yield ``corrupt(q, s, n, seed)`` for each s in the sequence
    ``sigmas``, one batch at a time.

    The latents and the noise do not depend on sigma, so they are drawn
    once for all the batches.  The last sigma scales the noise in place.
    """
    for s in sigmas:
        _check_sigma(s)
    latents, noise = _draws(q, n, seed)
    last = len(sigmas) - 1
    for i, s in enumerate(sigmas):
        noisy = np.multiply(noise, s, out=noise if i == last else None)
        noisy += latents
        yield CorruptedBatch.from_draws(q, s, latents, noisy)


# ---------------------------------------------------------------------------
# the exact flat reduction


def _field_values(values, data: CorruptedBatch) -> np.ndarray:
    """Field values at the feet of data, one row per sample."""
    vals = np.asarray(values, dtype=float)
    foot = data.foot
    if vals.shape != foot.shape:
        raise ConfigError(
            f"field values have shape {vals.shape}, expected {foot.shape}")
    return vals


def flat_reduction_residuals(
        batch: CorruptedBatch,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Per-sample squared norms of the ambient and reduced regression
    residuals, as a function of a field's values at the feet.

    The returned function takes values, an ambient field h at the feet of
    a plane batch with one row per sample, and returns (lhs, rhs).  With P
    the tangential projector and X_i - pi(X_i) the normal part of the draw,
    the ambient field is g_h(X) = P h(pi(X)) - (X - pi(X)) / sigma^2, and

    lhs_i = ||(Z_i - X_i)/sigma^2 - g_h(X_i)||^2,
    rhs_i = ||T_i - P h(pi(X_i))||^2.

    The two residual vectors are equal sample by sample on a plane, so the
    arrays agree to rounding error.  (Z - X)/sigma^2 and (X - pi(X))/sigma^2
    do not depend on h, so they are formed once here for every field the
    batch is scored at; a call holds no (n, D) array but the projected
    field, and its arrays have the same bits whatever was scored before.
    """
    plane = batch.manifold
    if not isinstance(plane, AffinePlane):
        raise ManifoldMismatch("flat reduction applies to affine planes only")
    y = (batch.latents - batch.noisy) / batch.sigma**2
    normal = (batch.noisy - batch.foot) / batch.sigma**2

    def residuals(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fitted = plane.tangent_project_batch(batch.foot,
                                             _field_values(values, batch))
        rhs = row_sq_dists(batch.targets, fitted)
        fitted -= normal  # g_h(X)
        return row_sq_dists(y, fitted), rhs

    return residuals
