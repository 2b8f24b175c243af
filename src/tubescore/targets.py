"""Gaussian corruption of manifold-supported latents, as coordinate rows.

A draw is X = Z + sigma * xi with xi standard normal in the ambient space.
The raw tangent target at the foot point z = pi(X) is

    T = (1/sigma^2) P_T(z) (Z - z),

and the logmap variant replaces the projected chord with Exp_z^{-1}(Z).
The projection exists only inside the tube, so a batch holds the draws
whose noise stayed in it and counts the others.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .densities import DensityModel
from .errors import ConfigError, ManifoldMismatch
from .geometry import AffinePlane, Manifold
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


def corrupt(q: DensityModel, sigma: float, n: int, seed: int) -> CorruptedBatch:
    """Draw n corrupted samples with sharded, seed-derived streams and keep
    the ones inside the tube.

    Shard i consumes exactly one latent stream and one noise stream, so
    every whole shard of draws is the same whatever the total size.  A
    partial last shard need not be a prefix of a longer one: a sampler may
    spend its stream differently for a different count.
    """
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    D = q.manifold.ambient_dim
    sizes = shard_sizes(n)
    latents, noisy = np.empty((n, D)), np.empty((n, D))
    start = 0
    for i, size in enumerate(sizes):
        rows = slice(start, start + size)
        latents[rows] = q.sample_coords(size, derive_rng(seed, "targets.latent", i))
        noisy[rows] = derive_rng(seed, "targets.noise", i).standard_normal((size, D))
        start += size
    noisy *= sigma
    noisy += latents
    return CorruptedBatch.from_draws(q, sigma, latents, noisy)


# ---------------------------------------------------------------------------
# flat-case ambient field and its exact reduction


def flat_ambient_field(plane: AffinePlane, h: Callable[[np.ndarray], np.ndarray],
                       x: np.ndarray, sigma: float) -> np.ndarray:
    """g_h(x) = P h(P x) - Q x / sigma^2 at the (n, D) rows x of an affine
    plane's ambient space.

    P is the affine projection onto the plane, Q x its normal residual.
    ``h`` maps rows of plane points (ambient coordinates) to ambient rows;
    the tangential projector is applied to its output.
    """
    if not isinstance(plane, AffinePlane):
        raise ManifoldMismatch("flat_ambient_field requires an affine plane")
    x = np.asarray(x, dtype=float)
    px, _, _ = plane.project_batch(x)
    tang = plane.tangent_project_batch(px, np.asarray(h(px), dtype=float))
    return tang - (x - px) / sigma**2


def flat_reduction_residuals(batch: CorruptedBatch,
                             h: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample squared norms of the ambient and reduced regression residuals.

    lhs_i = ||(Z_i - X_i)/sigma^2 - g_h(X_i)||^2,
    rhs_i = ||T_i - P h(pi(X_i))||^2.

    The two residual vectors are equal sample by sample on a plane, so the
    arrays agree to rounding error.
    """
    plane = batch.manifold
    if not isinstance(plane, AffinePlane):
        raise ManifoldMismatch("flat reduction applies to affine planes only")
    y = (batch.latents - batch.noisy) / batch.sigma**2
    g = flat_ambient_field(plane, h, batch.noisy, batch.sigma)
    lhs = np.sum((y - g) ** 2, axis=-1)
    fitted = plane.tangent_project_batch(batch.foot, np.asarray(h(batch.foot), dtype=float))
    rhs = np.sum((batch.targets - fitted) ** 2, axis=-1)
    return lhs, rhs
