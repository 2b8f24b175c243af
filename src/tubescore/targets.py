"""Gaussian corruption of manifold-supported latents and per-sample
denoising targets.

A draw is X = Z + sigma * xi with xi standard normal in the ambient space.
The raw tangent target at the foot point z = pi(X) is

    T = (1/sigma^2) P_T(z) (Z - z),

and the logmap variant replaces the projected chord with Exp_z^{-1}(Z).
Samples whose noise leaves the projection tube are flagged, never dropped:
conditional statistics exclude them and report the count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .densities import DensityModel
from .errors import ConfigError, CutLocus, ManifoldMismatch, NotInTube
from .geometry import AffinePlane, ManifoldPoint, TangentVector
from .rng import derive_rng, shard_sizes


class OutsideTubeMarker:
    """Singleton placeholder for the foot point of a flagged sample."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OUTSIDE_TUBE"


OUTSIDE_TUBE = OutsideTubeMarker()


@dataclass(frozen=True)
class CorruptedSample:
    """One corrupted draw: latent Z, noisy X, and the derived foot point."""

    Z: ManifoldPoint
    X: np.ndarray
    sigma: float
    projected: object  # ManifoldPoint, or OUTSIDE_TUBE when flagged
    in_tube: bool

    @property
    def manifold(self):
        return self.Z.manifold

    @property
    def T(self) -> TangentVector:
        return raw_tangent_target(self)


class CorruptedBatch(Sequence):
    """Array-backed sequence of CorruptedSample views.

    The noisy draws and their projections are stored as dense arrays so the
    estimators can stay vectorized; indexing materializes a per-sample view.
    """

    def __init__(self, density: DensityModel, sigma: float, seed: int,
                 latents: np.ndarray, noisy: np.ndarray,
                 foot: np.ndarray, normal_dist: np.ndarray, in_tube: np.ndarray):
        self.density = density
        self.manifold = density.manifold
        self.sigma = float(sigma)
        self.seed = seed
        self.latents = latents
        self.noisy = noisy
        self.foot = foot
        self.normal_dist = normal_dist
        self.in_tube = in_tube

    def __len__(self) -> int:
        return self.latents.shape[0]

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [self[i] for i in range(*idx.indices(len(self)))]
        i = int(idx)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(idx)
        ok = bool(self.in_tube[i])
        return CorruptedSample(
            Z=self.manifold.point(self.latents[i]),
            X=self.noisy[i].copy(),
            sigma=self.sigma,
            projected=self.manifold.point(self.foot[i]) if ok else OUTSIDE_TUBE,
            in_tube=ok,
        )

    @property
    def n_outside(self) -> int:
        return int(np.sum(~self.in_tube))

    def raw_targets(self) -> np.ndarray:
        """Raw tangent targets, one ambient row per sample.

        Rows are populated for every sample (the projection formula is
        defined almost everywhere); statistics must filter by ``in_tube``.
        """
        chord = self.latents - self.foot
        tang = self.manifold.tangent_project_batch(self.foot, chord)
        return tang / self.sigma**2

    def logmap_targets(self) -> tuple[np.ndarray, np.ndarray]:
        """Logmap targets and a validity mask (in tube and inside injectivity)."""
        v, ok = self.manifold.log_batch(self.foot, self.latents)
        return v / self.sigma**2, ok & self.in_tube

    def subset(self, mask: np.ndarray) -> "CorruptedBatch":
        return CorruptedBatch(self.density, self.sigma, self.seed,
                              self.latents[mask], self.noisy[mask],
                              self.foot[mask], self.normal_dist[mask],
                              self.in_tube[mask])


def corrupt(q: DensityModel, sigma: float, n: int, seed: int) -> CorruptedBatch:
    """Draw n corrupted samples with sharded, seed-derived streams.

    Shard i consumes exactly one latent stream and one noise stream, so any
    prefix of the batch is reproducible independently of the total size.
    """
    if sigma <= 0:
        raise ConfigError("sigma must be positive")
    M = q.manifold
    lat_blocks, noise_blocks = [], []
    for i, size in enumerate(shard_sizes(n)):
        lat = q.sample_coords(size, derive_rng(seed, "targets.latent", i))
        xi = derive_rng(seed, "targets.noise", i).standard_normal((size, M.ambient_dim))
        lat_blocks.append(lat)
        noise_blocks.append(xi)
    if lat_blocks:
        latents = np.concatenate(lat_blocks, axis=0)
        noisy = latents + sigma * np.concatenate(noise_blocks, axis=0)
    else:
        latents = np.empty((0, M.ambient_dim))
        noisy = latents.copy()
    foot, dist, in_tube = M.project_batch(noisy)
    return CorruptedBatch(q, sigma, seed, latents, noisy, foot, dist, in_tube)


def raw_tangent_target(s: CorruptedSample) -> TangentVector:
    """T = (1/sigma^2) P_T(pi(X)) (Z - pi(X)) at the foot point."""
    if not s.in_tube:
        raise NotInTube("sample was flagged outside the projection tube")
    z = s.projected
    M = s.manifold
    chord = s.Z.coords - z.coords
    tang = M.tangent_project_batch(z.coords[None], chord[None])[0]
    return TangentVector(z, tang / s.sigma**2)


def logmap_target(s: CorruptedSample) -> TangentVector:
    """The intrinsic variant Exp_{pi(X)}^{-1}(Z) / sigma^2."""
    if not s.in_tube:
        raise NotInTube("sample was flagged outside the projection tube")
    z = s.projected
    v, ok = s.manifold.log_batch(z.coords[None], s.Z.coords[None])
    if not ok[0]:
        raise CutLocus("latent is beyond the injectivity radius of the foot point")
    return TangentVector(z, v[0] / s.sigma**2)


# ---------------------------------------------------------------------------
# flat-case ambient field and its exact reduction


def flat_ambient_field(plane: AffinePlane, h: Callable[[np.ndarray], np.ndarray],
                       x: np.ndarray, sigma: float) -> np.ndarray:
    """g_h(x) = P h(P x) - Q x / sigma^2 for an affine plane.

    P is the affine projection onto the plane, Q x its normal residual.
    ``h`` maps rows of plane points (ambient coordinates) to ambient rows;
    the tangential projector is applied to its output.
    """
    if not isinstance(plane, AffinePlane):
        raise ManifoldMismatch("flat_ambient_field requires an affine plane")
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    rows = x[None] if single else x
    px, _, _ = plane.project_batch(rows)
    tang = plane.tangent_project_batch(px, np.asarray(h(px), dtype=float))
    out = tang - (rows - px) / sigma**2
    return out[0] if single else out


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
    rhs = np.sum((batch.raw_targets() - fitted) ** 2, axis=-1)
    return lhs, rhs


def flat_reduction_residual(s: CorruptedSample,
                            h: Callable[[np.ndarray], np.ndarray]) -> tuple[float, float]:
    plane = s.manifold
    if not isinstance(plane, AffinePlane):
        raise ManifoldMismatch("flat reduction applies to affine planes only")
    y = (s.Z.coords - s.X) / s.sigma**2
    g = flat_ambient_field(plane, h, s.X, s.sigma)
    lhs = float(np.sum((y - g) ** 2))
    fitted = plane.tangent_project_batch(s.projected.coords[None],
                                         np.asarray(h(s.projected.coords[None]), dtype=float))[0]
    rhs = float(np.sum((s.T.vec - fitted) ** 2))
    return lhs, rhs
