"""Latent density models on the supported manifolds.

Every model exposes the normalized log density, the Riemannian score
grad_M log q, the Laplace-Beltrami term Delta_M log q, and the second-order
drift correction

    b_q = (1/2) grad_M [ Delta_M log q + ||grad_M log q||^2 ],

all as closed-form row kernels on (n, D) ambient coordinate rows, plus a
deterministic sampler driven by an explicit numpy Generator.
"""
from __future__ import annotations

import abc
import math

import numpy as np

from .errors import ManifoldMismatch, UnsupportedManifold
from .geometry import AffinePlane, FlatTorus, Sphere
from .geometry.base import row_dots
from .geometry.quadrature import gauss_legendre
from .geometry.sphere import _SPHERE_VOLUMES
from .rng import derive_rng, shard_sizes

_TABLE_SIZE = 8193
# Chebyshev coefficients of exp(-x) I0(x) in x/2 - 2 on [0, 8], and of
# sqrt(x) exp(-x) I0(x) in 32/x - 2 on (8, inf): the tables of Cephes' i0e
_I0E_NEAR = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)
_I0E_FAR = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)


def _i0e(kappa: float) -> float:
    """exp(-kappa) I0(kappa) for kappa >= 0, so that log I0(kappa) =
    log(_i0e(kappa)) + kappa stays finite for every finite kappa.  The
    Clenshaw sums are Cephes' chbevl in its order of operations, so this
    equals scipy.special.i0e(kappa) bit for bit."""
    if kappa <= 8.0:
        x, coeffs, scale = kappa / 2.0 - 2.0, _I0E_NEAR, 1.0
    else:
        x, coeffs, scale = 32.0 / kappa - 2.0, _I0E_FAR, math.sqrt(kappa)
    b0, b1 = coeffs[0], 0.0
    for c in coeffs[1:]:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2) / scale


class DensityModel(abc.ABC):
    """A probability density with respect to the Riemannian volume measure."""

    def __init__(self, manifold):
        self._manifold = manifold

    @property
    def manifold(self):
        return self._manifold

    # ---- row kernels -----------------------------------------------------

    @abc.abstractmethod
    def log_density_batch(self, coords: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def score_batch(self, coords: np.ndarray) -> np.ndarray: ...

    @abc.abstractmethod
    def laplacian_batch(self, coords: np.ndarray) -> np.ndarray:
        """Delta_M log q at each row, shape (n,)."""

    @abc.abstractmethod
    def tweedie_batch(self, coords: np.ndarray) -> np.ndarray:
        """The drift correction b_q at each row, as ambient tangent rows."""

    # ---- sampling ----------------------------------------------------------

    @abc.abstractmethod
    def sample_coords(self, n: int, rng: np.random.Generator) -> np.ndarray: ...

    def sample_coords_seeded(self, n: int, seed: int, label: str = "densities.sample") -> np.ndarray:
        """Sharded deterministic sampling: fixed blocks, one derived stream each."""
        blocks = []
        for i, size in enumerate(shard_sizes(n)):
            blocks.append(self.sample_coords(size, derive_rng(seed, label, i)))
        if not blocks:
            return np.empty((0, self._manifold.ambient_dim))
        return np.concatenate(blocks, axis=0)


# ---------------------------------------------------------------------------
# von Mises-Fisher on S^d


class SphereTMarginal:
    """Distribution of t = <mu, Z> for a vMF(kappa) latent on S^d.

    The density is proportional to exp(kappa t) (1 - t^2)^{(d-2)/2}; all
    numerics run in the colatitude angle chi = arccos(t), where the density
    exp(kappa cos chi) sin^{d-1}(chi) is smooth for every d >= 1.
    """

    def __init__(self, dim: int, kappa: float):
        self.dim = int(dim)
        self.kappa = float(kappa)
        chi = np.linspace(0.0, math.pi, _TABLE_SIZE)
        weight = np.exp(self.kappa * (np.cos(chi) - 1.0)) * np.sin(chi) ** (self.dim - 1)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (weight[1:] + weight[:-1]) * np.diff(chi))])
        self._chi = chi
        self._chi_cdf = cdf / cdf[-1]
        nodes, w = gauss_legendre(512, 0.0, math.pi)
        dens = np.exp(self.kappa * (np.cos(nodes) - 1.0)) * np.sin(nodes) ** (self.dim - 1)
        self._norm = float(w @ dens)
        self._nodes, self._node_w, self._node_dens = nodes, w, dens

    def sample_chi(self, u: np.ndarray) -> np.ndarray:
        return np.interp(u, self._chi_cdf, self._chi)

    def cdf(self, t: np.ndarray) -> np.ndarray:
        t = np.clip(np.asarray(t, dtype=float), -1.0, 1.0)
        chi = np.arccos(t)
        return 1.0 - np.interp(chi, self._chi, self._chi_cdf)

    def moment(self, fn) -> float:
        vals = fn(np.cos(self._nodes))
        return float(self._node_w @ (vals * self._node_dens)) / self._norm

    def mean(self) -> float:
        return self.moment(lambda t: t)

    def log_sphere_normalizer(self) -> float:
        """log integral of exp(kappa <mu, z>) over S^d."""
        # the S^{d-1} of directions orthogonal to mu, times the chi integral
        return math.log(_SPHERE_VOLUMES[self.dim - 1] * self._norm) + self.kappa


class VonMisesFisher(DensityModel):
    """vMF density q(z) proportional to exp(kappa <mu, z>) on a unit sphere."""

    def __init__(self, manifold: Sphere, mu, kappa: float):
        if not isinstance(manifold, Sphere):
            raise ManifoldMismatch("VonMisesFisher lives on spheres")
        super().__init__(manifold)
        mu = np.asarray(mu, dtype=float)
        if mu.shape != (manifold.ambient_dim,):
            raise ValueError("mu must be an ambient unit vector")
        if abs(np.linalg.norm(mu) - 1.0) > 1e-10:
            raise ValueError("mu must have unit norm")
        if kappa < 0:
            raise ValueError("kappa must be non-negative")
        self.mu = mu
        self.kappa = float(kappa)
        self._marginal = SphereTMarginal(manifold.intrinsic_dim, self.kappa)
        self._log_norm = self._marginal.log_sphere_normalizer()

    def t_marginal(self) -> SphereTMarginal:
        return self._marginal

    def log_density_batch(self, coords: np.ndarray) -> np.ndarray:
        lq = coords @ self.mu  # in place: the oracle passes every node
        lq *= self.kappa
        lq -= self._log_norm
        return lq

    def score_batch(self, coords: np.ndarray) -> np.ndarray:
        # column sums, not coords @ mu: BLAS gives bits that depend on the
        # memory order and the row count, and Langevin chains step on
        # column-major rows
        t = row_dots(coords, self.mu[None, :])
        return self.kappa * (self.mu[None, :] - t[:, None] * coords)

    def laplacian_batch(self, coords: np.ndarray) -> np.ndarray:
        # <mu, z> restricted to S^d is a first spherical harmonic:
        # Delta_M <mu, z> = -d <mu, z>.
        return -self.kappa * self._manifold.intrinsic_dim * (coords @ self.mu)

    def tweedie_batch(self, coords: np.ndarray) -> np.ndarray:
        d = self._manifold.intrinsic_dim
        t = coords @ self.mu
        coeff = 0.5 * (-self.kappa * d - 2.0 * self.kappa**2 * t)
        return coeff[:, None] * (self.mu - t[:, None] * coords)

    def sample_coords(self, n: int, rng: np.random.Generator) -> np.ndarray:
        chi = self._marginal.sample_chi(rng.random(n))
        t = np.cos(chi)
        s = np.sin(chi)
        D = self._manifold.ambient_dim
        if self._manifold.intrinsic_dim == 1:
            perp = np.array([-self.mu[1], self.mu[0]])
            signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            out = t[:, None] * self.mu[None, :] + (s * signs)[:, None] * perp[None, :]
        else:
            w = rng.standard_normal((n, D))
            w -= (w @ self.mu)[:, None] * self.mu[None, :]
            w /= np.linalg.norm(w, axis=1, keepdims=True)
            out = t[:, None] * self.mu[None, :] + s[:, None] * w
        return out / np.linalg.norm(out, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# product von Mises on the flat torus


class ProductVonMises(DensityModel):
    """Independent von Mises angles: q proportional to
    exp(k1 cos(a - p1) + k2 cos(b - p2)) on S^1(R1) x S^1(R2)."""

    def __init__(self, manifold: FlatTorus, kappas, phases=(0.0, 0.0)):
        if not isinstance(manifold, FlatTorus):
            raise ManifoldMismatch("ProductVonMises lives on flat tori")
        super().__init__(manifold)
        self.kappas = tuple(float(k) for k in np.broadcast_to(np.asarray(kappas, float), (2,)))
        self.phases = tuple(float(p) for p in np.broadcast_to(np.asarray(phases, float), (2,)))
        if min(self.kappas) < 0:
            raise ValueError("kappas must be non-negative")
        r1, r2 = manifold.radii
        # log I0 computed from the scaled Bessel function for large-kappa safety
        self._log_norm = (
            math.log(4.0 * math.pi**2 * r1 * r2)
            + math.log(_i0e(self.kappas[0])) + self.kappas[0]
            + math.log(_i0e(self.kappas[1])) + self.kappas[1]
        )

    def _deltas(self, coords: np.ndarray) -> np.ndarray:
        theta = self._manifold.angles(coords)
        return theta - np.asarray(self.phases)

    def log_density_batch(self, coords: np.ndarray) -> np.ndarray:
        delta = self._deltas(coords)
        k1, k2 = self.kappas
        return k1 * np.cos(delta[..., 0]) + k2 * np.cos(delta[..., 1]) - self._log_norm

    def score_batch(self, coords: np.ndarray) -> np.ndarray:
        delta = self._deltas(coords)
        r = np.array(self._manifold.radii)
        k = np.array(self.kappas)
        return self._manifold.embed_tangent(coords, -k * np.sin(delta) / r)

    def laplacian_batch(self, coords: np.ndarray) -> np.ndarray:
        delta = self._deltas(coords)
        r1, r2 = self._manifold.radii
        k1, k2 = self.kappas
        return -k1 * np.cos(delta[:, 0]) / r1**2 - k2 * np.cos(delta[:, 1]) / r2**2

    def tweedie_batch(self, coords: np.ndarray) -> np.ndarray:
        delta = self._deltas(coords)
        r = np.array(self._manifold.radii)
        k = np.array(self.kappas)
        coeff = k * np.sin(delta) * (1.0 + 2.0 * k * np.cos(delta)) / (2.0 * r**3)
        return self._manifold.embed_tangent(coords, coeff)

    def sample_coords(self, n: int, rng: np.random.Generator) -> np.ndarray:
        a = rng.vonmises(self.phases[0], self.kappas[0], size=n) if self.kappas[0] > 0 \
            else rng.uniform(-math.pi, math.pi, size=n)
        b = rng.vonmises(self.phases[1], self.kappas[1], size=n) if self.kappas[1] > 0 \
            else rng.uniform(-math.pi, math.pi, size=n)
        return self._manifold.from_angles(np.stack([a, b], axis=-1))


# ---------------------------------------------------------------------------
# isotropic Gaussian on an affine plane


class IsotropicGaussian(DensityModel):
    """N(mean, tau^2 I) in the chart coordinates of an affine plane."""

    def __init__(self, manifold: AffinePlane, mean, tau: float):
        if not isinstance(manifold, AffinePlane):
            raise ManifoldMismatch("IsotropicGaussian lives on affine planes")
        super().__init__(manifold)
        mean = np.zeros(manifold.intrinsic_dim) + np.asarray(mean, dtype=float)
        if mean.shape != (manifold.intrinsic_dim,):
            raise ValueError("mean must be a chart vector")
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.mean = mean
        self.tau = float(tau)

    def log_density_batch(self, coords: np.ndarray) -> np.ndarray:
        c = self._manifold.chart(coords) - self.mean
        d = self._manifold.intrinsic_dim
        return -0.5 * np.sum(c * c, axis=-1) / self.tau**2 \
            - 0.5 * d * math.log(2.0 * math.pi * self.tau**2)

    def score_batch(self, coords: np.ndarray) -> np.ndarray:
        c = self._manifold.chart(coords) - self.mean
        return self._manifold.embed_tangent(-c / self.tau**2)

    def laplacian_batch(self, coords: np.ndarray) -> np.ndarray:
        return np.full(coords.shape[0], -self._manifold.intrinsic_dim / self.tau**2)

    def tweedie_batch(self, coords: np.ndarray) -> np.ndarray:
        c = self._manifold.chart(coords) - self.mean
        return self._manifold.embed_tangent(c / self.tau**4)

    def sample_coords(self, n: int, rng: np.random.Generator) -> np.ndarray:
        c = self.mean + self.tau * rng.standard_normal((n, self._manifold.intrinsic_dim))
        return self._manifold.embed(c)


# ---------------------------------------------------------------------------
# uniform on a compact manifold


class Uniform(DensityModel):
    """The normalized volume measure (compact manifolds only)."""

    def __init__(self, manifold):
        if not math.isfinite(manifold.volume):
            raise UnsupportedManifold("Uniform requires a finite-volume manifold")
        super().__init__(manifold)
        self._log_vol = math.log(manifold.volume)

    def log_density_batch(self, coords: np.ndarray) -> np.ndarray:
        return np.full(coords.shape[0], -self._log_vol)

    def score_batch(self, coords: np.ndarray) -> np.ndarray:
        return np.zeros_like(coords)

    def laplacian_batch(self, coords: np.ndarray) -> np.ndarray:
        return np.zeros(coords.shape[0])

    def tweedie_batch(self, coords: np.ndarray) -> np.ndarray:
        return np.zeros_like(coords)

    def sample_coords(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # random_coords is volume-uniform for spheres and flat tori
        return self._manifold.random_coords(rng, n)

