"""Latent density models on the supported manifolds.

Every model exposes the normalized log density, the Riemannian score
grad_M log q, and the second-order drift correction

    b_q = (1/2) grad_M [ Delta_M log q + ||grad_M log q||^2 ],

all as closed-form row kernels on (n, D) ambient coordinate rows (b_q is
formed directly, with no Laplace-Beltrami kernel of its own); the score's
second moment E_q ||grad_M log q||^2, from the density's own one-dimensional
law; and a deterministic sampler driven by an explicit numpy Generator.
"""
from __future__ import annotations

import abc
import math
import numbers

import numpy as np

from .errors import ConfigError, ManifoldMismatch, UnsupportedManifold
from .geometry import AffinePlane, FlatTorus, Sphere
from .geometry.base import row_dots, row_norms
from .geometry.quadrature import gauss_legendre
from .geometry.sphere import _SPHERE_VOLUMES
from .rng import derive_rng, shard_sizes

_TABLE_SIZE = 8193
# the t-law's tables resolve kappa up to here: at 1e4 the sampling table's
# E[1 - t] is a few parts in 1e4 off, and the error grows tenfold per decade
MAX_MARGINAL_KAPPA = 1e4
# exp(-x) is 0.0 in double precision for every x above this
_EXP_UNDERFLOW = 746.0


def _circle_law(kappa: float) -> tuple[float, float]:
    """(log I0(kappa), E[sin^2 delta]) for a von Mises(kappa) angle delta.

    Both come from one trapezoid rule in |delta| with step pi / n, which
    converges geometrically for these periodic integrands: n = 5 sqrt(kappa)
    + 8 puts the aliasing error far below double precision.  For large
    kappa the rule stops at the first node past the angle where
    exp(kappa (cos delta - 1)) underflows, so it never holds more than 106
    nodes.  cos delta - 1 is formed as -2 sin^2(delta / 2), which keeps its
    relative precision near delta = 0.
    """
    n = math.ceil(5.0 * math.sqrt(kappa)) + 8
    m = n
    if kappa > _EXP_UNDERFLOW / 2.0:
        theta = 2.0 * math.asin(math.sqrt(_EXP_UNDERFLOW / kappa / 2.0))
        m = min(n, math.ceil(theta * n / math.pi))
    delta = (math.pi / n) * np.arange(m + 1)
    half = np.sin(0.5 * delta)
    w = np.exp(kappa * (-2.0 * half * half))
    w[0] *= 0.5
    w[-1] *= 0.5
    mass = math.fsum(w)
    # mass / n is exp(-kappa) I0(kappa) = (1/pi) int_0^pi exp(kappa (cos - 1))
    return kappa + math.log(mass / n), math.fsum(w * np.sin(delta) ** 2) / mass


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

    def ambient_score_batch(self, coords: np.ndarray) -> np.ndarray:
        """An ambient field G whose tangent projection at each row of
        ``coords`` is the score there: one row per row of ``coords``, or
        one (D,) vector when G is the same at every point.

        A Langevin step projects its drift together with its noise, so G
        drives it as the score would; this default is the score itself.
        """
        return self.score_batch(coords)

    @abc.abstractmethod
    def tweedie_batch(self, coords: np.ndarray) -> np.ndarray:
        """The drift correction b_q at each row, as ambient tangent rows."""

    @abc.abstractmethod
    def score_second_moment(self) -> float:
        """E_q ||grad_M log q||^2, from the density's one-dimensional law."""

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
        if not isinstance(dim, numbers.Integral) or dim < 1:
            raise ConfigError(f"the t-marginal needs an integer dim >= 1, got {dim!r}")
        if kappa < 0:
            raise ConfigError(f"kappa {kappa:g} is negative")
        if not kappa <= MAX_MARGINAL_KAPPA:
            raise ConfigError(f"kappa {kappa:g} is above {MAX_MARGINAL_KAPPA:g}, "
                              "beyond what the t-marginal's tables resolve")
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
        # np.interp's value at a query does not depend on the other
        # queries, so looking them up in sorted order and scattering the
        # results back gives its bits, while each binary search starts next
        # to the last one's node instead of at a random place in the table
        order = np.argsort(u)
        chi = u[order]  # the sorted queries, then their answers in u's order
        chi[order] = np.interp(chi, self._chi_cdf, self._chi)
        return chi

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
        self.mu = mu
        self.kappa = float(kappa)
        self._gradient = self.kappa * mu
        self._gradient.flags.writeable = False
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

    def ambient_score_batch(self, coords: np.ndarray) -> np.ndarray:
        # kappa mu, the ambient gradient of kappa <mu, z>, projects to the
        # score kappa (mu - <mu, z> z) at every point
        return self._gradient

    def tweedie_batch(self, coords: np.ndarray) -> np.ndarray:
        d = self._manifold.intrinsic_dim
        t = coords @ self.mu
        coeff = 0.5 * (-self.kappa * d - 2.0 * self.kappa**2 * t)
        return coeff[:, None] * (self.mu - t[:, None] * coords)

    def score_second_moment(self) -> float:
        # ||kappa (mu - t z)||^2 = kappa^2 (1 - t^2)
        return self.kappa**2 * self._marginal.moment(lambda t: 1.0 - t * t)

    def sample_coords(self, n: int, rng: np.random.Generator) -> np.ndarray:
        chi = self._marginal.sample_chi(rng.random(n))
        w = rng.standard_normal((n, self._manifold.ambient_dim))
        dot = w @ self.mu
        # the per-row scalars broadcast along the rows of the row-major
        # (D, n) transpose; the result is written back into w's rows
        mu = self.mu[:, None]
        perp = np.subtract(w.T, mu * dot, order="C")
        perp /= row_norms(perp.T)
        perp *= np.sin(chi)
        perp += mu * np.cos(chi)
        np.divide(perp, row_norms(perp.T), out=w.T)
        return w


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
        log_i0, self._mean_sin2 = zip(*map(_circle_law, self.kappas))
        self._log_norm = math.log(4.0 * math.pi**2 * r1 * r2) + log_i0[0] + log_i0[1]

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

    def tweedie_batch(self, coords: np.ndarray) -> np.ndarray:
        delta = self._deltas(coords)
        r = np.array(self._manifold.radii)
        k = np.array(self.kappas)
        coeff = k * np.sin(delta) * (1.0 + 2.0 * k * np.cos(delta)) / (2.0 * r**3)
        return self._manifold.embed_tangent(coords, coeff)

    def score_second_moment(self) -> float:
        # ||grad_M log q||^2 = sum_i (kappa_i / R_i)^2 sin^2(delta_i); the
        # factor kappa_i E[sin^2 delta_i] = I1 / I0 (kappa_i) is at most 1,
        # so the sum stays finite for every finite kappa
        return sum(k / r**2 * (k * s) for k, r, s
                   in zip(self.kappas, self._manifold.radii, self._mean_sin2))

    def sample_coords(self, n: int, rng: np.random.Generator) -> np.ndarray:
        a = rng.vonmises(self.phases[0], self.kappas[0], size=n)
        b = rng.vonmises(self.phases[1], self.kappas[1], size=n)
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

    def tweedie_batch(self, coords: np.ndarray) -> np.ndarray:
        c = self._manifold.chart(coords) - self.mean
        return self._manifold.embed_tangent(c / self.tau**4)

    def score_second_moment(self) -> float:
        return self._manifold.intrinsic_dim / self.tau**2

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

    def tweedie_batch(self, coords: np.ndarray) -> np.ndarray:
        return np.zeros_like(coords)

    def score_second_moment(self) -> float:
        return 0.0

    def sample_coords(self, n: int, rng: np.random.Generator) -> np.ndarray:
        # random_coords is volume-uniform for spheres and flat tori
        return self._manifold.random_coords(rng, n)

