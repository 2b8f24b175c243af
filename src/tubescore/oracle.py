"""Deterministic quadrature oracle for the conditional tangent target.

Given a latent density q and noise level sigma, the conditional expectation
of the raw tangent target given the foot point z is

    r_sigma(z) = (1/sigma^2) E[ G(v) | pi(X) = z ],

where v in T_z M are the geodesic-polar coordinates of the latent point
y = Exp_z(v) and G(v) = P_T(z)(y - z) is the tangential chord.  The
posterior density of v is proportional to

    q(Exp_z v) * J(v) * exp(-||G(v)||^2 / (2 sigma^2)) * fiber(m(v), sigma),

with J the Jacobian of Exp_z and m(v) the normal part of y - z.  Spheres,
flat tori and planes are homogeneous: in the frames of
``Manifold.frames_batch`` the chord, the Jacobian and the fiber factor
depend on v alone.  One node table per (manifold, sigma, resolution) carries
every factor but q, so a query costs one frame and one density evaluation
per node, and a batch of queries is a few matrix products.

The table is Gauss-Legendre in the radius on [0, min(14 sigma, band)] times
a rule on the unit directions of T_z M.  The radius stops at the tube band
||m|| < tube_radius: beyond it the tangential chord can shrink again (cut
locus), which would add posterior mass that the tube conditioning excludes.

The module also hosts the sigma^2 expansion terms (score, Tweedie drift,
extrinsic curvature term), extraction of the dimensionless extrinsic
coefficient, and the single-query posterior view behind the Stein identity,
moment and chord checks.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .densities import DensityModel
from .errors import ConfigError, DegenerateScore, QuadratureNotConverged
from .geometry import (
    AffinePlane,
    Manifold,
    ManifoldPoint,
    Sphere,
    TangentVector,
    ensure_same_manifold,
)
from .geometry.quadrature import gauss_legendre

SIGMA_MIN = 0.01
SIGMA_MAX = 0.5
DEFAULT_REL_TOL = 1e-6
GAUSS_RANGE = 14.0           # radial domain, in units of sigma
BASE_RESOLUTION = 24         # radial nodes of the coarsest rule
MAX_RULE_NODES = 1 << 21     # no rule is refined beyond this many nodes
CHUNK_FLOATS = 1 << 16       # latent coordinates held per query chunk
SCORE_MOMENT_RESOLUTION = 24
PLANE_MOMENT_RESOLUTION = 48
PLANE_MOMENT_HALF_WIDTH = 8.0  # box half width, in units of the Gaussian's tau
_TARGET_FLOOR = 1e-6         # targets below this norm count as zero


def check_sigma(sigma: float) -> float:
    sigma = float(sigma)
    if not SIGMA_MIN <= sigma <= SIGMA_MAX:
        raise ConfigError(
            f"sigma={sigma:g} outside the supported range [{SIGMA_MIN}, {SIGMA_MAX}]")
    return sigma


@functools.lru_cache(maxsize=16)
def _directions(d: int, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions of a d-dimensional tangent space and their weights."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.ones(2)
    grid = Sphere(d - 1).grid(resolution // 2)
    return grid.node_coords, grid.weights


def grid_node_count(manifold: Manifold, resolution: int) -> int:
    """Tangent nodes of the polar rule with ``resolution`` radial nodes."""
    return resolution * _directions(manifold.intrinsic_dim, resolution)[1].size


def _log_kernel(manifold: Manifold, v: np.ndarray, sigma: float):
    """Frame-coordinate chord and query-independent log posterior factors.

    At tangent coordinates ``v`` (rows) the factors are the Exp Jacobian,
    the Gaussian of the tangential chord and the tube-fiber factor; the
    latent density is the only factor left that depends on the query.
    """
    chord, log_jac = manifold.polar_chords(v)
    tang, normal = np.split(chord, [manifold.intrinsic_dim], axis=1)
    return chord, (log_jac - np.sum(tang * tang, axis=1) / (2.0 * sigma**2)
                   + np.log(manifold.fiber_from_coeffs(normal, sigma)))


def _log_posterior(density: DensityModel, z: np.ndarray, frames: np.ndarray,
                  chord: np.ndarray, log_k: np.ndarray) -> np.ndarray:
    """Unnormalized log posterior, nodes by queries.

    ``log_k`` plus log q at Exp_z(v) = z + chord(v) @ F(z), for the frames F
    of every query row of ``z`` side by side in one product.
    """
    n, dim = z.shape
    y = chord @ frames.transpose(1, 0, 2).reshape(dim, n * dim)
    y = (y.reshape(-1, n, dim) + z).reshape(-1, dim)
    lw = density.log_density_batch(y).reshape(-1, n)
    lw += log_k[:, None]
    return lw


@dataclass(frozen=True, eq=False)
class PolarRule:
    """Tangent nodes carrying every query-independent posterior factor.

    Rules are cached and shared, so their arrays are read-only.
    """

    v: np.ndarray        # (N, d) tangent coordinates
    chord: np.ndarray    # (N, D) Exp_z(v) - z in frame coordinates
    log_w: np.ndarray    # (N,) log node weight plus _log_kernel

    def __post_init__(self):
        for a in (self.v, self.chord, self.log_w):
            a.flags.writeable = False

    @property
    def tangent_chord(self) -> np.ndarray:
        """G(v), the tangential part of the chord, (N, d)."""
        return self.chord[:, :self.v.shape[1]]


@functools.lru_cache(maxsize=32)
def _polar_rule(manifold: Manifold, sigma: float, resolution: int) -> PolarRule:
    d = manifold.intrinsic_dim
    rho_max = min(GAUSS_RANGE * sigma, manifold.band_radius)
    rho, w_rho = gauss_legendre(resolution, 0.0, rho_max)
    dirs, w_dir = _directions(d, resolution)
    v = (rho[:, None, None] * dirs[None]).reshape(-1, d)
    w = np.outer(w_rho * rho ** (d - 1), w_dir).ravel()
    chord, log_k = _log_kernel(manifold, v, sigma)
    return PolarRule(v, chord, np.log(w) + log_k)


class RBOracle:
    """Batched quadrature evaluator for the conditional tangent target.

    Each query is evaluated with the polar rules of resolution n and 2n,
    from n = BASE_RESOLUTION; their relative difference is the query's error
    estimate.  Queries whose estimate exceeds ``rel_tol`` go on to 2n and
    4n, and so on; the finer value of the accepted pair is returned.  When
    the next rule would exceed MAX_RULE_NODES the oracle raises
    QuadratureNotConverged.  ``convergence_report`` accumulates over calls:
    ``queries``, ``nodes`` (tangent nodes evaluated, check rules included),
    ``nodes_per_query``, ``max_estimate`` (largest accepted estimate),
    ``resolution`` (largest accepted radial resolution) and ``rel_tol``.
    """

    def __init__(self, density: DensityModel, sigma: float, *,
                 rel_tol: float = DEFAULT_REL_TOL):
        self.density = density
        self.manifold = density.manifold
        self.sigma = check_sigma(sigma)
        d = self.manifold.intrinsic_dim
        if d > 4:
            raise ConfigError(
                f"no tangent direction rule for intrinsic dimension {d}; "
                "the oracle supports dimensions 1 to 4")
        self.rel_tol = float(rel_tol)
        self.convergence_report: dict | None = None

    def rule(self, resolution: int) -> PolarRule:
        return _polar_rule(self.manifold, self.sigma, resolution)

    # ---- evaluation ------------------------------------------------------

    def target(self, z: ManifoldPoint) -> TangentVector:
        ensure_same_manifold(self.manifold, z.manifold)
        out = self.target_coords(z.coords[None])[0]
        return TangentVector(z, out)

    def target_coords(self, queries: np.ndarray) -> np.ndarray:
        """Conditional targets for query rows, as ambient tangent rows."""
        queries = np.asarray(queries, dtype=float)
        if queries.ndim != 2 or queries.shape[1] != self.manifold.ambient_dim:
            raise ValueError("queries must be (n, ambient_dim)")
        if queries.shape[0] == 0:
            return np.empty_like(queries)
        frames = self.manifold.frames_batch(queries)
        r, _ = self._solve(queries, frames)
        return np.einsum("nk,nkd->nd", r, frames[:, :r.shape[1]])

    def _solve(self, queries, frames) -> tuple[np.ndarray, np.ndarray]:
        """Frame-coordinate targets and the accepted resolution per query."""
        M = self.manifold
        n_q = queries.shape[0]
        out = np.empty((n_q, M.intrinsic_dim))
        accepted = np.empty(n_q, dtype=int)
        pending = np.arange(n_q)
        n = BASE_RESOLUTION
        coarse = self._frame_targets(queries, frames, n)
        nodes = n_q * grid_node_count(M, n)
        worst = 0.0
        while True:
            n *= 2
            fine = self._frame_targets(queries[pending], frames[pending], n)
            nodes += pending.size * grid_node_count(M, n)
            est = (np.linalg.norm(fine - coarse, axis=1)
                   / np.maximum(np.linalg.norm(fine, axis=1), _TARGET_FLOOR))
            ok = est <= self.rel_tol
            out[pending[ok]] = fine[ok]
            accepted[pending[ok]] = n
            if ok.any():
                worst = max(worst, float(est[ok].max()))
            pending, coarse = pending[~ok], fine[~ok]
            if pending.size == 0:
                break
            if grid_node_count(M, 2 * n) > MAX_RULE_NODES:
                raise QuadratureNotConverged(
                    f"{pending.size} of {n_q} queries have error estimates up "
                    f"to {float(est.max()):.3g} above rel_tol "
                    f"{self.rel_tol:g} at the largest polar rule "
                    f"({grid_node_count(M, n)} nodes)")
        self._record(n_q, nodes, worst, int(accepted.max()))
        return out, accepted

    def _frame_targets(self, queries, frames, resolution) -> np.ndarray:
        rule = self.rule(resolution)
        g = rule.tangent_chord
        out = np.empty((queries.shape[0], g.shape[1]))
        step = max(1, CHUNK_FLOATS // rule.log_w.size // queries.shape[1])
        for s in range(0, queries.shape[0], step):
            sl = slice(s, s + step)
            lw = _log_posterior(self.density, queries[sl], frames[sl],
                               rule.chord, rule.log_w)
            top = lw.max(axis=0)
            if not np.all(np.isfinite(top)):
                raise QuadratureNotConverged("no posterior mass at a query point")
            lw -= top
            w = np.exp(lw, out=lw)
            out[sl] = (g.T @ w / w.sum(axis=0)).T
        return out / self.sigma**2

    def _record(self, queries: int, nodes: int, estimate: float,
                resolution: int) -> None:
        rep = self.convergence_report or {
            "rel_tol": self.rel_tol, "queries": 0, "nodes": 0,
            "max_estimate": 0.0, "resolution": 0}
        rep["queries"] += queries
        rep["nodes"] += nodes
        rep["nodes_per_query"] = rep["nodes"] / rep["queries"]
        rep["max_estimate"] = max(rep["max_estimate"], estimate)
        rep["resolution"] = max(rep["resolution"], resolution)
        self.convergence_report = rep


def rb_target(z: ManifoldPoint, q: DensityModel, sigma: float, *,
              rel_tol: float = DEFAULT_REL_TOL) -> TangentVector:
    """Conditional tangent target at one point, with its error estimate
    checked against ``rel_tol``."""
    ensure_same_manifold(q.manifold, z.manifold)
    return RBOracle(q, sigma, rel_tol=rel_tol).target(z)


# ---------------------------------------------------------------------------
# sigma^2 expansion


@dataclass(frozen=True)
class ExpansionTerms:
    """Closed-form pieces of the small-sigma expansion of the target."""

    score: TangentVector
    tweedie: TangentVector
    extrinsic: TangentVector
    predicted: TangentVector
    sigma: float


def extrinsic_term(z: ManifoldPoint, q: DensityModel) -> TangentVector:
    """Curvature correction (W_H/2 - Ric) applied to the score."""
    ensure_same_manifold(q.manifold, z.manifold)
    bundle = q.manifold.curvature_bundle(z)
    return TangentVector(z, bundle.apply_extrinsic(q.score(z).vec))


def predicted_expansion(z: ManifoldPoint, q: DensityModel, sigma: float) -> ExpansionTerms:
    score = q.score(z)
    tweedie = q.tweedie_term(z)
    extrinsic = extrinsic_term(z, q)
    predicted = TangentVector(
        z, score.vec + sigma**2 * (tweedie.vec + extrinsic.vec))
    return ExpansionTerms(score=score, tweedie=tweedie, extrinsic=extrinsic,
                          predicted=predicted, sigma=float(sigma))


class ExtrinsicFit(NamedTuple):
    """Scalar curvature coefficient plus the off-axis remainder."""

    alpha: float
    orthogonal: float
    sigma: float


def extract_extrinsic_coefficient(z: ManifoldPoint, q: DensityModel,
                                  sigma: float) -> ExtrinsicFit:
    """Project (target - score - sigma^2 tweedie) / sigma^2 onto the score.

    The scalar part recovers the dimensionless curvature coefficient on
    geometries where the extrinsic operator is a multiple of the identity;
    elsewhere the orthogonal remainder (same normalization) is diagnostic.
    """
    sigma = check_sigma(sigma)
    s = q.score(z).vec
    s_norm_sq = float(s @ s)
    if s_norm_sq < 1e-6:
        raise DegenerateScore(
            f"score norm {math.sqrt(s_norm_sq):.2e} below 1e-3; "
            "the coefficient direction is undefined")
    r = rb_target(z, q, sigma).vec
    resid = r - s - sigma**2 * q.tweedie_term(z).vec
    alpha = float(resid @ s) / (sigma**2 * s_norm_sq)
    orth = resid - (float(resid @ s) / s_norm_sq) * s
    return ExtrinsicFit(alpha=alpha,
                        orthogonal=float(np.linalg.norm(orth)) / (sigma**2 * math.sqrt(s_norm_sq)),
                        sigma=sigma)


def score_second_moment(q: DensityModel) -> float:
    """E_q ||grad_M log q||^2 by volume quadrature.

    Resolution 24 reaches roundoff on S^1-S^4 and the tori at the
    concentrations of the studies.  On a plane q is an isotropic Gaussian
    and the box is its mean +- 8 tau, so the rule is the same in units of
    tau for every Gaussian: from 40 nodes per axis its relative error is
    the 1e-13 of the mass beyond 8 tau.
    """
    M = q.manifold
    if isinstance(M, AffinePlane):
        grid = M.grid(PLANE_MOMENT_RESOLUTION,
                      half_width=PLANE_MOMENT_HALF_WIDTH * q.tau, center=q.mean)
    else:
        grid = M.grid(SCORE_MOMENT_RESOLUTION)
    s = q.score_batch(grid.node_coords)
    vals = np.exp(q.log_density_batch(grid.node_coords)) * np.sum(s * s, axis=-1)
    return float(grid.integrate(vals))


# ---------------------------------------------------------------------------
# single-query posterior view


class FiberPosterior:
    """The latent posterior at one foot point, on the oracle's polar rule.

    Over tangent coordinates v at z the posterior is proportional to
    a(v) * exp(-||v||^2 / (2 sigma^2)) with

        a(v) = q(Exp_z v) * J(v) * exp((||v||^2 - ||G(v)||^2) / (2 sigma^2))
               * fiber(m(v), sigma),

    the oracle's posterior written against the Gaussian in v.  The weights
    come from the same ``_log_posterior`` on the rule the oracle accepts for
    this query, so every expectation here matches the target node for node.
    """

    def __init__(self, z: ManifoldPoint, q: DensityModel, sigma: float, *,
                 fd_step: float = 1e-4):
        ensure_same_manifold(q.manifold, z.manifold)
        oracle = RBOracle(q, sigma)
        self.sigma = oracle.sigma
        self.manifold = q.manifold
        self.density = q
        self.z = z
        self.fd_step = fd_step
        self.d = self.manifold.intrinsic_dim
        zc = z.coords[None]
        self._frames = self.manifold.frames_batch(zc)
        _, accepted = oracle._solve(zc, self._frames)
        rule = oracle.rule(int(accepted[0]))
        self.coords = rule.v
        self.chord = rule.tangent_chord
        lw = _log_posterior(q, zc, self._frames, rule.chord, rule.log_w)[:, 0]
        w = np.exp(lw - lw.max())
        self.weights = w / w.sum()

    def _log_a(self, coords: np.ndarray) -> np.ndarray:
        chord, log_k = _log_kernel(self.manifold, coords, self.sigma)
        log_k += np.sum(coords * coords, axis=-1) / (2.0 * self.sigma**2)
        return _log_posterior(self.density, self.z.coords[None], self._frames,
                             chord, log_k)[:, 0]

    def expectation(self, values: np.ndarray) -> np.ndarray:
        return self.weights @ values

    def stein_residual(self) -> float:
        """|| E[v]/sigma^2 - E[grad_v log a] || via central differences."""
        lhs = self.expectation(self.coords) / self.sigma**2
        h = self.fd_step
        grad = np.empty_like(self.coords)
        for i in range(self.d):
            e = np.zeros(self.d)
            e[i] = h
            grad[:, i] = (self._log_a(self.coords + e) - self._log_a(self.coords - e)) / (2.0 * h)
        rhs = self.expectation(grad)
        return float(np.linalg.norm(lhs - rhs))

    def moment(self, k: int) -> float:
        if not 1 <= int(k) <= 6:
            raise ValueError("moment order k must be in [1, 6]")
        rho = np.linalg.norm(self.coords, axis=-1)
        return float(self.expectation(rho ** k))

    def mean_v(self) -> np.ndarray:
        return self.expectation(self.coords)

    def chord_ratio(self) -> float:
        """||E[G(v) - v]|| / sigma^4: the chord remainder moment scale."""
        return float(np.linalg.norm(self.expectation(self.chord - self.coords))) / self.sigma**4


def stein_residual(z: ManifoldPoint, q: DensityModel, sigma: float, **kw) -> float:
    return FiberPosterior(z, q, sigma, **kw).stein_residual()


def posterior_moment(z: ManifoldPoint, q: DensityModel, sigma: float, k: int, **kw) -> float:
    return FiberPosterior(z, q, sigma, **kw).moment(k)


def chord_moment_ratio(z: ManifoldPoint, q: DensityModel, sigma: float, **kw) -> float:
    return FiberPosterior(z, q, sigma, **kw).chord_ratio()
