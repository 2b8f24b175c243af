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
depend on v alone.  One node table per (manifold, sigma, n, m) carries every
factor but q, so a query costs one frame and one density evaluation per
node, and a batch of queries is a few matrix products.

The table is Gauss-Legendre with n nodes in the radius on
[0, min(14 sigma, band)] times a rule of angular resolution m on the unit
directions of T_z M (``_directions``).  The radius stops at the tube band
||m(v)|| < tube_radius: beyond it the tangential chord can shrink again (cut
locus), which would add posterior mass that the tube conditioning excludes.
The two axes converge at their own rates, so each query carries a radial
and an angular error estimate, and only the axis whose estimate fails is
refined (``RBOracle``).

A von Mises-Fisher latent needs the quadrature along one meridian only.
The rotations that fix its mean mu leave the posterior unchanged, so the
target is zonal, r_sigma(z) = g(t) P_z mu with t = <mu, z>, and
``ZonalTarget`` answers every foot from one Chebyshev series of g built
from ``RBOracle`` queries on a meridian.  ``conditional_target`` returns it
for a von Mises-Fisher latent and an ``RBOracle`` for every other density.

The module also hosts the sigma^2 expansion terms (score, Tweedie drift,
extrinsic curvature term), extraction of the dimensionless extrinsic
coefficient, and the single-query posterior view behind the Stein identity,
moment and chord checks.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .densities import DensityModel, VonMisesFisher
from .errors import ConfigError, DegenerateScore, QuadratureNotConverged
from .geometry import Manifold, Sphere
from .geometry.base import row_dots, row_norms
from .geometry.quadrature import gauss_legendre

SIGMA_MIN = 0.01
SIGMA_MAX = 0.5
DEFAULT_REL_TOL = 1e-6
GAUSS_RANGE = 14.0           # radial domain, in units of sigma
BASE_RESOLUTION = 24         # radial nodes of the coarsest rule
# The direction rule's angular resolution m, by intrinsic dimension d: the
# coarsest m and the least step to the next finer m.  A step is at least m's
# distance from the coarsest, so refinements near it are fine-grained and
# far from it m about doubles.  Equally spaced angles on the circle (d = 2)
# gain less per node than the Gauss rules of d = 3, 4, so their step is
# wider; the two directions of a line (d = 1) are exact and never refined.
ANGULAR_RULE = {1: (0, 0), 2: (10, 6), 3: (8, 2), 4: (8, 2)}
MAX_RULE_NODES = 1 << 21     # no rule is refined beyond this many nodes
CHUNK_FLOATS = 1 << 16       # latent coordinates held per query chunk
_TARGET_FLOOR = 1e-6         # targets below this norm count as zero
TABLE_MIN_DEGREE = 16        # first degree of a zonal table's series
TABLE_MAX_DEGREE = 128       # a series not settled by this degree falls back
TABLE_TAIL = 1e-2            # settled tail, as a fraction of the oracle's rel_tol
STEIN_FD_STEP = 1e-4         # central-difference step of the Stein residual


def check_sigma(sigma: float) -> float:
    sigma = float(sigma)
    if not SIGMA_MIN <= sigma <= SIGMA_MAX:
        raise ConfigError(
            f"sigma={sigma:g} outside the supported range [{SIGMA_MIN}, {SIGMA_MAX}]")
    return sigma


@functools.lru_cache(maxsize=16)
def _directions(d: int, angular: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions of a d-dimensional tangent space and their weights:
    the exact pair +-1 for d = 1, else ``Sphere(d-1).grid(angular)``.
    Cached and shared, so the arrays are read-only."""
    if d == 1:
        dirs, w = np.array([[1.0], [-1.0]]), np.ones(2)
    else:
        dirs, w = Sphere(d - 1).grid(angular)
    dirs.flags.writeable = w.flags.writeable = False
    return dirs, w


def _finer_angles(d: int, angular: int) -> int:
    """The angular resolution after ``angular`` in dimension d."""
    base, step = ANGULAR_RULE[d]
    return angular + max(step, angular - base)


def _query_rows(manifold: Manifold, queries) -> np.ndarray:
    queries = np.asarray(queries, dtype=float)
    if queries.ndim != 2 or queries.shape[1] != manifold.ambient_dim:
        raise ValueError("queries must be (n, ambient_dim)")
    return queries


def grid_node_count(manifold: Manifold, resolution: int,
                    angular: int | None = None) -> int:
    """Tangent nodes of the polar rule with ``resolution`` radial nodes and
    angular resolution ``angular`` (by default the coarsest direction rule
    of the manifold's dimension)."""
    d = manifold.intrinsic_dim
    if angular is None:
        angular = ANGULAR_RULE[d][0]
    return resolution * _directions(d, angular)[1].size


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
    y3 = y.reshape(-1, n, dim)
    y3 += z  # in place: y is the chunk's largest array
    lw = density.log_density_batch(y.reshape(-1, dim)).reshape(-1, n)
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
def _polar_rule(manifold: Manifold, sigma: float, resolution: int,
                angular: int) -> PolarRule:
    d = manifold.intrinsic_dim
    rho_max = min(GAUSS_RANGE * sigma, manifold.band_radius)
    rho, w_rho = gauss_legendre(resolution, 0.0, rho_max)
    dirs, w_dir = _directions(d, angular)
    v = (rho[:, None, None] * dirs[None]).reshape(-1, d)
    w = np.outer(w_rho * rho ** (d - 1), w_dir).ravel()
    chord, log_k = _log_kernel(manifold, v, sigma)
    return PolarRule(v, chord, np.log(w) + log_k)


class RBOracle:
    """Batched quadrature evaluator for the conditional tangent target.

    A query at state (n, m), from n = BASE_RESOLUTION radial nodes and the
    angular resolution m of ANGULAR_RULE[d], with m' the next angular
    resolution, is evaluated with the polar rules (n, m), (n, m') and
    (2n, m').  It carries two relative error estimates: radial, (2n, m')
    against (n, m'), and angular, (n, m') against (n, m).  A query whose
    estimates are both within ``rel_tol`` returns its (2n, m') value, the
    finest rule on both axes.  Otherwise only the failing axis is refined:
    n goes to 2n, m to m', or both, and the rules already evaluated at the
    new state are reused.  When the finest rule of the next state would
    exceed MAX_RULE_NODES the oracle raises QuadratureNotConverged.  A
    query whose angular estimate fails whatever (2n, m') gives does not
    build that rule when the budget already settles its next step: it is
    refused when even (n, m') is over the budget, and goes on to (n, m')
    when only (2n, m') is.
    ``convergence_report`` accumulates over calls: ``queries``, ``nodes``
    (tangent nodes evaluated, check rules included), ``nodes_per_query``,
    ``max_estimate`` (largest accepted estimate on either axis),
    ``resolution`` (largest accepted radial resolution),
    ``angular_resolution`` (largest accepted angular resolution) and
    ``rel_tol``.
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

    def rule(self, resolution: int, angular: int) -> PolarRule:
        return _polar_rule(self.manifold, self.sigma, resolution, angular)

    # ---- evaluation ------------------------------------------------------

    def target_coords(self, queries: np.ndarray) -> np.ndarray:
        """Conditional targets for query rows, as ambient tangent rows."""
        queries = _query_rows(self.manifold, queries)
        if queries.shape[0] == 0:
            return np.empty_like(queries)
        frames = self.manifold.frames_batch(queries)
        r, _ = self._solve(queries, frames)
        return np.einsum("nk,nkd->nd", r, frames[:, :r.shape[1]])

    def _solve(self, queries, frames) -> tuple[np.ndarray, np.ndarray]:
        """Frame-coordinate targets and the accepted (n, m) rule per query."""
        M = self.manifold
        d = M.intrinsic_dim
        n_q = queries.shape[0]
        out = np.empty((n_q, d))
        accepted = np.empty((n_q, 2), dtype=int)
        nodes, worst = 0, 0.0

        def over_budget(n_next, m_next):
            # the finest rule of state (n_next, m_next)
            return grid_node_count(M, 2 * n_next,
                                   _finer_angles(d, m_next)) > MAX_RULE_NODES

        # pending groups: state (n, m), query indices, targets by rule
        groups = [(BASE_RESOLUTION, ANGULAR_RULE[d][0], np.arange(n_q), {})]
        while groups:
            n, m, idx, known = groups.pop()
            m_fine = _finer_angles(d, m)
            for rule in ((n, m), (n, m_fine)):
                if rule not in known:
                    known[rule] = self._frame_targets(
                        queries[idx], frames[idx], *rule)
                    nodes += idx.size * grid_node_count(M, *rule)
            if self.rel_tol < 0.5 and over_budget(2 * n, m_fine):
                # An accepted query has |mid - coarse| <= rel_tol |fine| and
                # |fine - mid| <= rel_tol |fine| (norms floored), so |fine|
                # is below 2 |mid|.  A query past that bound fails here
                # whatever the (2n, m') rule gives, which would only pick
                # its next state, and the budget has already refused
                # (2n, m'): it is refused outright if (n, m') is over the
                # budget too, and otherwise goes on to (n, m').
                mid = known[n, m_fine]
                gap = np.linalg.norm(mid - known[n, m], axis=1)
                floor = np.maximum(np.linalg.norm(mid, axis=1), _TARGET_FLOOR)
                lost = gap > 2.0 * self.rel_tol * floor
                if lost.any() and over_budget(n, m_fine):
                    raise self._refusal(int(lost.sum()), n_q,
                                        float((gap / floor).max()),
                                        grid_node_count(M, n, m_fine))
                if lost.any():
                    groups.append((n, m_fine, idx[lost],
                                   {k: v[lost] for k, v in known.items()}))
                    idx = idx[~lost]
                    known = {k: v[~lost] for k, v in known.items()}
                    if idx.size == 0:
                        continue
            known[2 * n, m_fine] = self._frame_targets(
                queries[idx], frames[idx], 2 * n, m_fine)
            nodes += idx.size * grid_node_count(M, 2 * n, m_fine)
            fine, mid = known[2 * n, m_fine], known[n, m_fine]
            scale = np.maximum(np.linalg.norm(fine, axis=1), _TARGET_FLOOR)
            radial = np.linalg.norm(fine - mid, axis=1) / scale
            angular = np.linalg.norm(mid - known[n, m], axis=1) / scale
            r_ok, a_ok = radial <= self.rel_tol, angular <= self.rel_tol
            ok = r_ok & a_ok
            out[idx[ok]] = fine[ok]
            accepted[idx[ok]] = (2 * n, m_fine)
            if ok.any():
                worst = max(worst, float(radial[ok].max()),
                            float(angular[ok].max()))
            for n_next, m_next, sel in ((2 * n, m, ~r_ok & a_ok),
                                        (n, m_fine, r_ok & ~a_ok),
                                        (2 * n, m_fine, ~r_ok & ~a_ok)):
                if not sel.any():
                    continue
                if over_budget(n_next, m_next):
                    raise self._refusal(
                        int((~ok).sum()), n_q,
                        float(np.maximum(radial, angular).max()),
                        grid_node_count(M, 2 * n, m_fine))
                groups.append((n_next, m_next, idx[sel],
                               {k: v[sel] for k, v in known.items()}))
        self._record(n_q, nodes, worst, accepted.max(axis=0))
        return out, accepted

    def _refusal(self, failing: int, n_q: int, estimate: float,
                 nodes: int) -> QuadratureNotConverged:
        return QuadratureNotConverged(
            f"{failing} of {n_q} queries have error estimates up to "
            f"{estimate:.3g} above rel_tol {self.rel_tol:g} at the largest "
            f"polar rule ({nodes} nodes)")

    def _frame_targets(self, queries, frames, resolution, angular) -> np.ndarray:
        rule = self.rule(resolution, angular)
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
                accepted: np.ndarray) -> None:
        rep = self.convergence_report or {
            "rel_tol": self.rel_tol, "queries": 0, "nodes": 0,
            "max_estimate": 0.0, "resolution": 0, "angular_resolution": 0}
        rep["queries"] += queries
        rep["nodes"] += nodes
        rep["nodes_per_query"] = rep["nodes"] / rep["queries"]
        rep["max_estimate"] = max(rep["max_estimate"], estimate)
        rep["resolution"] = max(rep["resolution"], int(accepted[0]))
        rep["angular_resolution"] = max(rep["angular_resolution"],
                                        int(accepted[1]))
        self.convergence_report = rep


# ---------------------------------------------------------------------------
# one meridian table for von Mises-Fisher latents


def _clenshaw(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_j coeffs[j] T_j(t) at every entry of t, by Clenshaw's recurrence."""
    b1, b2, b0 = np.zeros_like(t), np.zeros_like(t), np.empty_like(t)
    t2 = 2.0 * t
    for c in coeffs[:0:-1]:
        np.multiply(t2, b1, out=b0)
        b0 -= b2
        b0 += c
        b0, b1, b2 = b2, b0, b1
    b1 *= t
    b1 -= b2
    b1 += coeffs[0]
    return b1


def _zonal_axis(z: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """t = <z, mu> / |z|^2 and P_z mu = mu - t z at rows z: P_z mu is exactly
    zero at z = +-mu, where t is exactly +-1."""
    t = row_dots(z, mu[None])
    t /= row_dots(z, z)
    return t, mu - t[:, None] * z


class ZonalTarget:
    """The conditional target of a von Mises-Fisher latent, from one
    Chebyshev series along a meridian.

    The rotations that fix the mean mu leave q, the noise and the tube
    unchanged, so r_sigma(z) = g(t) P_z mu with t = <mu, z> and
    P_z mu = mu - t z, and one smooth g on [-1, 1] answers every foot.  The
    series of g interpolates ``RBOracle`` targets at the N Chebyshev points
    of the first kind, t_k = cos(pi (k + 1/2) / N), on the meridian
    z = t mu + sqrt(1 - t^2) e through a fixed generic unit tangent e at
    mu; first-kind points avoid the poles, where P_z mu = 0.  Each
    g_k = <r_k, P mu> / |P mu|^2, and the coefficients are the discrete
    cosine sums of the g_k (Trefethen, Approximation Theory and
    Approximation Practice, 2013).  The degree N - 1 doubles from
    TABLE_MIN_DEGREE until the tail, the largest coefficient of the upper
    half of the series relative to max(max |g_k|, the target floor), is
    within TABLE_TAIL times the oracle's rel_tol; so the stopping rule
    follows the accuracy of the values it interpolates (after Aurentz and
    Trefethen, Chopping a Chebyshev series, 2017).  A series not settled
    at TABLE_MAX_DEGREE, or a meridian query the oracle refuses, leaves
    every query to the oracle, which then answers or refuses as it would
    alone.

    ``target_coords`` evaluates g by Clenshaw's rule on all rows at once,
    times P_z mu; at z = +-mu the target is exactly zero.
    ``convergence_report`` is the meridian oracle's report plus ``degree``
    (of the last series formed), ``tail`` (its tail; None when a meridian
    query was refused) and ``fallback`` (true when the oracle answers the
    queries).
    """

    def __init__(self, q: VonMisesFisher, sigma: float):
        if not isinstance(q, VonMisesFisher):
            raise ConfigError("ZonalTarget needs a von Mises-Fisher latent")
        self._oracle = RBOracle(q, sigma)
        self.density = q
        self.manifold = q.manifold
        self._coeffs = None
        self._table = self._build()

    @property
    def convergence_report(self) -> dict:
        return {**(self._oracle.convergence_report or {}), **self._table}

    def _build(self) -> dict:
        mu, d = self.density.mu, self.manifold.intrinsic_dim
        # a fixed mix of the frame's tangent rows, so the meridian lines up
        # with no coordinate axis
        tangents = self.manifold.frames_batch(mu[None])[0, :d]
        e = np.cos(np.arange(1.0, d + 1.0)) @ tangents
        e /= np.linalg.norm(e)
        tol = TABLE_TAIL * self._oracle.rel_tol
        degree = TABLE_MIN_DEGREE
        while True:
            n = degree + 1
            theta = np.pi * (np.arange(n) + 0.5) / n
            z = np.cos(theta)[:, None] * mu + np.sin(theta)[:, None] * e
            try:
                r = self._oracle.target_coords(z)
            except QuadratureNotConverged:
                return {"degree": degree, "tail": None, "fallback": True}
            _, p = _zonal_axis(z, mu)
            g = row_dots(r, p) / row_dots(p, p)
            coeffs = np.cos(np.outer(np.arange(n), theta)) @ g * (2.0 / n)
            coeffs[0] *= 0.5
            tail = float(np.abs(coeffs[n // 2:]).max()
                         / max(float(np.abs(g).max()), _TARGET_FLOOR))
            if tail <= tol:
                self._coeffs = coeffs
                return {"degree": degree, "tail": tail, "fallback": False}
            if degree >= TABLE_MAX_DEGREE:
                return {"degree": degree, "tail": tail, "fallback": True}
            degree *= 2

    def target_coords(self, queries: np.ndarray) -> np.ndarray:
        """Conditional targets for query rows, as ambient tangent rows."""
        queries = _query_rows(self.manifold, queries)
        if self._coeffs is None:
            return self._oracle.target_coords(queries)
        t, p = _zonal_axis(queries, self.density.mu)
        p *= _clenshaw(self._coeffs, t)[:, None]
        return p


def conditional_target(q: DensityModel, sigma: float) -> ZonalTarget | RBOracle:
    """The conditional target of q at noise level sigma: a ``ZonalTarget``
    for a von Mises-Fisher latent, an ``RBOracle`` for any other."""
    if isinstance(q, VonMisesFisher):
        return ZonalTarget(q, sigma)
    return RBOracle(q, sigma)


# ---------------------------------------------------------------------------
# sigma^2 expansion, on coordinate rows


def extrinsic_term(z: np.ndarray, q: DensityModel) -> np.ndarray:
    """Curvature correction (W_H/2 - Ric) applied to the score at rows z."""
    return q.manifold.curvature_bundle(z).apply_extrinsic(q.score_batch(z))


def predicted_expansion(z: np.ndarray, q: DensityModel,
                        sigma: float) -> np.ndarray:
    """The small-sigma prediction score + sigma^2 (tweedie + extrinsic) of
    the target, as ambient tangent rows, one per row of z."""
    return q.score_batch(z) + sigma**2 * (q.tweedie_batch(z)
                                          + extrinsic_term(z, q))


def extract_extrinsic_coefficient(z: np.ndarray, q: DensityModel,
                                  sigma: float) -> dict:
    """Project (target - score - sigma^2 tweedie) / sigma^2 onto the score.

    The scalar part recovers the dimensionless curvature coefficient on
    geometries where the extrinsic operator is a multiple of the identity;
    elsewhere the orthogonal remainder (same normalization) is diagnostic.
    Returns per-row arrays: the fitted coefficient ``alpha_hat``,
    ``alpha_pred``, the score-aligned part of the extrinsic term (the
    coefficient the operator predicts), and the remainder's norm
    ``orth_residual``.  Raises DegenerateScore when any row's score
    vanishes.
    """
    sigma = check_sigma(sigma)
    s = q.score_batch(z)
    s_norm_sq = row_dots(s, s)
    if np.any(s_norm_sq < 1e-6):
        raise DegenerateScore(
            f"score norm {math.sqrt(s_norm_sq.min()):.2e} below 1e-3; "
            "the coefficient direction is undefined")
    r = RBOracle(q, sigma).target_coords(z)
    resid = r - s - sigma**2 * q.tweedie_batch(z)
    along = row_dots(resid, s)
    orth = resid - (along / s_norm_sq)[:, None] * s
    return {"alpha_hat": along / (sigma**2 * s_norm_sq),
            "alpha_pred": row_dots(extrinsic_term(z, q), s) / s_norm_sq,
            "orth_residual": row_norms(orth) / (sigma**2 * np.sqrt(s_norm_sq))}


# ---------------------------------------------------------------------------
# single-query posterior view


class FiberPosterior:
    """The latent posterior at one foot point, on the oracle's polar rule.

    ``z`` is the foot, a length-D coordinate row of a point of
    ``q.manifold``; any other row raises ManifoldMismatch.  Over tangent
    coordinates v at z the posterior is proportional to
    a(v) * exp(-||v||^2 / (2 sigma^2)) with

        a(v) = q(Exp_z v) * J(v) * exp((||v||^2 - ||G(v)||^2) / (2 sigma^2))
               * fiber(m(v), sigma),

    the oracle's posterior written against the Gaussian in v.  The weights
    come from the same ``_log_posterior`` on the rule the oracle accepts for
    this query, so every expectation here matches the target node for node.
    ``stein_residual`` differentiates log a by central differences of step
    ``STEIN_FD_STEP``.
    """

    def __init__(self, z: np.ndarray, q: DensityModel, sigma: float):
        z = q.manifold.point_row(z)
        oracle = RBOracle(q, sigma)
        self.sigma = oracle.sigma
        self.manifold = q.manifold
        self.density = q
        self.z = z
        self.d = self.manifold.intrinsic_dim
        zc = z[None]
        self._frames = self.manifold.frames_batch(zc)
        _, accepted = oracle._solve(zc, self._frames)
        rule = oracle.rule(*map(int, accepted[0]))
        self.coords = rule.v
        self.chord = rule.tangent_chord
        lw = _log_posterior(q, zc, self._frames, rule.chord, rule.log_w)[:, 0]
        w = np.exp(lw - lw.max())
        self.weights = w / w.sum()

    def _log_a(self, coords: np.ndarray) -> np.ndarray:
        chord, log_k = _log_kernel(self.manifold, coords, self.sigma)
        log_k += np.sum(coords * coords, axis=-1) / (2.0 * self.sigma**2)
        return _log_posterior(self.density, self.z[None], self._frames,
                             chord, log_k)[:, 0]

    def expectation(self, values: np.ndarray) -> np.ndarray:
        return self.weights @ values

    def stein_residual(self) -> float:
        """|| E[v]/sigma^2 - E[grad_v log a] || via central differences."""
        lhs = self.expectation(self.coords) / self.sigma**2
        h = STEIN_FD_STEP
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

    def chord_ratio(self) -> float:
        """||E[G(v) - v]|| / sigma^4: the chord remainder moment scale."""
        return float(np.linalg.norm(self.expectation(self.chord - self.coords))) / self.sigma**4

