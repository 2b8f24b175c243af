"""Command-line harness: one subcommand per study, tabular output.

Each study is one entry of ``STUDIES``: its help text, default format,
flags, smallest ``--n``, the call into its ``experiments`` driver and its
CSV layout.  The parsed flags are the run configuration: the embedded
``config`` header is the study name plus every flag but ``--out``, so a
render is byte-identical wherever it lands.

Exit codes: 0 on success; 2 for configuration problems (a flag value no
study runs with, an input the study rejects); 3 for numeric failures
(quadrature error estimate above tolerance, step escaping the injectivity
radius, empty estimation windows, a NaN or infinity in the results); 1 for
any other exception.  Every failure writes a one-line JSON error record to
stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Callable

import numpy as np

from .densities import IsotropicGaussian, ProductVonMises
from .errors import (
    ConfigError,
    ManifoldMismatch,
    TubescoreError,
    UnsupportedManifold,
)
from .experiments import (
    RB_SUBSAMPLE,
    default_extrinsic_models,
    run_extrinsic_coef,
    run_finite_sample,
    run_flat_check,
    run_geometry_check,
    run_langevin_suite,
    run_pythagorean,
    run_stein_suite,
    run_variance_collapse,
    sphere_vmf,
)
from .geometry import AffinePlane, FlatTorus, Sphere
from .oracle import check_sigma
from .reporting import (
    error_record,
    flatten_scalars,
    format_csv,
    format_json,
    require_finite,
    write_text,
)

MANIFOLD_CHOICES = ("plane", "sphere1", "sphere2", "sphere3", "sphere4",
                    "torus")
CONFIG_ERRORS = (ConfigError, ManifoldMismatch, UnsupportedManifold)
DEFAULT_SIGMA_GRID = "0.02:0.2:log10"
# flag -> (message, test) for values no study runs with
FLAG_BOUNDS = {
    "seed": ("seed must be non-negative", lambda v: v >= 0),
    "kappa": ("kappa must be non-negative", lambda v: v >= 0),
    "tau": ("tau must be positive", lambda v: v > 0),
    "scale": ("drift scale must be positive", lambda v: v > 0),
    "rb_subsample": ("--rb-subsample must be at least 2 (a standard error "
                     "needs two samples)", lambda v: v >= 2),
}


# ---------------------------------------------------------------------------
# flag parsing helpers


def parse_sigma_list(expr: str) -> list[float]:
    try:
        vals = [float(part) for part in expr.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse sigma list {expr!r}") from exc
    if not vals:
        raise ConfigError("empty sigma list")
    return vals


def parse_sigma_grid(expr: str, default_count: int = 8) -> list[float]:
    """Grids written start:stop:scale or start:stop:scale:count."""
    parts = expr.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(
            f"sigma grid {expr!r} must look like start:stop:scale[:count]")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[3]) if len(parts) == 4 else default_count
    except ValueError as exc:
        raise ConfigError(f"cannot parse sigma grid {expr!r}") from exc
    scale = parts[2]
    if start <= 0 or stop <= start:
        raise ConfigError("sigma grid needs 0 < start < stop")
    if count < 2:
        raise ConfigError("sigma grid needs at least 2 points")
    if scale == "lin":
        vals = np.linspace(start, stop, count)
    elif scale == "log10":
        vals = np.geomspace(start, stop, count)
    else:
        raise ConfigError(f"sigma grid scale must be lin or log10, "
                          f"got {scale!r}")
    return [float(v) for v in vals]


def parse_radii(expr: str) -> list[float]:
    try:
        radii = [float(part) for part in expr.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse radii {expr!r}") from exc
    if len(radii) != 2:
        raise ConfigError("radii must be two comma-separated numbers")
    if not all(0 < r < math.inf for r in radii):
        raise ConfigError("torus radii must be two positive numbers")
    return radii


def sigma_values(args) -> list[float]:
    """The noise scales of ``--sigma`` (or ``--sigma-grid``), range-checked."""
    grid = getattr(args, "sigma_grid", None)
    if args.sigma is not None and grid is not None:
        raise ConfigError("give either --sigma or --sigma-grid, not both")
    if args.sigma is not None:
        sigmas = parse_sigma_list(args.sigma)
    else:
        sigmas = parse_sigma_grid(grid or DEFAULT_SIGMA_GRID)
    return [check_sigma(s) for s in sigmas]


def one_sigma(args) -> float:
    sigmas = sigma_values(args)
    if len(sigmas) != 1:
        raise ConfigError(f"{args.experiment} takes exactly one sigma, "
                          f"got {len(sigmas)}")
    return sigmas[0]


def check_flags(args) -> None:
    """Reject flag values no study runs with, before the study starts."""
    flags = vars(args)
    for key, value in flags.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key}={value} is not finite")
        if key in FLAG_BOUNDS and not FLAG_BOUNDS[key][1](value):
            raise ConfigError(FLAG_BOUNDS[key][0])
    min_n = STUDIES[args.experiment].min_n
    if min_n is not None and args.n < min_n[0]:
        raise ConfigError(f"{args.experiment} needs --n of at least "
                          f"{min_n[0]} ({min_n[1]})")
    if "sigma" in flags:
        sigma_values(args)
    if "radii" in flags:
        parse_radii(args.radii)
    if "ambient" in flags:
        if not 1 <= args.d < args.ambient:
            raise ConfigError("plane requires 1 <= d < ambient")
        if args.d > 4:
            raise ConfigError("plane dimensions above 4 have no quadrature "
                              "direction rule")


def build_manifold(args):
    name = args.manifold
    if name.startswith("sphere"):
        return Sphere(int(name[len("sphere"):]))
    if name == "torus":
        return FlatTorus(*parse_radii(args.radii))
    # the 2-plane in R^4; a study with --d and --D builds its own plane
    return AffinePlane.axis_aligned(2, 4)


def build_density(args):
    """vMF on spheres, product von Mises on the torus, Gaussian on planes."""
    M = build_manifold(args)
    if isinstance(M, Sphere):
        return sphere_vmf(M.intrinsic_dim, args.kappa)
    if isinstance(M, FlatTorus):
        return ProductVonMises(M, (args.kappa, args.kappa), (0.0, 0.0))
    return IsotropicGaussian(M, np.zeros(M.intrinsic_dim), args.tau)


# ---------------------------------------------------------------------------
# the studies


def _flag(*names, **kwargs):
    return names, kwargs


def _manifold_flags(default):
    return (
        _flag("--manifold", choices=MANIFOLD_CHOICES, default=default,
              help="geometry to run on"),
        _flag("--kappa", type=float, default=2.0,
              help="density concentration"),
        _flag("--tau", type=float, default=1.0,
              help="Gaussian scale for plane densities"),
        _flag("--radii", default="1.0,1.0", help="torus radii as R1,R2"),
    )


KAPPA = _flag("--kappa", type=float, default=2.0)


@dataclasses.dataclass(frozen=True)
class Study:
    """One subcommand: its flags, its driver call and its CSV layout.

    ``run`` maps the parsed flags to the results payload.  ``min_n`` is the
    smallest ``--n`` and the reason for it.  ``columns`` is the one place a
    table's column order is spelled: the driver's ``payload[rows]`` holds
    one object per row, keyed by column name, and a CSV render writes one
    line per row in this order (a key the row lacks is an empty cell) and
    the payload keys in ``extras`` as ``# key:`` lines.  Without
    ``columns`` a CSV render writes the payload's scalars as key,value
    rows.
    """

    help: str
    format: str
    flags: tuple
    run: Callable
    min_n: tuple | None = None
    columns: tuple = ()
    rows: str = "rows"
    extras: tuple = ()


# Drivers are called by their global names, so a wrapper bound over a
# name (as a tracer does) sees the call.
STUDIES = {
    "variance-collapse": Study(
        help="raw vs conditioned target second moments across noise scales",
        format="csv",
        flags=(*_manifold_flags("sphere2"),
               _flag("--sigma", default=None,
                     help="comma-separated sigma values"),
               _flag("--sigma-grid", default=None,
                     help="grid start:stop:scale[:count], scale lin|log10"),
               _flag("--n", type=int, default=200_000,
                     help="samples per sigma"),
               _flag("--rb-subsample", type=int, default=RB_SUBSAMPLE,
                     help="foot points used for the conditioned column")),
        run=lambda a: run_variance_collapse(
            build_density(a), sigma_values(a), a.n, a.seed,
            rb_subsample=a.rb_subsample),
        min_n=(2, "a standard error needs two samples"),
        columns=("sigma", "raw_second_moment", "rb_second_moment", "raw_se",
                 "rb_se", "discards"),
        extras=("slope", "n", "rb_subsample", "smallest_sigma",
                "smallest_sigma_ratio", "score_second_moment",
                "max_rb_deviation")),
    "extrinsic-coef": Study(
        help="curvature coefficient of the sigma^2 expansion vs the operator "
             "prediction",
        format="csv",
        flags=(*_manifold_flags(None),
               _flag("--sigma", default="0.05,0.06,0.08",
                     help="comma-separated sigma values")),
        run=lambda a: run_extrinsic_coef(
            default_extrinsic_models(a.kappa) if a.manifold is None
            else [(a.manifold, build_density(a))],
            sigma_values(a)),
        columns=("manifold", "sigma", "alpha_hat", "alpha_pred",
                 "orth_residual")),
    "finite-sample": Study(
        help="kernel-regression MSE rate across sample sizes with bandwidth "
             "ablations",
        format="json",
        flags=(KAPPA,
               _flag("--sigma", default="0.1", help="noise scale"),
               _flag("--n", type=int, default=100_000,
                     help="largest sample size; the grid spans two decades "
                          "below it"),
               _flag("--repetitions", type=int, default=20,
                     help="independent repetitions per cell")),
        run=lambda a: run_finite_sample(
            kappa=a.kappa, sigma=one_sigma(a),
            n_grid=[a.n // 100, a.n // 10, a.n],
            repetitions=a.repetitions, seed=a.seed),
        min_n=(100, "the sample grid spans two decades below it"),
        columns=("mode", "n", "h", "mse", "se"),
        extras=("rate_slope", "calibrated_c", "widened", "fixed_h",
                "fixed_plateau_ratio", "fixed_over_rate_at_largest_n",
                "small_h_blowup_ratio")),
    "langevin": Study(
        help="geodesic Langevin equilibrium studies",
        format="json",
        flags=(KAPPA,
               _flag("--sigma", default="0.3",
                     help="noise scale for the drift corrections"),
               _flag("--step", type=float, default=1e-3,
                     help="integrator step size"),
               _flag("--scale", type=float, default=1.5,
                     help="drift multiplier for the equivalence study"),
               _flag("--marginal-chains", type=int, default=64),
               _flag("--marginal-steps", type=int, default=20_000),
               _flag("--debias-chains", type=int, default=512),
               _flag("--debias-steps", type=int, default=30_000),
               _flag("--scaled-chains", type=int, default=128),
               _flag("--scaled-steps", type=int, default=20_000)),
        run=lambda a: run_langevin_suite(
            sigma=one_sigma(a), kappa=a.kappa, step=a.step, seed=a.seed,
            marginal_chains=a.marginal_chains,
            marginal_steps=a.marginal_steps,
            debias_chains=a.debias_chains, debias_steps=a.debias_steps,
            scaled_chains=a.scaled_chains, scaled_steps=a.scaled_steps,
            scale=a.scale)),
    "flat-check": Study(
        help="exact flat reduction and the second-order remainder on an "
             "affine plane",
        format="json",
        flags=(_flag("--d", type=int, default=2, help="plane dimension"),
               _flag("--D", dest="ambient", type=int, default=4,
                     help="ambient dimension"),
               _flag("--tau", type=float, default=1.0,
                     help="latent Gaussian scale"),
               _flag("--sigma", default="0.1", help="noise scale"),
               _flag("--n", type=int, default=100_000, help="sample count")),
        run=lambda a: run_flat_check(
            d=a.d, ambient=a.ambient, tau=a.tau, sigma=one_sigma(a), n=a.n,
            seed=a.seed),
        min_n=(1, "the residuals are maxima over the samples"),
        columns=("field", "max_rel_residual"),
        rows="fields",
        extras=("max_rel_residual", "oracle_closed_form_error",
                "second_order_slope")),
    "geometry-check": Study(
        help="curvature identity residuals on every supported geometry",
        format="json",
        flags=(_flag("--n", type=int, default=100,
                     help="random points per manifold"),),
        run=lambda a: run_geometry_check(a.seed, a.n),
        min_n=(1, "the residuals are maxima over the points"),
        columns=("manifold", "gauss_residual", "frame_residual",
                 "closed_form_residual"),
        extras=("max_gauss_residual", "max_frame_residual",
                "max_closed_form_residual")),
    "stein-check": Study(
        help="posterior Stein identity, moment windows, and remainder "
             "plateaus",
        format="json",
        flags=(KAPPA,
               _flag("--sigma", default="0.1",
                     help="noise scale for the Stein residuals"),
               _flag("--moment-sigma", type=float, default=0.025,
                     help="small noise scale for the moment windows"),
               _flag("--n", type=int, default=100_000,
                     help="samples for the logmap comparison")),
        run=lambda a: run_stein_suite(
            sigma=one_sigma(a), moment_sigma=a.moment_sigma, kappa=a.kappa,
            logmap_n=a.n, seed=a.seed),
        min_n=(1, "the logmap comparison averages over the samples")),
    "pythagorean": Study(
        help="three-term risk decomposition and the risk-gap identity",
        format="json",
        flags=(KAPPA,
               _flag("--sigma", default="0.1", help="noise scale"),
               _flag("--n", type=int, default=100_000, help="sample count")),
        run=lambda a: run_pythagorean(
            kappa=a.kappa, sigma=one_sigma(a), n=a.n, seed=a.seed),
        min_n=(8, "the bin8 coarsening needs a calibration foot in each of "
                  "its 8 bins")),
}


# ---------------------------------------------------------------------------
# rendering and the entry point


def render(args, payload) -> str:
    """The artifact for one run; a NaN or infinity in the payload raises."""
    require_finite(payload, "results")
    config = {k: v for k, v in vars(args).items() if k != "out"}
    if args.format == "json":
        return format_json(payload, config)
    study = STUDIES[args.experiment]
    if not study.columns:
        return format_csv(["key", "value"], flatten_scalars(payload), config)
    rows = [[row.get(c) for c in study.columns]
            for row in payload[study.rows]]
    extras = {key: payload[key] for key in study.extras}
    return format_csv(study.columns, rows, config, extras)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubescore",
        description="Conditioned score targets and samplers on embedded "
                    "manifolds: reproducible experiment harness.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name, study in STUDIES.items():
        sp = sub.add_parser(name, help=study.help)
        for names, kwargs in study.flags:
            sp.add_argument(*names, **kwargs)
        sp.add_argument("--out", default=None,
                        help="output file path (stdout when omitted)")
        sp.add_argument("--format", choices=("csv", "json"),
                        default=study.format, help="output format")
        sp.add_argument("--seed", type=int, default=0, help="master seed")
    return parser


def _keep_temporaries_in_heap() -> None:
    """Fix glibc's mmap and trim thresholds at 4 and 8 MiB, so numpy's
    mid-size temporaries reuse heap pages instead of faulting in fresh
    ones.  glibc raises both only after it frees a large mapping, which
    made a study's speed depend on its allocation history.  Without them,
    over 10 alternating benchmark pairs on 2 cores, finite-sample was
    slower in every pair (median 2.18 s against 1.96 s) and oracle-sweep
    peaked higher in every pair (87.5 MB against 76.2 MB)."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(-3, 4 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 8 << 20)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_temporaries_in_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        sys.stderr.write(error_record(
            ConfigError("invalid command line arguments"), 2) + "\n")
        return 2
    try:
        check_flags(args)
        payload = STUDIES[args.experiment].run(args)
        write_text(render(args, payload), args.out)
        return 0
    except Exception as exc:
        code = (2 if isinstance(exc, CONFIG_ERRORS)
                else 3 if isinstance(exc, TubescoreError) else 1)
        sys.stderr.write(error_record(exc, code) + "\n")
        return code


if __name__ == "__main__":
    sys.exit(main())
