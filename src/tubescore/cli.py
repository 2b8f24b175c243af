"""Command-line harness: one subcommand per experiment, tabular output.

Exit codes: 0 on success, 2 for configuration problems, 3 for numeric
failures (quadrature error estimate above tolerance, step escaping the
injectivity radius, empty estimation windows).  Every failure writes a
one-line JSON error record to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .densities import IsotropicGaussian, ProductVonMises, Uniform
from .errors import (
    ConfigError,
    ManifoldMismatch,
    TubescoreError,
    UnsupportedManifold,
)
from .experiments import (
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
from .oracle import SIGMA_MAX, SIGMA_MIN
from .reporting import (
    error_record,
    flatten_scalars,
    format_csv,
    format_json,
    write_text,
)

EXPERIMENTS = ("variance-collapse", "extrinsic-coef", "finite-sample",
               "langevin", "flat-check", "geometry-check", "stein-check",
               "pythagorean")
MANIFOLD_CHOICES = ("plane", "sphere1", "sphere2", "sphere3", "sphere4",
                    "torus")
MANIFOLD_KINDS = MANIFOLD_CHOICES + ("default-set",)
DENSITY_KINDS = ("vmf", "product_vonmises", "gaussian", "uniform",
                 "default-set", "none")
CONFIG_ERRORS = (ConfigError, ManifoldMismatch, UnsupportedManifold,
                 ValueError)


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully resolved description of one experiment run.

    ``manifold`` and ``density`` are plain JSON-compatible spec
    dictionaries; ``options`` carries experiment-specific knobs so that
    the embedded config header pins down the run completely.
    """

    experiment: str
    manifold: dict
    density: dict
    sigma_grid: list
    n_samples: int
    seed: int
    out: str | None = None
    format: str = "json"
    options: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got "
                              f"{self.format!r}")
        object.__setattr__(self, "manifold",
                           _normalize_manifold(self.manifold))
        object.__setattr__(self, "density", _normalize_density(self.density))
        sigmas = [float(s) for s in self.sigma_grid]
        for s in sigmas:
            if not SIGMA_MIN <= s <= SIGMA_MAX:
                raise ConfigError(
                    f"sigma={s:g} outside the supported range "
                    f"[{SIGMA_MIN}, {SIGMA_MAX}]")
        if not sigmas and self.experiment != "geometry-check":
            raise ConfigError("at least one sigma is required")
        object.__setattr__(self, "sigma_grid", sigmas)
        n = int(self.n_samples)
        if n < 0:
            raise ConfigError("n_samples must be non-negative")
        object.__setattr__(self, "n_samples", n)
        seed = int(self.seed)
        if seed < 0:
            raise ConfigError("seed must be non-negative")
        object.__setattr__(self, "seed", seed)
        if not isinstance(self.options, dict):
            raise ConfigError("options must be a dictionary")

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "manifold": dict(self.manifold),
            "density": dict(self.density),
            "sigma_grid": list(self.sigma_grid),
            "n_samples": self.n_samples,
            "seed": self.seed,
            "out": self.out,
            "format": self.format,
            "options": dict(self.options),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        fields = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - fields
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = {"experiment", "manifold", "density", "sigma_grid",
                   "n_samples", "seed"} - set(data)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        return cls(**data)


def _normalize_manifold(spec: dict) -> dict:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("manifold spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind not in MANIFOLD_KINDS:
        raise ConfigError(f"unknown manifold kind {kind!r}")
    out = {"kind": kind}
    if kind == "torus":
        radii = [float(r) for r in spec.get("radii", (1.0, 1.0))]
        if len(radii) != 2 or min(radii) <= 0:
            raise ConfigError("torus radii must be two positive numbers")
        out["radii"] = radii
    if kind == "plane":
        d = int(spec.get("d", 2))
        ambient = int(spec.get("ambient", 4))
        if not 1 <= d < ambient:
            raise ConfigError("plane requires 1 <= d < ambient")
        if d > 4:
            raise ConfigError("plane dimensions above 4 have no quadrature "
                              "direction rule")
        out["d"], out["ambient"] = d, ambient
    return out


def _normalize_density(spec: dict) -> dict:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("density spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    if kind not in DENSITY_KINDS:
        raise ConfigError(f"unknown density kind {kind!r}")
    out = {"kind": kind}
    if kind in ("vmf", "default-set"):
        kappa = float(spec.get("kappa", 2.0))
        if kappa < 0:
            raise ConfigError("kappa must be non-negative")
        out["kappa"] = kappa
    if kind == "product_vonmises":
        kappas = [float(k) for k in spec.get("kappas", (1.5, 1.5))]
        phases = [float(p) for p in spec.get("phases", (0.0, 0.0))]
        if len(kappas) != 2 or min(kappas) < 0 or len(phases) != 2:
            raise ConfigError("product density needs two non-negative "
                              "kappas and two phases")
        out["kappas"], out["phases"] = kappas, phases
    if kind == "gaussian":
        tau = float(spec.get("tau", 1.0))
        if tau <= 0:
            raise ConfigError("tau must be positive")
        out["tau"] = tau
    return out


def build_manifold(spec: dict):
    kind = spec["kind"]
    if kind.startswith("sphere"):
        return Sphere(int(kind[len("sphere"):]))
    if kind == "torus":
        return FlatTorus(*spec["radii"])
    if kind == "plane":
        return AffinePlane.axis_aligned(spec["d"], spec["ambient"])
    raise ConfigError(f"manifold kind {kind!r} does not name one manifold")


def build_density(config: RunConfig):
    M = build_manifold(config.manifold)
    spec = config.density
    kind = spec["kind"]
    if kind == "vmf":
        if not isinstance(M, Sphere):
            raise ConfigError("the vmf density requires a sphere")
        return sphere_vmf(M.intrinsic_dim, spec["kappa"])
    if kind == "product_vonmises":
        return ProductVonMises(M, tuple(spec["kappas"]),
                               tuple(spec["phases"]))
    if kind == "gaussian":
        return IsotropicGaussian(M, np.zeros(M.intrinsic_dim), spec["tau"])
    if kind == "uniform":
        return Uniform(M)
    raise ConfigError(f"density kind {kind!r} does not name one density")


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
    return radii


def _single_sigma(sigmas: list, experiment: str) -> float:
    if len(sigmas) != 1:
        raise ConfigError(f"{experiment} takes exactly one sigma, "
                          f"got {len(sigmas)}")
    return float(sigmas[0])


def _manifold_spec_from_args(args) -> dict:
    name = args.manifold
    spec = {"kind": name}
    if name == "torus":
        spec["radii"] = parse_radii(args.radii)
    if name == "plane":
        spec["d"] = getattr(args, "d", 2)
        spec["ambient"] = getattr(args, "ambient", 4)
    return spec


def _density_spec_from_args(args) -> dict:
    name = args.manifold
    if name.startswith("sphere"):
        return {"kind": "vmf", "kappa": args.kappa}
    if name == "torus":
        return {"kind": "product_vonmises",
                "kappas": [args.kappa, args.kappa], "phases": [0.0, 0.0]}
    return {"kind": "gaussian", "tau": args.tau}


# ---------------------------------------------------------------------------
# subcommand resolution: argparse namespace -> RunConfig


def _resolve_variance(args) -> RunConfig:
    if args.sigma is not None and args.sigma_grid is not None:
        raise ConfigError("give either --sigma or --sigma-grid, not both")
    if args.sigma is not None:
        sigmas = parse_sigma_list(args.sigma)
    else:
        sigmas = parse_sigma_grid(args.sigma_grid or "0.02:0.2:log10")
    return RunConfig(
        experiment="variance-collapse",
        manifold=_manifold_spec_from_args(args),
        density=_density_spec_from_args(args),
        sigma_grid=sigmas, n_samples=args.n, seed=args.seed,
        out=args.out, format=args.format,
        options={"rb_subsample": args.rb_subsample})


def _resolve_extrinsic(args) -> RunConfig:
    sigmas = parse_sigma_list(args.sigma)
    if args.manifold is None:
        manifold = {"kind": "default-set"}
        density = {"kind": "default-set", "kappa": args.kappa}
    else:
        manifold = _manifold_spec_from_args(args)
        density = _density_spec_from_args(args)
    return RunConfig(
        experiment="extrinsic-coef", manifold=manifold, density=density,
        sigma_grid=sigmas, n_samples=0, seed=args.seed,
        out=args.out, format=args.format, options={})


def _resolve_finite_sample(args) -> RunConfig:
    if args.n < 100:
        raise ConfigError("finite-sample needs --n of at least 100 (the "
                          "sample grid spans two decades below it)")
    return RunConfig(
        experiment="finite-sample",
        manifold={"kind": "sphere2"},
        density={"kind": "vmf", "kappa": args.kappa},
        sigma_grid=[_single_sigma(parse_sigma_list(args.sigma),
                                  "finite-sample")],
        n_samples=args.n, seed=args.seed,
        out=args.out, format=args.format,
        options={"repetitions": args.repetitions,
                 "n_grid": [args.n // 100, args.n // 10, args.n]})


def _resolve_langevin(args) -> RunConfig:
    return RunConfig(
        experiment="langevin",
        manifold={"kind": "default-set"},
        density={"kind": "vmf", "kappa": args.kappa},
        sigma_grid=[_single_sigma(parse_sigma_list(args.sigma), "langevin")],
        n_samples=0, seed=args.seed,
        out=args.out, format=args.format,
        options={"step": args.step,
                 "marginal_chains": args.marginal_chains,
                 "marginal_steps": args.marginal_steps,
                 "debias_chains": args.debias_chains,
                 "debias_steps": args.debias_steps,
                 "scaled_chains": args.scaled_chains,
                 "scaled_steps": args.scaled_steps,
                 "scale": args.scale})


def _resolve_flat(args) -> RunConfig:
    return RunConfig(
        experiment="flat-check",
        manifold={"kind": "plane", "d": args.d, "ambient": args.ambient},
        density={"kind": "gaussian", "tau": args.tau},
        sigma_grid=[_single_sigma(parse_sigma_list(args.sigma),
                                  "flat-check")],
        n_samples=args.n, seed=args.seed,
        out=args.out, format=args.format, options={})


def _resolve_geometry(args) -> RunConfig:
    return RunConfig(
        experiment="geometry-check",
        manifold={"kind": "default-set"}, density={"kind": "none"},
        sigma_grid=[], n_samples=args.n, seed=args.seed,
        out=args.out, format=args.format, options={})


def _resolve_stein(args) -> RunConfig:
    return RunConfig(
        experiment="stein-check",
        manifold={"kind": "default-set"},
        density={"kind": "vmf", "kappa": args.kappa},
        sigma_grid=[_single_sigma(parse_sigma_list(args.sigma),
                                  "stein-check")],
        n_samples=args.n, seed=args.seed,
        out=args.out, format=args.format,
        options={"moment_sigma": args.moment_sigma})


def _resolve_pythagorean(args) -> RunConfig:
    return RunConfig(
        experiment="pythagorean",
        manifold={"kind": "sphere2"},
        density={"kind": "vmf", "kappa": args.kappa},
        sigma_grid=[_single_sigma(parse_sigma_list(args.sigma),
                                  "pythagorean")],
        n_samples=args.n, seed=args.seed,
        out=args.out, format=args.format, options={})


RESOLVERS = {
    "variance-collapse": _resolve_variance,
    "extrinsic-coef": _resolve_extrinsic,
    "finite-sample": _resolve_finite_sample,
    "langevin": _resolve_langevin,
    "flat-check": _resolve_flat,
    "geometry-check": _resolve_geometry,
    "stein-check": _resolve_stein,
    "pythagorean": _resolve_pythagorean,
}


# ---------------------------------------------------------------------------
# experiment dispatch: RunConfig -> (payload, optional table)


def _rows_from_dicts(columns, row_dicts):
    return [[row.get(col) for col in columns] for row in row_dicts]


def _run_variance(config: RunConfig):
    q = build_density(config)
    payload = run_variance_collapse(
        q, config.sigma_grid, config.n_samples, config.seed,
        rb_subsample=config.options.get("rb_subsample", 20_000))
    extras = {k: payload[k] for k in
              ("slope", "n", "rb_subsample", "smallest_sigma",
               "smallest_sigma_ratio", "score_second_moment",
               "max_rb_deviation")}
    return payload, (payload["columns"], payload["rows"], extras)


def _run_extrinsic(config: RunConfig):
    if config.manifold["kind"] == "default-set":
        models = default_extrinsic_models(config.density["kappa"])
    else:
        models = [(config.manifold["kind"], build_density(config))]
    payload = run_extrinsic_coef(models, config.sigma_grid)
    rows = _rows_from_dicts(payload["columns"], payload["rows"])
    return payload, (payload["columns"], rows, {})


def _run_finite_sample(config: RunConfig):
    payload = run_finite_sample(
        kappa=config.density["kappa"],
        sigma=config.sigma_grid[0],
        n_grid=config.options["n_grid"],
        repetitions=config.options["repetitions"],
        seed=config.seed)
    rows = _rows_from_dicts(payload["columns"], payload["rows"])
    extras = {k: payload[k] for k in
              ("rate_slope", "calibrated_c", "widened", "fixed_h",
               "fixed_plateau_ratio", "fixed_over_rate_at_largest_n",
               "small_h_blowup_ratio")}
    return payload, (payload["columns"], rows, extras)


def _run_langevin(config: RunConfig):
    opts = config.options
    payload = run_langevin_suite(
        sigma=config.sigma_grid[0], kappa=config.density["kappa"],
        step=opts["step"], seed=config.seed,
        marginal_chains=opts["marginal_chains"],
        marginal_steps=opts["marginal_steps"],
        debias_chains=opts["debias_chains"],
        debias_steps=opts["debias_steps"],
        scaled_chains=opts["scaled_chains"],
        scaled_steps=opts["scaled_steps"],
        scale=opts["scale"])
    return payload, None


def _run_flat(config: RunConfig):
    payload = run_flat_check(
        d=config.manifold["d"], ambient=config.manifold["ambient"],
        tau=config.density["tau"], sigma=config.sigma_grid[0],
        n=config.n_samples, seed=config.seed)
    extras = {k: payload[k] for k in
              ("max_rel_residual", "oracle_closed_form_error",
               "second_order_slope")}
    rows = [[f["field"], f["max_rel_residual"]] for f in payload["fields"]]
    return payload, (["field", "max_rel_residual"], rows, extras)


def _run_geometry(config: RunConfig):
    payload = run_geometry_check(config.seed, config.n_samples)
    columns = ["manifold", "gauss_residual", "frame_residual",
               "closed_form_residual"]
    rows = _rows_from_dicts(columns, payload["rows"])
    extras = {k: payload[k] for k in
              ("max_gauss_residual", "max_frame_residual",
               "max_closed_form_residual")}
    return payload, (columns, rows, extras)


def _run_stein(config: RunConfig):
    payload = run_stein_suite(
        sigma=config.sigma_grid[0],
        moment_sigma=config.options.get("moment_sigma", 0.025),
        kappa=config.density["kappa"],
        logmap_n=config.n_samples, seed=config.seed)
    return payload, None


def _run_pythagorean(config: RunConfig):
    payload = run_pythagorean(
        kappa=config.density["kappa"], sigma=config.sigma_grid[0],
        n=config.n_samples, seed=config.seed)
    return payload, None


DISPATCH = {
    "variance-collapse": _run_variance,
    "extrinsic-coef": _run_extrinsic,
    "finite-sample": _run_finite_sample,
    "langevin": _run_langevin,
    "flat-check": _run_flat,
    "geometry-check": _run_geometry,
    "stein-check": _run_stein,
    "pythagorean": _run_pythagorean,
}


def run(config: RunConfig) -> str:
    """Execute one experiment and return the rendered document."""
    payload, table = DISPATCH[config.experiment](config)
    # the destination cannot affect results, so it is blanked in the
    # embedded header: renders stay byte-identical wherever they land
    doc_cfg = config.to_dict()
    doc_cfg["out"] = None
    if config.format == "json":
        return format_json(payload, doc_cfg)
    if table is not None:
        columns, rows, extras = table
        return format_csv(columns, rows, doc_cfg, extras)
    kv = flatten_scalars(payload)
    return format_csv(["key", "value"], kv, doc_cfg, {})


# ---------------------------------------------------------------------------
# argument parser


def _add_output_flags(sp, default_format: str):
    sp.add_argument("--out", default=None,
                    help="output file path (stdout when omitted)")
    sp.add_argument("--format", choices=("csv", "json"),
                    default=default_format, help="output format")
    sp.add_argument("--seed", type=int, default=0, help="master seed")


def _add_manifold_flags(sp, *, required_choice=True):
    sp.add_argument("--manifold", choices=MANIFOLD_CHOICES,
                    default="sphere2" if required_choice else None,
                    help="geometry to run on")
    sp.add_argument("--kappa", type=float, default=2.0,
                    help="density concentration")
    sp.add_argument("--tau", type=float, default=1.0,
                    help="Gaussian scale for plane densities")
    sp.add_argument("--radii", default="1.0,1.0",
                    help="torus radii as R1,R2")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubescore",
        description="Conditioned score targets and samplers on embedded "
                    "manifolds: reproducible experiment harness.")
    sub = parser.add_subparsers(dest="experiment", required=True)

    sp = sub.add_parser("variance-collapse",
                        help="raw vs conditioned target second moments "
                             "across noise scales")
    _add_manifold_flags(sp)
    sp.add_argument("--sigma", default=None,
                    help="comma-separated sigma values")
    sp.add_argument("--sigma-grid", default=None,
                    help="grid start:stop:scale[:count], scale lin|log10")
    sp.add_argument("--n", type=int, default=200_000,
                    help="samples per sigma")
    sp.add_argument("--rb-subsample", type=int, default=20_000,
                    help="foot points used for the conditioned column")
    _add_output_flags(sp, "csv")

    sp = sub.add_parser("extrinsic-coef",
                        help="curvature coefficient of the sigma^2 "
                             "expansion vs the operator prediction")
    _add_manifold_flags(sp, required_choice=False)
    sp.add_argument("--sigma", default="0.05,0.06,0.08",
                    help="comma-separated sigma values")
    _add_output_flags(sp, "csv")

    sp = sub.add_parser("finite-sample",
                        help="kernel-regression MSE rate across sample "
                             "sizes with bandwidth ablations")
    sp.add_argument("--kappa", type=float, default=2.0)
    sp.add_argument("--sigma", default="0.1", help="noise scale")
    sp.add_argument("--n", type=int, default=100_000,
                    help="largest sample size; the grid spans two decades "
                         "below it")
    sp.add_argument("--repetitions", type=int, default=20,
                    help="independent repetitions per cell")
    _add_output_flags(sp, "json")

    sp = sub.add_parser("langevin",
                        help="geodesic Langevin equilibrium studies")
    sp.add_argument("--kappa", type=float, default=2.0)
    sp.add_argument("--sigma", default="0.3",
                    help="noise scale for the drift corrections")
    sp.add_argument("--step", type=float, default=1e-3,
                    help="integrator step size")
    sp.add_argument("--scale", type=float, default=1.5,
                    help="drift multiplier for the equivalence study")
    sp.add_argument("--marginal-chains", type=int, default=64)
    sp.add_argument("--marginal-steps", type=int, default=20_000)
    sp.add_argument("--debias-chains", type=int, default=512)
    sp.add_argument("--debias-steps", type=int, default=30_000)
    sp.add_argument("--scaled-chains", type=int, default=128)
    sp.add_argument("--scaled-steps", type=int, default=20_000)
    _add_output_flags(sp, "json")

    sp = sub.add_parser("flat-check",
                        help="exact flat reduction and the second-order "
                             "remainder on an affine plane")
    sp.add_argument("--d", type=int, default=2, help="plane dimension")
    sp.add_argument("--D", dest="ambient", type=int, default=4,
                    help="ambient dimension")
    sp.add_argument("--tau", type=float, default=1.0,
                    help="latent Gaussian scale")
    sp.add_argument("--sigma", default="0.1", help="noise scale")
    sp.add_argument("--n", type=int, default=100_000, help="sample count")
    _add_output_flags(sp, "json")

    sp = sub.add_parser("geometry-check",
                        help="curvature identity residuals on every "
                             "supported geometry")
    sp.add_argument("--n", type=int, default=100,
                    help="random points per manifold")
    _add_output_flags(sp, "json")

    sp = sub.add_parser("stein-check",
                        help="posterior Stein identity, moment windows, "
                             "and remainder plateaus")
    sp.add_argument("--kappa", type=float, default=2.0)
    sp.add_argument("--sigma", default="0.1",
                    help="noise scale for the Stein residuals")
    sp.add_argument("--moment-sigma", type=float, default=0.025,
                    help="small noise scale for the moment windows")
    sp.add_argument("--n", type=int, default=100_000,
                    help="samples for the logmap comparison")
    _add_output_flags(sp, "json")

    sp = sub.add_parser("pythagorean",
                        help="three-term risk decomposition and the "
                             "risk-gap identity")
    sp.add_argument("--kappa", type=float, default=2.0)
    sp.add_argument("--sigma", default="0.1", help="noise scale")
    sp.add_argument("--n", type=int, default=100_000, help="sample count")
    _add_output_flags(sp, "json")

    return parser


def main(argv=None) -> int:
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
        config = RESOLVERS[args.experiment](args)
        text = run(config)
        write_text(text, config.out)
        return 0
    except CONFIG_ERRORS as exc:
        sys.stderr.write(error_record(exc, 2) + "\n")
        return 2
    except TubescoreError as exc:
        sys.stderr.write(error_record(exc, 3) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
