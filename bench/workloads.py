"""The benchmark's workloads: CLI study invocations and their correctness gates.

An op is one ``tubescore`` subcommand run in-process through
``tubescore.cli.main``.  Each op's ``--seed`` is derived from the workload
seed, so one workload seed fixes every input.  Each op carries a check that
applies the tolerances of ``tests/test_acceptance.py`` to the artifact it
wrote, at the benchmark's own sizes.

Why each workload exists (the layer it loads, and the one it leaves idle):

* ``pythagorean``: one oracle serves about eight query batches over two
  datasets, so every foot point is queried several times; the oracle takes
  nearly all the time.  Evaluating the oracle once per dataset shows here.
* ``oracle-sweep``: every oracle path (sphere grid, generic grid, plane box,
  fiber posterior) once, each on a fresh oracle whose queries never repeat,
  plus the S^3 study at generic feet that the grid quadrature cannot settle.
  Oracle construction, resolution checks and grid memory show here; query
  deduplication does not.
* ``finite-sample``: local averaging with parallel transport and hundreds of
  ``corrupt`` calls; the oracle answers only eight probes.
* ``langevin``: geodesic Langevin chains; no oracle queries, no ``corrupt``.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Op:
    """One study invocation.

    ``refusal`` names the error class the program may report (exit 3) in
    place of an artifact because of a known defect; such an outcome is
    counted as refused rather than failed, and any other error fails.
    """

    name: str
    argv: tuple[str, ...]
    fmt: str
    check: Callable[[object], list[str]]
    refusal: str | None = None


def op_seed(seed: int, name: str) -> int:
    """Stable per-op seed derived from the workload seed."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).hexdigest()
    return int(digest[:8], 16)


# ---- artifact parsing -------------------------------------------------------


def parse_artifact(text: str, fmt: str):
    """JSON artifacts give their ``results``; CSV ones (extras, rows)."""
    if fmt == "json":
        return json.loads(text)["results"]
    extras, columns, rows = {}, None, []
    for line in text.strip().split("\n"):
        if line.startswith("# config:") or line.startswith("# tubescore"):
            continue
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            extras[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(dict(zip(columns, line.split(","))))
    return {"extras": extras, "columns": columns, "rows": rows}


def _within(problems, label, value, lo=-math.inf, hi=math.inf):
    value = float(value)
    if not lo <= value <= hi:
        problems.append(f"{label}={value:.6g} outside [{lo:g}, {hi:g}]")


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}={got!r}, expected {want!r}")


# ---- checks: tolerances from tests/test_acceptance.py -----------------------


def check_pythagorean(res) -> list[str]:
    p = []
    _expect(p, "coarsenings", set(res["coarsenings"]),
            {"identity", "constant", "bin8"})
    _expect(p, "pythagorean", set(res["pythagorean"]), {"zero", "twice_score"})
    for block in ("coarsenings", "pythagorean"):
        for name, stats in res[block].items():
            _within(p, f"{block}.{name}.gap_over_se", stats["gap_over_se"],
                    hi=3.0)
    return p


def check_variance(n_sigmas: int, smallest: float):
    def check(art) -> list[str]:
        p = []
        ex = art["extras"]
        _expect(p, "columns", art["columns"],
                ["sigma", "raw_second_moment", "rb_second_moment", "raw_se",
                 "rb_se", "discards"])
        _expect(p, "rows", len(art["rows"]), n_sigmas)
        _within(p, "smallest_sigma", ex["smallest_sigma"],
                smallest * (1 - 1e-9), smallest * (1 + 1e-9))
        _within(p, "slope", ex["slope"], -2.1, -1.9)
        _within(p, "smallest_sigma_ratio", ex["smallest_sigma_ratio"],
                0.9, 1.1)
        _within(p, "max_rb_deviation", ex["max_rb_deviation"], hi=0.15)
        return p
    return check


def check_extrinsic(art) -> list[str]:
    p = []
    table = {(r["manifold"], float(r["sigma"])):
             (float(r["alpha_hat"]), float(r["alpha_pred"]))
             for r in art["rows"]}
    manifolds = {"sphere1", "sphere2", "sphere3", "torus_1_1"}
    _expect(p, "manifolds", {m for m, _ in table}, manifolds)
    if p:
        return p
    for (name, sig), (alpha_hat, alpha_pred) in table.items():
        if name == "sphere2":
            _within(p, f"{name}@{sig}.alpha_hat", abs(alpha_hat), hi=0.15)
        else:
            _within(p, f"{name}@{sig}.alpha_error",
                    abs(alpha_hat - alpha_pred), hi=0.15)
    for name in manifolds:
        lo = abs(table[(name, 0.05)][0] - table[(name, 0.05)][1])
        hi = abs(table[(name, 0.08)][0] - table[(name, 0.08)][1])
        _within(p, f"{name}.error_growth", lo - hi, hi=0.05)
    return p


def check_flat(res) -> list[str]:
    p = []
    _expect(p, "fields", len(res["fields"]), 5)
    _within(p, "max_rel_residual", res["max_rel_residual"], hi=1e-12)
    _within(p, "oracle_closed_form_error", res["oracle_closed_form_error"],
            hi=1e-6)
    sigmas = res["second_order_sigmas"]
    _within(p, "min_sigma", min(sigmas), 0.05 - 1e-9, 0.05 + 1e-9)
    _within(p, "max_sigma", max(sigmas), 0.4 - 1e-9, 0.4 + 1e-9)
    _within(p, "second_order_slope", res["second_order_slope"], lo=3.8)
    return p


def check_stein(res) -> list[str]:
    p = []
    _within(p, "stein_residual_sphere1", res["stein_residual_sphere1"],
            hi=1e-5)
    _within(p, "stein_residual_sphere2", res["stein_residual_sphere2"],
            hi=1e-4)
    moments = res["second_moment_over_sigma2"]
    _within(p, "moment.sphere1", moments["sphere1"], 0.8, 1.2)
    _within(p, "moment.sphere2", moments["sphere2"], 1.6, 2.4)
    _within(p, "chord_plateau_factor", res["chord_plateau_factor"], hi=1.5)
    _within(p, "logmap_plateau_factor", res["logmap_plateau_factor"], hi=1.5)
    return p


def check_finite_sample(n: int, repetitions: int):
    def check(res) -> list[str]:
        p = []
        _expect(p, "n_grid", res["n_grid"], [n // 100, n // 10, n])
        _expect(p, "repetitions", res["repetitions"], repetitions)
        _within(p, "rate_slope", res["rate_slope"], -0.7, -0.3)
        _within(p, "fixed_plateau_ratio", res["fixed_plateau_ratio"], lo=0.6)
        _within(p, "fixed_over_rate_at_largest_n",
                res["fixed_over_rate_at_largest_n"], lo=1.5)
        _within(p, "small_h_blowup_ratio", res["small_h_blowup_ratio"],
                lo=2.0)
        return p
    return check


def check_langevin(res) -> list[str]:
    p = []
    _within(p, "marginal.n_kept", res["marginal"]["n_kept"], lo=200_000)
    _within(p, "marginal.ks", res["marginal"]["ks"], hi=0.05)
    upper = res["debias"]["bootstrap_ci"][1]
    if not upper < 0.0:
        p.append(f"debias.bootstrap_ci upper={upper:.6g} is not below 0")
    _within(p, "scaled.two_sample_ks", res["scaled"]["two_sample_ks"],
            hi=0.03)
    return p


# ---- workloads ----------------------------------------------------------------

# n=10k keeps the oracle above 90 % of the pythagorean wall time while a
# pass stays near 10 s; finite-sample runs at its acceptance sizes
PYTHAGOREAN_N = 10_000
FINITE_N, FINITE_REPS = 100_000, 20


def _ops(seed: int, specs) -> list[Op]:
    out = []
    for name, argv, fmt, check, *refusal in specs:
        argv = (*argv, "--seed", str(op_seed(seed, name)), "--format", fmt)
        out.append(Op(name, argv, fmt, check, *refusal))
    return out


def build(workload: str, seed: int) -> list[Op]:
    """The ops of ``workload`` under workload seed ``seed``."""
    if workload == "pythagorean":
        return _ops(seed, [
            ("pythagorean", ("pythagorean", "--kappa", "2", "--sigma", "0.1",
                             "--n", str(PYTHAGOREAN_N)),
             "json", check_pythagorean)])
    if workload == "oracle-sweep":
        return _ops(seed, [
            ("variance-sphere2",
             ("variance-collapse", "--manifold", "sphere2", "--kappa", "2",
              "--sigma-grid", "0.02:0.2:log10", "--n", "50000",
              "--rb-subsample", "2000"),
             "csv", check_variance(8, 0.02)),
            ("extrinsic-coef", ("extrinsic-coef", "--sigma", "0.05,0.06,0.08"),
             "csv", check_extrinsic),
            ("flat-check", ("flat-check", "--d", "2", "--D", "4", "--tau",
                            "1.0", "--sigma", "0.1", "--n", "100000"),
             "json", check_flat),
            ("stein-check", ("stein-check", "--sigma", "0.1",
                             "--moment-sigma", "0.025", "--n", "100000"),
             "json", check_stein),
            # generic feet on S^3: the grid quadrature would need 63M nodes
            # there and raises QuadratureNotConverged; the op stays so that
            # a quadrature that settles at generic points shows up here
            ("variance-sphere3",
             ("variance-collapse", "--manifold", "sphere3", "--kappa", "2",
              "--sigma", "0.05,0.1", "--n", "20000", "--rb-subsample", "500"),
             "csv", check_variance(2, 0.05), "QuadratureNotConverged"),
        ])
    if workload == "finite-sample":
        # the smallest undersized bandwidth (a quarter of the pilot at the
        # smallest n) leaves some probe window empty even after its one
        # doubling on about 1 workload seed in 100 (126 and 297 among
        # 0-299; 2 of 40 random ones), and the study stops with EmptyWindow;
        # that is counted as refused, at the acceptance sizes, so that a fix
        # shows here
        return _ops(seed, [
            ("finite-sample", ("finite-sample", "--n", str(FINITE_N),
                               "--repetitions", str(FINITE_REPS)),
             "json", check_finite_sample(FINITE_N, FINITE_REPS),
             "EmptyWindow")])
    if workload == "langevin":
        # acceptance sizes except four times the debias chains: the
        # bootstrap interval of the debiasing gain reached above zero on 1
        # of 10 benchmark seeds at the acceptance size (512 chains) and on
        # 1 of 30 at 1024 (seed 17, upper +3.8e-4, which 2048 chains bring
        # to -9.3e-3); four times the chains halves the interval
        return _ops(seed, [
            ("langevin", ("langevin", "--debias-chains", "2048"), "json",
             check_langevin)])
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("pythagorean", "oracle-sweep", "finite-sample", "langevin")
