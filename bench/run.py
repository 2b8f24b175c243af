"""Benchmark of the tubescore CLI studies.

Usage, from the root of a checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0

Workloads are defined in ``bench/workloads.py``.  One pass runs all of a
workload's ops in a fresh child interpreter.  Passes repeat until
``--seconds`` have elapsed; at least one runs.  Every artifact is checked
against the acceptance tolerances and hashed: passes of one source tree and
seed must write identical bytes.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end figures: ``wall_s`` (median pass time),
``setup_s`` (median time for a fresh interpreter to import tubescore and
build the CLI parser, with its bytecode cached) and ``peak_rss_mb`` (median
peak memory of a pass).
With ``--trace 1`` each untraced pass is paired with a traced one, and the
metrics are the per-layer figures of the traced passes, the CPU time of the
untraced ones and the tracing overhead.

Scratch files go to ``.bench_out/`` in the checkout: per-run records with
the environment, and the artifact hashes of each source tree.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_REPEATS = 5
SETUP_SNIPPET = ("import sys, tubescore.cli; tubescore.cli.build_parser(); "
                 "sys.exit(not tubescore.__file__.startswith(sys.argv[1]))")
# per-layer figures taken from the passes rather than from the tracer
RUN_LAYER_METRICS = ("process.cpu_s", "tracer.overhead_s",
                     "ops.failed_share", "ops.refused_share")
LAYER_UNITS = (("_us", "us"), ("per_s", "1/s"), ("_share", "ratio"),
               ("_s", "s"), ("_mb", "MB"), ("bytes", "bytes"))


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a child crashed)."""


def unit_of(name: str) -> str:
    for suffix, unit in LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"


def source_fingerprint(src: str) -> str:
    """Hash of every file of the package, standing in for the commit."""
    digest = hashlib.sha256()
    pkg = os.path.join(src, "tubescore")
    for base, dirs, files in sorted(os.walk(pkg)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_sha(root: str):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


class Bench:
    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "tubescore", "cli.py")):
            raise BenchError(f"no tubescore sources under {self.src}")
        self.workload = workload
        self.seed = seed
        self.ops = workloads.build(workload, seed)
        self.scratch = os.path.join(root, ".bench_out")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [self.src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        # bytecode goes to the scratch folder, not the source tree; Python
        # recompiles a module there whenever its source changes
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(self.scratch,
                                                       "pycache")
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.fingerprint = source_fingerprint(self.src)
        self.hashes_path = os.path.join(self.scratch, "hashes.json")
        try:
            with open(self.hashes_path) as fh:
                self.store = json.load(fh)
        except (OSError, ValueError):
            self.store = {}
        # artifact digests of this source tree, by op and arguments (the
        # seed among them); every pass of the same op must reproduce them
        self.hashes = self.store.setdefault(self.fingerprint, {})
        self.outcomes = []          # (op name, status, detail) per op run

    # ---- set-up cost -----------------------------------------------------

    def setup_seconds(self) -> list[float]:
        """Import times of fresh interpreters, after one untimed import
        that fills the bytecode cache, as a user's first run does once."""
        times = []
        for _ in range(SETUP_REPEATS + 1):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_SNIPPET, self.src + os.sep],
                cwd=self.root, env=self.env, capture_output=True,
                timeout=120)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise BenchError("importing tubescore from the checkout "
                                 f"failed: {proc.stderr.decode()[-500:]}")
        return times[1:]

    # ---- passes ----------------------------------------------------------

    def run_pass(self, traced: bool, index: int) -> dict:
        outdir = os.path.join(self.scratch, "work",
                              f"{os.getpid()}-{index}-{int(traced)}")
        os.makedirs(outdir, exist_ok=True)
        report_path = os.path.join(outdir, "report.json")
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), report_path,
             self.workload, str(self.seed), str(int(traced)), outdir],
            cwd=self.root, env=self.env, capture_output=True, timeout=170)
        if proc.returncode != 0 or not os.path.exists(report_path):
            raise BenchError(f"child pass exited {proc.returncode}: "
                             f"{proc.stderr.decode()[-2000:]}")
        with open(report_path) as fh:
            report = json.load(fh)
        for op, rec in zip(self.ops, report["ops"]):
            self.judge(op, rec)
        shutil.rmtree(outdir)
        return report

    def judge(self, op, rec) -> None:
        """Record ok / refused / failed for one op run."""
        status, detail, digest = "failed", None, None
        if rec["exit_code"] == 0:
            try:
                with open(rec["artifact"], "rb") as fh:
                    data = fh.read()
                digest = hashlib.sha256(data).hexdigest()
                problems = op.check(
                    workloads.parse_artifact(data.decode(), op.fmt))
            except (OSError, ValueError, KeyError, TypeError,
                    IndexError) as exc:
                problems = [f"unreadable artifact: {exc!r}"]
            status = "failed" if problems else "ok"
            detail = "; ".join(problems) or None
        elif (rec["exit_code"] == 3 and op.refusal is not None
              and rec["error"] == op.refusal):
            status, detail = "refused", rec["error"]
            digest = hashlib.sha256(rec["stderr"].encode()).hexdigest()
        else:
            detail = (f"exit {rec['exit_code']}: "
                      f"{rec['error'] or rec['stderr'][-300:]}")
        if digest is not None:
            key = f"{op.name}: {' '.join(op.argv)}"
            if self.hashes.setdefault(key, digest) != digest:
                status, detail = "failed", ("output differs from an earlier "
                                            "pass with the same seed")
        self.outcomes.append((op.name, status, detail))

    def save_hashes(self) -> None:
        os.makedirs(self.scratch, exist_ok=True)
        tmp = self.hashes_path + f".{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(self.store, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.hashes_path)

    def run(self, seconds: float, trace: bool) -> dict:
        setup = self.setup_seconds()
        plain, traced = [], []
        start = time.perf_counter()
        while not plain or time.perf_counter() - start < seconds:
            plain.append(self.run_pass(False, len(plain)))
            if trace:
                traced.append(self.run_pass(True, len(traced)))
        self.save_hashes()
        return self.summarize(setup, plain, traced)

    # ---- results -----------------------------------------------------------

    def summarize(self, setup, plain, traced) -> dict:
        med = statistics.median
        walls = [r["wall_s"] for r in plain]
        attempted = len(self.outcomes)
        failed = sum(1 for _, s, _ in self.outcomes if s == "failed")
        refused = sum(1 for _, s, _ in self.outcomes if s == "refused")
        if traced:
            names = traced[0]["layers"]
            values = {n: med(r["layers"][n] for r in traced) for n in names}
            values.update(zip(RUN_LAYER_METRICS, (
                med(r["cpu_s"] for r in plain),
                med(r["wall_s"] for r in traced) - med(walls),
                failed / attempted,
                refused / attempted)))
            metrics = {n: {"value": v, "unit": unit_of(n)}
                       for n, v in values.items()}
        else:
            metrics = {
                "wall_s": {"value": med(walls), "unit": "s"},
                "setup_s": {"value": med(setup), "unit": "s"},
                "peak_rss_mb": {"value": med(r["peak_rss_mb"] for r in plain),
                                "unit": "MB"},
            }
        return {
            "workload": self.workload, "seed": self.seed,
            "passes": len(plain), "traced_passes": len(traced),
            "walls": walls, "traced_walls": [r["wall_s"] for r in traced],
            "setup_runs": setup,
            "attempted": attempted, "failed": failed, "refused": refused,
            "outcomes": [o for o in self.outcomes if o[1] != "ok"],
            "metrics": metrics,
            "env": dict(plain[0]["env"], git_sha=git_sha(self.root),
                        source_fingerprint=self.fingerprint),
        }


def print_summary(res: dict) -> None:
    print(f"workload {res['workload']}  seed {res['seed']}  passes "
          f"{res['passes']} untraced, {res['traced_passes']} traced")
    print(f"  pass wall times: untraced {res['walls']} s, "
          f"traced {res['traced_walls']} s")
    for name, m in res["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_share':32s} {res['failed'] / res['attempted']:14.6g} "
          f"ratio  ({res['failed']} of {res['attempted']} ops failed, "
          f"{res['refused']} refused)")
    for name, status, detail in res["outcomes"]:
        print(f"    {status}: {name}: {detail}")
    print("  env " + json.dumps(res["env"], sort_keys=True))


def write_record(root: str, res: dict, trace: bool) -> None:
    folder = os.path.join(root, ".bench_out", "results")
    os.makedirs(folder, exist_ok=True)
    path = os.path.join(
        folder, f"{res['workload']}-seed{res['seed']}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    root = os.getcwd()
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            res = Bench(root, name, args.seed).run(args.seconds,
                                                   bool(args.trace))
            write_record(root, res, bool(args.trace))
            print_summary(res)
            results.append(res)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    final = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": (results[0]["metrics"] if len(results) == 1 else
                    {f"{r['workload']}.{n}": m for r in results
                     for n, m in r["metrics"].items()}),
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
