"""Tests of the benchmark's own code: span arithmetic, patching, op outcomes.

Run with ``python3 -m pytest bench/tests`` from the repository root.
"""
import inspect
import json
import os
import sys

import pytest

import child
import run
import workloads
from conftest import ROOT
from tracer import END, NAME, PARENT, START, Tracer, busy_time, self_times


def span(name, layer, start, end, parent=None):
    return [name, layer, start, end, parent]


def test_self_time_subtracts_children_at_every_depth():
    spans = [span("a", "x", 0.0, 10.0),
             span("b", "y", 1.0, 3.0, 0),
             span("c", "z", 1.5, 2.0, 1),
             span("d", "y", 4.0, 6.0, 0)]
    assert self_times(spans) == pytest.approx([6.0, 1.5, 0.5, 2.0])


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", "x", 0.0, 10.0),
             span("b", "y", 1.0, 5.0, 0),
             span("c", "y", 3.0, 7.0, 0),
             span("d", "y", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_busy_time_counts_nested_spans_of_a_layer_once():
    spans = [span("a", "oracle", 0.0, 10.0),
             span("b", "oracle", 1.0, 3.0, 0),
             span("c", "geometry", 4.0, 6.0, 0),
             span("d", "oracle", 4.5, 5.0, 2),
             span("e", "oracle", 11.0, 12.0)]
    assert busy_time(spans, lambda s: s[1] == "oracle") == pytest.approx(11.0)
    assert busy_time(spans, lambda s: s[1] == "geometry") == pytest.approx(2.0)


def _bindings():
    """Identity of every attribute of every tubescore module and class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "tubescore" or name.startswith("tubescore."):
            for key, val in vars(mod).items():
                out[(name, key)] = id(val)
                if inspect.isclass(val):
                    for attr, raw in vars(val).items():
                        out[(name, key, attr)] = id(raw)
    return out


def test_uninstall_restores_every_binding():
    import tubescore.cli  # noqa: F401  (loads every layer)
    from tubescore import estimators, experiments, targets
    from tubescore.geometry import Sphere

    before = _bindings()
    corrupt, exp_batch = targets.corrupt, Sphere.exp_batch
    with Tracer() as t:
        assert targets.corrupt is not corrupt
        assert experiments.corrupt is targets.corrupt
        assert estimators.corrupt is targets.corrupt
        assert Sphere.exp_batch is not exp_batch
        experiments.sphere_vmf(2, 2.0)
    assert _bindings() == before
    assert targets.corrupt is corrupt and Sphere.exp_batch is exp_batch
    recorded = len(t.spans)
    experiments.sphere_vmf(2, 2.0)
    assert len(t.spans) == recorded


def test_spans_record_their_parent():
    from tubescore import experiments

    with Tracer() as t:
        experiments.sphere_vmf(2, 2.0)
    names = [s[NAME] for s in t.spans]
    top = names.index("experiments.sphere_vmf")
    init = names.index("densities.VonMisesFisher.__init__")
    assert t.spans[top][PARENT] is None
    assert t.spans[init][PARENT] == top
    assert all(s[END] >= s[START] for s in t.spans)
    assert t.metrics()["densities.inits"] == 1


def test_traced_run_counts_oracle_queries_and_draws():
    import numpy as np
    from tubescore import experiments, targets
    from tubescore.oracle import RBOracle

    q = experiments.sphere_vmf(2, 2.0)
    with Tracer() as t:
        batch = targets.corrupt(q, 0.1, 200, 0)
        oracle = RBOracle(q, 0.1)
        oracle.target_coords(batch.foot[:50])
        oracle.target_coords(batch.foot[:50])
    m = t.metrics()
    assert m["targets.draws"] == 200
    assert m["oracle.instances"] == 1
    assert m["oracle.queries"] == 100
    assert m["oracle.distinct_share"] == pytest.approx(0.5)
    assert m["oracle.nodes_per_query"] > 0
    assert m["oracle.query_us"] > 0
    assert np.isfinite(list(m.values())).all()


def test_refused_oracle_call_counts_no_queries():
    import numpy as np

    def refuse(oracle, queries):
        raise ValueError("quadrature did not converge")

    t = Tracer()
    traced = t.wrap(refuse, "oracle.RBOracle.target_coords", "oracle")
    with pytest.raises(ValueError):
        traced(object(), np.zeros((4, 3)))
    m = t.metrics()
    assert len(t.spans) == 1
    assert m["oracle.queries"] == 0
    assert m["oracle.first_call_s"] == 0.0


def _bench():
    bench = run.Bench(ROOT, "pythagorean", 0)
    bench.hashes = {}       # independent of digests stored by earlier runs
    return bench


def _bad_op(refusal=None):
    return workloads.Op("bad", ("variance-collapse", "--sigma", "0.001"),
                        "csv", lambda art: [], refusal)


def test_failing_op_is_counted_not_raised(tmp_path):
    rec = child.run_op(_bad_op(), str(tmp_path))
    assert rec["exit_code"] == 2
    assert rec["error"] == "ConfigError"
    bench = _bench()
    bench.judge(_bad_op(), rec)
    assert bench.outcomes == [("bad", "failed", "exit 2: ConfigError")]


def test_crashing_op_is_counted_not_raised(tmp_path, monkeypatch):
    import tubescore.cli

    def boom(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(tubescore.cli, "main", boom)
    rec = child.run_op(_bad_op(), str(tmp_path))
    assert rec["exit_code"] is None
    assert "RuntimeError: boom" in rec["stderr"]
    bench = _bench()
    bench.judge(_bad_op(), rec)
    assert bench.outcomes[0][1] == "failed"


def test_known_refusal_is_not_a_failure_but_other_errors_are():
    bench = _bench()
    rec = {"exit_code": 3, "error": "QuadratureNotConverged",
           "stderr": '{"error":"QuadratureNotConverged"}\n'}
    bench.judge(_bad_op("QuadratureNotConverged"), rec)
    bench.judge(_bad_op(), rec)
    bench.judge(_bad_op("QuadratureNotConverged"),
                dict(rec, error="EmptyWindow"))
    assert [o[1] for o in bench.outcomes] == ["refused", "failed", "failed"]


def test_artifact_check_and_determinism(tmp_path):
    bench = _bench()
    op = workloads.Op("flat", (), "json", workloads.check_flat)
    good = {"fields": [{}] * 5, "max_rel_residual": 0.0,
            "oracle_closed_form_error": 1e-9,
            "second_order_sigmas": [0.05, 0.4], "second_order_slope": 4.0}
    path = tmp_path / "flat.json"

    def judge(results, extra=""):
        path.write_text(json.dumps({"results": results}) + extra)
        bench.judge(op, {"exit_code": 0, "artifact": str(path),
                         "error": None, "stderr": ""})
        return bench.outcomes[-1]

    assert judge(good)[1] == "ok"
    assert judge(good) == ("flat", "ok", None)
    assert judge(good, "\n")[1:] == (
        "failed", "output differs from an earlier pass with the same seed")
    bench.hashes.clear()
    status, detail = judge(dict(good, second_order_slope=3.0))[1:]
    assert status == "failed" and "second_order_slope" in detail


def test_every_workload_builds_with_derived_seeds():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 1), workloads.build(name, 2)
        assert a and [op.name for op in a] == [op.name for op in b]
        assert a != b
        for op in a:
            assert op.argv[op.argv.index("--seed") + 1] == str(
                workloads.op_seed(1, op.name))


def test_missing_sources_stop_the_benchmark(tmp_path):
    with pytest.raises(run.BenchError):
        run.Bench(str(tmp_path), "langevin", 0)


def test_traced_metrics_match_the_declared_per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    produced = list(Tracer().metrics()) + list(run.RUN_LAYER_METRICS)
    assert declared == produced
