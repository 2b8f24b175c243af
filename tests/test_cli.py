"""Command-line harness: flags as run config, rendering, exit codes."""
import json
import math
import warnings

import pytest

from tubescore import reporting
from tubescore import cli
from tubescore import experiments
from tubescore.cli import (
    STUDIES,
    build_density,
    build_manifold,
    build_parser,
    main,
    parse_radii,
    parse_sigma_grid,
    parse_sigma_list,
)
from tubescore.densities import (
    IsotropicGaussian,
    ProductVonMises,
    VonMisesFisher,
)
from tubescore.errors import ConfigError
from tubescore.geometry import AffinePlane, FlatTorus, Sphere


def parse(*argv):
    return build_parser().parse_args(list(argv))


def header_config(path):
    text = path.read_text()
    if text.startswith("{"):
        return json.loads(text)["config"]
    line = next(l for l in text.split("\n") if l.startswith("# config: "))
    return json.loads(line[len("# config: "):])


def header_argv(config):
    """The command line a config header records."""
    argv = [config["experiment"]]
    for key, value in sorted(config.items()):
        if key != "experiment" and value is not None:
            flag = "--D" if key == "ambient" else "--" + key.replace("_", "-")
            argv += [flag, str(value)]
    return argv


class TestRunConfig:
    """The parsed flags are the run config: the header records them all."""

    def test_round_trip_identity(self, tmp_path, capsys):
        # re-running the command line a header records reproduces the file
        for argv in (
            ["variance-collapse", "--sigma", "0.05,0.1", "--n", "400",
             "--rb-subsample", "40", "--seed", "7"],
            ["variance-collapse", "--manifold", "torus", "--radii", "1,2",
             "--kappa", "0.7", "--sigma-grid", "0.05:0.1:lin:2", "--n",
             "400", "--rb-subsample", "40", "--format", "json"],
            ["flat-check", "--d", "1", "--D", "3", "--n", "300"],
            ["geometry-check", "--n", "2", "--format", "csv"],
        ):
            first, again = tmp_path / "first.out", tmp_path / "again.out"
            assert main(argv + ["--out", str(first)]) == 0
            config = header_config(first)
            assert main(header_argv(config) + ["--out", str(again)]) == 0
            capsys.readouterr()
            assert again.read_bytes() == first.read_bytes()
            assert str(tmp_path) not in first.read_text()

    def test_numbers_normalized(self, tmp_path, capsys):
        target = tmp_path / "run.json"
        assert main(["flat-check", "--n", "300", "--seed", "3", "--tau", "2",
                     "--sigma", "0.1", "--out", str(target)]) == 0
        capsys.readouterr()
        config = header_config(target)
        assert config["n"] == 300 and config["seed"] == 3
        assert config["tau"] == 2.0 and isinstance(config["tau"], float)
        assert config["sigma"] == "0.1"

    @pytest.mark.parametrize("over", [
        ["nope"],
        ["variance-collapse", "--format", "yaml"],
        ["variance-collapse", "--sigma", "0.001,0.1"],
        ["variance-collapse", "--sigma-grid", "0.1:0.9:lin"],
        ["variance-collapse", "--sigma", ","],
        ["geometry-check", "--seed", "-1"],
        ["flat-check", "--n", "-5"],
        ["flat-check", "--d", "5", "--D", "6"],
        ["variance-collapse", "--manifold", "mystery"],
        ["extrinsic-coef", "--manifold"],
        ["variance-collapse", "--manifold", "torus", "--radii", "1.0"],
        ["variance-collapse", "--manifold", "torus", "--radii", "1.0,-2.0"],
        ["flat-check", "--d", "4", "--D", "4"],
        ["pythagorean", "--tau", "1.0"],
        ["stein-check", "--kappa", "-1"],
        ["flat-check", "--tau", "0"],
        ["langevin", "--scale", "-1"],
        ["variance-collapse", "--kappa", "inf"],
        ["extrinsic-coef", "--kappa", "nan"],
        ["langevin", "--step", "nan"],
        ["extrinsic-coef", "--manifold", "torus", "--radii", "nan,1"],
        ["variance-collapse", "--n", "100", "--rb-subsample", "1"],
        ["variance-collapse", "--sigma", "0.1,0.1", "--n", "100",
         "--rb-subsample", "10"],
        # a vanishing score leaves max_rb_deviation undefined
        ["variance-collapse", "--kappa", "0", "--sigma", "0.1,0.2", "--n",
         "200", "--rb-subsample", "20"],
        ["variance-collapse", "--manifold", "torus", "--kappa", "0",
         "--sigma", "0.1,0.2", "--n", "200", "--rb-subsample", "20"],
    ])
    def test_validation(self, capsys, over):
        code, _, err = run_cli(capsys, *over)
        assert code == 2
        record = json.loads(err.strip().split("\n")[-1])
        assert record["exit_code"] == 2
        if record["message"] != "invalid command line arguments":
            # rejected after parsing: the record is the only output
            assert err.count("\n") == 1

    def test_header_keys(self, tmp_path, capsys):
        target = tmp_path / "geometry.json"
        assert main(["geometry-check", "--n", "1", "--out",
                     str(target)]) == 0
        capsys.readouterr()
        assert header_config(target) == {"experiment": "geometry-check",
                                         "n": 1, "format": "json",
                                         "seed": 0}


class TestSigmaParsing:
    def test_list(self):
        assert parse_sigma_list("0.05,0.06,0.08") == [0.05, 0.06, 0.08]
        assert parse_sigma_list("0.3") == [0.3]

    def test_list_errors(self):
        for expr in ("", "a,b", "0.1;0.2"):
            with pytest.raises(ConfigError):
                parse_sigma_list(expr)

    def test_grid_log10_default_count(self):
        vals = parse_sigma_grid("0.02:0.2:log10")
        assert len(vals) == 8
        assert vals[0] == pytest.approx(0.02)
        assert vals[-1] == pytest.approx(0.2)
        ratios = [b / a for a, b in zip(vals, vals[1:])]
        assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)

    def test_grid_lin_with_count(self):
        vals = parse_sigma_grid("0.1:0.4:lin:4")
        assert vals == pytest.approx([0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("expr", [
        "0.1:0.4", "0.1:0.4:lin:4:9", "0:0.4:lin", "0.4:0.1:lin",
        "0.1:0.4:geom", "0.1:0.4:lin:1", "x:0.4:lin",
    ])
    def test_grid_errors(self, expr):
        with pytest.raises(ConfigError):
            parse_sigma_grid(expr)

    def test_radii(self):
        assert parse_radii("1.0,2.5") == [1.0, 2.5]
        with pytest.raises(ConfigError):
            parse_radii("1.0")


class TestBuilders:
    def test_manifolds(self):
        M = build_manifold(parse("variance-collapse", "--manifold",
                                 "sphere3"))
        assert isinstance(M, Sphere) and M.intrinsic_dim == 3
        torus = build_manifold(parse("variance-collapse", "--manifold",
                                     "torus", "--radii", "1.0,2.0"))
        assert isinstance(torus, FlatTorus) and torus.radii == (1.0, 2.0)
        plane = build_manifold(parse("extrinsic-coef", "--manifold",
                                     "plane"))
        assert isinstance(plane, AffinePlane)
        assert (plane.intrinsic_dim, plane.ambient_dim) == (2, 4)

    def test_densities(self):
        q = build_density(parse("variance-collapse"))
        assert q.kappa == 2.0 and isinstance(q.manifold, Sphere)
        q = build_density(parse("variance-collapse", "--manifold", "torus",
                                "--kappa", "0.7"))
        assert isinstance(q, ProductVonMises)
        q = build_density(parse("variance-collapse", "--manifold", "plane",
                                "--tau", "1.5"))
        assert isinstance(q, IsotropicGaussian)

    def test_vmf_needs_sphere(self):
        for manifold in cli.MANIFOLD_CHOICES:
            q = build_density(parse("variance-collapse", "--manifold",
                                    manifold))
            assert (isinstance(q, VonMisesFisher)
                    == manifold.startswith("sphere"))


class TestReporting:
    def test_csv_floats_round_trip(self):
        text = reporting.format_csv(
            ["a", "b"], [[0.1 + 0.2, 1], ["name", 2.0]],
            {"seed": 1}, {"slope": -2.0000000001})
        lines = text.strip().split("\n")
        assert lines[0].startswith("# tubescore ")
        assert lines[1] == '# config: {"seed":1}'
        assert lines[2] == "# slope: -2.0000000001"
        assert lines[3] == "a,b"
        assert float(lines[4].split(",")[0]) == 0.1 + 0.2

    def test_cell_rules(self):
        text = reporting.format_csv(
            ["k", "v"], [["x", None], ["y", True]], {}, None)
        rows = text.strip().split("\n")[-2:]
        assert rows == ["x,", "y,true"]
        with pytest.raises(ConfigError):
            reporting.format_csv(["k"], [["a,b"]], {}, None)
        with pytest.raises(ConfigError):
            reporting.format_csv(["k"], [[1, 2]], {}, None)

    def test_flatten(self):
        payload = {"a": {"b": 1.5, "c": [2, 3]}, "d": "x",
                   "table": [{"skip": 1}]}
        rows = reporting.flatten_scalars(payload)
        assert ("a.b", 1.5) in rows
        assert ("a.c.0", 2) in rows and ("a.c.1", 3) in rows
        assert ("d", "x") in rows
        assert not any(k.startswith("table") for k, _ in rows)

    def test_json_deterministic(self):
        doc1 = reporting.format_json({"z": 1, "a": [1.5]}, {"seed": 0})
        doc2 = reporting.format_json({"a": [1.5], "z": 1}, {"seed": 0})
        assert doc1 == doc2
        parsed = json.loads(doc1)
        assert parsed["library"]["name"] == "tubescore"
        assert parsed["config"] == {"seed": 0}

    def test_write_creates_parents(self, tmp_path):
        target = tmp_path / "deep" / "dir" / "out.json"
        reporting.write_text("hello", str(target))
        assert target.read_text() == "hello"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMainSuccess:
    def test_geometry_json(self, capsys):
        code, out, err = run_cli(capsys, "geometry-check", "--n", "3")
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["results"]["max_gauss_residual"] <= 1e-9
        assert doc["config"]["experiment"] == "geometry-check"

    def test_flat_check_example_shape(self, capsys):
        code, out, _ = run_cli(capsys, "flat-check", "--d", "2", "--D", "4",
                               "--tau", "1.0", "--sigma", "0.1",
                               "--n", "2000")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["max_rel_residual"] <= 1e-12
        assert res["second_order_slope"] >= 3.8

    def test_flat_check_four_plane(self, capsys):
        # every oracle query of a 4-plane runs on the 3-sphere direction rule
        code, out, _ = run_cli(capsys, "flat-check", "--n", "100", "--d", "4",
                               "--D", "5")
        assert code == 0
        res = json.loads(out)["results"]
        numbers = [v for _, v in reporting.flatten_scalars(res)
                   if isinstance(v, float)]
        numbers += res["second_order_remainders"]
        assert numbers and all(math.isfinite(v) for v in numbers)
        assert res["max_rel_residual"] <= 1e-12
        assert res["oracle_closed_form_error"] <= 1e-6
        assert res["second_order_slope"] >= 3.8

    def test_variance_csv_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "variance-collapse", "--manifold", "sphere2",
            "--kappa", "2", "--sigma-grid", "0.05:0.2:log10:3",
            "--n", "2000", "--seed", "7")
        assert code == 0
        lines = [l for l in out.strip().split("\n")
                 if not l.startswith("#")]
        assert lines[0] == ("sigma,raw_second_moment,rb_second_moment,"
                            "raw_se,rb_se,discards")
        assert len(lines) == 4
        header = [l for l in out.split("\n") if l.startswith("# config:")]
        assert len(header) == 1
        cfg = json.loads(header[0][len("# config: "):])
        assert cfg["n"] == 2000 and cfg["seed"] == 7

    def test_variance_json_rows_are_objects(self, capsys):
        # the study's columns are spelled once, in STUDIES: the JSON rows
        # are objects keyed by them and carry no separate column list
        code, out, _ = run_cli(capsys, "variance-collapse", "--sigma",
                               "0.1,0.2", "--n", "500", "--rb-subsample",
                               "50", "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        assert "columns" not in res and len(res["rows"]) == 2
        columns = list(STUDIES["variance-collapse"].columns)
        for row in res["rows"]:
            assert isinstance(row, dict) and sorted(row) == sorted(columns)

    def test_variance_reports_feet_used(self, capsys):
        # rb_subsample is the number of feet the conditioned column used:
        # the rows discarded 7 and 150 of 2000 draws, so the second row
        # queried the oracle at 1850 feet
        code, out, _ = run_cli(capsys, "variance-collapse",
                               "--sigma", "0.3,0.5", "--n", "2000",
                               "--seed", "0")
        assert code == 0
        lines = [l for l in out.strip().split("\n")
                 if not l.startswith("#")]
        discards = [int(l.split(",")[-1]) for l in lines[1:]]
        assert discards == [7, 150]
        assert "# rb_subsample: 1850" in out.split("\n")

    def test_extrinsic_single_manifold(self, capsys):
        code, out, _ = run_cli(capsys, "extrinsic-coef", "--manifold",
                               "sphere1", "--sigma", "0.05",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert len(rows) == 1
        assert rows[0]["alpha_hat"] == pytest.approx(0.5, abs=0.02)

    def test_extrinsic_default_set(self, capsys):
        code, out, _ = run_cli(capsys, "extrinsic-coef", "--sigma", "0.05",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert {r["manifold"] for r in rows} == {
            "sphere1", "sphere2", "sphere3", "torus_1_1"}

    def test_sphere4_studies(self, capsys):
        code, out, _ = run_cli(capsys, "variance-collapse", "--manifold",
                               "sphere4", "--sigma", "0.05,0.1", "--n", "2000",
                               "--rb-subsample", "20", "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        assert len(res["rows"]) == 2
        assert res["max_rb_deviation"] <= 0.3
        code, out, _ = run_cli(capsys, "extrinsic-coef", "--manifold",
                               "sphere4", "--sigma", "0.05", "--format", "json")
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert rows[0]["alpha_pred"] == pytest.approx(-1.0, abs=1e-10)
        assert rows[0]["alpha_hat"] == pytest.approx(-1.0, abs=0.02)

    def test_stein_and_pythagorean(self, capsys):
        code, out, _ = run_cli(capsys, "stein-check", "--n", "2000")
        assert code == 0
        assert json.loads(out)["results"]["stein_residual_sphere1"] <= 1e-5
        code, out, _ = run_cli(capsys, "pythagorean", "--n", "2000",
                               "--seed", "3")
        assert code == 0
        res = json.loads(out)["results"]
        assert all(v["gap_over_se"] <= 3.0
                   for v in res["pythagorean"].values())

    def test_finite_sample_small(self, capsys):
        code, out, _ = run_cli(capsys, "finite-sample", "--n", "10000",
                               "--repetitions", "2", "--seed", "42")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["n_grid"] == [100, 1000, 10000]
        assert res["rate_slope"] < 0

    def test_langevin_small(self, capsys):
        code, out, _ = run_cli(
            capsys, "langevin", "--seed", "1",
            "--marginal-chains", "2", "--marginal-steps", "300",
            "--debias-chains", "2", "--debias-steps", "300",
            "--scaled-chains", "2", "--scaled-steps", "300")
        assert code == 0
        res = json.loads(out)["results"]
        assert set(res) >= {"marginal", "debias", "scaled"}

    def test_key_value_csv_flavor(self, capsys):
        code, out, _ = run_cli(capsys, "stein-check", "--n", "1000",
                               "--format", "csv")
        assert code == 0
        lines = [l for l in out.strip().split("\n")
                 if not l.startswith("#")]
        assert lines[0] == "key,value"
        keys = {l.split(",")[0] for l in lines[1:]}
        assert "stein_residual_sphere1" in keys
        assert "chord_ratios.sphere2.0" in keys

    def test_out_writes_file_and_quiet_stdout(self, tmp_path, capsys):
        target = tmp_path / "flat.json"
        code, out, err = run_cli(capsys, "flat-check", "--n", "500",
                                 "--out", str(target))
        assert code == 0 and out == "" and err == ""
        assert json.loads(target.read_text())["results"]


class TestMainFailure:
    def test_bad_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "not-an-experiment")
        assert code == 2
        record = json.loads(err.strip().split("\n")[-1])
        assert record["exit_code"] == 2

    def test_sigma_out_of_range(self, capsys):
        code, _, err = run_cli(capsys, "variance-collapse",
                               "--sigma-grid", "0.9:2.0:lin", "--n", "100")
        assert code == 2
        record = json.loads(err.strip())
        assert record["error"] == "ConfigError"
        assert "sigma" in record["message"]

    def test_both_sigma_flags(self, capsys):
        code, _, err = run_cli(capsys, "variance-collapse",
                               "--sigma", "0.1,0.2",
                               "--sigma-grid", "0.1:0.2:lin")
        assert code == 2
        assert json.loads(err.strip())["exit_code"] == 2

    def test_multi_sigma_where_single_required(self, capsys):
        code, _, err = run_cli(capsys, "flat-check",
                               "--sigma", "0.1,0.2", "--n", "100")
        assert code == 2
        assert "exactly one sigma" in json.loads(err.strip())["message"]

    def test_quadrature_budget_exhausted(self, capsys):
        # a posterior far narrower than sigma = 0.01 is still unresolved at
        # the largest polar rule
        code, _, err = run_cli(capsys, "extrinsic-coef", "--manifold",
                               "torus", "--kappa", "1e6", "--sigma", "0.01")
        assert code == 3
        record = json.loads(err.strip())
        assert record["error"] == "QuadratureNotConverged"
        assert record["exit_code"] == 3

    def test_removed_quadrature_flags_rejected(self, capsys):
        for flag in ("--resolution", "--max-nodes"):
            code, _, err = run_cli(capsys, "pythagorean", "--n", "500",
                                   flag, "64")
            assert code == 2
            assert json.loads(err.strip().split("\n")[-1])["exit_code"] == 2

    @pytest.mark.parametrize("study", [name for name, study in STUDIES.items()
                                       if study.min_n is not None])
    def test_n_below_minimum(self, capsys, study):
        below = STUDIES[study].min_n[0] - 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, study, "--n", str(below))
        assert code == 2 and out == "" and caught == []
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert f"at least {below + 1}" in record["message"]

    @pytest.mark.parametrize("study", ["marginal", "debias", "scaled"])
    def test_empty_langevin_study_refused(self, capsys, tmp_path, study):
        # 4 steps at thinning 5 keep no iterate; refused before any chain runs
        artifact = tmp_path / "langevin.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "langevin", f"--{study}-steps",
                                     "4", "--out", str(artifact))
        assert code == 2 and out == "" and caught == []
        assert not artifact.exists()
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert f"the {study} study keeps no iterate" in record["message"]

    def test_one_chain_debias_study_refused(self, capsys, monkeypatch,
                                            tmp_path):
        # one chain gives the paired bootstrap nothing to resample
        def no_chains(*args, **kwargs):
            raise AssertionError("a chain ran")

        monkeypatch.setattr(experiments, "run_chains", no_chains)
        artifact = tmp_path / "langevin.json"
        code, out, err = run_cli(capsys, "langevin", "--debias-chains", "1",
                                 "--out", str(artifact))
        assert code == 2 and out == ""
        assert not artifact.exists()
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert "the debias study needs at least 2 chains" in record["message"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_non_finite_result_exits_3(self, capsys, monkeypatch, fmt):
        payload = {"rows": [], "max_gauss_residual": float("nan"),
                   "max_frame_residual": 0.0, "max_closed_form_residual": 0.0}
        monkeypatch.setattr(cli, "run_geometry_check", lambda *a: payload)
        code, out, err = run_cli(capsys, "geometry-check", "--n", "1",
                                 "--format", fmt)
        assert code == 3 and out == ""
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "NonFiniteResult"
        assert record["message"] == "results.max_gauss_residual is nan"

    @pytest.mark.parametrize("exc", [RuntimeError("boom"),
                                     ValueError("numpy said no")])
    def test_other_exceptions_exit_1(self, capsys, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc
        monkeypatch.setattr(cli, "run_pythagorean", fail)
        code, out, err = run_cli(capsys, "pythagorean", "--n", "100")
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": type(exc).__name__,
                                   "message": str(exc), "exit_code": 1}

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert main(["langevin", "--help"]) == 0
        capsys.readouterr()


class TestByteIdentity:
    def test_csv_reruns_identical(self, tmp_path, capsys):
        args = ["variance-collapse", "--sigma-grid", "0.05:0.2:log10:3",
                "--n", "1500", "--seed", "7"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_json_reruns_identical(self, tmp_path, capsys):
        args = ["langevin", "--seed", "5",
                "--marginal-chains", "2", "--marginal-steps", "300",
                "--debias-chains", "2", "--debias-steps", "300",
                "--scaled-chains", "2", "--scaled-steps", "300"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["flat-check", "--n", "500", "--seed", "1",
                     "--out", str(a)]) == 0
        assert main(["flat-check", "--n", "500", "--seed", "2",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() != b.read_bytes()


def test_benchmark_bound_names_resolve():
    # The benchmark's tracer reaches these library names as strings and
    # reads some of their arguments by position; a rename or a deletion
    # would read as a per-layer metric of 0 rather than fail.  The list is
    # the one in README's Testing section.
    import importlib
    import inspect

    import numpy as np

    from tubescore import densities, estimators, experiments, langevin
    from tubescore import oracle, targets

    for layer in ("geometry.base", "geometry.curvature", "geometry.plane",
                  "geometry.quadrature", "geometry.sphere", "geometry.torus",
                  "densities", "targets", "oracle", "estimators", "langevin",
                  "experiments", "reporting", "cli"):
        importlib.import_module(f"tubescore.{layer}")

    def params(fn):
        return list(inspect.signature(fn).parameters)

    # corrupt, as re-bound by name in the modules that call it, and the
    # two things the tracer reads of its result
    assert estimators.corrupt is targets.corrupt is experiments.corrupt
    batch = targets.corrupt(densities.Uniform(Sphere(2)), 0.1, 10, 0)
    assert len(batch) == 10 and batch.n_outside >= 0
    # constructors traced by class name need their own __init__
    for cls in (oracle.RBOracle, oracle.FiberPosterior,
                densities.VonMisesFisher, densities.ProductVonMises,
                densities.IsotropicGaussian, densities.Uniform,
                densities.SphereTMarginal):
        assert "__init__" in vars(cls), cls
    # the oracle's queries and its accepted resolution
    assert params(oracle.RBOracle.target_coords)[1] == "queries"
    assert params(oracle.grid_node_count)[:2] == ["manifold", "resolution"]
    rb = oracle.RBOracle(densities.Uniform(Sphere(1)), 0.1)
    rb.target_coords(np.array([[1.0, 0.0]]))
    assert rb.manifold == Sphere(1)
    oracle.grid_node_count(rb.manifold, rb.convergence_report["resolution"])
    # chain steps come from run_chains' config and n_chains
    assert params(langevin.run_chains)[2:4] == ["config", "n_chains"]
    assert inspect.isfunction(estimators.local_average)
    # geometry kernels, counted by rows of their first argument
    for cls in (Sphere, FlatTorus, AffinePlane):
        assert params(vars(cls)["exp_batch"])[1] == "z"
        assert params(vars(cls)["transport_to_batch"])[1] == "p"
        assert params(vars(cls)["project_batch"])[1] == "x"
    # the density samplers the tracer times
    for name in ("sample_coords", "sample_coords_seeded"):
        assert inspect.isfunction(getattr(densities.DensityModel, name))
    for name in ("format_json", "format_csv"):
        assert inspect.isfunction(getattr(reporting, name))
    assert callable(cli.main) and callable(cli.build_parser)


def test_studies_run_without_scipy(tmp_path):
    # scipy is the tests' reference only.  This process has it loaded, so
    # a fresh interpreter runs the studies that build Gauss-Legendre rules
    # (the vMF t-marginal's and the oracle's) and a product von Mises
    # normalizer, then lists the scipy modules it holds.
    import os
    import subprocess
    import sys

    import tubescore

    script = (
        "import json, sys\n"
        "from tubescore import cli\n"
        "out = sys.argv[1]\n"
        "codes = [cli.main(['pythagorean', '--n', '2000',\n"
        "                   '--out', out + '/pythagorean.json']),\n"
        "         cli.main(['extrinsic-coef', '--out', out + '/extrinsic.csv'])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if m.split('.')[0] == 'scipy')]))\n")
    src = os.path.dirname(os.path.dirname(tubescore.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert scipy_modules == []


def test_langevin_study_skips_numpy_ma(tmp_path):
    # np.quantile imports numpy.ma; the bootstrap interval avoids it
    import os
    import subprocess
    import sys

    import tubescore

    script = (
        "import sys\n"
        "from tubescore import cli\n"
        "code = cli.main(['langevin', '--marginal-chains', '2',\n"
        "                 '--marginal-steps', '10', '--debias-chains', '4',\n"
        "                 '--debias-steps', '10', '--scaled-chains', '2',\n"
        "                 '--scaled-steps', '10',\n"
        "                 '--out', sys.argv[1] + '/langevin.json'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(tubescore.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


@pytest.mark.parametrize("package", ["tubescore", "tubescore.geometry"])
def test_export_list_resolves(package):
    # a name deleted from the library but left in __all__ breaks
    # ``from tubescore import *``
    import importlib

    module = importlib.import_module(package)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {package} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
