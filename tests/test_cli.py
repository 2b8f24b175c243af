"""Command-line harness: config round-trips, rendering, exit codes."""
import json

import pytest

from tubescore import reporting
from tubescore.cli import (
    RunConfig,
    build_density,
    build_manifold,
    main,
    parse_radii,
    parse_sigma_grid,
    parse_sigma_list,
)
from tubescore.densities import IsotropicGaussian, ProductVonMises, Uniform
from tubescore.errors import ConfigError
from tubescore.geometry import AffinePlane, FlatTorus, Sphere


def make_config(**over):
    base = dict(experiment="variance-collapse",
                manifold={"kind": "sphere2"},
                density={"kind": "vmf", "kappa": 2.0},
                sigma_grid=[0.05, 0.1], n_samples=1000, seed=7)
    base.update(over)
    return RunConfig(**base)


class TestRunConfig:
    def test_round_trip_identity(self):
        configs = [
            make_config(),
            make_config(manifold={"kind": "torus", "radii": [1, 2]},
                        density={"kind": "product_vonmises",
                                 "kappas": [1.5, 0.7], "phases": [0.3, 0]},
                        out="x.csv", format="csv",
                        options={"rb_subsample": 100}),
            make_config(experiment="flat-check",
                        manifold={"kind": "plane", "d": 2, "ambient": 4},
                        density={"kind": "gaussian", "tau": 1.0},
                        sigma_grid=[0.1]),
            make_config(experiment="geometry-check",
                        manifold={"kind": "default-set"},
                        density={"kind": "none"}, sigma_grid=[]),
        ]
        for c in configs:
            wire = json.loads(json.dumps(c.to_dict()))
            assert RunConfig.from_dict(wire) == c
            assert RunConfig.from_dict(wire).to_dict() == c.to_dict()

    def test_numbers_normalized(self):
        c = make_config(sigma_grid=["0.1", 0.2], n_samples="500", seed="3")
        assert c.sigma_grid == [0.1, 0.2]
        assert c.n_samples == 500 and c.seed == 3

    @pytest.mark.parametrize("over", [
        dict(experiment="nope"),
        dict(format="yaml"),
        dict(sigma_grid=[0.001]),
        dict(sigma_grid=[0.9]),
        dict(sigma_grid=[]),
        dict(seed=-1),
        dict(n_samples=-5),
        dict(manifold={"kind": "plane", "d": 5, "ambient": 6}),
        dict(manifold={"kind": "mystery"}),
        dict(manifold={"no_kind": 1}),
        dict(manifold={"kind": "torus", "radii": [1.0]}),
        dict(manifold={"kind": "torus", "radii": [1.0, -2.0]}),
        dict(manifold={"kind": "plane", "d": 4, "ambient": 4}),
        dict(density={"kind": "mystery"}),
        dict(density={"kind": "vmf", "kappa": -1.0}),
        dict(density={"kind": "gaussian", "tau": 0.0}),
        dict(options=[1, 2]),
    ])
    def test_validation(self, over):
        with pytest.raises(ConfigError):
            make_config(**over)

    def test_from_dict_key_checks(self):
        good = make_config().to_dict()
        bad = dict(good, extra_key=1)
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict(bad)
        del good["seed"]
        with pytest.raises(ConfigError, match="missing config keys"):
            RunConfig.from_dict(good)


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
        assert isinstance(build_manifold({"kind": "sphere3"}), Sphere)
        assert build_manifold({"kind": "sphere3"}).intrinsic_dim == 3
        torus = build_manifold({"kind": "torus", "radii": [1.0, 2.0]})
        assert isinstance(torus, FlatTorus) and torus.radii == (1.0, 2.0)
        plane = build_manifold({"kind": "plane", "d": 2, "ambient": 5})
        assert isinstance(plane, AffinePlane) and plane.ambient_dim == 5
        with pytest.raises(ConfigError):
            build_manifold({"kind": "default-set"})

    def test_densities(self):
        q = build_density(make_config())
        assert q.kappa == 2.0 and isinstance(q.manifold, Sphere)
        q = build_density(make_config(
            manifold={"kind": "torus", "radii": [1, 1]},
            density={"kind": "product_vonmises", "kappas": [1.5, 1.5],
                     "phases": [0, 0]}))
        assert isinstance(q, ProductVonMises)
        q = build_density(make_config(
            manifold={"kind": "plane", "d": 2, "ambient": 4},
            density={"kind": "gaussian", "tau": 1.0}))
        assert isinstance(q, IsotropicGaussian)
        q = build_density(make_config(density={"kind": "uniform"}))
        assert isinstance(q, Uniform)

    def test_vmf_needs_sphere(self):
        cfg = make_config(manifold={"kind": "torus", "radii": [1, 1]})
        with pytest.raises(ConfigError):
            build_density(cfg)


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
        assert cfg["n_samples"] == 2000 and cfg["seed"] == 7

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
