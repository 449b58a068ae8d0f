"""End-to-end runs of the console entry point, in process via cli.main."""

import argparse
import json
import math

import pytest

from gelfand import cli
from gelfand.cli import domain_from_config
from gelfand.errors import ConfigError

E0 = 1.0 / (16.0 * math.pi)


def write_config(tmp_path, name="config.json", h_max=0.14, trace=None,
                 singularities=(), **extra):
    cfg = {
        "schema": 1,
        "shape": "unit_disk",
        "mesh": {"h_max": h_max},
        "singularities": list(singularities),
        "tol": 1e-9,
    }
    if trace is not None:
        cfg["trace"] = trace
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_lambda_zero(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", cfg, "--out", str(out), "--lambda", "0"])
    assert rc == 0
    header = json.loads((out / "state.json").read_text())
    assert header["lambda"] == 0.0
    assert header["mu"] == 0.0
    assert header["E"] == pytest.approx(E0, rel=0.05)
    psi_lines = (out / "state_psi.txt").read_text().splitlines()
    assert len(psi_lines) == header["n_vertices"]
    float(psi_lines[0])
    assert "state.json" in capsys.readouterr().out


def test_solve_flag_validation(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["solve", "--config", cfg, "--out", out]) == 2
    assert cli.main(["solve", "--config", cfg, "--out", out,
                     "--lambda", "0", "--mu", "1"]) == 2
    err = capsys.readouterr().err
    assert "exactly one of" in err


def test_solve_flags_checked_before_mesh(tmp_path, monkeypatch, capsys):
    def no_mesh(*args, **kwargs):
        raise AssertionError("build_problem called before the flags were checked")

    monkeypatch.setattr(cli, "build_problem", no_mesh)
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["solve", "--config", cfg, "--out", out]) == 2
    assert cli.main(["solve", "--config", cfg, "--out", out,
                     "--lambda", "0", "--mu", "1"]) == 2
    assert "exactly one of" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "-3"])
def test_spectrum_k_checked_before_mesh(tmp_path, monkeypatch, capsys, k):
    def no_mesh(*args, **kwargs):
        raise AssertionError("build_problem called before --k was checked")

    monkeypatch.setattr(cli, "build_problem", no_mesh)
    cfg = write_config(tmp_path)
    out = str(tmp_path / "out")
    assert cli.main(["spectrum", "--config", cfg, "--out", out, "--k", k]) == 2
    assert "--k >= 1" in capsys.readouterr().err


def test_solve_unreachable_mu_writes_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", cfg, "--out", str(out), "--mu", "3.0"])
    assert rc == 1
    assert "solver failure" in capsys.readouterr().err
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "NoConvergence"
    assert payload["message"]
    # the fold-value rejection carries no Newton context: the keys read null
    assert payload["iterations"] is None and payload["residual"] is None
    assert "psi" not in payload


def test_newton_failure_error_context(tmp_path, capsys):
    cfg = write_config(tmp_path, tol=1e-30)  # below roundoff: Newton must give up
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", cfg, "--out", str(out), "--lambda", "1"])
    assert rc == 1
    capsys.readouterr()
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "NoConvergence"
    assert type(payload["iterations"]) is int and payload["iterations"] >= 1
    assert type(payload["residual"]) is float and payload["residual"] > 0.0


@pytest.mark.parametrize("command", ["branch", "classify"])
def test_trace_solves_to_config_tol(tmp_path, capsys, command):
    # the trace honours tol like solve does: below roundoff no state converges
    cfg = write_config(tmp_path, h_max=0.2, tol=1e-30, trace={"lam_min": -1.0})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    assert "NoConvergence" in capsys.readouterr().err
    assert json.loads((out / "error.json").read_text())["error"] == "NoConvergence"


def test_blowup_error_context(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["solve", "--config", cfg, "--out", str(out), "--lambda", "30"])
    assert rc == 1
    capsys.readouterr()
    payload = json.loads((out / "error.json").read_text())
    assert payload["error"] == "BlowupDetected"
    assert payload["lam"] == 30.0
    assert type(payload["sup"]) is float and payload["sup"] > 0.0
    assert "psi" not in payload


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"schema": 1,\n  "shape": }')
    rc = cli.main(["solve", "--config", str(path),
                   "--out", str(tmp_path / "out"), "--lambda", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert "line 2" in err and "column" in err


def test_missing_config_file(tmp_path, capsys):
    rc = cli.main(["solve", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out"), "--lambda", "0"])
    assert rc == 2
    assert "cannot read config file" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    {"tol": float("nan")}, {"tol": "abc"}, {"tol": 0.0}, {"tol": float("inf")},
    {"mesh": {"h_max": "abc"}}, {"mesh": {"h_max": float("nan")}},
    {"trace": {"lam_min": "abc"}}, {"trace": {"lam_min": float("-inf")}},
    {"trace": {"lam_min": 0.0}}, {"trace": {"lam_min": 5.0}},
    # grid knobs that once took these values are now unknown trace options
    {"trace": {"max_rows": 2.5}}, {"trace": {"pos_step": 0.0}},
    {"trace": {"neg_ratio": 1.0}}, {"trace": {"neg_ratio": 0.0}},
    {"trace": {"neg_cut": 0.0}}, {"trace": {"eps_stop": 0.0}},
    {"trace": {"spectrum_k": 0}},
], ids=lambda extra: json.dumps(extra))
def test_bad_numbers_are_config_errors(tmp_path, extra):
    # each is refused where the config is read, before a mesh is built or a
    # target list that would never end is formed
    cfg = write_config(tmp_path, **extra)
    with pytest.raises(cli.ConfigError):
        cli.run_config(argparse.Namespace(config=cfg, out=str(tmp_path / "out")))


def test_domain_from_config_errors():
    with pytest.raises(ConfigError):
        domain_from_config([])
    with pytest.raises(ConfigError):
        domain_from_config({"schema": 2, "shape": "unit_disk"})
    with pytest.raises(ConfigError):
        domain_from_config({"shape": "hexagon"})
    with pytest.raises(ConfigError):
        domain_from_config({"shape": "ellipse", "params": {"a": 1.0}})
    with pytest.raises(ConfigError):
        domain_from_config({"shape": "unit_disk", "singularities": [{"x": 0.0}]})


@pytest.mark.parametrize("h_max", ["abc", None, float("nan"), float("inf"), 0.0, -0.1])
def test_domain_from_config_rejects_bad_h_max(h_max):
    with pytest.raises(ConfigError, match="mesh.h_max"):
        domain_from_config({"shape": "unit_disk", "mesh": {"h_max": h_max}})


def test_domain_from_config_roundtrip():
    cfg = {
        "schema": 1,
        "shape": "unit_disk",
        "singularities": [{"x": 0.5, "y": 0.0, "alpha": 0.05}],
        "mesh": {"h_max": 0.2},
    }
    dom, sing, h_max = domain_from_config(cfg)
    assert dom.shape == "unit_disk"
    assert len(sing) == 1
    assert sing.alphas[0] == pytest.approx(0.05)
    assert h_max == pytest.approx(0.2)


def test_nan_tol_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, tol=float("nan"))
    out = tmp_path / "out"
    assert cli.main(["solve", "--config", cfg, "--out", str(out), "--lambda", "5"]) == 2
    assert "tol must be a finite positive number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["lam_mn", "pos_step", "spectrum_k", "max_rows",
                                 "sup_diverged"])
def test_unknown_trace_key(tmp_path, capsys, key):
    # lam_min is the one trace option; the rest of the trace is fixed
    cfg = write_config(tmp_path, trace={key: 1.0})
    rc = cli.main(["branch", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "unknown trace option" in capsys.readouterr().err


@pytest.fixture(scope="module")
def branch_run(tmp_path_factory):
    """One completed `branch` invocation, shared by the artifact tests."""
    base = tmp_path_factory.mktemp("branch_cli")
    cfg = write_config(base, trace={"lam_min": -10.0})
    out = base / "run1"
    assert cli.main(["branch", "--config", cfg, "--out", str(out)]) == 0
    return {"config": cfg, "out": out, "base": base}


def test_branch_artifacts_deterministic(branch_run, capsys):
    out1 = branch_run["out"]
    out2 = branch_run["base"] / "run2"
    assert cli.main(["branch", "--config", branch_run["config"],
                     "--out", str(out2)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["branch.csv", "branch.json", "branch_E_mu.svg",
                     "branch_lambda_E.svg", "branch_lambda_g.svg",
                     "branch_mu_E.svg"]
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_classify_disk_is_first_kind(tmp_path, capsys):
    cfg = write_config(tmp_path, h_max=0.12)
    out = tmp_path / "out"
    rc = cli.main(["classify", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "first"
    payload = json.loads((out / "classification.json").read_text())
    assert payload["kind"] == "first"
    assert payload["fold"] is not None
    assert payload["fold"]["mu"] == pytest.approx(2.0, rel=0.02)
    assert payload["rows"] > 10
    assert (out / "branch.csv").exists()


def test_freeenergy_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["freeenergy", "--config", cfg, "--out", str(out),
                   "--lambda", "-2", "--lambda", "-20", "--n", "10",
                   "--delta", "0.2"])
    assert rc == 0
    capsys.readouterr()
    lines = (out / "freeenergy.csv").read_text().splitlines()
    assert lines[0] == "lambda,n,F,entropy,energy,linear,iterations"
    assert len(lines) == 3
    bounds = json.loads((out / "bounds.json").read_text())
    assert len(bounds) == 2
    for entry in bounds:
        assert entry["n"] == 10
        for name, slack in entry["slacks"].items():
            assert slack >= -1e-9, name


def test_freeenergy_builds_one_mesh_and_one_collar(tmp_path, monkeypatch, capsys):
    # the mesh and the collar depend on the config and delta only; every
    # cell must still match a run that builds both afresh
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    calls = []
    for name in ("build_mesh", "collar_density"):
        def counting(*args, _name=name, _fn=getattr(cli, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, counting)
    rc = cli.main(["freeenergy", "--config", cfg, "--out", str(out),
                   "--lambda", "-2", "--lambda", "-20", "--n", "10", "--n", "100",
                   "--delta", "0.2"])
    assert rc == 0
    capsys.readouterr()
    assert sorted(calls) == ["build_mesh", "collar_density"]
    monkeypatch.undo()
    run = cli.run_config(argparse.Namespace(config=cfg, out=str(tmp_path / "ref")))
    bounds = json.loads((out / "bounds.json").read_text())
    for entry in bounds:
        problem = cli.build_problem(run, floor_n=entry["n"])
        state = cli.minimize_free_energy(problem, entry["lambda"], n=entry["n"])
        report = cli.verify_energy_bound(problem, entry["lambda"], 0.2, minimizer=state)
        assert entry["slacks"] == report.slacks


def test_plot_roundtrip(branch_run, tmp_path, capsys):
    out = branch_run["out"]
    replot = tmp_path / "replot"
    rc = cli.main(["plot", "--csv", str(out / "branch.csv"),
                   "--out", str(replot)])
    assert rc == 0
    capsys.readouterr()
    for name in ("branch_lambda_E.svg", "branch_lambda_g.svg",
                 "branch_mu_E.svg", "branch_E_mu.svg"):
        assert (replot / name).read_bytes() == (out / name).read_bytes(), name


def test_plot_rejects_bad_csv(tmp_path, capsys):
    path = tmp_path / "junk.csv"
    path.write_text("a,b\n1,2\n")
    rc = cli.main(["plot", "--csv", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_help_and_usage_exits(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main([]) == 2
    assert cli.main(["solve"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", ["branch", "classify"])
def test_trace_failure_writes_sorted_partial_csv(tmp_path, monkeypatch, capsys, command):
    # the trace fails after three rows: both commands keep them, sorted by lambda
    real_trace = cli.trace_branch

    def failing_trace(problem, *args, on_row=None):
        seen = []

        def row_then_fail(row):
            on_row(row)
            seen.append(row.lam)
            if len(seen) == 3:
                raise cli.NoConvergence("stopped by the test", iterations=1, residual=1.0)
        return real_trace(problem, *args, on_row=row_then_fail)

    monkeypatch.setattr(cli, "trace_branch", failing_trace)
    cfg = write_config(tmp_path, trace={"lam_min": -10.0})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    capsys.readouterr()
    lams = [float(line.split(",")[0])
            for line in (out / "branch.csv").read_text().splitlines()[1:]]
    assert len(lams) == 3 and lams == sorted(lams)
    assert json.loads((out / "error.json").read_text())["error"] == "NoConvergence"
