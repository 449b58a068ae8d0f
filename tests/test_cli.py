"""End-to-end runs of the console entry point, in process via cli.main."""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gelfand
from gelfand import branch, cli, fem, freeenergy
from gelfand.cli import domain_from_config
from gelfand.errors import ConfigError, NoConvergence

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
    for flag, value in [("--lambda", "nan"), ("--lambda", "inf"), ("--mu", "nan")]:
        assert cli.main(["solve", "--config", cfg, "--out", out, flag, value]) == 2
        assert "must be a finite number" in capsys.readouterr().err


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


# bad domain values: each must be a config error, not a traceback from the mesher
BAD_DOMAINS = [
    *({"params": {"boundary_size": size}} for size in (0.0, -0.1, float("nan"), "abc")),
    {"params": []},
    {"shape": "ellipse", "params": {"a": "x", "b": 0.5}},
    {"shape": "ellipse", "params": {"a": float("nan"), "b": 0.5}},
    {"shape": "polygon", "params": {"vertices": [[0, 0], [1, "a"], [0, 1]]}},
    {"shape": "polygon", "params": {"vertices": [[0, 0], [1], [0, 1]]}},
    {"singularities": [{"x": "a", "y": 0.0, "alpha": 0.5}]},
]


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
    *BAD_DOMAINS,
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
    for extra in BAD_DOMAINS:
        with pytest.raises(ConfigError):
            domain_from_config({"shape": "unit_disk", "mesh": {"h_max": 0.1}, **extra})


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


def strict_json(path):
    """The JSON document at path; NaN or Infinity in it is an error."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize("command, summary", [("branch", "branch.json"),
                                              ("classify", "classification.json")])
def test_lam_min_near_zero_is_the_negative_row(tmp_path, capsys, command, summary):
    # a lam_min above -NEG_CUT is still marched to: mu_at_min is its mu
    cfg = write_config(tmp_path, h_max=0.25, trace={"lam_min": -0.01})
    out = tmp_path / "out"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 0
    assert strict_json(out / summary)["mu_at_min"] < 0
    first = (out / "branch.csv").read_text().splitlines()[1]
    assert float(first.split(",")[0]) == -0.01


def test_summary_without_a_negative_row_is_json(tmp_path):
    row = branch.BranchPoint(*[1.0] * 10)
    path = branch.write_json(branch.BranchDiagram(points=[row]).summary(),
                             tmp_path / "summary.json")
    assert strict_json(path)["mu_at_min"] is None


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
    # the mesh, its operators (one exact mass matrix among them) and the
    # collar depend on the config and delta only; the collar is evaluated
    # once per floor problem, not once per cell.  Every cell must still match
    # a run that builds all of it afresh
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    calls, problems = [], []
    for module, name in ((cli, "build_mesh"), (cli, "collar_density"),
                         (cli, "free_energy_of"), (freeenergy, "free_energy_of"),
                         (fem, "assemble_mass")):
        def counting(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    def building(*args, _fn=cli.build_problem, **kwargs):
        problems.append(_fn(*args, **kwargs))
        return problems[-1]
    monkeypatch.setattr(cli, "build_problem", building)
    rc = cli.main(["freeenergy", "--config", cfg, "--out", str(out),
                   "--lambda", "-2", "--lambda", "-20", "--n", "10", "--n", "100",
                   "--delta", "0.2"])
    assert rc == 0
    capsys.readouterr()
    assert sorted(calls) == ["assemble_mass", "build_mesh", "collar_density",
                             "free_energy_of", "free_energy_of"]
    first, second = problems
    mesh = first.mesh
    assert second.mesh is mesh and second.plain is first.plain is mesh.plain
    assert second.weight.values is first.weight.values
    assert second.A is first.A is mesh.stiffness
    assert second.dirichlet is first.dirichlet is mesh.dirichlet
    monkeypatch.undo()
    run = cli.run_config(argparse.Namespace(config=cfg, out=str(tmp_path / "ref")))
    bounds = json.loads((out / "bounds.json").read_text())
    for entry in bounds:
        problem = cli.build_problem(run, floor_n=entry["n"])
        state = cli.minimize_free_energy(problem, entry["lambda"])
        collar = cli.free_energy_of(problem, cli.collar_density(problem.mesh, 0.2),
                                    entry["lambda"])
        report = cli.verify_energy_bound(problem, state, collar)
        assert entry["slacks"] == report.slacks


def test_derived_problem_equals_a_fresh_one(tmp_path):
    # floor problems built from one run config share its mesh, and so its
    # operators, and its unfloored weight; each is the problem from a fresh
    # run config bit for bit: the same weighted quadrature, weight mass and
    # Dirichlet solves
    cfg = write_config(tmp_path, singularities=[{"x": 0.0, "y": 0.0, "alpha": 1.0}])

    def run_config():
        return cli.run_config(argparse.Namespace(config=cfg, out=str(tmp_path / "out")))
    run = run_config()
    first = cli.build_problem(run, floor_n=10)
    derived = cli.build_problem(run, floor_n=100)
    fresh = cli.build_problem(run_config(), floor_n=100)
    assert derived.mesh is first.mesh is run.mesh and fresh.mesh is not first.mesh
    assert derived.dirichlet is first.dirichlet is first.mesh.dirichlet
    assert derived.weight.values is first.weight.values is run.weight.values
    assert run.weight.floor == 0.0 and derived.weight.floor == 0.01
    assert np.array_equal(derived.quad.w, fresh.quad.w)
    assert np.array_equal(derived.quad.hval, fresh.quad.hval)
    assert derived.weight_mass == fresh.weight_mass
    rhs = np.random.default_rng(0).standard_normal(len(fresh.interior))
    assert np.array_equal(derived.dirichlet.lu.solve(rhs), fresh.dirichlet.lu.solve(rhs))
    assert np.array_equal(derived.A.toarray(), fresh.A.toarray())
    assert np.array_equal(derived.plain.w, fresh.plain.w)
    assert np.array_equal(derived.weight.vertex_values(), fresh.weight.vertex_values())
    unfloored = cli.build_problem(run)
    assert unfloored.weight is run.weight
    assert unfloored.weight_mass == cli.build_problem(run_config()).weight_mass


@pytest.mark.parametrize("flags, message", [
    (["--delta", "5"], "delta must lie in"),                     # InvalidDelta
    (["--lambda", "1"], "requires lambda < 0"),                  # UnsupportedRegime
    (["--n", "0"], "floor parameter n must be positive"),        # InvalidWeight
], ids=["delta", "lambda", "n"])
def test_freeenergy_bad_request_exits_2(tmp_path, capsys, flags, message):
    # a request the free-energy chain does not accept is a config error:
    # exit 2 and no error.json
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["freeenergy", "--config", cfg, "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err
    assert not (out / "error.json").exists()


def test_freeenergy_step_floor_exits_1(tmp_path, capsys):
    # an unresolved boundary layer fails fast; error.json carries the
    # minimizer's iterations and last L1 change
    cfg = write_config(tmp_path, h_max=0.08)
    out = tmp_path / "out"
    rc = cli.main(["freeenergy", "--config", cfg, "--out", str(out),
                   "--lambda", "-100000", "--n", "10"])
    assert rc == 1
    capsys.readouterr()
    payload = json.loads((out / "error.json").read_text())
    run = cli.run_config(argparse.Namespace(config=cfg, out=str(tmp_path / "ref")))
    with pytest.raises(NoConvergence) as info:
        cli.minimize_free_energy(cli.build_problem(run, floor_n=10), -1e5)
    assert payload["error"] == "NoConvergence"
    assert payload["iterations"] == info.value.iterations < 200
    assert payload["residual"] == info.value.residual and math.isfinite(payload["residual"])


def test_freeenergy_failure_keeps_finished_cells(tmp_path, capsys):
    # the lambda = -2 cell finishes before lambda = -1e5 stops at the step
    # floor: its row and bounds are written as a successful run writes them,
    # and error.json is the failing cell's as if it had run alone
    cfg = write_config(tmp_path, h_max=0.08)

    def run(name, *lams):
        out = tmp_path / name
        flags = [arg for lam in lams for arg in ("--lambda", lam)]
        code = cli.main(["freeenergy", "--config", cfg, "--out", str(out),
                         "--n", "10", *flags])
        capsys.readouterr()
        return code, out

    (code, partial), (ok_code, ok), (alone_code, alone) = (
        run("partial", "-2", "-100000"), run("ok", "-2"), run("alone", "-100000"))
    assert (code, ok_code, alone_code) == (1, 0, 1)
    for name in ("freeenergy.csv", "bounds.json"):
        assert (partial / name).read_bytes() == (ok / name).read_bytes(), name
    assert not (alone / "freeenergy.csv").exists()
    assert (partial / "error.json").read_bytes() == (alone / "error.json").read_bytes()


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


def test_module_entry_point_runs_without_warning():
    # the package imports no `gelfand.cli` name, so `python -m gelfand.cli`
    # does not find the module already loaded; domain_from_config lives in
    # geometry and resolves from the package and from the CLI
    assert gelfand.domain_from_config is cli.domain_from_config
    src = str(Path(gelfand.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    run = subprocess.run([sys.executable, "-W", "default", "-m", "gelfand.cli", "--help"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "RuntimeWarning" not in run.stderr, run.stderr


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
