"""Command-line entry points.

Every subcommand reads a JSON domain config, writes batch artifacts into an
output directory and exits with 0 on success, 1 on a solver failure (after
persisting whatever partial results exist), or 2 on a config error.  All
artifacts are byte-deterministic for a fixed config: floats are written in
shortest round-trip form and nothing embeds a timestamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from functools import cached_property

from .branch import (LAM_MIN, check_lam_min, emit_diagram, plot_csv, trace_branch,
                     write_csv, write_json)
from .errors import BlowupDetected, ConfigError, GelfandError, NoConvergence
from .freeenergy import (collar_density, free_energy_of, minimize_free_energy,
                         verify_energy_bound)
from .geometry import build_mesh, build_weight, config_number, domain_from_config
from .meanfield import Linearization, MeanFieldProblem, save_state
from .spectrum import weighted_eigs

FREE_ENERGY_HEADER = "lambda,n,F,entropy,energy,linear,iterations"


@dataclasses.dataclass
class RunConfig:
    """Everything a subcommand needs beyond its own flags.  mesh and the unfloored
    weight are built on first read, in build_problem, and shared by its problems."""

    domain: object
    singularities: object
    h_max: float
    lam_min: float
    tol: float
    out_dir: str

    @cached_property
    def mesh(self):
        return build_mesh(self.domain, self.singularities, h_max=self.h_max)

    @cached_property
    def weight(self):
        return build_weight(self.mesh)


def load_json(path):
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e.strerror}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"malformed JSON in {path} at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None


def finite_float(text):
    """argparse type for --lambda and --mu: a finite float."""
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return x


def run_config(args) -> RunConfig:
    cfg = load_json(args.config)
    domain, sing, h_max = domain_from_config(cfg)
    trace = cfg.get("trace", {})
    if not isinstance(trace, dict):
        raise ConfigError("'trace' must be an object")
    for key in trace:
        if key != "lam_min":
            raise ConfigError(f"unknown trace option {key!r}")
    lam_min = check_lam_min(config_number(trace.get("lam_min", LAM_MIN),
                                          "trace option 'lam_min'"))
    out_dir = getattr(args, "out", ".")
    rc = RunConfig(domain=domain, singularities=sing, h_max=h_max, lam_min=lam_min,
                   tol=config_number(cfg.get("tol", 1e-9), "tol", positive=True),
                   out_dir=out_dir)
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise ConfigError(f"output directory {out_dir!r} is not writable")
    return rc


def build_problem(rc: RunConfig, floor_n=None) -> MeanFieldProblem:
    """The configured problem on rc's mesh, rc's weight floored at 1/floor_n if given."""
    return MeanFieldProblem(rc.mesh, rc.weight if floor_n is None
                            else rc.weight.with_floor(floor_n))


def error_payload(e: GelfandError) -> dict:
    """error.json content: the error's name, message and numeric context."""
    payload = {"error": type(e).__name__, "message": str(e)}
    if isinstance(e, NoConvergence):
        payload["iterations"] = None if e.iterations is None else int(e.iterations)
        payload["residual"] = _finite_or_none(e.residual)
    elif isinstance(e, BlowupDetected):
        payload["lam"] = _finite_or_none(e.lam)
        payload["sup"] = _finite_or_none(e.sup)
    return payload


def _finite_or_none(x):
    """A plain float for JSON, or None when absent or not finite."""
    if x is None or not math.isfinite(x):
        return None
    return float(x)


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args):
    if (args.lam is None) == (args.mu is None):
        raise ConfigError("solve needs exactly one of --lambda or --mu")
    rc = run_config(args)
    problem = build_problem(rc)
    if args.lam is not None:
        state = problem.solve_mp(args.lam, tol=rc.tol)
    else:
        state = problem.solve_lp(args.mu, tol=rc.tol)
    path = save_state(state, os.path.join(rc.out_dir, "state.json"))
    print(f"lambda={state.lam!r} mu={state.mu!r} E={state.energy!r} -> {path}")
    return 0


def _trace(args):
    """Trace the configured branch; on a solver failure, before re-raising,
    write the rows traced so far, sorted by lambda, to branch.csv."""
    rc = run_config(args)
    problem = build_problem(rc)
    rows = []
    try:
        return rc, trace_branch(problem, rc.lam_min, rc.tol, on_row=rows.append)
    except GelfandError:
        if rows:
            rows.sort(key=lambda r: r.lam)
            write_csv(rows, os.path.join(rc.out_dir, "branch.csv"))
        raise


def cmd_branch(args):
    rc, diagram = _trace(args)
    paths = emit_diagram(diagram, rc.out_dir)
    print(f"rows={len(diagram.points)} kind={diagram.kind} "
          f"termination={diagram.termination}")
    for p in paths:
        print(p)
    return 0


def cmd_spectrum(args):
    if args.k < 1:
        raise ConfigError(f"spectrum needs --k >= 1, got {args.k}")
    rc = run_config(args)
    problem = build_problem(rc)
    state = problem.solve_mp(args.lam, tol=rc.tol)
    report = weighted_eigs(Linearization.at_state(problem, state), k=args.k)
    csv_path = os.path.join(rc.out_dir, "spectrum.csv")
    with open(csv_path, "w") as f:
        f.write("j,sigma\n")
        for j, s in enumerate(report.sigmas, start=1):
            f.write(f"{j},{float(s)!r}\n")
    write_json({
        "lambda": float(state.lam),
        "k": len(report.sigmas),
        "sigma1": float(report.sigmas[0]),
        "tau1": float(report.tau1),
        "poincare": float(report.poincare),
        "method": report.method,
        "ortho_error": float(report.ortho_error),
        "mean_error": float(report.mean_error),
    }, os.path.join(rc.out_dir, "spectrum.json"))
    print(f"sigma1={float(report.sigmas[0])!r} tau1={float(report.tau1)!r} "
          f"CP={float(report.poincare)!r} -> {csv_path}")
    return 0


def cmd_classify(args):
    rc, diagram = _trace(args)
    write_csv(diagram.points, os.path.join(rc.out_dir, "branch.csv"))
    write_json(diagram.summary(), os.path.join(rc.out_dir, "classification.json"))
    print(diagram.kind)
    return 0


def cmd_freeenergy(args):
    rc = run_config(args)
    lams = args.lam or [-2.0, -20.0, -200.0]
    ns = args.n or [10, 100, 1000]
    rows, bounds, collar = [], [], None
    csv_path = os.path.join(rc.out_dir, "freeenergy.csv")
    try:
        for n in ns:
            problem = build_problem(rc, floor_n=n)
            if collar is None:      # the mesh is built by the first build_problem
                collar = collar_density(problem.mesh, args.delta)
            collar_state = free_energy_of(problem, collar, lams[0])  # serves every lambda
            for lam in lams:
                state = minimize_free_energy(problem, lam)
                report = verify_energy_bound(problem, state, collar_state)
                rows.append(f"{lam!r},{n!r},{state.free_energy!r},{state.entropy_term!r},"
                            f"{state.energy!r},{state.linear_term!r},{state.iterations}")
                bounds.append({"lambda": lam, "n": n, "delta": args.delta,
                               "slacks": report.slacks})
    finally:                # a failure still writes the finished cells
        if rows:
            with open(csv_path, "w") as f:
                f.write(FREE_ENERGY_HEADER + "\n")
                for row in rows:
                    f.write(row + "\n")
            write_json(bounds, os.path.join(rc.out_dir, "bounds.json"))
    print(f"rows={len(rows)} -> {csv_path}")
    return 0


def cmd_plot(args):
    try:
        paths = plot_csv(args.csv, args.out, stem=args.stem)
    except OSError as e:
        raise ConfigError(f"cannot read CSV {args.csv}: {e.strerror}") from None
    except ValueError as e:
        raise ConfigError(str(e)) from None
    for p in paths:
        print(p)
    return 0


# ---------------------------------------------------------------------------
# driver


def build_parser():
    ap = argparse.ArgumentParser(
        prog="gelfand",
        description="Singular Gelfand problem: branches, spectra, free energy.")
    sub = ap.add_subparsers(dest="command", required=True)

    def with_config(p, out=True):
        p.add_argument("--config", required=True, help="JSON domain config")
        if out:
            p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("solve", help="solve one state at fixed lambda or mu")
    with_config(p)
    p.add_argument("--lambda", dest="lam", type=finite_float, default=None)
    p.add_argument("--mu", type=finite_float, default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("branch", help="trace the full branch, emit CSV and plots")
    with_config(p)
    p.set_defaults(func=cmd_branch)

    p = sub.add_parser("spectrum", help="weighted eigenvalues at one state")
    with_config(p)
    p.add_argument("--lambda", dest="lam", type=finite_float, default=0.0)
    p.add_argument("--k", type=int, default=10)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("classify", help="trace and classify the branch kind")
    with_config(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("freeenergy", help="free-energy minimization and bounds")
    with_config(p)
    p.add_argument("--lambda", dest="lam", type=finite_float, action="append",
                   help="may repeat; default -2, -20, -200")
    p.add_argument("--n", type=int, action="append",
                   help="weight floor index, may repeat; default 10, 100, 1000")
    p.add_argument("--delta", type=float, default=0.1)
    p.set_defaults(func=cmd_freeenergy)

    p = sub.add_parser("plot", help="re-plot a branch CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--stem", default="branch")
    p.set_defaults(func=cmd_plot)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as e:    # the request itself was bad, not a solve
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except GelfandError as e:
        print(f"solver failure: {type(e).__name__}: {e}", file=sys.stderr)
        out = getattr(args, "out", ".")
        try:
            os.makedirs(out, exist_ok=True)
            write_json(error_payload(e), os.path.join(out, "error.json"))
        except OSError:
            pass
        return 1


if __name__ == "__main__":
    sys.exit(main())
