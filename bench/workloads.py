"""The three benchmark workloads and the checks on their outputs.

Each workload offers `warmup()`, `setup_once()` and `op(out_dir)`.  An
operation returns an `Op` holding its set-up and work times, read from the
clock function the workload was given, how many
checked results it produced and which of them failed.  Set-up means
building the mesh, the weight and the `MeanFieldProblem`; for the CLI
workloads it is timed at `cli.build_problem`, the seam between the CLI's
set-up and its work, so everything after it in `cli.main` counts as work.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracle
# package functions are called through their modules, so traced runs see
# the wrappers installed there
from gelfand import cli, geometry, meanfield
from gelfand.errors import GelfandError

H_MAX = 0.05
H_WARM = 0.14      # coarse mesh for the untimed warm-up


@dataclass
class Op:
    setup_s: float
    wall_s: float
    attempted: int
    failures: list = field(default_factory=list)
    relerr: float = 0.0          # worst relative error against the closed form
    fingerprint: object = None   # outputs that must repeat exactly
    traced: bool = False


def _write_config(path, h_max):
    cfg = {"schema": 1, "shape": "unit_disk", "mesh": {"h_max": h_max}}
    with open(path, "w") as f:
        json.dump(cfg, f)
    return path


def _read_tree(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as f:
            out[name] = f.read()
    return out


class _SetupSeam:
    """Times every `cli.build_problem` call; the CLI's set-up/work boundary."""

    def __init__(self, now):
        self.seconds = 0.0
        self._original = cli.build_problem

        def timed(*args, **kwargs):
            t0 = now()
            try:
                return self._original(*args, **kwargs)
            finally:
                self.seconds += now() - t0
        cli.build_problem = timed

    def take(self):
        s, self.seconds = self.seconds, 0.0
        return s

    def close(self):
        cli.build_problem = self._original


class _CliWorkload:
    """A `gelfand <command>` run in process, through `cli.main`."""

    command = None

    def __init__(self, work_dir, seed, now):
        self.work = work_dir
        self.now = now
        self.config = _write_config(os.path.join(work_dir, "config.json"), H_MAX)
        self.warm_config = _write_config(os.path.join(work_dir, "warm.json"), H_WARM)
        self.seam = _SetupSeam(now)

    def _main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def _run(self, config, out_dir, extra=()):
        self.seam.take()
        t0 = self.now()
        code, text = self._main([self.command, "--config", config, "--out", out_dir,
                                 *extra])
        total = self.now() - t0
        setup = self.seam.take()
        return code, text, setup, total - setup

    def setup_once(self):
        rc = cli.run_config(argparse.Namespace(config=self.config,
                                               out=os.path.join(self.work, "setup")))
        t0 = self.now()
        for n in self.floors:
            cli.build_problem(rc, floor_n=n)
        seconds = self.now() - t0
        self.seam.take()
        return seconds

    def close(self):
        self.seam.close()


class BranchDisk(_CliWorkload):
    """`gelfand branch` on the unit disk with constant weight, h_max = 0.05."""

    name = "branch_disk"
    command = "branch"
    floors = (None,)

    def warmup(self):
        code, text, _, _ = self._run(self.warm_config, os.path.join(self.work, "warm"))
        return Op(0.0, 0.0, 1, [] if code == 0 else [f"warm-up exit code {code}: {text}"])

    def op(self, out_dir):
        code, text, setup, wall = self._run(self.config, out_dir)
        op = Op(setup, wall, attempted=1)
        if code != 0:
            op.failures.append(f"exit code {code}: {text.strip()}")
            return op
        with open(os.path.join(out_dir, "branch.json")) as f:
            summary = json.load(f)
        lam_star, mu_star = oracle.fold(1.0)
        fold = summary.get("fold") or {}
        rel_lam = abs(fold.get("lambda", math.inf) - lam_star) / lam_star
        rel_mu = abs(fold.get("mu", math.inf) - mu_star) / mu_star
        op.relerr = max(rel_lam, rel_mu)
        if not op.relerr <= 0.01:
            op.failures.append(f"fold off the oracle: lambda* rel {rel_lam:.3g}, "
                               f"mu* rel {rel_mu:.3g}")
        if summary.get("kind") != "first":
            op.failures.append(f"kind {summary.get('kind')!r}, expected 'first'")
        op.fingerprint = _read_tree(out_dir)
        return op


class FreeEnergyChain(_CliWorkload):
    """`gelfand freeenergy` with its defaults on the unit disk, h_max = 0.05."""

    name = "freeenergy_chain"
    command = "freeenergy"
    floors = (10, 100, 1000)
    lams = (-2.0, -20.0, -200.0)
    pairs = len(floors) * len(lams)

    def warmup(self):
        code, text, _, _ = self._run(self.warm_config, os.path.join(self.work, "warm"),
                                     ("--lambda", "-2", "--n", "10"))
        return Op(0.0, 0.0, 1, [] if code == 0 else [f"warm-up exit code {code}: {text}"])

    def op(self, out_dir):
        code, text, setup, wall = self._run(self.config, out_dir)
        op = Op(setup, wall, attempted=self.pairs)
        if code != 0:
            op.failures.extend([f"exit code {code}: {text.strip()}"] * self.pairs)
            return op
        with open(os.path.join(out_dir, "freeenergy.csv")) as f:
            header, *lines = f.read().split()
        cols = header.split(",")
        energies = {}
        for line in lines:
            row = dict(zip(cols, line.split(",")))
            energies[(float(row["lambda"]), int(row["n"]))] = float(row["energy"])
        with open(os.path.join(out_dir, "bounds.json")) as f:
            slacks = {(float(b["lambda"]), int(b["n"])): b["slacks"] for b in json.load(f)}
        e0 = oracle.energy_at_zero(1.0)
        for n in self.floors:
            for lam in self.lams:
                key = (lam, n)
                if key not in energies or key not in slacks:
                    op.failures.append(f"no result for lambda={lam}, n={n}")
                    continue
                exact = oracle.energy_of_lam(lam, 1.0)
                rel = abs(energies[key] - exact) / exact
                op.relerr = max(op.relerr, rel)
                worst = min(slacks[key].values())
                if not (rel <= 0.06 and worst >= -1e-9):
                    op.failures.append(
                        f"lambda={lam}, n={n}: E/E0 = {energies[key] / e0:.4f} vs "
                        f"oracle {exact / e0:.4f}, worst bound slack {worst!r}")
        op.fingerprint = _read_tree(out_dir)
        return op


class MuSweep:
    """`MeanFieldProblem.solve_lp` at seeded mu on the disk, weight |x|^(2 alpha)."""

    name = "mu_sweep"
    alpha = 0.5
    n_positive, n_negative = 8, 4
    neg_range = (1.0, 50.0)        # |mu| for the negative requests

    def __init__(self, work_dir, seed, now):
        self.now = now
        self.beta = 1.0 + self.alpha
        self.sing = geometry.SingularitySpec.of((0.0, 0.0, self.alpha))
        _, self.mu_star = oracle.fold(self.beta)
        rng = np.random.default_rng(seed)
        lo, hi = 0.1 * self.mu_star, 0.95 * self.mu_star
        # one draw per stratum; the upper half mirrors the lower half
        # (antithetic pairs), which keeps the sweep's cost nearly the same for
        # every seed since the cost of a request grows steadily with mu
        half = rng.random(self.n_positive // 2)
        u = list(half) + [1.0 - v for v in half[::-1]]
        width = (hi - lo) / self.n_positive
        pos = [lo + (i + v) * width for i, v in enumerate(u)]
        log_lo, log_hi = (math.log(m) for m in self.neg_range)
        step = (log_hi - log_lo) / self.n_negative
        neg = [-math.exp(log_lo + (j + v) * step)
               for j, v in enumerate(rng.random(self.n_negative))]
        self.requests = [float(m) for m in pos + neg]

    def _problem(self, h_max):
        mesh = geometry.build_mesh(geometry.DomainSpec.unit_disk(), self.sing, h_max=h_max)
        return meanfield.MeanFieldProblem(mesh, geometry.build_weight(mesh, self.sing))

    def _check(self, op, mu, state):
        rel_mu = abs(state.mu - mu) / abs(mu)
        exact = oracle.lam_of_mu(mu, self.beta)
        rel_lam = abs(state.lam - exact) / abs(exact)
        op.relerr = max(op.relerr, rel_lam)
        if not (rel_mu <= 1e-6 and rel_lam <= 0.01):
            op.failures.append(f"mu={mu!r}: returned mu rel error {rel_mu:.3g}, "
                               f"lambda {state.lam!r} vs oracle {exact!r}")

    def _solve_all(self, problem, requests, op):
        results = []
        for mu in requests:
            try:
                state = problem.solve_lp(mu)
            except GelfandError as e:
                op.failures.append(f"mu={mu!r}: {type(e).__name__}: {e}")
                results.append(None)
                continue
            results.append(state)
        return results

    def warmup(self):
        requests = (1.0, -5.0)
        op = Op(0.0, 0.0, len(requests))
        for mu, state in zip(requests, self._solve_all(self._problem(H_WARM), requests, op)):
            if state is not None:
                rel = abs(state.mu - mu) / abs(mu)
                if not rel <= 1e-6:
                    op.failures.append(f"warm-up mu={mu!r}: returned mu rel error {rel:.3g}")
        return op

    def setup_once(self):
        t0 = self.now()
        self._problem(H_MAX)
        return self.now() - t0

    def op(self, out_dir):
        t0 = self.now()
        problem = self._problem(H_MAX)
        t1 = self.now()
        op = Op(t1 - t0, 0.0, len(self.requests))
        states = self._solve_all(problem, self.requests, op)
        op.wall_s = self.now() - t1
        for mu, state in zip(self.requests, states):
            if state is not None:
                self._check(op, mu, state)
        op.fingerprint = [None if s is None else (s.lam, s.mu, s.energy) for s in states]
        return op

    def close(self):
        pass


WORKLOADS = {w.name: w for w in (BranchDisk, MuSweep, FreeEnergyChain)}
