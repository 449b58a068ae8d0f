"""Branch tracing, fold location and domain classification.

The branch lambda -> psi_lambda is smooth on (-inf, 8 pi): the linearized
operator stays invertible there, so plain warm-started continuation in lambda
suffices and no arclength parametrization is needed.  The fold of the
(mu, E) diagram appears as the zero of

    g(lambda) = 1 - lambda <z_lambda>,   z_lambda = psi + lambda eta,

where eta = d psi / d lambda solves the linearized equation with load
rho (psi - <psi>), and <z> is evaluated through the identity
<z> = 2 E + lambda <eta> rather than by differencing.  sign(g) tracks
sign(d mu / d lambda), so a first-kind domain shows exactly one sign change
on (0, 8 pi).

Every Newton solve of the march starts from the Euler (tangent) predictor
psi + (lambda' - lambda) eta of the last accepted state; eta comes from the
row's own g diagnostics.  The fold is the root of g between the two kept
row states that bracket its sign change, found by Brent's method with each
trial state predicted from the lower one.

Classification at the 8 pi end reads the computed asymptotics: on first-kind
domains sup|u| and E diverge, with E growing like log(1/(8 pi - lambda))
at slope about 1/(8 pi); on second-kind domains both stay bounded and the
slope vanishes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import BlowupDetected, FoldSingularity, NoConvergence, NoFoldInRange
from .meanfield import (EIGHT_PI, NEWTON_TOL, Linearization, MeanFieldProblem,
                        MeanFieldState)
from .spectrum import WarmStart, weighted_eigs
from .svg import line_plot

CSV_HEADER = "lambda,mu,E,dEdlambda,g,sigma1,tau1,CP,sup_psi,residual"


@dataclass
class BranchPoint:
    lam: float
    mu: float
    energy: float
    dE_dlambda: float
    g_value: float
    sigma1: float
    tau1: float
    poincare: float
    sup_norm: float
    residual: float

    def csv_row(self):
        vals = (self.lam, self.mu, self.energy, self.dE_dlambda, self.g_value,
                self.sigma1, self.tau1, self.poincare, self.sup_norm, self.residual)
        return ",".join(repr(float(v)) for v in vals)

    @staticmethod
    def from_csv_row(line):
        parts = line.strip().split(",")
        if len(parts) != 10:
            raise ValueError(f"expected 10 columns, got {len(parts)}")
        v = [float(p) for p in parts]
        return BranchPoint(*v)


@dataclass
class BranchDiagram:
    points: list
    fold: tuple | None = None          # (lambda*, E*, mu*)
    kind: str = "undetermined"
    mu_at_min: float = math.nan        # mu at lambda_min (to -inf trend)
    mu1_estimate: float | None = None  # mu at the last row (to 0 on first kind)
    termination: str = "completed"     # completed | blowup | stalled

    def positive_rows(self):
        return [p for p in self.points if p.lam > 0]

    def summary(self):
        """The JSON summary: kind, termination, fold and the mu trends."""
        return {
            "kind": self.kind,
            "termination": self.termination,
            "fold": None if self.fold is None else
                {"lambda": self.fold[0], "E": self.fold[1], "mu": self.fold[2]},
            "mu_at_min": self.mu_at_min,
            "mu1_estimate": self.mu1_estimate,
            "rows": len(self.points),
        }


@dataclass
class TraceConfig:
    lam_min: float = -200.0
    eps_stop: float = EIGHT_PI * 1e-3
    eps_classify: float = EIGHT_PI * 5e-3
    neg_ratio: float = 0.7             # geometric spacing on (lam_min, 0]
    neg_cut: float = 0.05              # smallest |lambda| before hitting 0
    pos_step: float = math.pi / 4      # uniform spacing on (0, tail_start]
    tail_start: float = 6 * math.pi
    tail_ratio: float = 0.65           # geometric approach to 8 pi
    spectrum_k: int = 1
    newton_budget: int = 8             # iterations above which the step halves
    sup_jump: float = 2.0              # sup-norm ratio above which the step halves
    min_gap: float = 1e-4
    max_rows: int = 500
    sup_diverged: float = 5.0          # threshold on sup|u| = lambda sup|psi|
    energy_diverged: float = 0.05
    slope_diverged: float = 0.01
    mu_collapse: float = 0.25          # mu_last / mu_max below this => blowup trend
    mu_flat: float = 0.5               # mu_last / mu_max above this => bounded


@dataclass
class GDiagnostics:
    g: float
    z_avg: float
    z3_avg: float
    z_min: float
    eta_avg: float
    identity_error: float
    eta: np.ndarray


# ---------------------------------------------------------------------------
# pointwise branch quantities


def solve_eta(problem: MeanFieldProblem, state: MeanFieldState,
              lin: Linearization | None = None) -> np.ndarray:
    """The branch derivative d psi / d lambda as a Dirichlet field.

    Solves the linearized equation with load rho (psi - <psi>).
    """
    if lin is None:
        lin = Linearization.at_state(problem, state)
    rhs = (lin.M_rho @ state.psi - lin.rho_average(state.psi) * lin.b)[problem.interior]
    eta = np.zeros(problem.mesh.n_vertices)
    eta[problem.interior] = lin.solve(rhs, rtol=1e-10)
    return eta


def g_of(problem: MeanFieldProblem, state: MeanFieldState,
         lin: Linearization | None = None) -> GDiagnostics:
    """The fold indicator g = 1 - lambda <z> and the related z diagnostics."""
    if lin is None:
        lin = Linearization.at_state(problem, state)
    eta = solve_eta(problem, state, lin=lin)
    eta_avg = lin.rho_average(eta)
    z = state.psi + state.lam * eta
    z_avg = 2.0 * state.energy + state.lam * eta_avg
    identity_error = abs(lin.rho_average(z) - z_avg)
    z3 = float(np.sum(problem.quad.w * lin.factors * problem.quad.eval(z) ** 3))
    return GDiagnostics(
        g=1.0 - state.lam * z_avg, z_avg=z_avg, z3_avg=z3,
        z_min=float(z.min()), eta_avg=eta_avg,
        identity_error=identity_error, eta=eta)


def dE_dlambda(problem: MeanFieldProblem, state: MeanFieldState,
               eta: np.ndarray) -> float:
    """Energy derivative along the branch: eta paired with the state through
    the stiffness form."""
    return float(eta @ (problem.A @ state.psi))


def _branch_point(problem, state, cfg, warm=None):
    """The row of a state, plus its g diagnostics (which hold eta).

    warm is the spectrum's WarmStart carrier of the pass, if any.
    """
    lin = Linearization.at_state(problem, state)
    diag = g_of(problem, state, lin=lin)
    report = weighted_eigs(problem, state, k=cfg.spectrum_k, lin=lin, warm=warm)
    row = BranchPoint(
        lam=state.lam, mu=state.mu, energy=state.energy,
        dE_dlambda=dE_dlambda(problem, state, diag.eta), g_value=diag.g,
        sigma1=float(report.sigmas[0]), tau1=report.tau1,
        poincare=report.poincare, sup_norm=float(np.abs(state.psi).max()),
        residual=state.residual)
    return row, diag


# ---------------------------------------------------------------------------
# tracing


def _negative_targets(cfg):
    mags = []
    m = abs(cfg.lam_min)
    while m > cfg.neg_cut:
        mags.append(m)
        m *= cfg.neg_ratio
    return [-m for m in reversed(mags)]          # march 0 -> lam_min reversed later


def _positive_targets(cfg):
    out = []
    lam = cfg.pos_step
    while lam < cfg.tail_start + 1e-12 and lam < EIGHT_PI - cfg.eps_stop:
        out.append(min(lam, EIGHT_PI - cfg.eps_stop))
        lam += cfg.pos_step
    lam = out[-1] if out else 0.0
    g = (EIGHT_PI - lam) * (1 - cfg.tail_ratio)
    while EIGHT_PI - lam > cfg.eps_stop * (1 + 1e-9):
        lam = min(lam + g, EIGHT_PI - cfg.eps_stop)
        out.append(lam)
        g = (EIGHT_PI - lam) * (1 - cfg.tail_ratio)
        if g < cfg.eps_stop * 0.5:
            out.append(EIGHT_PI - cfg.eps_stop)
            break
    # dedupe while preserving order
    seen, targets = set(), []
    for t in out:
        key = round(t, 12)
        if key not in seen:
            seen.add(key)
            targets.append(t)
    return targets


def _march(problem, start, targets, cfg, on_state, tol, max_iter):
    """Continuation through the target list, each Newton solve to tol.

    start is the (state, eta) pair to march from.  Each solve starts from
    the predictor psi + (target - lambda) eta of the last accepted state;
    on_state(state) returns the eta of every accepted state (the tangent
    along a trace, a secant in a cold solve_mp), or None to stop there.  A
    solve is retried at the midpoint when Newton works too hard or the
    iterate jumps; failures below the minimum gap end the march gracefully.
    Returns the last state and the termination tag.
    """
    state, eta = start
    stack = list(reversed(targets))
    rows = 0
    while stack:
        target = stack[-1]
        gap = abs(target - state.lam)
        try:
            guess = state.psi + (target - state.lam) * eta
            nxt = problem._newton(target, guess, tol, max_iter)
            jumped = (np.abs(nxt.psi).max()
                      > cfg.sup_jump * max(np.abs(state.psi).max(), 0.05))
            trouble = nxt.iterations > cfg.newton_budget or jumped
            failed = was_blowup = False
        except BlowupDetected:
            trouble = failed = was_blowup = True
        except (NoConvergence, FoldSingularity):
            trouble, failed, was_blowup = True, True, False
        if trouble and gap > cfg.min_gap:
            stack.append(state.lam + 0.5 * (target - state.lam))
            continue
        if failed:
            return state, "blowup" if was_blowup else "stalled"
        state = nxt
        stack.pop()
        eta = on_state(state)
        if eta is None:
            return state, "stopped"
        rows += 1
        if rows >= cfg.max_rows:
            return state, "stalled"
    return state, "completed"


def trace_branch(problem: MeanFieldProblem, cfg: TraceConfig | None = None,
                 on_row=None):
    """Trace the full branch and assemble the bifurcation diagram.

    Two predicted continuation passes run from the exactly-known lambda = 0
    state: downward to lam_min and upward toward 8 pi.  Solver failures near
    8 pi terminate the upward pass gracefully with a partial diagram (that
    is the expected first-kind behavior once the blowup scale falls below
    the mesh).  The states of the positive rows either side of a sign change
    of g are kept for the fold locator.  Each pass starts its eigensolves
    from the lambda = 0 row's eigenvectors and then from its previous row's,
    through its own copy of one spectrum.WarmStart carrier.  The optional
    on_row callback sees every finished row in marching order, so callers
    can persist partial results across a hard failure.
    """
    cfg = cfg or TraceConfig()
    state0 = problem.solve_mp(0.0)
    rows_neg, rows_pos = [], []
    # lambda -> (state, g diagnostics) of the positive rows on either side
    # of each sign change of g; last is the previous positive row's pair
    kept, last = {}, None

    def collect(bucket, warm):
        def add(state):
            nonlocal last
            row, diag = _branch_point(problem, state, cfg, warm)
            bucket.append(row)
            if on_row is not None:
                on_row(row)
            if state.lam > 0:
                if last is not None and (last[1].g > 0) != (diag.g > 0):
                    kept.update({last[0].lam: last, state.lam: (state, diag)})
                last = (state, diag)
            return diag.eta
        return add

    warm = WarmStart()
    row0, diag0 = _branch_point(problem, state0, cfg, warm)
    _, term_neg = _march(problem, (state0, diag0.eta), _negative_targets(cfg),
                         cfg, collect(rows_neg, warm.copy()), NEWTON_TOL, 40)
    if on_row is not None:
        on_row(row0)
    _, term_pos = _march(problem, (state0, diag0.eta), _positive_targets(cfg),
                         cfg, collect(rows_pos, warm.copy()), NEWTON_TOL, 40)

    points = rows_neg[::-1] + [row0] + rows_pos
    diagram = BranchDiagram(points=points, termination=term_pos)
    if rows_neg:
        diagram.mu_at_min = rows_neg[-1].mu
    if rows_pos:
        diagram.mu1_estimate = rows_pos[-1].mu
    if term_neg != "completed":
        diagram.termination = "stalled"
    try:
        fold = find_fold(problem, diagram, kept)
        diagram.fold = (fold.lam, fold.energy, fold.mu)
    except NoFoldInRange:
        diagram.fold = None
    diagram.kind = classify_kind(diagram, cfg)
    return diagram


def find_fold(problem: MeanFieldProblem, diagram: BranchDiagram,
              states=None, tol: float = 1e-8) -> MeanFieldState:
    """The fold state, where g vanishes between two positive grid rows.

    states maps the lambda of a positive row to its (state, g diagnostics)
    pair, as kept by trace_branch; the pair bracketing the sign change of g
    seeds locate_fold, so no state is solved from scratch.  Raises
    NoFoldInRange when g does not change sign on the positive rows (the
    legitimate outcome for second-kind runs or negative-only data), when it
    changes sign more than once, or when the bracketing rows have no kept
    states.
    """
    rows = diagram.positive_rows()
    rows = [r for r in rows if r.lam < EIGHT_PI]
    crossings = [(a, b) for a, b in zip(rows, rows[1:])
                 if a.g_value > 0 >= b.g_value or a.g_value <= 0 < b.g_value]
    if not crossings:
        raise NoFoldInRange("g does not change sign on the sampled grid")
    if len(crossings) > 1:
        raise NoFoldInRange(f"g changes sign {len(crossings)} times; grid too coarse")
    lo_row, hi_row = crossings[0]
    states = states or {}
    if lo_row.lam not in states or hi_row.lam not in states:
        raise NoFoldInRange(f"no kept states for the sign change of g on "
                            f"[{lo_row.lam!r}, {hi_row.lam!r}]")
    return locate_fold(problem, states[lo_row.lam], states[hi_row.lam], tol=tol)


class _FoldFound(Exception):
    """Ends the root search once a trial state meets the g tolerance."""

    def __init__(self, state):
        super().__init__()
        self.state = state


def locate_fold(problem: MeanFieldProblem, lo, hi, tol: float = 1e-8,
                newton_tol: float = NEWTON_TOL, max_iter: int = 40) -> MeanFieldState:
    """The state with |g| < tol between two solved states whose g differ in sign.

    lo and hi are (state, g diagnostics) pairs.  The root of g in lambda is
    found by Brent's method; each trial lambda is one Newton solve started
    from the Euler predictor psi_lo + (lambda - lambda_lo) eta_lo, then one
    g evaluation.  Raises NoFoldInRange, naming the bracket, when g has no
    sign change on it or the root search ends without meeting tol.
    """
    (s_lo, d_lo), (s_hi, d_hi) = lo, hi
    bracket = f"[{s_lo.lam!r}, {s_hi.lam!r}] (g = {d_lo.g!r}, {d_hi.g!r})"
    for state, diag in (lo, hi):
        if abs(diag.g) < tol:
            return state
    if (d_lo.g > 0) == (d_hi.g > 0):
        raise NoFoldInRange(f"g does not change sign on {bracket}")
    known = {s_lo.lam: d_lo.g, s_hi.lam: d_hi.g}

    def g(lam):
        if lam in known:
            return known[lam]
        guess = s_lo.psi + (lam - s_lo.lam) * d_lo.eta
        state = problem._newton(lam, guess, newton_tol, max_iter)
        value = g_of(problem, state).g
        if abs(value) < tol:
            raise _FoldFound(state)
        return value

    try:
        brentq(g, s_lo.lam, s_hi.lam, xtol=1e-14, rtol=8.9e-16, disp=False)
    except _FoldFound as found:
        return found.state
    raise NoFoldInRange(f"root search on g did not reach |g| < {tol:g} on {bracket}")


def classify_kind(diagram: BranchDiagram, cfg: TraceConfig | None = None) -> str:
    """First kind: the branch blows up as lambda -> 8 pi; second: it stays bounded.

    Divergence is read from sup|u| = lambda sup|psi| (psi itself stays small;
    u is what blows up) together with the mu trend: one-point blowup forces
    mu proportional to (8 pi - lambda), so mu at the last rows collapses
    relative to its maximum.  The collapse ratio is the mesh-robust signal; a
    fixed sup threshold alone saturates once the bubble width falls below the
    mesh scale.  Bounded branches keep mu near its running maximum and show a
    vanishing slope of E against log(1/(8 pi - lambda)).
    """
    cfg = cfg or TraceConfig()
    rows = diagram.positive_rows()
    if not rows:
        return "undetermined"
    last = rows[-1]
    sup_u = last.lam * last.sup_norm
    reached = last.lam >= EIGHT_PI - cfg.eps_classify
    mu_max = max(r.mu for r in rows)
    mu_ratio = last.mu / mu_max if mu_max > 0 else math.inf
    tail = [r for r in rows if r.lam > cfg.tail_start][-5:]
    if len(tail) >= 3:
        x = [math.log(1.0 / (EIGHT_PI - r.lam)) for r in tail]
        y = [r.energy for r in tail]
        slope = float(np.polyfit(x, y, 1)[0])
    else:
        slope = math.nan
    diverged = sup_u > cfg.sup_diverged and last.energy > cfg.energy_diverged
    if diagram.termination == "blowup" and diverged:
        return "first"
    if not reached:
        return "undetermined"
    if diverged and mu_ratio < cfg.mu_collapse:
        return "first"
    if sup_u <= cfg.sup_diverged and last.energy <= cfg.energy_diverged \
            and mu_ratio > cfg.mu_flat and abs(slope) < cfg.slope_diverged:
        return "second"
    return "undetermined"


# ---------------------------------------------------------------------------
# emission


def write_csv(points, path):
    with open(path, "w") as f:
        f.write(CSV_HEADER + "\n")
        for p in points:
            f.write(p.csv_row() + "\n")
    return path


def write_json(obj, path):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
    return path


def read_csv(path):
    with open(path) as f:
        header = f.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header: {header}")
        return [BranchPoint.from_csv_row(line) for line in f if line.strip()]


def emit_diagram(diagram: BranchDiagram, out_dir, stem="branch"):
    """CSV + summary JSON + the four standard SVG views of the diagram."""
    if not diagram.points:
        raise ValueError("empty diagram")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    paths.append(write_csv(diagram.points, csv_path))
    paths.append(write_json(diagram.summary(), os.path.join(out_dir, f"{stem}.json")))
    paths.extend(plot_csv(csv_path, out_dir, stem=stem))
    return paths


def plot_csv(csv_path, out_dir, stem="branch"):
    """The four standard views from a branch CSV."""
    points = read_csv(csv_path)
    if not points:
        raise ValueError("empty branch CSV")
    os.makedirs(out_dir, exist_ok=True)
    lam = [p.lam for p in points]
    e_vals = [p.energy for p in points]
    g_vals = [p.g_value for p in points]
    mu = [p.mu for p in points]
    pos = [p for p in points if p.lam > 0]
    out = []
    out.append(line_plot(
        os.path.join(out_dir, f"{stem}_lambda_E.svg"),
        [(lam, e_vals, "E")], xlabel="lambda", ylabel="E",
        title="energy along the branch", vlines=(EIGHT_PI,)))
    out.append(line_plot(
        os.path.join(out_dir, f"{stem}_lambda_g.svg"),
        [(lam, g_vals, "g")], xlabel="lambda", ylabel="g",
        title="fold indicator", vlines=(EIGHT_PI,)))
    if pos:
        out.append(line_plot(
            os.path.join(out_dir, f"{stem}_E_mu.svg"),
            [([p.energy for p in pos], [p.mu for p in pos], "mu")],
            xlabel="E", ylabel="mu", title="bifurcation diagram"))
    out.append(line_plot(
        os.path.join(out_dir, f"{stem}_mu_E.svg"),
        [(mu, e_vals, "E")], xlabel="mu", ylabel="E",
        title="energy against mu"))
    return out
