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

The march's Newton solves are Newton-chord solves (Kelley 1995, ch. 5) fed
from the rows' own diagnostics: each row's g diagnostics factor its bordered
Jacobian to get eta, and that LU is handed to the next row's Newton solve as
its first held one, which it keeps while its steps contract the residual.
The first solve of a pass starts from the Euler (tangent) predictor
psi + (lambda' - lambda) eta of the start state and factors its own
Jacobian; later ones start from the second-order predictor that adds
(lambda' - lambda)^2 / 2 times the difference quotient of eta over the last
two rows (Allgower-Georg 2003), which keeps the held LU's steps few.  A
row's LU lives until the next row is accepted, never into its diagnostics.
The march keeps the (state, g diagnostics) pairs of the rows either side of
each sign change of g, and find_fold, the one fold locator of trace_branch
and of solve_lp's fallback, takes the root of g inside the one bracket by
Brent's method, each trial state predicted from the lower row.  The Brent
search is the package's own, _brent_root, which takes scipy.optimize.brentq's
steps one for one, so the package never imports scipy.optimize.

Classification follows the definition of the kind: a domain is of first
kind when the mean-field equation has no solution at lambda = 8 pi, so the
branch blows up there, and of second kind when one exists.  After an upward
march that completes, one solve_mp at 8 pi from the last row's predictor
decides it; solve_mp alone judges whether a state there is trusted.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (BlowupDetected, ConfigError, FoldSingularity, NoConvergence,
                     NoFoldInRange)
from .meanfield import (EIGHT_PI, NEWTON_TOL, Linearization, MeanFieldProblem,
                        MeanFieldState)
from .spectrum import WarmStart, weighted_eigs
from .svg import line_plot

CSV_HEADER = "lambda,mu,E,dEdlambda,g,sigma1,tau1,CP,sup_psi,residual"

# the target grid: geometric on [lam_min, 0), uniform on (0, TAIL_START], then
# geometric toward 8 pi, ending at 8 pi - EPS_STOP
LAM_MIN = -200.0
NEG_RATIO = 0.7                    # geometric spacing on (lam_min, 0]
NEG_CUT = 0.05                     # smallest |lambda| before hitting 0
POS_STEP = math.pi / 4             # uniform spacing on (0, TAIL_START]
TAIL_START = 6 * math.pi
TAIL_RATIO = 0.65                  # geometric approach to 8 pi
EPS_STOP = EIGHT_PI * 1e-3

# the march
NEWTON_BUDGET = 8                  # factorizations above which the step halves
SUP_JUMP = 2.0                     # sup-norm ratio above which the step halves
MIN_GAP = 1e-4                     # no step is halved below this
MAX_ROWS = 500
FOLD_G_TOL = 1e-8                  # |g| at the located fold


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
    mu_at_min: float | None = None     # mu at lambda_min (to -inf trend), or None
    mu1_estimate: float | None = None  # mu at the last row (to 0 on first kind)
    termination: str = "completed"     # completed | blowup | stalled

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
class GDiagnostics:
    g: float
    eta: np.ndarray


# ---------------------------------------------------------------------------
# pointwise branch quantities


def solve_eta(lin: Linearization, state: MeanFieldState) -> np.ndarray:
    """The branch derivative d psi / d lambda as a Dirichlet field.

    Solves the linearized equation lin, Linearization.at_state(problem,
    state), with load rho (psi - <psi>).
    """
    problem = lin.problem
    rhs = (lin.M_rho @ state.psi - lin.rho_average(state.psi) * lin.b)[problem.interior]
    eta = np.zeros(problem.mesh.n_vertices)
    eta[problem.interior] = lin.solve(rhs, rtol=1e-10)
    return eta


def g_of(lin: Linearization, state: MeanFieldState) -> GDiagnostics:
    """The fold indicator g = 1 - lambda <z> and the branch derivative eta.

    lin is Linearization.at_state(problem, state); z = psi + lambda eta, and
    its rho average is formed as 2E + lambda <eta>.
    """
    eta = solve_eta(lin, state)
    z_avg = 2.0 * state.energy + state.lam * lin.rho_average(eta)
    return GDiagnostics(g=1.0 - state.lam * z_avg, eta=eta)


def dE_dlambda(problem: MeanFieldProblem, state: MeanFieldState,
               eta: np.ndarray) -> float:
    """Energy derivative along the branch: eta paired with the state through
    the stiffness form."""
    return float(eta @ (problem.A @ state.psi))


def _branch_point(problem, state, warm=None):
    """The row of a state, its g diagnostics (which hold eta) and the
    Linearization they factored.

    warm is the spectrum's WarmStart carrier of the pass, if any.
    """
    lin = Linearization.at_state(problem, state)
    diag = g_of(lin, state)
    report = weighted_eigs(lin, k=1, warm=warm)
    row = BranchPoint(
        lam=state.lam, mu=state.mu, energy=state.energy,
        dE_dlambda=dE_dlambda(problem, state, diag.eta), g_value=diag.g,
        sigma1=float(report.sigmas[0]), tau1=report.tau1,
        poincare=report.poincare, sup_norm=float(np.abs(state.psi).max()),
        residual=state.residual)
    return row, diag, lin


# ---------------------------------------------------------------------------
# tracing


def check_lam_min(lam_min):
    """lam_min itself, or ConfigError unless it is finite and below 0."""
    if not (math.isfinite(lam_min) and lam_min < 0):
        raise ConfigError(f"lam_min must be finite and below 0, got {lam_min!r}")
    return lam_min


def _negative_targets(lam_min=LAM_MIN):
    """Geometric from lam_min toward 0 while |lambda| > NEG_CUT; ends at lam_min."""
    mags = [abs(lam_min)]
    while mags[-1] * NEG_RATIO > NEG_CUT:
        mags.append(mags[-1] * NEG_RATIO)
    return [-m for m in reversed(mags)]          # march 0 -> lam_min reversed later


def _positive_targets():
    out = []
    lam = POS_STEP
    while lam < TAIL_START + 1e-12:
        out.append(lam)
        lam += POS_STEP
    lam = out[-1]
    g = (EIGHT_PI - lam) * (1 - TAIL_RATIO)      # geometric steps while >= EPS_STOP / 2
    while g >= EPS_STOP * 0.5:
        lam += g
        out.append(lam)
        g = (EIGHT_PI - lam) * (1 - TAIL_RATIO)
    return out + [EIGHT_PI - EPS_STOP]


def _march(problem, start, targets, tol, diagnose=None, to_fold=False):
    """Continuation through the target list, each Newton solve to tol.

    start is the (state, g diagnostics) pair to march from.  diagnose(state)
    returns, for every accepted state, its g diagnostics, which hold the
    tangent eta = d psi / d lambda, and the Linearization they factored; by
    default it factors Linearization.at_state and runs g_of.  The first
    solve starts from the Euler predictor psi + d eta, d = target - lambda,
    and factors its own Jacobian; later ones start from the second-order
    predictor psi + d eta + d^2/2 (eta - eta_prev) / (lambda - lambda_prev)
    of the last two accepted states and hold the last row's solve as their
    first LU, so a good predictor factors nothing.  That LU is dropped
    before the next row is diagnosed, so no two rows' factorizations live at
    once.  The pairs of consecutive rows (the start's included) either side
    of each sign change of g are kept as brackets, and to_fold ends the
    march at the first row where g <= 0.  A solve is retried at the midpoint
    when Newton fails within NEWTON_MAX_ITER, factors its Jacobian more than
    NEWTON_BUDGET times or jumps; failures below the minimum gap end the
    march gracefully.  Returns the last (state, g diagnostics) pair, the
    brackets and the tag.
    """
    if diagnose is None:
        def diagnose(state):
            lin = Linearization.at_state(problem, state)
            return g_of(lin, state), lin
    last, brackets = start, []
    prev = held = None        # (lambda, eta) of the state before; the row's solve
    stack = list(reversed(targets))
    rows = 0
    while stack:
        (state, diag), target = last, stack[-1]
        d = target - state.lam
        try:
            guess = state.psi + d * diag.eta
            if prev is not None:
                guess += (0.5 * d * d / (state.lam - prev[0])) * (diag.eta - prev[1])
            nxt = problem._newton(target, guess, tol, held)
            jumped = (np.abs(nxt.psi).max()
                      > SUP_JUMP * max(np.abs(state.psi).max(), 0.05))
            trouble = nxt.factorizations > NEWTON_BUDGET or jumped
            failed = was_blowup = False
        except BlowupDetected:
            trouble = failed = was_blowup = True
        except (NoConvergence, FoldSingularity):
            trouble, failed, was_blowup = True, True, False
        if trouble and abs(d) > MIN_GAP:
            stack.append(state.lam + 0.5 * d)
            continue
        if failed:
            return last, brackets, "blowup" if was_blowup else "stalled"
        stack.pop()
        prev, held = (state.lam, diag.eta), None
        nxt_diag, lin = diagnose(nxt)
        held = lin.solve
        del lin                   # held is now the only reference to the row's LU
        if (diag.g > 0) != (nxt_diag.g > 0):
            brackets.append((last, (nxt, nxt_diag)))
        last = (nxt, nxt_diag)
        if to_fold and nxt_diag.g <= 0:
            return last, brackets, "stopped"
        rows += 1
        if rows >= MAX_ROWS:
            return last, brackets, "stalled"
    return last, brackets, "completed"


def trace_branch(problem: MeanFieldProblem, lam_min: float = LAM_MIN,
                 tol: float = NEWTON_TOL, on_row=None):
    """Trace the full branch and assemble the bifurcation diagram.

    Two predicted continuation passes run from the exactly-known lambda = 0
    state: downward to lam_min and upward toward 8 pi, with every Newton
    solve (the fold's too) taken to the residual tol.  Solver failures near
    8 pi terminate the upward pass gracefully with a partial diagram (that
    is the expected first-kind behavior once the blowup scale falls below
    the mesh).  The upward march's brackets of the sign change of g go to
    find_fold.  Each pass starts its eigensolves from the lambda = 0 row's
    eigenvectors and then from its previous row's, through its own copy of
    one spectrum.WarmStart carrier.  The optional on_row callback sees every
    finished row in marching order, so callers can persist partial results
    across a hard failure.  The kind comes from classify_kind on the upward
    pass's termination and last row.  Raises ConfigError, before any solve,
    unless lam_min is finite and below 0.
    """
    check_lam_min(lam_min)
    state0 = problem.solve_mp(0.0, tol=tol)
    rows_neg, rows_pos = [], []

    def diagnose(bucket, warm):
        def row_of(state):
            row, diag, lin = _branch_point(problem, state, warm)
            bucket.append(row)
            if on_row is not None:
                on_row(row)
            return diag, lin
        return row_of

    warm = WarmStart()
    # the lambda = 0 row's LU is dropped: keeping it for the upward pass
    # would hold it through the whole downward one
    row0, diag0 = _branch_point(problem, state0, warm)[:2]
    *_, term_neg = _march(problem, (state0, diag0), _negative_targets(lam_min), tol,
                          diagnose(rows_neg, warm.copy()))
    if on_row is not None:
        on_row(row0)
    last, brackets, term_pos = _march(problem, (state0, diag0), _positive_targets(),
                                      tol, diagnose(rows_pos, warm.copy()))

    points = rows_neg[::-1] + [row0] + rows_pos
    diagram = BranchDiagram(points=points, termination=term_pos)
    if rows_neg:
        diagram.mu_at_min = rows_neg[-1].mu
    if rows_pos:
        diagram.mu1_estimate = rows_pos[-1].mu
    if term_neg != "completed":
        diagram.termination = "stalled"
    try:
        fold = find_fold(problem, brackets, newton_tol=tol)
        diagram.fold = (fold.lam, fold.energy, fold.mu)
    except NoFoldInRange:
        diagram.fold = None
    diagram.kind = classify_kind(problem, term_pos, last if rows_pos else None, tol=tol)
    return diagram


def find_fold(problem: MeanFieldProblem, brackets,
              newton_tol: float = NEWTON_TOL) -> MeanFieldState:
    """The state with |g| < FOLD_G_TOL inside the one bracket of a march.

    brackets holds _march's (lo, hi) pairs of (state, g diagnostics) either
    side of each sign change of g.  The root of g in lambda is found by
    _brent_root, handed the bracket's two g values; each trial lambda is one
    Newton solve to newton_tol started from the Euler predictor
    psi_lo + (lambda - lambda_lo) eta_lo, then one g evaluation, so no state
    is solved from scratch.  Raises NoFoldInRange when g does not change
    sign (the legitimate outcome for second-kind runs), when it changes sign
    more than once, and, naming the bracket, when g has no sign change on
    it, when g is not finite at a trial lambda, or when the root search
    ends without meeting FOLD_G_TOL.
    """
    if not brackets:
        raise NoFoldInRange("g does not change sign on the sampled grid")
    if len(brackets) > 1:
        raise NoFoldInRange(f"g changes sign {len(brackets)} times; grid too coarse")
    (lo, hi), = brackets
    (s_lo, d_lo), (s_hi, d_hi) = lo, hi
    bracket = f"[{s_lo.lam!r}, {s_hi.lam!r}] (g = {d_lo.g!r}, {d_hi.g!r})"
    for state, diag in (lo, hi):
        if abs(diag.g) < FOLD_G_TOL:
            return state
    if (d_lo.g > 0) == (d_hi.g > 0):
        raise NoFoldInRange(f"g does not change sign on {bracket}")
    fold = []

    def g(lam):
        guess = s_lo.psi + (lam - s_lo.lam) * d_lo.eta
        state = problem._newton(lam, guess, newton_tol)
        value = g_of(Linearization.at_state(problem, state), state).g
        if not math.isfinite(value):
            raise NoFoldInRange(f"g is {value!r} at the trial lambda {lam!r} on {bracket}")
        if abs(value) < FOLD_G_TOL:
            fold.append(state)
            return 0.0              # a root to the search, which ends there
        return value

    _brent_root(g, s_lo.lam, s_hi.lam, d_lo.g, d_hi.g, xtol=1e-14, rtol=8.9e-16,
                maxiter=100)
    if fold:
        return fold[0]
    raise NoFoldInRange(
        f"root search on g did not reach |g| < {FOLD_G_TOL:g} on {bracket}")


def _brent_root(f, a, b, fa, fb, xtol, rtol, maxiter):
    """A root of f on [a, b] by Brent's method (Brent 1973, ch. 4), taking
    scipy.optimize.brentq's steps one for one: fa = f(a) and fb = f(b) are
    nonzero and of opposite signs, and f returns finite values.  Returns the
    last iterate once f vanishes there or the bracket is narrower than
    xtol + rtol |x|, or after maxiter evaluations of f.
    """
    xpre, xcur, fpre, fcur = float(a), float(b), float(fa), float(fb)
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:                    # a zero divisor gives scipy inf or nan: bisect
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    return xcur


def classify_kind(problem: MeanFieldProblem, termination: str, last,
                  tol: float = NEWTON_TOL) -> str:
    """First kind: no solution at lambda = 8 pi; second kind: one exists.

    termination is the upward march's tag and last the (state, g
    diagnostics) pair of its last row, or None when it kept no row.  A march
    that blew up means first kind, and one that stalled, or kept no row,
    leaves the kind undetermined; neither solves anything.  After a completed
    march, one solve_mp at 8 pi starts from the Euler predictor
    psi + (8 pi - lambda) eta of the last row: BlowupDetected (its density
    concentrates below the mesh scale, or an iterate passes the trust cap)
    means first kind, a converged state second kind, and NoConvergence
    undetermined.
    """
    if last is None:
        return "undetermined"
    if termination != "completed":
        return "first" if termination == "blowup" else "undetermined"
    state, diag = last
    guess = state.psi + (EIGHT_PI - state.lam) * diag.eta
    try:
        problem.solve_mp(EIGHT_PI, initial_guess=guess, tol=tol)
    except BlowupDetected:
        return "first"
    except NoConvergence:
        return "undetermined"
    return "second"


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


def emit_diagram(diagram: BranchDiagram, out_dir):
    """branch.csv + branch.json + the four standard SVG views of the diagram."""
    if not diagram.points:
        raise ValueError("empty diagram")
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    csv_path = os.path.join(out_dir, "branch.csv")
    paths.append(write_csv(diagram.points, csv_path))
    paths.append(write_json(diagram.summary(), os.path.join(out_dir, "branch.json")))
    paths.extend(plot_csv(csv_path, out_dir))
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
        lam, e_vals, "E", xlabel="lambda", ylabel="E",
        title="energy along the branch", vlines=(EIGHT_PI,)))
    out.append(line_plot(
        os.path.join(out_dir, f"{stem}_lambda_g.svg"),
        lam, g_vals, "g", xlabel="lambda", ylabel="g",
        title="fold indicator", vlines=(EIGHT_PI,)))
    if pos:
        out.append(line_plot(
            os.path.join(out_dir, f"{stem}_E_mu.svg"),
            [p.energy for p in pos], [p.mu for p in pos], "mu",
            xlabel="E", ylabel="mu", title="bifurcation diagram"))
    out.append(line_plot(
        os.path.join(out_dir, f"{stem}_mu_E.svg"),
        mu, e_vals, "E", xlabel="mu", ylabel="E",
        title="energy against mu"))
    return out
