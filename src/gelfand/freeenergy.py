"""Free-energy minimization over probability densities for lambda < 0.

The functional splits into entropy, interaction and weight terms,

    F(rho) = int rho log rho - (lambda/2) int rho (G*rho) - int rho log h,

and is strictly convex for negative lambda, with a unique minimizer whose
Euler-Lagrange equation is exactly the mean-field equation: the minimizer's
potential G*rho solves it.  The minimizer is computed by the fixed-point
update

    psi_{k+1} = G*( h e^(lambda psi_k) / Z_k ),

accelerated by Anderson mixing over the last few iterates and safeguarded so
the free energy never increases: an Anderson step is kept only when F does
not rise, and otherwise the plain damped step is taken.  The update reuses
the Newton solver's assembly path verbatim, so the fixed point agrees with
the Newton solution of the same discrete system to solver tolerance.  Each
F evaluation evaluates psi at the quadrature points once, in
MeanFieldProblem._load; the entropy and weight terms, the Jensen slack and
the returned state all read those point values, and each accepted iterate's
vertex density is formed once.

Two evaluation paths coexist on purpose.  Arbitrary vertex densities (collar
densities, test inputs) are evaluated as P1 fields with their own potential
solve; the minimizer's state is evaluated at the quadrature level where its
density is exact.  Both are faithful evaluations of the same discrete
functional and may be compared, as the proof-chain checks do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (InvalidDelta, InvalidDensity, NoConvergence, SolverError,
                     UnsupportedRegime)
from .geometry import Mesh, _point_segment_distance
from .meanfield import MeanFieldProblem

L1_TOL = 1e-10
MAX_ITER = 5000
STEP_FLOOR = 1e-8   # fixed-point step below which the mesh limits the descent
AA_DEPTH = 5        # Anderson history: the last iterates and residuals kept


@dataclass
class DensityState:
    rho: np.ndarray             # P1 probability density (unit lumped mass)
    potential: np.ndarray       # psi = G*rho, zero on the boundary
    free_energy: float
    entropy_term: float         # int rho log rho (the negative entropy)
    energy: float               # interaction energy E(rho)
    linear_term: float          # int rho log h
    lam: float
    n: float                    # weight approximation index (inf: no floor)
    iterations: int = 0
    el_residual: float = 0.0    # dual-norm Euler-Lagrange defect
    # log Z over its Jensen lower bound, minimized over the iterates the
    # minimizer visited: a path-dependent certificate, not a state function
    jensen_min_slack: float = np.inf


@dataclass
class EnergyBoundReport:
    """Both sides of every inequality in the lambda -> -inf proof chain."""

    lam: float
    n: float
    delta: float
    entropy_bound: float        # log|Omega|
    entropy_value: float        # S(rho) = -int rho log rho
    linear_bound: float         # log(1 + sup h)
    linear_value: float         # int rho log h
    f_minimizer: float
    f_collar: float
    energy_value: float         # E(rho_min)
    energy_bound: float         # (F + log|Omega| + log(1+sup h)) / |lambda|
    jensen_slack: float

    @property
    def slacks(self):
        return {
            "entropy": float(self.entropy_bound - self.entropy_value),
            "linear": float(self.linear_bound - self.linear_value),
            "collar": float(self.f_collar - self.f_minimizer),
            "energy": float(self.energy_bound - self.energy_value),
            "jensen": float(self.jensen_slack),
        }


def _check_duality(e, e_dual):
    """Raise SolverError unless two forms of one interaction energy agree."""
    if abs(e - e_dual) > 1e-6 * max(abs(e), 1e-12):
        raise SolverError(f"interaction energy duality violated: {e!r} vs {e_dual!r}")


def _weight_index(problem):
    floor = problem.weight.floor
    return 1.0 / floor if floor > 0 else np.inf


def free_energy_of(problem: MeanFieldProblem, rho, lam) -> DensityState:
    """Evaluate the functional at a P1 probability density.

    The density must be nonnegative with unit lumped mass to 1e-8; the
    entropy uses the 0 log 0 = 0 convention, and the weight term integrates
    log h against the density with the singularity-adapted quadrature.

    The potential, the interaction energy and the entropy are formed from
    the mesh's mass, lumped_mass, plain, stiffness and dirichlet, none of
    which is built here; only the weight term reads the problem's weight.
    """
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < -1e-12):
        raise InvalidDensity("density has negative entries")
    rho = np.maximum(rho, 0.0)
    mass = float(problem.mesh.lumped_mass @ rho)
    if abs(mass - 1.0) > 1e-8:
        raise InvalidDensity(f"density mass {mass!r} is not 1")
    potential = problem.dirichlet.solve(problem.mesh.mass @ rho)
    e_pair = 0.5 * float(rho @ (problem.mesh.mass @ potential))
    _check_duality(e_pair, 0.5 * float(potential @ (problem.A @ potential)))
    v = problem.plain.eval(rho)
    entropy_term = float(np.sum(
        problem.plain.w * np.where(v > 0, v * np.log(np.where(v > 0, v, 1.0)), 0.0)))
    # int rho log h against the Lebesgue measure w / h of the weighted points
    quad = problem.quad
    dx = quad.w / np.where(quad.hval > 0, quad.hval, 1.0)
    linear_term = float(np.sum(dx * quad.eval(rho) * quad.log_h))
    free_energy = entropy_term - lam * e_pair - linear_term
    return DensityState(
        rho=rho, potential=potential, free_energy=free_energy,
        entropy_term=entropy_term, energy=e_pair, linear_term=linear_term,
        lam=lam, n=_weight_index(problem))


def collar_density(mesh: Mesh, delta: float) -> np.ndarray:
    """Uniform probability density on the inner delta-collar of the boundary.

    The exact indicator of {dist < delta} is sampled at the quadrature points
    and projected onto hat functions against the lumped mass, so the inner
    edge of the collar is located below the cell size in every weak pairing
    that consumes the density.  A plain vertex indicator would smear the edge
    by a full cell, which dominates the energy error once delta is only a few
    cells wide.

    The collar depends on the mesh and delta only, so a run over several
    floors and lambdas builds it once, sampled at mesh.plain.  Distances are
    computed only as far as delta: delta must lie below the inradius, which
    holds iff some vertex lies farther than delta from the boundary, and the
    exact inradius is computed only for the InvalidDelta message.
    """
    edges = mesh.boundary_edges()
    seg_a = mesh.vertices[edges[:, 0]]
    seg_b = mesh.vertices[edges[:, 1]]
    # below the cap a distance is exact and above it reads at least the cap,
    # so a cap just past delta tells a vertex at delta from one beyond it
    if not (delta > 0.0 and float(_point_segment_distance(
            mesh.vertices, seg_a, seg_b, cap=np.nextafter(delta, np.inf)).max()) > delta):
        inradius = float(_point_segment_distance(mesh.vertices, seg_a, seg_b).max())
        raise InvalidDelta(f"delta must lie in (0, {inradius:.4g}), got {delta}")
    quad = mesh.plain
    # only the indicator d < delta is needed, so distances may stop at delta
    d = _point_segment_distance(quad.pos, seg_a, seg_b, cap=delta)
    m = mesh.lumped_mass
    rho = quad.assemble_load((d < delta).astype(float)) / m
    mass = float(m @ rho)
    if mass <= 0.0:
        raise InvalidDelta("collar contains no quadrature mass; refine the boundary")
    return rho / mass


# ---------------------------------------------------------------------------
# minimization


def minimize_free_energy(problem: MeanFieldProblem, lam) -> DensityState:
    """Minimize the functional by the Anderson-accelerated Euler-Lagrange
    fixed point.

    Each iteration first tries an Anderson step (Walker & Ni 2011) from the
    last AA_DEPTH iterates psi and their residuals f = G*rho(psi) - psi:

        psi + step f - (dX + step dF) gamma,

    with gamma the least-squares coefficients of the newest residual by the
    residual differences dF, and dX the iterate differences.  The trial is
    kept when F does not rise beyond roundoff.  Otherwise, and when the
    residual differences are exactly dependent, the history is cleared and
    the damped step psi + step f is taken, with step halved until F does not
    rise.  The history is cleared also whenever the L1 monitor below halves
    the step, so a shrinking step restarts the mixing from the plain damped
    iteration.

    The step size persists between iterations.  Two monitors control it: the
    damped step is halved until the free energy stops increasing, and halved
    again whenever the L1 density change grows between iterations.  The second
    monitor matters close to the minimum, where F is flat to roundoff and
    cannot distinguish a contraction from the mild divergence an undamped
    update exhibits at strongly negative lambda.  The step regrows only
    after a sustained run of shrinking updates.  Convergence is declared on
    an L1 change of the vertex density below L1_TOL, which raises
    OverflowGuard where it leaves the float range.  NoConvergence is raised
    after MAX_ITER iterations, and once either monitor halves the step below
    STEP_FLOOR, where the mesh, not the iteration, limits the minimizer.
    """
    if lam >= 0:
        raise UnsupportedRegime("free-energy minimization requires lambda < 0")
    m = problem.mesh.lumped_mass
    quad = problem.quad
    log_h_mass = np.log(problem.weight_mass)

    def f_value(psi):
        """F at the density generated by psi, the next fixed-point target, log Z
        and (w factors, psi at the points, entropy term, energy, linear term)."""
        b, factors, log_z, psi_q = problem._load(lam, psi)
        target = np.zeros_like(psi)
        target[problem.interior] = problem.dirichlet.lu.solve(b[problem.interior])
        energy = 0.5 * float(b @ target)
        wf = quad.w * factors       # rho dx at the points, rho = h e^(lam psi) / Z
        entropy = float(np.sum(wf * (quad.log_h + lam * psi_q - log_z)))
        linear = float(np.sum(wf * quad.log_h))
        return (entropy - lam * energy - linear, target, log_z,
                (wf, psi_q, entropy, energy, linear))

    def halved(step, it, l1_change):      # l1_change: the last L1 density change
        if step * 0.5 < STEP_FLOOR:
            raise NoConvergence(
                f"free-energy step fell below {STEP_FLOOR:g} at lambda={lam:.6g}; the "
                "mesh, not the iteration, limits the minimizer",
                iterations=it, residual=l1_change)
        return step * 0.5

    def descends(f_trial):                # F may rise by roundoff only
        return f_trial <= f_cur + 1e-13 * max(1.0, abs(f_cur))

    psi = np.zeros(problem.mesh.n_vertices)
    f_cur, target, log_z, _ = f_value(psi)
    rho = problem.vertex_density(lam, psi, log_z)
    jensen_min = np.inf  # tracked over the visited iterates, not the zero start
    step, prev_l1, shrinking = 1.0, np.inf, 0
    xs, fs = [psi], [target - psi]        # Anderson history: iterates, residuals
    for it in range(1, MAX_ITER + 1):
        direction = fs[-1]
        trial = None
        if len(xs) > 1:
            # gamma: least-squares fit of the residual by the residual
            # differences, from the normal equations of the small system
            d_x, d_f = np.diff(xs, axis=0), np.diff(fs, axis=0)
            try:
                gamma = np.linalg.solve(d_f @ d_f.T, d_f @ direction)
            except np.linalg.LinAlgError:     # exactly dependent differences
                gamma = None
            if gamma is not None:
                trial = psi + step * direction - (d_x + step * d_f).T @ gamma
                evaluated = f_value(trial)
                if not descends(evaluated[0]):
                    trial = None
            if trial is None:
                del xs[:-1], fs[:-1]
        if trial is None:
            while True:
                trial = psi + step * direction
                evaluated = f_value(trial)
                if descends(evaluated[0]):
                    break
                step = halved(step, it, prev_l1)
        f_trial, target_trial, log_z_trial, ev_trial = evaluated
        rho_trial = problem.vertex_density(lam, trial, log_z_trial)
        l1_change = float(m @ np.abs(rho_trial - rho))
        psi, f_cur, target, log_z, rho = trial, f_trial, target_trial, log_z_trial, rho_trial
        wf, psi_q, entropy, energy, linear = ev_trial
        # log of int h e^(lam psi) over its Jensen lower bound (nonnegative)
        jensen_min = min(jensen_min, log_z - (
            log_h_mass + lam * quad.integrate(psi_q) / problem.weight_mass))
        xs.append(psi)
        fs.append(target - psi)
        del xs[:-AA_DEPTH], fs[:-AA_DEPTH]
        if l1_change > prev_l1:
            step, shrinking = halved(step, it, l1_change), 0
            del xs[:-1], fs[:-1]
        else:
            shrinking += 1
            if shrinking >= 25:
                step, shrinking = min(1.0, step * 1.2), 0
        prev_l1 = l1_change
        if l1_change < L1_TOL:
            # dual-norm Euler-Lagrange defect; equals the energy norm of
            # psi - G*rho(psi), which the loop has already computed
            d = (psi - target)[problem.interior]
            el_residual = float(np.sqrt(max(d @ (problem.dirichlet.A_ii @ d), 0.0)))
            if el_residual <= 1e-8:
                # F and E are those of rho(psi), with E = b'G b / 2; the
                # energy of psi itself, psi'A psi / 2, must agree with
                # int rho psi / 2
                _check_duality(0.5 * float(psi @ (problem.A @ psi)),
                               0.5 * float(np.sum(wf * psi_q)))
                return DensityState(
                    rho=rho / float(m @ rho), potential=psi, free_energy=f_cur,
                    entropy_term=entropy, energy=energy, linear_term=linear,
                    lam=lam, n=_weight_index(problem), iterations=it,
                    el_residual=el_residual, jensen_min_slack=jensen_min)
    raise NoConvergence(f"free-energy iteration cap at lambda={lam:.6g}",
                        iterations=MAX_ITER, residual=prev_l1)


def verify_energy_bound(problem: MeanFieldProblem, lam, delta,
                        minimizer: DensityState | None = None,
                        collar_state: DensityState | None = None) -> EnergyBoundReport:
    """Evaluate every inequality of the vanishing-energy proof chain.

    The Jensen slack is the minimizer's jensen_min_slack, a minimum over the
    iterates that minimize_free_energy visited; it depends on that path and
    moves whenever the iteration does, at the same minimizer.

    collar_state, if given, is free_energy_of(problem, collar_density(
    problem.mesh, delta), lam0) at any lam0: none of its terms depends on
    lambda, so a caller that verifies several lambdas on one problem
    evaluates the collar once and each cell only forms F at its own lambda.
    Otherwise the collar and its terms are computed here.  Raises SolverError
    if any recorded slack is negative beyond roundoff; otherwise returns the
    report with all sides and slacks.
    """
    if minimizer is None:
        minimizer = minimize_free_energy(problem, lam)
    if collar_state is None:
        collar_state = free_energy_of(
            problem, collar_density(problem.mesh, delta), lam)
    area = problem.area
    sup_h = problem.weight.sup()
    report = EnergyBoundReport(
        lam=lam, n=minimizer.n, delta=delta,
        entropy_bound=float(np.log(area)),
        entropy_value=-minimizer.entropy_term,
        linear_bound=float(np.log1p(sup_h)),
        linear_value=minimizer.linear_term,
        f_minimizer=minimizer.free_energy,
        # free_energy_of's expression, so F equals its value at this lambda
        f_collar=(collar_state.entropy_term - lam * collar_state.energy
                  - collar_state.linear_term),
        energy_value=minimizer.energy,
        energy_bound=float(
            (minimizer.free_energy + np.log(area) + np.log1p(sup_h)) / abs(lam)),
        jensen_slack=float(minimizer.jensen_min_slack),
    )
    bad = {k: s for k, s in report.slacks.items() if s < -1e-9}
    if bad:
        raise SolverError(f"proof-chain inequality violated: {bad}")
    return report
