"""Solvers for the mean-field equation and its Gelfand-problem counterpart.

The normalized problem reads

    -Delta psi = h e^(lambda psi) / int h e^(lambda psi),   psi = 0 on the boundary,

and is uniquely solvable for every lambda below 8 pi, which makes lambda the
robust continuation parameter.  The classical form -Delta v = mu h e^v is
recovered through mu = lambda / int h e^(lambda psi), u = lambda psi.

Newton's method works on the dual-norm residual with Armijo backtracking.
The Jacobian is the linearized operator

    L eta = -Delta eta - lambda rho (eta - <eta>),

a sparse matrix plus a rank-one term; systems with it are solved through a
bordered factorization, which stays well conditioned across the fold of the
(mu, E) diagram where the plain Gelfand linearization is singular.

All exponentials are evaluated with a max-shift so only log(int h e^(lambda
psi)) is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import json

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq
from scipy.sparse.linalg import splu

from .errors import (
    BlowupDetected,
    DegenerateWeight,
    FoldSingularity,
    NoConvergence,
    OverflowGuard,
)
from .fem import DirichletSolver, assemble_stiffness, plain_quadrature, weighted_quadrature
from .geometry import Mesh, WeightField, build_weight

EIGHT_PI = 8.0 * np.pi

NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 60
FOLD_RTOL = 5e-3  # solve_lp treats mu within this of the fold as a fold request


@dataclass
class RhoField:
    """Normalized density rho = h e^(lambda psi) / Z at the mesh vertices."""

    values: np.ndarray
    log_z: float
    mass: float


@dataclass
class MeanFieldState:
    """A converged point on the solution branch."""

    lam: float
    psi: np.ndarray
    mu: float
    u: np.ndarray
    rho: np.ndarray
    energy: float
    mass_check: float
    residual: float
    log_z: float
    iterations: int = 0
    concentrated: bool = False


@dataclass
class AverageDecomposition:
    average: float
    oscillation: np.ndarray


class MeanFieldProblem:
    """Discretization bundle: mesh, weight, operators and their factorizations."""

    def __init__(self, mesh: Mesh, weight: WeightField | None = None):
        self.mesh = mesh
        self.weight = weight if weight is not None else build_weight(mesh)
        self.quad = weighted_quadrature(mesh, self.weight)
        self.plain = plain_quadrature(mesh)
        self.A = assemble_stiffness(mesh)
        self.dirichlet = DirichletSolver(self.A, mesh.boundary_mask)
        self.interior = self.dirichlet.interior
        self.area = mesh.area()
        self.weight_mass = self.quad.integrate()
        if not np.isfinite(self.weight_mass) or self.weight_mass <= 1e-300:
            raise DegenerateWeight("weight has no mass")

    # -- density ------------------------------------------------------------

    def _exp_factors(self, lam, psi):
        """Point factors e^(lam psi)/Z block by block, plus log Z."""
        vals = self.quad.eval(psi)
        shift = max(float(np.max(lam * v)) if v.size else -np.inf for v in vals)
        if not np.isfinite(shift):
            raise OverflowGuard("non-finite field in exponential")
        raw = [np.exp(lam * v - shift) for v in vals]
        z_shifted = self.quad.integrate(raw)
        if not np.isfinite(z_shifted) or z_shifted <= 0:
            raise OverflowGuard("exponential integral lost all mass")
        log_z = shift + np.log(z_shifted)
        return [r / z_shifted for r in raw], log_z

    def rho_of(self, psi, lam) -> RhoField:
        """Density rho_lambda for a given field, with exact unit quadrature mass."""
        factors, log_z = self._exp_factors(lam, psi)
        mass = self.quad.integrate(factors)
        values = self.vertex_density(lam, psi, log_z)
        return RhoField(values=values, log_z=log_z, mass=mass)

    def vertex_density(self, lam, psi, log_z):
        """h e^(lam psi - log Z) at the vertices; OverflowGuard if not finite."""
        w = self.weight.vertex_values()
        with np.errstate(over="ignore"):
            values = w * np.exp(lam * psi - log_z)
        if np.any(~np.isfinite(values)):
            raise OverflowGuard("density overflow at vertices")
        return values

    # -- averages -----------------------------------------------------------

    def average(self, field, state: MeanFieldState) -> float:
        """rho_lambda-weighted average of a P1 field."""
        factors, _ = self._exp_factors(state.lam, state.psi)
        vals = self.quad.eval(field)
        return sum(float(np.sum(self.quad.blocks[k].w * factors[k] * vals[k]))
                   for k in range(len(vals)))

    def average_and_oscillation(self, field, state) -> AverageDecomposition:
        avg = self.average(field, state)
        return AverageDecomposition(average=avg, oscillation=field - avg)

    # -- Newton solver ------------------------------------------------------

    def _load(self, lam, psi):
        factors, log_z = self._exp_factors(lam, psi)
        return self.quad.assemble_load(factors), factors, log_z

    def solve_mp(self, lam, initial_guess=None, tol=NEWTON_TOL,
                 max_iter=NEWTON_MAX_ITER) -> MeanFieldState:
        """Solve the mean-field problem at the given lambda.

        Cold starts above 2 pi run a short internal continuation from
        lambda = 0 so Newton always starts near the branch.  Iterates whose
        sup norm crosses 50/max(1, lambda) raise BlowupDetected; so does a
        converged state at lambda >= 8 pi whose density is concentrated below
        the local mesh resolution, since no trusted solution exists there.
        """
        lam = float(lam)
        if initial_guess is None and lam > 2 * np.pi:
            return self._continued_solve(lam, tol, max_iter)
        psi = np.zeros(self.mesh.n_vertices) if initial_guess is None \
            else np.array(initial_guess, dtype=float)
        state = self._newton(lam, psi, tol, max_iter)
        if lam >= EIGHT_PI - 1e-12 and state.concentrated:
            raise BlowupDetected(
                "density concentrates below mesh resolution at lambda >= 8 pi",
                lam=lam, psi=state.psi, sup=float(np.abs(state.psi).max()))
        return state

    def _newton(self, lam, psi, tol, max_iter):
        cap = 50.0 / max(1.0, lam)
        b, factors, log_z = self._load(lam, psi)
        r = (self.A @ psi - b)[self.interior]
        dn = self.dirichlet.dual_norm(r)
        it = 0
        while dn > tol:
            if it >= max_iter:
                raise NoConvergence(
                    f"Newton stalled at lambda={lam:.6g}", iterations=it, residual=dn)
            lin = Linearization(self, lam, factors, b)
            try:
                delta = lin.solve(-r)
            except FoldSingularity:
                raise NoConvergence(
                    f"singular linearization at lambda={lam:.6g}",
                    iterations=it, residual=dn) from None
            step = 1.0
            while True:
                trial = psi.copy()
                trial[self.interior] += step * delta
                if np.abs(trial).max() > cap:
                    raise BlowupDetected(
                        f"iterate exceeded trust cap at lambda={lam:.6g}",
                        lam=lam, psi=trial, sup=float(np.abs(trial).max()))
                b_t, factors_t, log_z_t = self._load(lam, trial)
                r_t = (self.A @ trial - b_t)[self.interior]
                dn_t = self.dirichlet.dual_norm(r_t)
                if dn_t <= (1.0 - 1e-4 * step) * dn or dn_t < tol:
                    break
                step *= 0.5
                if step < 2.0 ** -24:
                    raise NoConvergence(
                        f"line search failed at lambda={lam:.6g}",
                        iterations=it, residual=dn)
            psi, b, factors, log_z, r, dn = trial, b_t, factors_t, log_z_t, r_t, dn_t
            it += 1
        return self._finalize(lam, psi, factors, log_z, dn, it)

    def _finalize(self, lam, psi, factors, log_z, dn, iterations):
        mass = self.quad.integrate(factors)
        rho = self.vertex_density(lam, psi, log_z)
        mu = float(lam * np.exp(-log_z))
        energy = 0.5 * float(psi @ (self.A @ psi))
        state = MeanFieldState(
            lam=float(lam), psi=psi, mu=mu, u=lam * psi, rho=rho,
            energy=energy, mass_check=float(mass), residual=float(dn),
            log_z=float(log_z), iterations=iterations,
            concentrated=self._is_concentrated(lam, psi, factors),
        )
        return state

    def _is_concentrated(self, lam, psi, factors):
        """True when most of rho sits within a few mesh cells of the peak."""
        if lam <= 0:
            return False
        peak = int(np.argmax(psi))
        radius = 3.0 * float(self.mesh.size_target[peak])
        x0 = self.mesh.vertices[peak]
        frac = 0.0
        for k, blk in enumerate(self.quad.blocks):
            d2 = np.sum((blk.pos - x0) ** 2, axis=-1)
            inside = d2 < radius * radius
            frac += float(np.sum((blk.w * factors[k])[inside]))
        return frac >= 0.5

    def _continued_solve(self, lam_target, tol, max_iter):
        state = self.solve_mp(0.0, initial_guess=np.zeros(self.mesh.n_vertices),
                              tol=tol, max_iter=max_iter)
        lam = 0.0
        step = np.pi / 2
        while lam < lam_target:
            step = min(step, lam_target - lam)
            try:
                nxt = self._newton(lam + step, state.psi.copy(), tol, max_iter)
            except (NoConvergence, BlowupDetected) as e:
                step *= 0.5
                if step < 1e-4 * (1.0 + lam_target):
                    sup = float(np.abs(state.psi).max())
                    raise BlowupDetected(
                        f"continuation stalled at lambda={lam:.6g} "
                        f"en route to {lam_target:.6g}",
                        lam=lam, psi=state.psi, sup=sup) from e
                continue
            state, lam = nxt, lam + step
            step = min(2.0 * step, np.pi / 2)
        if lam_target >= EIGHT_PI - 1e-12 and state.concentrated:
            raise BlowupDetected(
                "density concentrates below mesh resolution at lambda >= 8 pi",
                lam=lam_target, psi=state.psi, sup=float(np.abs(state.psi).max()))
        return state

    # -- Gelfand form ---------------------------------------------------------

    def solve_lp(self, mu, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER,
                 fold_rtol=FOLD_RTOL) -> MeanFieldState:
        """Solve -Delta v = mu h e^v (minimal branch for mu > 0).

        For positive mu the minimal branch is parametrized by lambda and the
        equation mu(lambda) = mu is solved by bracketing.  Once mu turns
        down or g changes sign, the fold state is located between the last
        two steps by branch.locate_fold, which raises NoFoldInRange if g has
        no sign change there.  Requests within fold_rtol of the fold value
        return the fold state; beyond that the minimal branch has no
        solution and NoConvergence is raised.
        """
        mu = float(mu)
        if mu == 0.0:
            return self.solve_mp(0.0, tol=tol, max_iter=max_iter)
        if mu < 0.0:
            return self._lp_newton_negative(mu, tol, max_iter)
        return self._lp_minimal_branch(mu, tol, max_iter, fold_rtol)

    def _lp_newton_negative(self, mu, tol, max_iter):
        """Damped Newton directly on v; the Jacobian is SPD for mu <= 0."""
        v = np.zeros(self.mesh.n_vertices)
        for it in range(max_iter):
            vals = self.quad.eval(v)
            factors = [np.exp(x) for x in vals]
            load = self.quad.assemble_load(factors)
            r = (self.A @ v - mu * load)[self.interior]
            dn = self.dirichlet.dual_norm(r)
            if dn < tol:
                return self._state_from_lp(mu, v, factors, dn, it, tol, max_iter)
            M = self.quad.assemble_mass(factors)
            J = (self.A - mu * M).tocsr()
            J_ii = J[self.interior][:, self.interior].tocsc()
            delta = splu(J_ii).solve(-r)
            step = 1.0
            while True:
                trial = v.copy()
                trial[self.interior] += step * delta
                vals_t = self.quad.eval(trial)
                factors_t = [np.exp(x) for x in vals_t]
                r_t = (self.A @ trial - mu * self.quad.assemble_load(factors_t))[self.interior]
                if self.dirichlet.dual_norm(r_t) <= (1 - 1e-4 * step) * dn:
                    break
                step *= 0.5
                if step < 2.0 ** -24:
                    raise NoConvergence(
                        f"line search failed at mu={mu:.6g}", iterations=it, residual=dn)
            v = trial
        raise NoConvergence(f"Gelfand Newton stalled at mu={mu:.6g}", iterations=max_iter)

    def _state_from_lp(self, mu, v, factors, dn, iterations, tol, max_iter):
        z = self.quad.integrate(factors)          # int h e^v
        lam = mu * z
        if lam == 0.0:
            return self.solve_mp(0.0, tol=tol, max_iter=max_iter)
        psi = v / lam
        return self._finalize(lam, psi, [f / z for f in factors], np.log(z), dn, iterations)

    def _lp_minimal_branch(self, mu, tol, max_iter, fold_rtol):
        from .branch import g_of, locate_fold  # deferred: branch builds on this module

        def root_between(lam_lo, lam_hi, guess_state):
            f = lambda l: self._newton(l, guess_state.psi.copy(), tol, max_iter).mu - mu
            lam_root = brentq(f, lam_lo, lam_hi, xtol=1e-12, rtol=8.9e-16)
            return self._newton(lam_root, guess_state.psi.copy(), tol, max_iter)

        # march up in lambda until mu is safely bracketed or the fold shows;
        # "safely" means clear of the fold band, where mu(lambda) flattens and
        # the root in lambda loses meaning
        step = np.pi / 4
        lam_top = EIGHT_PI * (1 - 1e-6)
        lam_prev, state_prev = 0.0, self.solve_mp(0.0, tol=tol)
        diag_prev = None                                # g diagnostics of state_prev
        mu_prev = state_prev.mu
        lam_below, state_below = lam_prev, state_prev  # last state with mu < target
        safe = mu * (1.0 + fold_rtol)
        while True:
            if lam_prev >= lam_top - 1e-12:
                raise NoConvergence(
                    f"mu={mu:.6g} not reached on the minimal branch below 8 pi")
            lam = min(lam_prev + step, lam_top)
            try:
                state = self._newton(lam, state_prev.psi.copy(), tol, max_iter)
            except (NoConvergence, BlowupDetected):
                step *= 0.5
                if step < 1e-6:
                    raise
                continue
            if state.mu >= safe:
                return root_between(lam_below, lam, state_below)
            diag = None if state.mu < mu_prev else g_of(self, state)
            if diag is None or diag.g <= 0.0:
                # at or past the fold: judge the request against the fold value
                fold = locate_fold(
                    self, (state_prev, diag_prev or g_of(self, state_prev)),
                    (state, diag or g_of(self, state)),
                    newton_tol=tol, max_iter=max_iter)
                if mu >= fold.mu * (1.0 - fold_rtol):
                    if mu <= fold.mu * (1.0 + fold_rtol):
                        return fold
                    raise NoConvergence(
                        f"mu={mu:.6g} exceeds the fold value {fold.mu:.6g}; "
                        "no minimal-branch solution")
                return root_between(lam_below, fold.lam, state_below)
            if state.mu < mu:
                lam_below, state_below = lam, state
            lam_prev, state_prev, diag_prev, mu_prev = lam, state, diag, state.mu
            step = np.pi / 4


# ---------------------------------------------------------------------------
# linearized operator


class Linearization:
    """Bordered solver for L = A - lam (M_rho - b b') on the interior space."""

    def __init__(self, problem: MeanFieldProblem, lam, factors, load=None):
        self.problem = problem
        self.lam = lam
        self.M_rho = problem.quad.assemble_mass(factors)
        self.b = load if load is not None else problem.quad.assemble_load(factors)
        idx = problem.interior
        self.b_i = self.b[idx]
        self.M_ii = self.M_rho[idx][:, idx].tocsr()
        self.S = (problem.dirichlet.A_ii - lam * self.M_ii).tocsc()
        self._lu = None

    @classmethod
    def at_state(cls, problem, state: MeanFieldState):
        factors, _ = problem._exp_factors(state.lam, state.psi)
        return cls(problem, state.lam, factors)

    def _factor(self):
        if self._lu is None:
            n = self.S.shape[0]
            K = sp.bmat([
                [self.S, self.lam * sp.csc_matrix(self.b_i[:, None])],
                [-sp.csc_matrix(self.b_i[None, :]), sp.csc_matrix(np.array([[1.0]]))],
            ], format="csc")
            try:
                self._lu = splu(K)
            except RuntimeError as e:
                raise FoldSingularity(f"linearized operator is singular: {e}") from e
        return self._lu

    def solve(self, rhs_interior, rtol=1e-10):
        """Solve L x = rhs on the interior space, refined to rtol residual."""
        lu = self._factor()
        rhs = np.concatenate([rhs_interior, [0.0]])
        sol = lu.solve(rhs)
        x = sol[:-1]
        scale = max(float(np.linalg.norm(rhs_interior)), 1e-300)
        for _ in range(3):
            res = self.apply(x) - rhs_interior
            if np.linalg.norm(res) <= rtol * scale:
                return x
            corr = lu.solve(np.concatenate([res, [0.0]]))
            x = x - corr[:-1]
        res = self.apply(x) - rhs_interior
        if np.linalg.norm(res) > 1e-6 * scale:
            raise FoldSingularity("linearized solve lost accuracy (near-singular)")
        return x

    def apply(self, x_interior):
        return self.S @ x_interior + self.lam * self.b_i * (self.b_i @ x_interior)

    def rho_average(self, field_full):
        return float(self.b @ field_full)


# ---------------------------------------------------------------------------
# state persistence


def save_state(state: MeanFieldState, path):
    """JSON header plus a plain-text vertex array for psi."""
    path = str(path)
    psi_path = path[:-5] + "_psi.txt" if path.endswith(".json") else path + "_psi.txt"
    header = {
        "lambda": float(state.lam),
        "mu": float(state.mu),
        "E": float(state.energy),
        "residual": float(state.residual),
        "mass_check": float(state.mass_check),
        "n_vertices": int(len(state.psi)),
        "psi_file": psi_path.rsplit("/", 1)[-1],
    }
    with open(path, "w") as f:
        json.dump(header, f, indent=2, sort_keys=True)
        f.write("\n")
    with open(psi_path, "w") as f:
        for v in state.psi:
            f.write(f"{float(v)!r}\n")
    return path


def load_psi(path):
    with open(path) as f:
        return np.array([float(line) for line in f if line.strip()])
