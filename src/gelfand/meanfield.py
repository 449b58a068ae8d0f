"""Solvers for the mean-field equation and its Gelfand-problem counterpart.

The normalized problem reads

    -Delta psi = h e^(lambda psi) / int h e^(lambda psi),   psi = 0 on the boundary,

and is uniquely solvable for every lambda below 8 pi, which makes lambda the
robust continuation parameter.  The classical form -Delta v = mu h e^v is
recovered through mu = lambda / int h e^(lambda psi), u = lambda psi.

One damped Newton driver, Armijo backtracking on the dual-norm residual
under a sup-norm trust cap, serves both forms; the mean-field Jacobian is

    L eta = -Delta eta - lambda rho (eta - <eta>),

a sparse matrix plus a rank-one term; systems with it are solved through a
bordered factorization, which stays well conditioned across the fold of the
(mu, E) diagram where the plain Gelfand linearization is singular.  The
bordered matrix keeps one sparsity pattern per problem, so each Newton step
only writes its values, and SuperLU orders it by minimum degree on A + A'.

All exponentials are evaluated with a max-shift so only log(int h e^(lambda
psi)) is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import json

import numpy as np
import scipy.sparse as sp
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
# g from which solve_lp returns its direct state without locating the fold:
# measured g ~ 1.9 (1 - mu/mu*)^(1/2), so g < 0.14 in the fold band
G_DIRECT = 0.3
TRUST_SUP = 50.0  # Newton trust cap: on sup |v|, and on max(1, lam) sup |psi|
# fill-reducing column ordering of every factorization here: minimum degree
# on the structure of A + A', which suits the structurally symmetric Jacobians
PERMC_SPEC = "MMD_AT_PLUS_A"


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
        self._jacobian = None   # built from the first mass matrix a solve assembles

    def jacobian_pattern(self, M) -> JacobianPattern:
        """The fixed Jacobian layout, built from the mass matrix M on first use."""
        if self._jacobian is None:
            self._jacobian = JacobianPattern(self.dirichlet.A_ii, M, self.interior)
        return self._jacobian

    # -- density ------------------------------------------------------------

    def _exp_factors(self, lam, psi_q):
        """Point factors e^(lam psi)/Z and log Z, from psi_q = quad.eval(psi)."""
        vals = lam * psi_q
        shift = float(np.max(vals))
        if not np.isfinite(shift):
            raise OverflowGuard("non-finite field in exponential")
        raw = np.exp(vals - shift)
        z_shifted = self.quad.integrate(raw)
        if not np.isfinite(z_shifted) or z_shifted <= 0:
            raise OverflowGuard("exponential integral lost all mass")
        log_z = shift + np.log(z_shifted)
        return raw / z_shifted, log_z

    def vertex_density(self, lam, psi, log_z):
        """h e^(lam psi - log Z) at the vertices; OverflowGuard if not finite."""
        w = self.weight.vertex_values()
        with np.errstate(over="ignore"):
            values = w * np.exp(lam * psi - log_z)
        if np.any(~np.isfinite(values)):
            raise OverflowGuard("density overflow at vertices")
        return values

    # -- Newton solver ------------------------------------------------------

    def _load(self, lam, psi):
        """Load b, point factors and log Z at psi, plus psi at the points.

        psi is evaluated at the quadrature points once; callers that need
        those values again read the returned psi_q.
        """
        psi_q = self.quad.eval(psi)
        factors, log_z = self._exp_factors(lam, psi_q)
        return self.quad.assemble_load(factors), factors, log_z, psi_q

    def solve_mp(self, lam, initial_guess=None, tol=NEWTON_TOL,
                 max_iter=NEWTON_MAX_ITER) -> MeanFieldState:
        """Solve the mean-field problem at the given lambda.

        Cold starts above 2 pi march from lambda = 0 (_continued_solve) so
        Newton always starts near the branch.  Iterates whose sup norm
        crosses 50/max(1, lambda) raise BlowupDetected; so does a converged
        state at lambda >= 8 pi whose density is concentrated below the local
        mesh resolution, since no trusted solution exists there.
        """
        lam = float(lam)
        if initial_guess is None and lam > 2 * np.pi:
            state = self._continued_solve(lam, tol, max_iter)
        else:
            psi = np.zeros(self.mesh.n_vertices) if initial_guess is None \
                else np.array(initial_guess, dtype=float)
            state = self._newton(lam, psi, tol, max_iter)
        if lam >= EIGHT_PI - 1e-12 and self._is_concentrated(state):
            raise BlowupDetected(
                "density concentrates below mesh resolution at lambda >= 8 pi",
                lam=lam, psi=state.psi, sup=float(np.abs(state.psi).max()))
        return state

    def _damped_newton(self, x, residual, linear_solve, cap, tol, max_iter, where,
                       name="Newton", lam=None):
        """Damped Newton on the interior values of x, with Armijo backtracking.

        residual(x) returns (aux, r, dn): what linear_solve(aux, r) needs for
        the step on the interior residual r, and the dual norm dn of r.  A
        trial past the sup-norm cap raises BlowupDetected (with lam and the
        trial if lam is given); a step below 2^-24, a singular linearization
        or dn > tol after max_iter steps raise NoConvergence.  Messages name
        the form and parameter.  Returns (x, aux, dn, iterations).
        """
        aux, r, dn = residual(x)
        it = 0
        while not dn <= tol:          # a NaN residual or tol never reads as converged
            if it >= max_iter:
                raise NoConvergence(f"{name} stalled at {where}", iterations=it, residual=dn)
            try:
                delta = linear_solve(aux, r)
            except FoldSingularity:
                raise NoConvergence(f"singular linearization at {where}",
                                    iterations=it, residual=dn) from None
            step = 1.0
            while True:
                trial = x.copy()
                trial[self.interior] += step * delta
                sup = float(np.abs(trial).max())
                if sup > cap:
                    raise BlowupDetected(f"iterate exceeded trust cap at {where}", lam=lam,
                                         psi=None if lam is None else trial, sup=sup)
                aux_t, r_t, dn_t = residual(trial)
                if dn_t <= (1.0 - 1e-4 * step) * dn or dn_t < tol:
                    break
                step *= 0.5
                if step < 2.0 ** -24:
                    raise NoConvergence(f"line search failed at {where}",
                                        iterations=it, residual=dn)
            x, aux, r, dn = trial, aux_t, r_t, dn_t
            it += 1
        return x, aux, dn, it

    def _newton(self, lam, psi, tol, max_iter):
        def residual(psi):
            b, factors, log_z, _ = self._load(lam, psi)
            r = (self.A @ psi - b)[self.interior]
            return (b, factors, log_z), r, self.dirichlet.dual_norm(r)

        def linear_solve(aux, r):
            b, factors, _ = aux
            return Linearization(self, lam, factors, b).solve(-r)

        psi, (_, factors, log_z), dn, it = self._damped_newton(
            psi, residual, linear_solve, TRUST_SUP / max(1.0, lam), tol, max_iter,
            f"lambda={lam:.6g}", lam=lam)
        return self._finalize(lam, psi, factors, log_z, dn, it)

    def _finalize(self, lam, psi, factors, log_z, dn, iterations):
        mass = self.quad.integrate(factors)
        rho = self.vertex_density(lam, psi, log_z)
        mu = float(lam * np.exp(-log_z))
        energy = 0.5 * float(psi @ (self.A @ psi))
        return MeanFieldState(
            lam=float(lam), psi=psi, mu=mu, u=lam * psi, rho=rho,
            energy=energy, mass_check=float(mass), residual=float(dn),
            log_z=float(log_z), iterations=iterations,
        )

    def _is_concentrated(self, state):
        """True when most of rho sits within a few mesh cells of the peak.

        Scans every quadrature point, so it is asked only of states at
        lambda >= 8 pi, where it decides whether a solution is trusted.
        """
        lam, psi = state.lam, state.psi
        if lam <= 0:
            return False
        factors, _ = self._exp_factors(lam, self.quad.eval(psi))
        peak = int(np.argmax(psi))
        radius = 3.0 * float(self.mesh.size_target[peak])
        d2 = np.sum((self.quad.pos - self.mesh.vertices[peak]) ** 2, axis=-1)
        return float(np.sum((self.quad.w * factors)[d2 < radius * radius])) >= 0.5

    def _continued_solve(self, lam, tol, max_iter):
        """branch._march from lambda = 0 in pi/2 steps, secant-predicted."""
        from .branch import _march  # deferred: cycle
        state = self.solve_mp(0.0, tol=tol, max_iter=max_iter)

        def on_state(s):             # the secant slope from the last accepted state
            nonlocal state
            slope = (s.psi - state.psi) / (s.lam - state.lam)
            state = s
            return slope

        targets = [*np.arange(np.pi / 2, lam, np.pi / 2), lam]
        state, termination = _march(self, (state, np.zeros_like(state.psi)), targets,
                                    on_state, tol, max_iter)
        if termination != "completed":
            raise BlowupDetected(
                f"continuation stalled at lambda={state.lam:.6g} en route to {lam:.6g}",
                lam=state.lam, psi=state.psi, sup=float(np.abs(state.psi).max()))
        return state

    # -- Gelfand form ---------------------------------------------------------

    def solve_lp(self, mu, tol=NEWTON_TOL, max_iter=NEWTON_MAX_ITER) -> MeanFieldState:
        """Solve -Delta v = mu h e^v (minimal branch for mu > 0).

        One damped Newton solve on v from v = 0, a subsolution for mu > 0 of
        this convex positone problem, so the iterates rise to the minimal
        solution, where g of branch.g_of is positive.  A state with g below
        G_DIRECT, or a failed solve, sends branch._march up from it (or from
        lambda = 0) to the sign change of g and branch.locate_fold to the
        fold.  Requests within FOLD_RTOL of the fold value return the fold
        state, those beyond raise NoConvergence, and those below return the
        direct state if it converged with g > 0.
        """
        mu = float(mu)
        if mu == 0.0:
            return self.solve_mp(0.0, tol=tol, max_iter=max_iter)
        if mu < 0.0:
            return self._lp_newton_negative(mu, tol, max_iter)
        return self._lp_minimal_branch(mu, tol, max_iter)

    def _lp_newton_negative(self, mu, tol, max_iter):
        """Damped Newton directly on v from v = 0, for either sign of mu.

        The Jacobian A_ii - mu M_ii is SPD for mu <= 0.  For mu > 0 nothing
        bounds the iterates past the fold, so a trial whose sup norm passes
        TRUST_SUP raises BlowupDetected before exp can overflow.
        """
        def residual(v):
            factors = np.exp(self.quad.eval(v))
            r = (self.A @ v - mu * self.quad.assemble_load(factors))[self.interior]
            return factors, r, self.dirichlet.dual_norm(r)

        def linear_solve(factors, r):
            M = self.quad.assemble_mass(factors)
            J_ii = self.jacobian_pattern(M).interior(mu, M)
            return splu(J_ii, permc_spec=PERMC_SPEC).solve(-r)

        v, factors, dn, it = self._damped_newton(
            np.zeros(self.mesh.n_vertices), residual, linear_solve, TRUST_SUP, tol,
            max_iter, f"mu={mu:.6g}", name="Gelfand Newton")
        z = self.quad.integrate(factors)          # int h e^v
        lam = mu * z                              # mu = 0 never comes here
        return self._finalize(lam, v / lam, factors / z, np.log(z), dn, it)

    def _lp_minimal_branch(self, mu, tol, max_iter):
        from .branch import EPS_STOP, POS_STEP, _march, g_of, locate_fold  # deferred: cycle
        state = diag = err = None
        try:
            state = self._lp_newton_negative(mu, tol, max_iter)
        except (NoConvergence, BlowupDetected) as e:
            err = e
        else:
            diag = g_of(self, state)
        if diag is not None and diag.g >= G_DIRECT:
            return state
        below = diag is not None and diag.g > 0.0     # converged on the minimal branch
        start = state if below else self.solve_mp(0.0, tol=tol, max_iter=max_iter)
        last = [(start, diag if below else g_of(self, start))]   # the last two pairs

        def on_state(s):             # keeps the pair, and ends the march once g <= 0
            d = g_of(self, s)
            last[:] = [last[-1], (s, d)]
            return d.eta if d.g > 0.0 else None

        lam_end = EIGHT_PI - EPS_STOP
        targets = np.arange(start.lam + POS_STEP, lam_end, POS_STEP)
        _march(self, (start, last[0][1].eta), [*targets, lam_end], on_state, tol, max_iter)
        if last[-1][1].g <= 0.0:
            fold = locate_fold(self, *last, newton_tol=tol, max_iter=max_iter)
            if mu > fold.mu * (1.0 + FOLD_RTOL):
                raise NoConvergence(f"mu={mu:.6g} exceeds the fold value {fold.mu:.6g}; "
                                    "no minimal-branch solution")
            if mu >= fold.mu * (1.0 - FOLD_RTOL):
                return fold
        if below:
            return state
        raise NoConvergence(f"Newton on v missed the minimal branch at mu={mu:.6g}",
                            iterations=getattr(err or state, "iterations", None),
                            residual=getattr(err or state, "residual", None)) from err


# ---------------------------------------------------------------------------
# linearized operator


class JacobianPattern:
    """CSC layouts of S = A_ii - s M_ii and of its bordering K, fixed per problem.

        K = [[S, lam b_i], [-b_i', 1]]

    S holds the union of the stiffness and the interior mass patterns.  K
    appends one row and one column: column j < n of K is column j of S
    followed by its border-row entry, and column n holds lam b_i and the
    corner.  Values are written into the stored slots; the mass matrices
    must share the pattern of the one the layout was built from, as every
    `Quadrature.assemble_mass` result of one quadrature does.
    """

    def __init__(self, A_ii, M, interior):
        n = len(interior)
        local = np.full(M.shape[0], -1)
        local[interior] = np.arange(n)
        rows = local[np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))]
        cols = local[M.indices]
        self.m_src = np.nonzero((rows >= 0) & (cols >= 0))[0]   # interior entries of M
        A = A_ii.tocoo()
        keys, slots = np.unique(np.concatenate([
            A.col.astype(np.int64) * n + A.row, cols[self.m_src] * n + rows[self.m_src]]),
            return_inverse=True)
        self.n = n
        self.s_indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
        self.s_indices = (keys % n).astype(np.int32)
        self.a_data = np.zeros(len(keys))
        self.a_data[slots[:A.nnz]] = A.data
        self.m_dst = slots[A.nnz:]
        # K: every S entry moves down by the border entries of earlier columns
        self.k_indptr = np.append(self.s_indptr + np.arange(n + 1, dtype=np.int32),
                                  np.int32(len(keys) + 2 * n + 1))
        self.s_to_k = np.arange(len(keys)) + keys // n
        self.k_indices = np.empty(self.k_indptr[-1], dtype=np.int32)
        self.k_indices[self.s_to_k] = self.s_indices
        self.k_indices[self.k_indptr[1:n + 1] - 1] = n
        self.k_indices[self.k_indptr[n]:] = np.arange(n + 1)

    def _s_data(self, s, M):
        data = self.a_data.copy()
        data[self.m_dst] -= s * M.data[self.m_src]
        return data

    def interior(self, s, M):
        """A_ii - s M_ii."""
        return sp.csc_matrix((self._s_data(s, M), self.s_indices, self.s_indptr),
                             shape=(self.n, self.n))

    def bordered(self, lam, M, b_i):
        """K for A_ii - lam (M_ii - b_i b_i'); its last unknown is b_i' x."""
        n, ptr = self.n, self.k_indptr
        data = np.empty(ptr[-1])
        data[self.s_to_k] = self._s_data(lam, M)
        data[ptr[1:n + 1] - 1] = -b_i
        data[ptr[n]:-1] = lam * b_i
        data[-1] = 1.0
        return sp.csc_matrix((data, self.k_indices, ptr), shape=(n + 1, n + 1))


class Linearization:
    """Bordered solver for L = A - lam (M_rho - b b') on the interior space.

    `factors` are the flat point factors e^(lam psi)/Z the operator was
    built from; M_ii, the interior block of M_rho, is formed only when read.
    """

    def __init__(self, problem: MeanFieldProblem, lam, factors, load=None):
        self.problem = problem
        self.lam = lam
        self.factors = factors
        self.M_rho = problem.quad.assemble_mass(factors)
        self.b = load if load is not None else problem.quad.assemble_load(factors)
        self.b_i = self.b[problem.interior]
        self.K = problem.jacobian_pattern(self.M_rho).bordered(lam, self.M_rho, self.b_i)
        self._lu = None

    @classmethod
    def at_state(cls, problem, state: MeanFieldState):
        factors, _ = problem._exp_factors(state.lam, problem.quad.eval(state.psi))
        return cls(problem, state.lam, factors)

    @cached_property
    def M_ii(self):
        idx = self.problem.interior
        return self.M_rho[idx][:, idx].tocsr()

    def _factor(self):
        if self._lu is None:
            try:
                self._lu = splu(self.K, permc_spec=PERMC_SPEC)
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
        return (self.K @ np.append(x_interior, self.b_i @ x_interior))[:-1]

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
