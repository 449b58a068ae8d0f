"""Solvers for the mean-field equation and its Gelfand-problem counterpart.

The normalized problem reads

    -Delta psi = h e^(lambda psi) / int h e^(lambda psi),   psi = 0 on the boundary,

and is uniquely solvable for every lambda below 8 pi, which makes lambda the
robust continuation parameter.  The classical form -Delta v = mu h e^v is
recovered through mu = lambda / int h e^(lambda psi), u = lambda psi.

One damped Newton driver, Armijo backtracking on the dual-norm residual
under a sup-norm trust cap, serves both forms within the one step budget
NEWTON_MAX_ITER (the march and the fold search too).  It is a Newton-chord
method (Kelley 1995, ch. 5; Deuflhard 2004): the LU of the last factored
Jacobian is kept (the march hands each solve its previous row's to start
with), and its full step is taken while it cuts the residual by CHORD_RATE or
more; otherwise the Jacobian at the current iterate is factored for a damped
Newton step.  A cold solve_mp, at any lambda, is one such solve
from psi = 0.  The Jacobian is

    L eta = -Delta eta - lambda rho (eta - <eta>),

a sparse matrix plus a rank-one term; systems with it are solved through a
bordered factorization, which stays well conditioned across the fold of the
(mu, E) diagram where the plain Gelfand linearization is singular.  The
bordered matrix keeps one sparsity pattern per problem, so each Newton step
only writes its values.  Every factorization follows the package's one
SuperLU recipe (fem.SPLU_RECIPE: minimum degree on A + A', relax = 1), and
each of the two Jacobian patterns, S of the v form and the bordered K, is
ordered once: its first factorization's column order is reused by all later
ones, which then factor with the same fill and solve bit for bit alike.

All exponentials are evaluated with a max-shift so only log(int h e^(lambda
psi)) is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import json

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import (
    BlowupDetected,
    ConfigError,
    DegenerateWeight,
    FoldSingularity,
    NoConvergence,
    OverflowGuard,
)
from .fem import SPLU_RECIPE, weighted_quadrature
from .geometry import Mesh, WeightField

EIGHT_PI = 8.0 * np.pi

NEWTON_TOL = 1e-9
NEWTON_MAX_ITER = 60
FOLD_RTOL = 5e-3  # solve_lp treats mu within this of the fold as a fold request
# g from which solve_lp returns its direct state without locating the fold:
# measured g ~ 1.9 (1 - mu/mu*)^(1/2), so g < 0.14 in the fold band
G_DIRECT = 0.3
TRUST_SUP = 50.0  # Newton trust cap: on sup |v|, and on max(1, lam) sup |psi|
CHORD_RATE = 0.25  # a held LU's full step is kept while it cuts the residual by this


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
    iterations: int = 0          # Newton and chord steps
    factorizations: int = 0      # Jacobians factored, one per Newton step
    # (point factors, load b) of the Newton solve's last residual, until the
    # first Linearization.at_state of this state takes them over
    newton_load: tuple | None = field(default=None, repr=False, compare=False)


class MeanFieldProblem:
    """Discretization bundle: mesh, weight, operators and their factorizations.

    The caller builds the weight, as build_weight(mesh) or a floor of it.
    plain, A (the stiffness), dirichlet and area are read from the mesh, so
    all problems on one mesh, one per weight or floor, share them."""

    def __init__(self, mesh: Mesh, weight: WeightField):
        self.mesh = mesh
        self.weight = weight
        self.quad = weighted_quadrature(mesh, self.weight)
        self.plain, self.A, self.dirichlet = mesh.plain, mesh.stiffness, mesh.dirichlet
        self.area = mesh.area()
        self.interior = self.dirichlet.interior
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

    def solve_mp(self, lam, initial_guess=None, tol=NEWTON_TOL) -> MeanFieldState:
        """Solve the mean-field problem at the given lambda.

        One damped Newton solve from initial_guess, or from psi = 0 when
        none is given: below 8 pi the branch has one solution at each
        lambda, and Newton reaches it from zero.  Iterates whose sup norm
        crosses 50/max(1, lambda) raise BlowupDetected; so does a converged
        state at lambda >= 8 pi whose density is concentrated below the local
        mesh resolution, since no trusted solution exists there.  A lambda
        that is not finite raises ConfigError before any solve.
        """
        lam = _finite("lambda", lam)
        psi = np.zeros(self.mesh.n_vertices) if initial_guess is None \
            else np.array(initial_guess, dtype=float)
        state = self._newton(lam, psi, tol)
        if lam >= EIGHT_PI - 1e-12 and self._is_concentrated(state):
            raise BlowupDetected(
                "density concentrates below mesh resolution at lambda >= 8 pi",
                lam=lam, psi=state.psi, sup=float(np.abs(state.psi).max()))
        return state

    def _damped_newton(self, x, residual, factor, cap, tol, where,
                       name="Newton", lam=None, held=None):
        """Newton-chord on the interior values of x, with Armijo backtracking.

        residual(x) returns (aux, r, dn): what factor(aux) needs to build the
        Jacobian at x, the interior residual r and its dual norm dn.
        factor(aux) returns the solve with that Jacobian.  The solve of the
        last factored Jacobian is held; held, if given, is one factored
        before this call (the march hands in its previous row's, taken at
        the previous lambda) and is held from the first step.  While a solve
        is held, each step first tries one full chord step with it, kept
        when the trial stays under the sup-norm cap and its dn is at most
        CHORD_RATE times the current one (or below tol).  Otherwise the
        trial is dropped, the Jacobian at x is factored and held, and a
        Newton step is taken from x with Armijo backtracking.  A Newton
        trial past the cap raises BlowupDetected (with lam and the trial if
        lam is given); a step below 2^-24, a singular linearization or
        dn > tol after NEWTON_MAX_ITER steps raise NoConvergence.  Messages
        name the form and parameter.  Returns (x, aux, dn, steps,
        factorizations), the last counting only Jacobians factored here.
        """
        aux, r, dn = residual(x)
        solve = held
        it = factorizations = 0
        while not dn <= tol:          # a NaN residual or tol never reads as converged
            if it >= NEWTON_MAX_ITER:
                raise NoConvergence(f"{name} stalled at {where}", iterations=it, residual=dn)
            try:
                if solve is not None:
                    trial = x.copy()
                    trial[self.interior] += solve(-r)
                    if float(np.abs(trial).max()) <= cap:
                        aux_t, r_t, dn_t = residual(trial)
                        if dn_t <= CHORD_RATE * dn or dn_t < tol:
                            x, aux, r, dn = trial, aux_t, r_t, dn_t
                            it += 1
                            continue
                solve = factor(aux)
                factorizations += 1
                delta = solve(-r)
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
        return x, aux, dn, it, factorizations

    def _newton(self, lam, psi, tol, held=None):
        def residual(psi):
            b, factors, log_z, _ = self._load(lam, psi)
            r = (self.A @ psi - b)[self.interior]
            return (b, factors, log_z), r, self.dirichlet.dual_norm(r)

        def factor(aux):
            b, factors, _ = aux
            return Linearization(self, lam, factors, b).solve

        psi, (b, factors, log_z), dn, it, nf = self._damped_newton(
            psi, residual, factor, TRUST_SUP / max(1.0, lam), tol,
            f"lambda={lam:.6g}", lam=lam, held=held)
        state = self._finalize(lam, psi, factors, log_z, dn, it, nf)
        state.newton_load = (factors, b)
        return state

    def _finalize(self, lam, psi, factors, log_z, dn, iterations, factorizations):
        mass = self.quad.integrate(factors)
        rho = self.vertex_density(lam, psi, log_z)
        mu = float(lam * np.exp(-log_z))
        energy = 0.5 * float(psi @ (self.A @ psi))
        return MeanFieldState(
            lam=float(lam), psi=psi, mu=mu, u=lam * psi, rho=rho,
            energy=energy, mass_check=float(mass), residual=float(dn),
            iterations=iterations, factorizations=factorizations,
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

    # -- Gelfand form ---------------------------------------------------------

    def solve_lp(self, mu, tol=NEWTON_TOL) -> MeanFieldState:
        """Solve -Delta v = mu h e^v (minimal branch for mu > 0).

        One damped Newton solve on v from v = 0, a subsolution for mu > 0 of
        this convex positone problem, so the iterates rise to the minimal
        solution, where g of branch.g_of is positive.  A state with g below
        G_DIRECT, or a failed solve, sends branch._march up from it (or from
        lambda = 0) until g changes sign, and the bracket the march kept to
        branch.find_fold.  Requests within FOLD_RTOL of the fold value return
        the fold state, those beyond raise NoConvergence, and those below
        return the direct state if it converged with g > 0.  Every Newton
        solve goes to tol.  A mu that is not finite raises ConfigError before
        any solve.
        """
        mu = _finite("mu", mu)
        if mu == 0.0:
            return self.solve_mp(0.0, tol=tol)
        if mu < 0.0:
            return self._lp_newton_negative(mu, tol)
        return self._lp_minimal_branch(mu, tol)

    def _lp_newton_negative(self, mu, tol):
        """Damped Newton directly on v from v = 0, for either sign of mu.

        The Jacobian A_ii - mu M_ii is SPD for mu <= 0.  For mu > 0 nothing
        bounds the iterates past the fold, so a trial whose sup norm passes
        TRUST_SUP raises BlowupDetected before exp can overflow.
        """
        def residual(v):
            factors = np.exp(self.quad.eval(v))
            r = (self.A @ v - mu * self.quad.assemble_load(factors))[self.interior]
            return factors, r, self.dirichlet.dual_norm(r)

        def factor(factors):
            M = self.quad.assemble_mass(factors)
            pattern = self.jacobian_pattern(M)
            return pattern.s_order.factor(pattern.interior(mu, M)).solve

        v, factors, dn, it, nf = self._damped_newton(
            np.zeros(self.mesh.n_vertices), residual, factor, TRUST_SUP, tol,
            f"mu={mu:.6g}", name="Gelfand Newton")
        z = self.quad.integrate(factors)          # int h e^v
        lam = mu * z                              # mu = 0 never comes here
        return self._finalize(lam, v / lam, factors / z, np.log(z), dn, it, nf)

    def _lp_minimal_branch(self, mu, tol):
        from .branch import EPS_STOP, POS_STEP, _march, find_fold, g_of  # deferred: cycle
        state = diag = err = None
        try:
            state = self._lp_newton_negative(mu, tol)
        except (NoConvergence, BlowupDetected) as e:
            err = e
        else:
            diag = g_of(Linearization.at_state(self, state), state)
        if diag is not None and diag.g >= G_DIRECT:
            return state
        below = diag is not None and diag.g > 0.0     # converged on the minimal branch
        start = state if below else self.solve_mp(0.0, tol=tol)
        lam_end = EIGHT_PI - EPS_STOP
        targets = np.arange(start.lam + POS_STEP, lam_end, POS_STEP)
        if not below:
            diag = g_of(Linearization.at_state(self, start), start)
        _, brackets, _ = _march(self, (start, diag), [*targets, lam_end], tol, to_fold=True)
        if brackets:
            fold = find_fold(self, brackets, newton_tol=tol)
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


def _finite(name, value):
    """value as a float, or ConfigError unless it is finite."""
    value = float(value)
    if not np.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return value


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
    `Quadrature.assemble_mass` result of one quadrature does.  s_order and
    k_order factor S and K; each orders its pattern once, at its first
    factorization.  The interior block M_ii is gathered in CSR from M's
    interior entries, which keep their order.
    """

    def __init__(self, A_ii, M, interior):
        n = len(interior)
        local = np.full(M.shape[0], -1)
        local[interior] = np.arange(n)
        rows = local[np.repeat(np.arange(M.shape[0]), np.diff(M.indptr))]
        cols = local[M.indices]
        self.m_src = np.nonzero((rows >= 0) & (cols >= 0))[0]   # interior entries of M
        self.m_indices = cols[self.m_src].astype(np.int32)
        self.m_indptr = np.searchsorted(rows[self.m_src], np.arange(n + 1)).astype(np.int32)
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
        self.s_order = ColumnOrder(self.s_indptr, self.s_indices)
        self.k_order = ColumnOrder(self.k_indptr, self.k_indices)

    def _s_data(self, s, M):
        data = self.a_data.copy()
        data[self.m_dst] -= s * M.data[self.m_src]
        return data

    def mass_interior(self, M):
        """M_ii, CSR."""
        return sp.csr_matrix((M.data[self.m_src], self.m_indices, self.m_indptr),
                             shape=(self.n, self.n))

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


class ColumnOrder:
    """SuperLU factorizations of matrices that share one CSC pattern.

    The first factorization runs fem.SPLU_RECIPE and its LU serves as is;
    its perm_c is kept.  SuperLU factors A Pc = A[:, argsort(perm_c)], so a
    later matrix of the pattern is gathered into that column order and
    factored by the recipe under NATURAL ordering, which skips the
    minimum-degree pass; its solution y is un-permuted as x = y[perm_c].
    Fill and solves are then bitwise those of a fresh factorization under
    the recipe.  Every factorization is one `splu` call; a singular one
    raises FoldSingularity.
    """

    def __init__(self, indptr, indices):
        self.indptr = indptr
        self.indices = indices
        self.perm_c = None

    def factor(self, A):
        """LU of A, a CSC matrix with this pattern's indptr and indices."""
        try:
            if self.perm_c is not None:
                reordered = sp.csc_matrix(
                    (A.data[self.gather], self.p_indices, self.p_indptr), shape=A.shape)
                lu = splu(reordered, **{**SPLU_RECIPE, "permc_spec": "NATURAL"})
                return _ReorderedLU(lu, self.perm_c)
            lu = splu(A, **SPLU_RECIPE)
        except RuntimeError as e:
            raise FoldSingularity(f"linearized operator is singular: {e}") from e
        self._adopt(lu.perm_c)
        return lu

    def _adopt(self, perm_c):
        """Keep perm_c and the one gather that lays out a matrix in its order."""
        cols = np.argsort(perm_c)
        counts = np.diff(self.indptr)[cols]
        self.p_indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        self.gather = (np.repeat(self.indptr[cols] - self.p_indptr[:-1], counts)
                       + np.arange(self.p_indptr[-1]))
        self.p_indices = self.indices[self.gather]
        self.perm_c = perm_c


class _ReorderedLU:
    """Solves with A through the LU of A[:, argsort(perm_c)]."""

    def __init__(self, lu, perm_c):
        self.lu = lu
        self.perm_c = perm_c

    def solve(self, rhs):
        return self.lu.solve(rhs)[self.perm_c]


class Linearization:
    """Bordered solver for L = A - lam (M_rho - b b') on the interior space.

    `factors` are the flat point factors e^(lam psi)/Z the operator was
    built from and `load` their load vector b; M_ii, the interior block of
    M_rho, is formed only when read.
    """

    def __init__(self, problem: MeanFieldProblem, lam, factors, load):
        self.problem = problem
        self.lam = lam
        self.factors = factors
        self.M_rho = problem.quad.assemble_mass(factors)
        self.b = load
        self.b_i = self.b[problem.interior]
        self.K = problem.jacobian_pattern(self.M_rho).bordered(lam, self.M_rho, self.b_i)
        self._lu = None

    @classmethod
    def at_state(cls, problem, state: MeanFieldState):
        """The linearization at state.  The first one at a Newton state takes
        over the point factors and load of the solve's last residual, which
        the state then drops; any other evaluates them again, to the same
        bits."""
        if state.newton_load is not None:
            (factors, load), state.newton_load = state.newton_load, None
            return cls(problem, state.lam, factors, load)
        factors, _ = problem._exp_factors(state.lam, problem.quad.eval(state.psi))
        return cls(problem, state.lam, factors, problem.quad.assemble_load(factors))

    @cached_property
    def M_ii(self):
        return self.problem.jacobian_pattern(self.M_rho).mass_interior(self.M_rho)

    def _factor(self):
        if self._lu is None:
            self._lu = self.problem.jacobian_pattern(self.M_rho).k_order.factor(self.K)
        return self._lu

    def solve(self, rhs_interior, rtol=1e-10):
        """Solve L x = rhs on the interior space, refined to rtol residual.

        rhs is a vector or, with rtol None, a block of columns: rtol None
        makes one bordered LU solve of the whole block and no refinement,
        the preconditioner of the tau_1 eigensolver.
        """
        lu = self._factor()
        border = np.zeros((1,) + rhs_interior.shape[1:])
        x = lu.solve(np.concatenate([rhs_interior, border]))[:-1]
        if rtol is None:
            return x
        scale = max(float(np.linalg.norm(rhs_interior)), 1e-300)
        for _ in range(3):
            res = self.apply(x) - rhs_interior
            if np.linalg.norm(res) <= rtol * scale:
                return x
            corr = lu.solve(np.concatenate([res, [0.0]]))
            x = x - corr[:-1]
        res = self.apply(x) - rhs_interior
        if not np.linalg.norm(res) <= 1e-6 * scale:      # NaN fails it too
            raise FoldSingularity("linearized solve lost accuracy (near-singular)")
        return x

    def apply(self, x_interior):
        """L x for a vector or a block of columns x."""
        return (self.K @ np.concatenate([x_interior, (self.b_i @ x_interior)[None]]))[:-1]

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
