"""Spectral quantities attached to a solved branch state.

Three related eigenvalue problems drive the branch analysis, all built from
the stiffness matrix A, the density mass matrix M_rho and the density load
vector b (so <v> = b'v is the rho-weighted average):

  sigma_j : (A - lam Mhat) phi = sigma Mhat phi   on the Dirichlet space,
  tau_1   : (A - lam Mhat) phi = tau  M_rho phi   on the Dirichlet space,
  C_P     :           A phi    = c    M_rho phi   on the full space,

where Mhat = M_rho - b b' pairs oscillations: v' Mhat v is the rho-variance
of v.  The constant field is the kernel of the full-space pencil, so C_P is
its second eigenvalue; sigma and tau exclude it by the boundary condition.
sigma_1 > 0 expresses invertibility of the linearized operator along the
branch, and the orderings sigma_1 >= tau_1 and sigma_j + lam >= C_P hold at
the discrete level by Rayleigh-quotient comparison.

Each pencil has one solver path.  sigma is found by implicitly restarted
Lanczos (ARPACK) inverted through the LU of the Dirichlet stiffness; tau_1
and C_P by LOBPCG (Knyazev 2001) preconditioned by factors already held, the
row's bordered LU and one LU of A + M_rho, falling back to ARPACK when a run
misses its tolerance, so no returned value is unconverged.  C_P is a
near-double pair on symmetric domains, so its block holds two vectors.  The
runs start from a WarmStart carrier's vectors, a trace row's predecessor's,
or from fixed random ones.  Dense eigh solves only meshes too small for the
iterative solvers (see _dense), and is the oracle they are tested against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, lobpcg, splu

from .errors import DegenerateWeight, SolverError
from .meanfield import PERMC_SPEC, Linearization, MeanFieldProblem, MeanFieldState

LOBPCG_TOL = 1e-10  # residual norm of B-normalized vectors a run must reach
LOBPCG_MAXITER = 40  # iterations after which a run falls back to ARPACK
# the tau_1 preconditioner is one bordered LU solve, not a refined one
TAU_PRECOND_RTOL = 1e-6


@dataclass
class SpectrumReport:
    lam: float
    sigmas: np.ndarray          # ascending, k smallest
    phis: np.ndarray            # (n_vertices, k), zero on the boundary
    tau1: float
    poincare: float
    ortho_error: float          # max deviation of the Gram matrix from I
    mean_error: float           # max |<phi_j - <phi_j>>|
    method: str = "sparse"


@dataclass
class WarmStart:
    """The previous row's eigenvectors, to start the next row's solves from.

    Every iterative solve stores the vectors it converged to in its carrier,
    so the next call starts from them; an empty entry starts from a fixed
    random block.  Copies share the C_P preconditioner, a SuperLU of
    A + M_rho built on first use; the vectors are replaced, never written in
    place, so copies march independently.
    """

    sigma: np.ndarray | None = None      # (n_interior, k) sigma vectors
    tau: np.ndarray | None = None        # (n_interior, 1) tau_1 vector
    poincare: np.ndarray | None = None   # (n_vertices, 2) C_P block
    precond: object = None               # splu(A + M_rho) of the first row

    def copy(self) -> WarmStart:
        return replace(self)


@dataclass
class ModeCoefficients:
    a: np.ndarray               # projections of the oscillation of psi
    b: np.ndarray               # projections of the oscillation of eta


def _fixed_start(shape):
    return np.random.default_rng(1729).standard_normal(shape)


def _columns(f):
    """A block operator applying the vector function f column by column."""
    return lambda X: np.column_stack([f(x) for x in X.T])


def _dense(n_i, k=1):
    """Whether n_i unknowns are too few for the iterative solvers: ARPACK finds
    k < n - 1 of n eigenpairs, and scipy's LOBPCG iterates only on
    n - constraints >= 5 * block unknowns, which 11 interior unknowns give
    every pencil here (C_P's is a block of 2, constrained by the constants)."""
    return n_i < 5 * 2 + 1 or k >= n_i - 1


def _dense_eigh(lin: Linearization, pencil: str):
    """Every eigenpair of the "sigma", "tau" or "poincare" pencil at lin,
    ascending, by dense eigh; the sigma pencil's values are sigma + lam."""
    problem = lin.problem
    if pencil == "poincare":
        A, B = problem.A.toarray(), lin.M_rho.toarray()
    else:
        A, B = problem.dirichlet.A_ii.toarray(), lin.M_ii.toarray()
        mhat = B - np.outer(lin.b_i, lin.b_i)
        A, B = (A, mhat) if pencil == "sigma" else (A - lin.lam * mhat, B)
    try:
        return scipy.linalg.eigh(A, B)
    except np.linalg.LinAlgError as e:
        raise DegenerateWeight(f"{pencil} mass not positive definite: {e}") from e


def _lobpcg(A, B, X, precond, Y=None):
    """Smallest eigenpairs of (A, B) by LOBPCG from the block X.

    Returns None when the run ends above LOBPCG_TOL, which includes every
    run stopped at LOBPCG_MAXITER, so a miss is never mistaken for a value.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)   # misses are checked below
            vals, vecs, history = lobpcg(
                A, X, B=B, M=precond, Y=Y, tol=LOBPCG_TOL, maxiter=LOBPCG_MAXITER,
                largest=False, retResidualNormsHistory=True)
    except (ValueError, np.linalg.LinAlgError):
        return None
    if not np.max(history[-1]) <= LOBPCG_TOL:
        return None
    return vals, vecs


def _mhat_full(lin: Linearization):
    return lambda v: lin.M_rho @ v - lin.b * (lin.b @ v)


def weighted_eigs(problem: MeanFieldProblem, state: MeanFieldState, k: int = 10,
                  lin: Linearization | None = None,
                  warm: WarmStart | None = None) -> SpectrumReport:
    """The k smallest eigenpairs of the oscillation-paired linearization.

    Eigenfields are returned both as Dirichlet fields and as their mean-free
    oscillations, normalized so the rho-weighted Gram matrix of the
    oscillations is the identity.  The solves start from the WarmStart
    carrier's vectors, if given, and store the new ones in it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if lin is None:
        lin = Linearization.at_state(problem, state)
    warm = warm or WarmStart()
    idx = problem.interior
    n_i = len(idx)
    k = min(k, n_i)
    lam = state.lam
    if _dense(n_i, k):
        s, vecs = _dense_eigh(lin, "sigma")
        sig, vecs, method = s[:k] - lam, vecs[:, :k], "dense"
    else:
        v0 = None if warm.sigma is None else warm.sigma.sum(axis=1)
        sig, vecs = _sigma_sparse(problem, lin, lam, k, v0=v0)
        warm.sigma, method = vecs, "sparse"
    phis = np.zeros((problem.mesh.n_vertices, k))
    phis[idx] = vecs
    gram = phis.T @ _columns(_mhat_full(lin))(phis)
    ortho_error = float(np.abs(gram - np.eye(k)).max())
    mean_free = phis - (lin.b @ phis)[None, :]
    mean_error = float(np.abs(lin.b @ mean_free).max()) if k else 0.0
    return SpectrumReport(
        lam=lam, sigmas=sig, phis=phis,
        tau1=standard_tau1(problem, state, lin=lin, warm=warm),
        poincare=poincare_constant(problem, state, lin=lin, warm=warm),
        ortho_error=ortho_error, mean_error=mean_error, method=method,
    )


def _sigma_sparse(problem, lin, lam, k, v0=None):
    """Largest-theta Lanczos on Mhat v = theta A v; sigma = 1/theta - lam.

    v0 starts the Lanczos run; by default a fixed random vector.
    """
    n_i = len(problem.interior)
    M_ii, b_i = lin.M_ii, lin.b_i
    mhat = LinearOperator((n_i, n_i), matvec=lambda x: M_ii @ x - b_i * (b_i @ x))
    a_inv = LinearOperator((n_i, n_i), matvec=problem.dirichlet.lu.solve)
    try:
        theta, vecs = eigsh(mhat, k=k, M=problem.dirichlet.A_ii, Minv=a_inv,
                            which="LA", v0=_fixed_start(n_i) if v0 is None else v0,
                            tol=0)
    except ArpackError as e:
        raise SolverError(f"sigma eigensolver failed: {e}") from e
    if theta.min() <= 1e-14 * theta.max():
        raise DegenerateWeight("oscillation mass is rank-deficient beyond the constant")
    # vectors come back A-orthonormal; phi' Mhat phi = theta rescales them
    vecs = vecs / np.sqrt(theta)[None, :]
    sig = 1.0 / theta - lam
    order = np.argsort(sig)
    return sig[order], vecs[:, order]


def dense_sigma_oracle(problem, state, k=5):
    """Brute-force full eigensolve of the same pencil, for cross-checking."""
    return _dense_eigh(Linearization.at_state(problem, state), "sigma")[0][:k] - state.lam


def standard_tau1(problem: MeanFieldProblem, state: MeanFieldState,
                  lin: Linearization | None = None,
                  warm: WarmStart | None = None) -> float:
    """Smallest eigenvalue of the linearization against the full density mass.

    LOBPCG runs on (J, M_ii), where J = A_ii - lam (M_ii - b b') is applied
    by the bordered linearization and preconditioned by one solve with its
    LU, started from the carrier's vector; when it misses, ARPACK solves the
    inverted pencil.
    """
    if lin is None:
        lin = Linearization.at_state(problem, state)
    warm = warm or WarmStart()
    n_i = len(problem.interior)
    if _dense(n_i):
        return float(_dense_eigh(lin, "tau")[0][0])
    start = warm.tau if warm.tau is not None else _fixed_start((n_i, 1))
    found = _lobpcg(_columns(lin.apply), lin.M_ii, start,
                    _columns(lambda r: lin.solve(r, rtol=TAU_PRECOND_RTOL)))
    if found is not None:
        vals, warm.tau = found
        return float(vals[0])
    # inverted pencil: M_rho v = theta (A - lam Mhat) v, largest theta
    op_j = LinearOperator((n_i, n_i), matvec=lin.apply)
    j_inv = LinearOperator((n_i, n_i), matvec=lambda r: lin.solve(r, rtol=1e-12))
    try:
        theta, warm.tau = eigsh(lin.M_ii, k=1, M=op_j, Minv=j_inv, which="LA",
                                v0=_fixed_start(n_i), tol=0)
    except ArpackError as e:
        raise SolverError(f"tau eigensolver failed: {e}") from e
    return float(1.0 / theta[0])


def poincare_constant(problem: MeanFieldProblem, state: MeanFieldState,
                      lin: Linearization | None = None,
                      warm: WarmStart | None = None) -> float:
    """Second eigenvalue of the full-space stiffness/density pencil.

    The first eigenvalue is zero with constant eigenfield; every other
    eigenfield is automatically mean-free in the rho pairing, so this is the
    infimum of the Dirichlet-to-weighted-variance quotient.  Block-2 LOBPCG
    runs constrained against the constants, started from the carrier's
    block and preconditioned by its LU of A + M_rho; when it misses, ARPACK
    solves the pencil by shift-invert.
    """
    if lin is None:
        lin = Linearization.at_state(problem, state)
    warm = warm or WarmStart()
    if _dense(len(problem.interior)):
        return float(_dense_eigh(lin, "poincare")[0][1])
    n = problem.mesh.n_vertices
    if warm.precond is None:
        warm.precond = splu((problem.A + lin.M_rho).tocsc(), permc_spec=PERMC_SPEC)
    start = warm.poincare if warm.poincare is not None else _fixed_start((n, 2))
    found = _lobpcg(problem.A, lin.M_rho, start, warm.precond.solve, Y=np.ones((n, 1)))
    if found is not None:
        vals, warm.poincare = found
        return float(vals.min())
    # a fallback leaves the carrier's block as it was
    try:
        vals = eigsh(problem.A.tocsc(), k=2, M=lin.M_rho.tocsc(), sigma=-1.0,
                     which="LM", v0=_fixed_start(n), mode="normal",
                     return_eigenvectors=False)
    except ArpackError as e:
        raise SolverError(f"Poincare eigensolver failed: {e}") from e
    return float(np.max(vals))


def expand_modes(problem: MeanFieldProblem, state: MeanFieldState, eta,
                 report: SpectrumReport,
                 lin: Linearization | None = None) -> ModeCoefficients:
    """Coefficients of psi and eta oscillations in the eigenfield basis.

    a_j pairs the oscillation of psi with mode j, b_j that of eta; the
    eigenvalue relation makes sigma_j b_j = a_j for resolved modes.
    """
    if lin is None:
        lin = Linearization.at_state(problem, state)
    mhat = _mhat_full(lin)
    a = report.phis.T @ mhat(state.psi)
    b = report.phis.T @ mhat(np.asarray(eta, dtype=float))
    return ModeCoefficients(a=a, b=b)
