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

Each pencil has one solver path, run by the package's own kernels.  sigma
is found by Lanczos with full reorthogonalization (see _lanczos) inverted
through the LU of the Dirichlet stiffness; tau_1 and C_P by block LOBPCG
(Knyazev 2001, see _lobpcg) preconditioned by factors already held: tau_1
by one unrefined solve of each residual block with the row's bordered LU
(Linearization.solve with rtol None), C_P by one LU of A + M_rho that the
WarmStart carrier keeps from its first row.  A run that misses its tolerance
falls back to ARPACK, so no returned value is unconverged.  C_P is a
near-double pair on symmetric domains, so its block holds two vectors.  The
runs start from a WarmStart carrier's vectors, a trace row's predecessor's,
or from fixed random ones.  Dense eigh solves only meshes too small for the
iterative solvers (see _dense), and is the oracle they are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dstemr
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .errors import DegenerateWeight, SolverError
from .fem import SPLU_RECIPE
from .meanfield import Linearization, MeanFieldProblem, MeanFieldState

LOBPCG_TOL = 1e-10  # residual norm of B-normalized vectors a run must reach
LOBPCG_MAXITER = 40  # iterations after which a run falls back to ARPACK
LANCZOS_MAXITER = 120  # sigma Lanczos steps after which a run falls back to ARPACK


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


def _fixed_start(shape):
    return np.random.default_rng(1729).standard_normal(shape)


def _columns(f):
    """A block operator applying the vector function f column by column."""
    return lambda X: np.column_stack([f(x) for x in X.T])


def _dense(n_i, k=1):
    """Whether n_i unknowns are too few for the iterative solvers: ARPACK,
    the fallback of every pencil, finds only k < n - 1 of n eigenpairs, and
    a LOBPCG basis [X, W, P] needs three blocks of independent vectors
    beyond the constraints (C_P's block holds 2 and is constrained by the
    constants).  Below 11 interior unknowns a dense eigh costs nothing, so
    the threshold keeps every pencil clear of both limits."""
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


def _rayleigh_ritz(basis, n, k):
    """The k lowest Ritz pairs of (A, B) on the basis S, given as one
    Fortran-ordered array whose columns stack s, A s and B s, n rows each.

    Returns (values, X, P), X the Ritz block and P its part outside the first
    k basis columns, both stacked like the basis, and P None when S has only
    k columns; None when the B-Gram matrix of S is not positive definite.
    The Gram matrices B-normalize S's columns, so none is scaled in place.
    """
    S = basis[:n]
    gram_a, gram_b = S.T @ basis[n:2 * n], S.T @ basis[2 * n:]
    d = np.diag(gram_b)
    if not np.all(d > 0):
        return None
    d = 1.0 / np.sqrt(d)
    scale = np.outer(d, d)
    try:
        L_inv = np.linalg.inv(np.linalg.cholesky(gram_b * scale))
        vals, vecs = np.linalg.eigh(L_inv @ (gram_a * scale) @ L_inv.T)
    except np.linalg.LinAlgError:
        return None
    C = d[:, None] * (L_inv.T @ vecs[:, :k])
    both = (np.hstack([C, np.vstack([np.zeros((k, k)), C[k:]])]).T @ basis.T).T
    return vals[:k], both[:, :k], both[:, k:] if len(C) > k else None


def _lobpcg(A, B, X, precond, Y=None):
    """Smallest eigenpairs of (A, B) by block LOBPCG from the block X, kept
    B-orthogonal to the constraint block Y.

    A, B and precond are matrices or block functions.  Each step runs
    Rayleigh-Ritz on [X, W, P]: X the Ritz block, W its preconditioned
    residuals B-projected against Y and X, P the last update, which the
    first step does not have yet; a basis whose B-Gram matrix is not positive
    definite drops P (Hetmaniuk and Lehoucq 2006).  A run stops when every
    column residual |AX - BX Lambda| is within LOBPCG_TOL, or after
    LOBPCG_MAXITER steps; AX and BX are then computed afresh and Rayleigh-Ritz
    run once more.  Returns None when that exact residual misses LOBPCG_TOL
    or a basis is degenerate, so a miss is never mistaken for a value.
    """
    A, B, precond = (op if callable(op) else op.__matmul__ for op in (A, B, precond))
    n, k = X.shape
    if Y is None:
        constrain = lambda V: V
    else:
        BY = B(Y)
        proj = np.linalg.solve(Y.T @ BY, BY.T)
        constrain = lambda V: V - Y @ (proj @ V)

    def products(V):
        # Fortran order keeps each column contiguous, so blocks join cheaply
        VAB = np.empty((3 * n, V.shape[1]), order="F")
        VAB[:n], VAB[n:2 * n], VAB[2 * n:] = V, A(V), B(V)
        return VAB

    def residual(XAB, vals):
        return XAB[n:2 * n] - XAB[2 * n:] * vals

    def converged(R):
        return np.max(np.linalg.norm(R, axis=0)) <= LOBPCG_TOL

    found = _rayleigh_ritz(products(constrain(X)), n, k)
    for _ in range(LOBPCG_MAXITER):
        if found is None:
            return None
        vals, XAB, P = found
        R = residual(XAB, vals)
        if converged(R):
            break
        W = constrain(precond(R))
        W -= XAB[:n] @ (XAB[2 * n:].T @ W)
        basis = np.hstack([XAB, products(W)] + ([] if P is None else [P]))
        found = _rayleigh_ritz(basis, n, k)
        if found is None and P is not None:
            found = _rayleigh_ritz(basis[:, :2 * k], n, k)
    if found is not None:
        found = _rayleigh_ritz(products(constrain(found[1][:n])), n, k)
    if found is None:
        return None
    vals, XAB, _ = found
    return (vals, XAB[:n].copy()) if converged(residual(XAB, vals)) else None


def _lanczos(solve, mhat, A, v, k):
    """The k largest eigenpairs of mhat x = theta A x by Lanczos on
    A^-1 mhat in the A inner product, started from the vector v (Parlett
    1998, with full reorthogonalization).

    solve and mhat are functions of a vector, A a matrix.  The basis Q and
    its products A Q are kept as rows; each step makes one solve, one mhat
    and one A product, and reorthogonalizes the new vector against all of Q
    by two classical Gram-Schmidt passes, so the run never restarts.  It
    stops when each of the k largest Ritz values theta_i of the tridiagonal
    satisfies beta |y_i| <= eps theta_i, y_i the last entry of its
    eigenvector: the test ARPACK applies at tol = 0 (Lehoucq, Sorensen and
    Yang 1998).  Returns the Ritz values, ascending, and their A-orthonormal
    Ritz vectors as columns; None after LANCZOS_MAXITER steps, or when the
    Krylov space closes before k values converged, so a miss is never
    mistaken for a value.
    """
    n = len(v)
    Q, AQ = np.empty((LANCZOS_MAXITER + 1, n)), np.empty((LANCZOS_MAXITER + 1, n))
    Av = A @ v
    norm = np.sqrt(v @ Av)
    Q[0], AQ[0] = v / norm, Av / norm
    alpha, beta = np.empty(LANCZOS_MAXITER), np.empty(LANCZOS_MAXITER)
    eps = np.finfo(float).eps
    for j in range(LANCZOS_MAXITER):
        w = solve(mhat(Q[j]))
        c = np.zeros(j + 1)
        for _ in range(2):
            d = AQ[:j + 1] @ w
            w -= d @ Q[:j + 1]
            c += d
        Aw = A @ w
        alpha[j], beta[j] = c[j], np.sqrt(max(w @ Aw, 0.0))
        if j + 1 >= k:
            # the k largest Ritz pairs of the tridiagonal by index (range 3);
            # dstemr overwrites the off-diagonal, so it gets a fresh copy
            _, theta, Y, info = dstemr(alpha[:j + 1], np.append(beta[:j], 0.0), 3,
                                       0.0, 0.0, j + 2 - k, j + 1)
            theta, Y = theta[:k], Y[:, :k]
            if info == 0 and np.all(beta[j] * np.abs(Y[-1]) <= eps * theta):
                return theta, Q[:j + 1].T @ Y
        # what Gram-Schmidt left of A^-1 mhat q_j is rounding: the Krylov
        # space has closed
        if beta[j] <= np.sqrt(eps) * np.sqrt(beta[j] ** 2 + c @ c):
            return None
        Q[j + 1], AQ[j + 1] = w / beta[j], Aw / beta[j]
    return None


def _mhat_full(lin: Linearization):
    return lambda v: lin.M_rho @ v - lin.b * (lin.b @ v)


def weighted_eigs(problem: MeanFieldProblem, state: MeanFieldState, k: int = 10,
                  lin: Linearization | None = None,
                  warm: WarmStart | None = None) -> SpectrumReport:
    """The k smallest eigenpairs of the oscillation-paired linearization.

    Eigenfields are returned as Dirichlet fields, normalized so the
    rho-weighted Gram matrix of their oscillations phi - <phi> is the
    identity; ortho_error and mean_error measure how far that and the
    oscillations' zero mean hold.  The solves start from the WarmStart
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
    mean_error = float(np.abs(lin.b @ mean_free).max())
    return SpectrumReport(
        lam=lam, sigmas=sig, phis=phis,
        tau1=standard_tau1(problem, state, lin=lin, warm=warm),
        poincare=poincare_constant(problem, state, lin=lin, warm=warm),
        ortho_error=ortho_error, mean_error=mean_error, method=method,
    )


def _sigma_sparse(problem, lin, lam, k, v0=None):
    """Largest-theta Lanczos on Mhat v = theta A v; sigma = 1/theta - lam.

    v0 starts the package's Lanczos run; by default a fixed random vector.
    When the run misses, ARPACK solves the pencil from the fixed vector.
    """
    n_i = len(problem.interior)
    M_ii, b_i = lin.M_ii, lin.b_i
    mhat = lambda x: M_ii @ x - b_i * (b_i @ x)
    A, solve = problem.dirichlet.A_ii, problem.dirichlet.lu.solve
    found = _lanczos(solve, mhat, A, _fixed_start(n_i) if v0 is None else v0, k)
    if found is None:
        try:
            found = eigsh(LinearOperator((n_i, n_i), matvec=mhat), k=k, M=A,
                          Minv=LinearOperator((n_i, n_i), matvec=solve),
                          which="LA", v0=_fixed_start(n_i), tol=0)
        except ArpackError as e:
            raise SolverError(f"sigma eigensolver failed: {e}") from e
    theta, vecs = found
    if theta.min() <= 1e-14 * theta.max():
        raise DegenerateWeight("oscillation mass is rank-deficient beyond the constant")
    # vectors come back A-orthonormal; phi' Mhat phi = theta rescales them
    vecs = vecs / np.sqrt(theta)[None, :]
    sig = 1.0 / theta - lam
    order = np.argsort(sig)
    return sig[order], vecs[:, order]


def standard_tau1(problem: MeanFieldProblem, state: MeanFieldState,
                  lin: Linearization | None = None,
                  warm: WarmStart | None = None) -> float:
    """Smallest eigenvalue of the linearization against the full density mass.

    LOBPCG runs on (J, M_ii), where J = A_ii - lam (M_ii - b b') is applied
    to a whole block through the bordered K and preconditioned by one
    unrefined solve of the block with the bordered LU, started from the
    carrier's vector; when it misses, ARPACK solves the inverted pencil.
    """
    if lin is None:
        lin = Linearization.at_state(problem, state)
    warm = warm or WarmStart()
    n_i = len(problem.interior)
    if _dense(n_i):
        return float(_dense_eigh(lin, "tau")[0][0])
    start = warm.tau if warm.tau is not None else _fixed_start((n_i, 1))
    found = _lobpcg(lin.apply, lin.M_ii, start, lambda R: lin.solve(R, rtol=None))
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
        warm.precond = splu((problem.A + lin.M_rho).tocsc(), **SPLU_RECIPE)
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

