import contextlib
import math

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import splu

import radial_oracle as oracle
from conftest import make_problem
from gelfand import branch, spectrum
from gelfand.branch import solve_eta, trace_branch
from gelfand.fem import SPLU_RECIPE
from gelfand.geometry import DomainSpec, SingularitySpec
from gelfand.meanfield import Linearization
from gelfand.spectrum import (WarmStart, poincare_constant, standard_tau1,
                              weighted_eigs)
from spectral_modes import dense_sigma_oracle, expand_modes


@pytest.fixture(scope="module")
def coarse_states(coarse_problem):
    return {lam: coarse_problem.solve_mp(lam) for lam in (0.0, -20.0, 4.0 * math.pi)}


def dense_references(problem, state):
    """sigma_1, tau_1 and C_P by dense eigh of the three pencils."""
    lin = Linearization.at_state(problem, state)
    A, M = problem.dirichlet.A_ii.toarray(), lin.M_ii.toarray()
    mhat = M - np.outer(lin.b_i, lin.b_i)
    sigma1 = scipy.linalg.eigh(A, mhat, eigvals_only=True, subset_by_index=[0, 0])[0]
    tau1 = scipy.linalg.eigh(A - state.lam * mhat, M, eigvals_only=True,
                             subset_by_index=[0, 0])[0]
    poincare = scipy.linalg.eigh(problem.A.toarray(), lin.M_rho.toarray(),
                                 eigvals_only=True, subset_by_index=[1, 1])[0]
    return sigma1 - state.lam, tau1, poincare


@contextlib.contextmanager
def arpack_only():
    """Every Lanczos and LOBPCG run misses, so every pencil is solved by
    ARPACK."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(spectrum, "_lanczos", lambda *args, **kwargs: None)
        m.setattr(spectrum, "_lobpcg", lambda *args, **kwargs: None)
        yield


def test_bessel_oracles_at_lambda_zero(coarse_problem, coarse_states):
    report = weighted_eigs(coarse_problem, coarse_states[0.0], k=5)
    # discrete eigenvalues approach the Bessel values from above
    assert report.tau1 == pytest.approx(oracle.TAU1_DISK, rel=0.02)
    assert report.poincare == pytest.approx(oracle.POINCARE_DISK, rel=0.02)
    assert report.tau1 >= oracle.TAU1_DISK
    assert report.poincare >= oracle.POINCARE_DISK
    assert report.sigmas[0] == pytest.approx(math.pi * oracle.J1_1 ** 2, rel=0.03)


def test_orderings(coarse_problem, coarse_states):
    for lam, state in coarse_states.items():
        report = weighted_eigs(coarse_problem, state, k=3)
        assert report.sigmas[0] >= report.tau1 > 0.0
        assert report.sigmas[0] + lam >= report.poincare > 0.0
        assert np.all(np.diff(report.sigmas) >= -1e-10)


def test_dense_matches_sparse(coarse_problem, coarse_states):
    state = coarse_states[0.0]
    assert len(coarse_problem.interior) <= 500
    dense = dense_sigma_oracle(coarse_problem, state, k=5)
    sparse = weighted_eigs(coarse_problem, state, k=5)
    assert sparse.method == "sparse"
    assert np.max(np.abs(dense - sparse.sigmas)) < 1e-8


def test_vectors_clean(coarse_problem, coarse_states):
    report = weighted_eigs(coarse_problem, coarse_states[0.0], k=6)
    assert report.ortho_error < 1e-8
    assert report.mean_error < 1e-9
    # eigenvectors vanish on the boundary
    mask = coarse_problem.mesh.boundary_mask
    assert np.max(np.abs(report.phis[mask])) == 0.0


def test_rayleigh_upper_bound(coarse_problem, coarse_states):
    # any mean-free Dirichlet trial field bounds sigma1 from above
    state = coarse_states[0.0]
    report = weighted_eigs(coarse_problem, state, k=1)
    lin = Linearization.at_state(coarse_problem, state)
    mesh = coarse_problem.mesh
    trial = (1.0 - np.sum(mesh.vertices ** 2, axis=1)) * mesh.vertices[:, 0]
    trial[mesh.boundary_mask] = 0.0
    num = float(trial @ (coarse_problem.A @ trial))
    mhat = float(trial @ (lin.M_rho @ trial)) - float(lin.b @ trial) ** 2
    assert report.sigmas[0] <= num / mhat + 1e-9


def test_mode_coefficient_identity(coarse_problem):
    # a_j = sigma_j b_j ties the state, its derivative and the modes together
    state = coarse_problem.solve_mp(2.0)
    eta = solve_eta(coarse_problem, state)
    report = weighted_eigs(coarse_problem, state, k=8)
    modes = expand_modes(coarse_problem, state, eta, report)
    scale = np.max(np.abs(modes.a)) + 1e-30
    assert np.max(np.abs(modes.a - report.sigmas[:8] * modes.b)) < 1e-6 * scale


def test_spectral_eta_reconstruction_improves(coarse_problem):
    state = coarse_problem.solve_mp(3.0)
    eta = solve_eta(coarse_problem, state)
    lin = Linearization.at_state(coarse_problem, state)
    errs = []
    for k in (5, 20):
        # eta reconstructed from the first k eigenmodes: a truncation
        report = weighted_eigs(coarse_problem, state, k=k, lin=lin)
        coeffs = expand_modes(coarse_problem, state, np.zeros_like(state.psi), report, lin=lin)
        eta_k = report.phis @ (coeffs.a / report.sigmas)
        errs.append(np.max(np.abs(eta_k - eta)))
    assert errs[1] < errs[0]


def test_tau1_and_poincare_standalone(coarse_problem, coarse_states):
    for lam, state in coarse_states.items():
        t = standard_tau1(coarse_problem, state)
        c = poincare_constant(coarse_problem, state)
        assert t > 0 and c > 0
        _, tau1, poincare = dense_references(coarse_problem, state)
        assert t == pytest.approx(tau1, rel=1e-10), lam
        assert c == pytest.approx(poincare, rel=1e-10), lam


class KernelRun:
    """_lobpcg's arguments for the tau_1 or the C_P pencil at a state, built
    as standard_tau1 and poincare_constant build them for a cold start, with
    the values the run should return by dense eigh.  The preconditioner
    counts its applications in steps, one per LOBPCG step."""

    def __init__(self, problem, state, pencil):
        lin = Linearization.at_state(problem, state)
        self.steps = 0
        if pencil == "tau":
            n, self.Y = len(problem.interior), None
            self.A, self.B = lin.apply, lin.M_ii
            solve = lambda R: lin.solve(R, rtol=None)
            M = lin.M_ii.toarray()
            J = problem.dirichlet.A_ii.toarray() - state.lam * (
                M - np.outer(lin.b_i, lin.b_i))
            self.dense = scipy.linalg.eigh(J, M, eigvals_only=True)[:1]
            self.X = spectrum._fixed_start((n, 1))
        else:
            n, self.Y = problem.mesh.n_vertices, np.ones((problem.mesh.n_vertices, 1))
            self.A, self.B = problem.A, lin.M_rho
            solve = splu((problem.A + lin.M_rho).tocsc(), **SPLU_RECIPE).solve
            # the constants span the kernel; the block holds the next two
            self.dense = scipy.linalg.eigh(problem.A.toarray(), lin.M_rho.toarray(),
                                           eigvals_only=True)[1:3]
            self.X = spectrum._fixed_start((n, 2))

        def precond(R):
            self.steps += 1
            return solve(R)

        self.precond = precond

    def run(self, X=None):
        return spectrum._lobpcg(self.A, self.B, self.X if X is None else X,
                                self.precond, Y=self.Y)


@pytest.mark.parametrize("pencil", ["tau", "poincare"])
def test_lobpcg_kernel_matches_dense_eigh(coarse_problem, coarse_states, pencil):
    # the kernel alone, from the fixed random start: every value of its block
    # against dense eigh, and the block it returns converged and constrained
    for lam, state in coarse_states.items():
        kernel = KernelRun(coarse_problem, state, pencil)
        vals, X = kernel.run()
        assert vals == pytest.approx(kernel.dense, rel=1e-10), lam
        AX = kernel.A(X) if callable(kernel.A) else kernel.A @ X
        BX = kernel.B @ X
        assert np.max(np.linalg.norm(AX - BX * vals, axis=0)) <= spectrum.LOBPCG_TOL
        assert np.abs(X.T @ BX - np.eye(len(vals))).max() < 1e-12
        if kernel.Y is not None:
            assert np.abs(kernel.Y.T @ BX).max() < 1e-12


@pytest.mark.parametrize("pencil", ["tau", "poincare"])
def test_lobpcg_kernel_miss_is_none(coarse_problem, coarse_states, pencil, monkeypatch):
    # a run that converges on its last allowed step returns its value; with
    # one step fewer it is a miss, and a miss returns None, never a value
    kernel = KernelRun(coarse_problem, coarse_states[4.0 * math.pi], pencil)
    vals, X = kernel.run()
    steps = kernel.steps
    assert 1 < steps < spectrum.LOBPCG_MAXITER
    monkeypatch.setattr(spectrum, "LOBPCG_MAXITER", steps)
    last_step = kernel.run()
    assert np.array_equal(last_step[0], vals) and np.array_equal(last_step[1], X)
    monkeypatch.setattr(spectrum, "LOBPCG_MAXITER", steps - 1)
    assert kernel.run() is None
    monkeypatch.setattr(spectrum, "LOBPCG_MAXITER", 0)
    assert kernel.run() is None


class Counting:
    """A stand-in for a matrix or an LU that counts its products and solves."""

    def __init__(self, inner, counts, key):
        self.inner, self.counts, self.key = inner, counts, key

    def solve(self, rhs):
        self.counts[self.key] += 1
        return self.inner.solve(rhs)

    def __matmul__(self, x):
        self.counts[self.key] += 1
        return self.inner @ x


def test_tau1_preconditioner_is_one_unrefined_bordered_solve(coarse_problem, coarse_states,
                                                             monkeypatch):
    # each LOBPCG step preconditions its residual block by one bordered LU
    # solve, with no K product (no refinement residual) on the way
    state = coarse_states[4.0 * math.pi]
    lin = Linearization.at_state(coarse_problem, state)
    counts = {"lu": 0, "K": 0}
    lin._lu = Counting(lin._factor(), counts, "lu")
    lin.K = Counting(lin.K, counts, "K")
    lobpcg, steps = spectrum._lobpcg, []

    def counted(A, B, X, precond, Y=None):
        def once(R):
            before = dict(counts)
            W = precond(R)
            steps.append((counts["lu"] - before["lu"], counts["K"] - before["K"]))
            assert W.shape == R.shape
            return W
        return lobpcg(A, B, X, once, Y)

    monkeypatch.setattr(spectrum, "_lobpcg", counted)
    tau1 = standard_tau1(coarse_problem, state, lin=lin)
    assert tau1 == pytest.approx(dense_references(coarse_problem, state)[1], rel=1e-10)
    assert len(steps) > 1 and set(steps) == {(1, 0)}


def test_lobpcg_kernel_refuses_dependent_start(coarse_problem, coarse_states):
    # a start block without two independent directions is refused, also when
    # its columns differ only by a constant the constraint projects away
    kernel = KernelRun(coarse_problem, coarse_states[0.0], "poincare")
    v = kernel.X[:, :1]
    for start in (np.hstack([v, v]), np.hstack([v, -2.0 * v]), np.hstack([v, v + 1.0])):
        assert kernel.run(start) is None


class LanczosRun:
    """_lanczos's arguments for the sigma pencil at a state, built as
    _sigma_sparse builds them for a cold start, with the k largest theta of
    Mhat x = theta A_ii x by dense eigh.  The solve counts its applications
    in steps, one per Lanczos step."""

    def __init__(self, problem, state, k):
        lin = Linearization.at_state(problem, state)
        self.k, self.steps, self.lu = k, 0, problem.dirichlet.lu
        self.A = problem.dirichlet.A_ii
        self.mhat = lambda x: lin.M_ii @ x - lin.b_i * (lin.b_i @ x)
        mhat = lin.M_ii.toarray() - np.outer(lin.b_i, lin.b_i)
        self.dense, self.vecs = scipy.linalg.eigh(mhat, self.A.toarray())
        self.v = spectrum._fixed_start(len(problem.interior))

    def solve(self, r):
        self.steps += 1
        return self.lu.solve(r)

    def run(self, v=None):
        return spectrum._lanczos(self.solve, self.mhat, self.A,
                                 self.v if v is None else v, self.k)


@pytest.mark.parametrize("k", [1, 10])
def test_lanczos_kernel_matches_dense_eigh(coarse_problem, coarse_states, k):
    # the kernel alone, from the fixed random start: every value against
    # dense eigh, and the vectors it returns A_ii-orthonormal
    for lam, state in coarse_states.items():
        kernel = LanczosRun(coarse_problem, state, k)
        theta, X = kernel.run()
        assert theta == pytest.approx(kernel.dense[-k:], rel=1e-10), lam
        assert np.abs(X.T @ (kernel.A @ X) - np.eye(k)).max() < 1e-12, lam


def test_lanczos_kernel_miss_is_none(coarse_problem, coarse_states, monkeypatch):
    # a run that converges on its last allowed step returns its values; with
    # one step fewer it is a miss, and a miss returns None, never a value
    kernel = LanczosRun(coarse_problem, coarse_states[4.0 * math.pi], 1)
    theta, X = kernel.run()
    steps, kernel.steps = kernel.steps, 0
    assert 1 < steps < spectrum.LANCZOS_MAXITER
    monkeypatch.setattr(spectrum, "LANCZOS_MAXITER", steps)
    last_step = kernel.run()
    assert kernel.steps == steps
    assert np.array_equal(last_step[0], theta) and np.array_equal(last_step[1], X)
    monkeypatch.setattr(spectrum, "LANCZOS_MAXITER", steps - 1)
    assert kernel.run() is None
    monkeypatch.setattr(spectrum, "LANCZOS_MAXITER", 0)
    assert kernel.run() is None


def test_lanczos_kernel_refuses_closed_krylov_space(coarse_problem, coarse_states):
    # a start inside an invariant subspace of fewer than k dimensions closes
    # the Krylov space before k values exist: None, never a wrong pair, also
    # when the start holds the largest theta
    kernel = LanczosRun(coarse_problem, coarse_states[0.0], 2)
    for j in (-1, -2, -5, 0):
        assert kernel.run(kernel.vecs[:, j].copy()) is None, j
    kernel.k = 3
    assert kernel.run(kernel.vecs[:, -1] + kernel.vecs[:, -4]) is None


def test_sigma1_from_a_start_on_the_sigma2_mode(fine_problem, monkeypatch):
    # on the h = 0.05 disk the lowest sigma mode changes between lambda = -98
    # and -140, so a row's warm start can lie on sigma_2's mode.  Lanczos from
    # there closes its Krylov space and misses; the cold run from the fixed
    # start then finds sigma_1, also when the start holds a trace of it
    state = fine_problem.solve_mp(-140.0)
    lin = Linearization.at_state(fine_problem, state)
    A = fine_problem.dirichlet.A_ii.toarray()
    mhat = lin.M_ii.toarray() - np.outer(lin.b_i, lin.b_i)
    theta, modes = scipy.linalg.eigh(mhat, A, subset_by_index=[len(A) - 2, len(A) - 1])
    sigma2, sigma1 = 1.0 / theta - state.lam
    assert sigma1 == pytest.approx(249.1568, abs=1e-4)
    assert sigma2 == pytest.approx(249.2223, abs=1e-4)
    misses, lanczos = [], spectrum._lanczos

    def watched(*args):
        found = lanczos(*args)
        misses.append(found is None)
        return found

    monkeypatch.setattr(spectrum, "_lanczos", watched)
    calls = counting_eigsh(monkeypatch)
    for share in (0.0, 1e-11):
        v0 = modes[:, 0] + share * modes[:, 1]
        sig = spectrum._sigma_sparse(fine_problem, lin, state.lam, 1, v0=v0)[0]
        assert sig[0] == pytest.approx(sigma1, rel=1e-10), share
    assert misses == [True, True]
    assert calls == [None, None]


@pytest.mark.parametrize("h_max, n_interior, method", [
    (0.9, 1, "dense"), (0.7, 2, "dense"), (0.5, 8, "dense"), (0.38, 16, "sparse")])
def test_tiny_meshes_match_dense(h_max, n_interior, method):
    # meshes on both sides of the size below which the iterative solvers
    # cannot run, down to a single interior unknown
    problem = make_problem(DomainSpec.unit_disk(), SingularitySpec.none(), h_max)
    assert len(problem.interior) == n_interior
    state = problem.solve_mp(4.0)
    report = weighted_eigs(problem, state, k=1)
    assert report.method == method
    sigma1, tau1, poincare = dense_references(problem, state)
    assert report.sigmas[0] == pytest.approx(sigma1, rel=1e-10)
    assert report.tau1 == pytest.approx(tau1, rel=1e-10)
    assert report.poincare == pytest.approx(poincare, rel=1e-10)


def test_traced_rows_match_dense_spectra(disk_trace):
    # each row's sigma_1, tau_1 and C_P is the lowest value of its pencil at
    # the row's own state: a warm start almost orthogonal to the lowest mode
    # can return the second one once rounding moves, and nothing else reads
    # every row's values
    problem, states = disk_trace["problem"], disk_trace["states"]
    rows = disk_trace["diagram"].points
    assert sorted(states) == [row.lam for row in rows]
    for row in rows:
        dense = dense_references(problem, states[row.lam])
        assert (row.sigma1, row.tau1, row.poincare) == pytest.approx(dense, rel=1e-7), row.lam


def counting_eigsh(monkeypatch):
    """Route spectrum.eigsh through a counter; returns the list of calls."""
    calls, eigsh = [], spectrum.eigsh

    def counted(*args, **kwargs):
        calls.append(kwargs.get("sigma"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectrum, "eigsh", counted)
    return calls


@pytest.mark.parametrize("case", ["disk_problem", "offcenter_problem", "fine_problem"])
def test_warm_started_trace_matches_cold_solves(case, request, monkeypatch):
    # every row of a trace, warm-started from its predecessor, against a cold
    # ARPACK solve of the same state and linearization.  Only the h = 0.05
    # disk shows why C_P needs a block of 2: a single warm vector is off by
    # up to 4e-4 on the negative pass and by up to 2e-6 past the crossing of
    # the near-double pair near lambda = 15.5
    problem = request.getfixturevalue(case)
    assert not spectrum._dense(len(problem.interior))
    calls = counting_eigsh(monkeypatch)
    rows = []

    def warm_and_cold(problem, state, k=10, lin=None, warm=None, **kwargs):
        before = len(calls)
        report = weighted_eigs(problem, state, k=k, lin=lin, warm=warm, **kwargs)
        warm_eigsh = len(calls) - before
        with arpack_only():
            cold = weighted_eigs(problem, state, k=k, lin=lin, **kwargs)
        rows.append((state.lam, warm, warm_eigsh, report, cold))
        return report

    monkeypatch.setattr(branch, "weighted_eigs", warm_and_cold)
    diagram = trace_branch(problem)
    assert len(rows) == len(diagram.points)
    assert min(r[0] for r in rows) < 0 < 15.5 < max(r[0] for r in rows)
    for lam, warm, warm_eigsh, report, cold in rows:
        assert isinstance(warm, WarmStart), lam
        assert warm_eigsh == 0, lam          # no Lanczos or LOBPCG fell back
        assert report.sigmas[0] == pytest.approx(cold.sigmas[0], rel=1e-10), lam
        assert report.tau1 == pytest.approx(cold.tau1, rel=1e-10), lam
        assert report.poincare == pytest.approx(cold.poincare, rel=1e-10), lam


def test_lobpcg_bases_have_no_zero_column(disk_problem, monkeypatch):
    # the first step has no last update P, so its basis is [X, W]; no
    # Rayleigh-Ritz call of a warm tau_1 or C_P solve sees an all-zero column
    state = disk_problem.solve_mp(4.0)
    lin = Linearization.at_state(disk_problem, state)
    warm = WarmStart()
    weighted_eigs(disk_problem, disk_problem.solve_mp(3.5), k=1, warm=warm)
    rayleigh_ritz, blocks = spectrum._rayleigh_ritz, []

    def checked(basis, n, k):
        assert np.all(np.any(basis != 0.0, axis=0))
        blocks.append(basis.shape[1] // k)
        return rayleigh_ritz(basis, n, k)

    monkeypatch.setattr(spectrum, "_rayleigh_ritz", checked)
    for solve in (standard_tau1, poincare_constant):
        blocks.clear()
        assert solve(disk_problem, state, lin=lin, warm=warm.copy()) > 0.0
        assert blocks[:2] == [1, 2] and 3 in blocks, solve


def test_lobpcg_miss_falls_back_to_cold_arpack(disk_problem, monkeypatch):
    state = disk_problem.solve_mp(4.0)
    lin = Linearization.at_state(disk_problem, state)
    with arpack_only():
        cold_sigma = weighted_eigs(disk_problem, state, k=1, lin=lin).sigmas[0]
        cold_tau = standard_tau1(disk_problem, state, lin=lin)
        cold_cp = poincare_constant(disk_problem, state, lin=lin)
    warm = WarmStart()
    weighted_eigs(disk_problem, disk_problem.solve_mp(3.5), k=1, warm=warm)
    calls = counting_eigsh(monkeypatch)
    # from a neighbouring row's vectors Lanczos and LOBPCG converge without
    # ARPACK
    v0 = warm.sigma.sum(axis=1)
    assert spectrum._sigma_sparse(disk_problem, lin, state.lam, 1, v0=v0)[0][0] == \
        pytest.approx(cold_sigma, rel=1e-10)
    assert standard_tau1(disk_problem, state, lin=lin, warm=warm.copy()) == \
        pytest.approx(cold_tau, rel=1e-10)
    assert poincare_constant(disk_problem, state, lin=lin, warm=warm.copy()) == \
        pytest.approx(cold_cp, rel=1e-10)
    assert calls == []
    # one iteration cannot converge: each solve falls back to the cold path
    monkeypatch.setattr(spectrum, "LOBPCG_MAXITER", 1)
    block = warm.poincare
    assert standard_tau1(disk_problem, state, lin=lin, warm=warm) == \
        pytest.approx(cold_tau, rel=1e-12)
    assert poincare_constant(disk_problem, state, lin=lin, warm=warm) == \
        pytest.approx(cold_cp, rel=1e-12)
    assert calls == [None, -1.0]
    assert warm.poincare is block            # a fallback keeps the C_P block
    # so does sigma_1's Lanczos run, by one ARPACK call
    monkeypatch.setattr(spectrum, "LANCZOS_MAXITER", 1)
    assert spectrum._sigma_sparse(disk_problem, lin, state.lam, 1, v0=v0)[0][0] == \
        pytest.approx(cold_sigma, rel=1e-12)
    assert calls == [None, -1.0, None]
