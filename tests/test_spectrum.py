import contextlib
import math

import numpy as np
import pytest
import scipy.linalg

import radial_oracle as oracle
from conftest import make_problem
from gelfand import branch, spectrum
from gelfand.branch import solve_eta, trace_branch
from gelfand.geometry import DomainSpec, SingularitySpec
from gelfand.meanfield import Linearization
from gelfand.spectrum import (WarmStart, dense_sigma_oracle, expand_modes,
                              poincare_constant, standard_tau1, weighted_eigs)


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
    """Every LOBPCG run misses, so tau_1 and C_P are solved by ARPACK."""
    with pytest.MonkeyPatch.context() as m:
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
        assert warm_eigsh == 1, lam          # sigma only: no LOBPCG fell back
        assert report.sigmas[0] == pytest.approx(cold.sigmas[0], rel=1e-10), lam
        assert report.tau1 == pytest.approx(cold.tau1, rel=1e-10), lam
        assert report.poincare == pytest.approx(cold.poincare, rel=1e-10), lam


def test_lobpcg_miss_falls_back_to_cold_arpack(disk_problem, monkeypatch):
    state = disk_problem.solve_mp(4.0)
    lin = Linearization.at_state(disk_problem, state)
    with arpack_only():
        cold_tau = standard_tau1(disk_problem, state, lin=lin)
        cold_cp = poincare_constant(disk_problem, state, lin=lin)
    warm = WarmStart()
    weighted_eigs(disk_problem, disk_problem.solve_mp(3.5), k=1, warm=warm)
    calls = counting_eigsh(monkeypatch)
    # from a neighbouring row's vectors LOBPCG converges without ARPACK
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
