"""Acceptance suite: one test per advertised guarantee, one verdict line each.

Each test prints `criterion NN: PASS/FAIL (detail)` so a plain pytest run
doubles as the acceptance report.  Tolerances are stated inline; oracles come
from the closed-form radial family in radial_oracle.py.
"""

import math

import numpy as np
import pytest

import radial_oracle as oracle
from gelfand.branch import dE_dlambda, g_of, solve_eta
from gelfand.freeenergy import (collar_density, free_energy_of, minimize_free_energy,
                                verify_energy_bound)
from gelfand.geometry import uniform_weight
from gelfand.meanfield import Linearization, MeanFieldProblem
from gelfand.spectrum import weighted_eigs
from spectral_modes import dense_sigma_oracle, expand_modes
from z_diagnostics import z_diagnostics


def verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_disk_fold_and_runtime(fine_trace):
    diagram = fine_trace["diagram"]
    assert diagram.fold is not None
    lam_star, _, mu_star = diagram.fold
    rel_lam = abs(lam_star - oracle.FOLD_LAM) / oracle.FOLD_LAM
    rel_mu = abs(mu_star - oracle.FOLD_MU) / oracle.FOLD_MU
    seconds = fine_trace["seconds"]
    ok = rel_lam <= 0.01 and rel_mu <= 0.01 and seconds < 120.0
    verdict(1, ok, f"lambda* rel {rel_lam:.2e}, mu* rel {rel_mu:.2e}, "
                   f"trace {seconds:.1f}s")


def test_criterion_02_lambda_zero_exactness(fine_problem):
    state = fine_problem.solve_mp(0.0)
    rel = abs(state.energy - oracle.E0) / oracle.E0
    lp = fine_problem.solve_lp(0.0)
    exact_zero = bool(np.all(lp.u == 0.0))
    ok = rel <= 0.005 and exact_zero
    verdict(2, ok, f"E0 rel {rel:.2e}, u(mu=0) identically zero: {exact_zero}")


def test_criterion_03_energy_monotone(fine_trace, ellipse_trace, offcenter_trace):
    worst = ("", math.inf)
    for name, trace in (("disk", fine_trace), ("ellipse", ellipse_trace),
                        ("offcenter", offcenter_trace)):
        pts = trace["diagram"].points
        rises = [b.energy - a.energy for a, b in zip(pts, pts[1:])]
        slopes = [p.dE_dlambda for p in pts]
        m = min(min(rises), min(slopes))
        if m < worst[1]:
            worst = (name, m)
    ok = worst[1] > 0.0
    verdict(3, ok, f"min energy rise/slope {worst[1]:.3e} on {worst[0]}")


def test_criterion_04_derivative_identity(disk_problem):
    lams = [-50.0, -20.0, -8.0, -3.0, -1.0, 0.0, 2.0, 5.0, 9.0, 12.0]
    d_lam = 1e-3
    worst_fd, worst_gap = 0.0, -math.inf
    for lam in lams:
        state = disk_problem.solve_mp(lam)
        lin = Linearization.at_state(disk_problem, state)
        eta = solve_eta(lin, state)
        report = weighted_eigs(lin, k=20)
        coeffs = expand_modes(lin, state, eta, report)
        direct = dE_dlambda(disk_problem, state, eta)
        e_plus = disk_problem.solve_mp(lam + d_lam, initial_guess=state.psi).energy
        e_minus = disk_problem.solve_mp(lam - d_lam, initial_guess=state.psi).energy
        fd = (e_plus - e_minus) / (2.0 * d_lam)
        worst_fd = max(worst_fd, abs(direct - fd) / abs(fd))
        terms = (lam + report.sigmas) * report.sigmas * coeffs.b ** 2
        assert terms.min() >= -1e-12
        gap5 = direct - float(terms[:5].sum())
        gap20 = direct - float(terms.sum())
        assert gap20 >= -1e-10 and gap5 >= -1e-10
        if not gap20 < gap5:
            worst_gap = max(worst_gap, gap20 - gap5)
    ok = worst_fd <= 1e-3 and worst_gap == -math.inf
    verdict(4, ok, f"max FD rel err {worst_fd:.2e} over {len(lams)} lambdas, "
                   f"truncation gap shrinks 5->20 everywhere")


def test_criterion_05_eigenvalue_ordering(fine_trace, disk_trace, ellipse_trace,
                                          offcenter_trace, centered_trace):
    traces = {"disk-fine": fine_trace, "disk": disk_trace,
              "ellipse": ellipse_trace, "offcenter": offcenter_trace,
              "centered": centered_trace}
    worst = math.inf
    rows = 0
    for trace in traces.values():
        for p in trace["diagram"].points:
            rows += 1
            worst = min(worst, p.sigma1 - p.tau1, p.tau1,
                        p.sigma1 + p.lam - p.poincare, p.poincare)
    ok = worst > 0.0
    verdict(5, ok, f"min ordering slack {worst:.3e} over {rows} rows")


def test_criterion_06_fold_indicator(fine_trace, disk_trace, ellipse_trace,
                                     offcenter_trace):
    diagram = fine_trace["diagram"]
    row0 = next(p for p in diagram.points if p.lam == 0.0)
    g0_err = abs(row0.g_value - 1.0)
    neg_min = min(p.g_value for t in (fine_trace, disk_trace, ellipse_trace,
                                      offcenter_trace)
                  for p in t["diagram"].points if p.lam <= 0.0)
    flips_ok = True
    for t in (fine_trace, disk_trace, ellipse_trace, offcenter_trace):
        gs = [p.g_value for p in t["diagram"].points if p.lam > 0.0]
        flips = sum(1 for a, b in zip(gs, gs[1:]) if (a > 0) != (b > 0))
        flips_ok = flips_ok and flips == 1
    lam_star = diagram.fold[0]
    problem = fine_trace["problem"]
    state = problem.solve_mp(lam_star)
    z = z_diagnostics(problem, state, g_of(Linearization.at_state(problem, state), state).eta)
    ok = (g0_err <= 1e-6 and neg_min > 0.0 and flips_ok
          and z.z3_avg > 0.0 and z.z_min >= -1e-6)
    verdict(6, ok, f"|g(0)-1|={g0_err:.2e}, min g on lam<=0 {neg_min:.3f}, "
                   f"one sign change per run: {flips_ok}, at fold <z^3>="
                   f"{z.z3_avg:.3e}, min z={z.z_min:.2e}")


def test_criterion_07_kind_classification(fine_trace, centered_trace,
                                          offcenter_trace):
    kinds = {"disk": fine_trace["diagram"].kind,
             "centered": centered_trace["diagram"].kind,
             "offcenter": offcenter_trace["diagram"].kind}
    mu_max = max(p.mu for p in centered_trace["diagram"].points)
    alpha = centered_trace["alpha"]
    b_est = 1.0 / (math.sqrt(mu_max / 2.0) - 1.0)
    b_rel = abs(b_est - 1.0 / alpha) * alpha
    ok = (kinds["disk"] == "first" and kinds["centered"] == "second"
          and kinds["offcenter"] == "first" and b_rel <= 0.02)
    verdict(7, ok, f"kinds {kinds}, bounded-branch b rel err {b_rel:.2e}")


@pytest.mark.xfail(strict=True, reason="the continuum radial solution itself has "
                   "E(-200)/E0 = 0.182 and first drops below 0.05 near "
                   "lambda = -904; the threshold fails by the mathematics at "
                   "lambda = -200, not by mesh resolution")
def test_criterion_08_energy_vanishes_threshold(fine_problem):
    state = minimize_free_energy(fine_problem, -200.0)
    ratio = state.energy / oracle.E0
    verdict(8, ratio < 0.05, f"E(-200)/E0 = {ratio:.4f} vs threshold 0.05")


def test_criterion_08_energy_vanishes_oracle_rate(fine_problem):
    # companion to the threshold test: the measured ratio tracks the
    # closed-form radial value at lambda = -200
    state = minimize_free_energy(fine_problem, -200.0)
    ratio = state.energy / oracle.E0
    target = oracle.energy_of_lam(-200.0) / oracle.E0
    rel = abs(ratio - target) / target
    verdict(8, rel <= 0.06, f"E(-200)/E0 = {ratio:.4f}, radial oracle "
                            f"{target:.4f}, rel {rel:.2e}")


def test_criterion_08_chain_inequalities(disk_problem):
    worst = math.inf
    collar = collar_density(disk_problem.mesh, 0.1)
    for n in (10, 100, 1000):
        problem = MeanFieldProblem(
            disk_problem.mesh, uniform_weight(disk_problem.mesh).with_floor(n))
        for lam in (-2.0, -20.0, -200.0):
            report = verify_energy_bound(problem, minimize_free_energy(problem, lam),
                                         free_energy_of(problem, collar, lam))
            worst = min(worst, min(report.slacks.values()))
    ok = worst >= -1e-9
    verdict(8, ok, f"min chain slack {worst:.3e} over 9 (lambda, n) pairs, "
                   f"delta=0.1")


def test_criterion_09_minimizer_matches_newton(fine_problem):
    fe = minimize_free_energy(fine_problem, -1.0)
    mp = fine_problem.solve_mp(-1.0)
    sup = float(np.max(np.abs(fe.potential - mp.psi)))
    verdict(9, sup <= 1e-6, f"sup |psi_fe - psi_mp| = {sup:.2e} at lambda=-1")


def test_criterion_10_dense_sparse_equivalence(coarse_problem):
    n_i = len(coarse_problem.interior)
    assert n_i <= 500, n_i
    state = coarse_problem.solve_mp(2.0)
    dense = dense_sigma_oracle(coarse_problem, state, k=5)
    sparse = weighted_eigs(Linearization.at_state(coarse_problem, state), k=5)
    assert sparse.method == "sparse"
    rel = float(np.max(np.abs(dense - sparse.sigmas) / np.abs(dense)))
    verdict(10, rel <= 1e-8, f"max rel sigma_1..5 gap {rel:.2e} "
                             f"on {n_i} unknowns")


def test_criterion_11_mu_asymptotics(fine_trace, disk_trace):
    fine = fine_trace["diagram"]
    coarse = disk_trace["diagram"]
    mu_star = fine.fold[2]
    ok = (fine.mu_at_min < -100.0
          and fine.mu1_estimate < 0.1 * mu_star
          and fine.mu1_estimate <= coarse.mu1_estimate)
    verdict(11, ok, f"mu(-200) = {fine.mu_at_min:.1f}, last mu "
                    f"{fine.mu1_estimate:.4f} (h=0.05) vs "
                    f"{coarse.mu1_estimate:.4f} (h=0.08), mu* = {mu_star:.4f}")
