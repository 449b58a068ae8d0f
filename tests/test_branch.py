import math
import weakref

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

import radial_oracle as oracle
from gelfand import branch, meanfield
from gelfand.branch import (CSV_HEADER, EPS_STOP, _march, _negative_targets,
                            _positive_targets, classify_kind, dE_dlambda, emit_diagram,
                            find_fold, g_of, plot_csv, read_csv, solve_eta, trace_branch,
                            write_csv)
from gelfand.errors import ConfigError, NoConvergence, NoFoldInRange
from gelfand.geometry import DomainSpec, SingularitySpec, build_mesh, uniform_weight
from gelfand.meanfield import EIGHT_PI, NEWTON_TOL, Linearization, MeanFieldProblem
from gelfand.spectrum import weighted_eigs
from spectral_modes import expand_modes
from z_diagnostics import z_diagnostics


def test_g_at_zero_is_one(disk_problem):
    state = disk_problem.solve_mp(0.0)
    diag = g_of(disk_problem, state)
    assert diag.g == pytest.approx(1.0, abs=1e-12)
    assert z_diagnostics(disk_problem, state, diag.eta).identity_error < 1e-12


def test_g_identity_form(disk_problem):
    # <z> assembled as 2E + lambda <eta> must agree with the direct average
    for lam in (-5.0, 2.0, 9.0):
        state = disk_problem.solve_mp(lam)
        diag = g_of(disk_problem, state)
        assert z_diagnostics(disk_problem, state, diag.eta).identity_error < 1e-6


def test_derivative_direct_vs_finite_difference(disk_problem):
    lam, dl = 1.0, 1e-3
    state = disk_problem.solve_mp(lam)
    eta = solve_eta(disk_problem, state)
    direct = dE_dlambda(disk_problem, state, eta)
    e_plus = disk_problem.solve_mp(lam + dl, initial_guess=state.psi).energy
    e_minus = disk_problem.solve_mp(lam - dl, initial_guess=state.psi).energy
    fd = (e_plus - e_minus) / (2.0 * dl)
    assert direct == pytest.approx(fd, abs=1e-6)


def test_spectral_sum_from_below(disk_problem):
    state = disk_problem.solve_mp(6.0)
    eta = solve_eta(disk_problem, state)
    direct = dE_dlambda(disk_problem, state, eta)
    report = weighted_eigs(disk_problem, state, k=20)
    modes = expand_modes(disk_problem, state, eta, report)
    terms = (state.lam + report.sigmas) * report.sigmas * modes.b ** 2
    assert np.all(terms >= -1e-12)
    s5, s20 = float(np.sum(terms[:5])), float(np.sum(terms[:20]))
    assert s5 <= s20 <= direct + 1e-10
    assert direct - s20 < direct - s5


def test_fold_matches_radial_family(disk_trace):
    fold = disk_trace["diagram"].fold
    assert fold is not None
    lam_star, e_star, mu_star = fold
    assert lam_star == pytest.approx(oracle.FOLD_LAM, rel=0.01)
    assert mu_star == pytest.approx(oracle.FOLD_MU, rel=0.01)
    assert e_star == pytest.approx(oracle.energy_of_c(1.0), rel=0.01)


def test_g_sign_structure(disk_trace):
    diagram = disk_trace["diagram"]
    lam_star = diagram.fold[0]
    rows = diagram.points
    assert all(r.g_value > 0 for r in rows if r.lam <= 0)
    pos = [r for r in rows if r.lam > 0]
    flips = sum(1 for a, b in zip(pos, pos[1:])
                if (a.g_value > 0) != (b.g_value > 0))
    assert flips == 1
    for r in pos:
        if r.lam < lam_star - 1e-6:
            assert r.g_value > 0
        elif r.lam > lam_star + 1e-6:
            assert r.g_value < 0


def test_fold_state_diagnostics(disk_trace):
    # at the fold: positive skewness of z and no negative dip beyond roundoff
    problem = disk_trace["problem"]
    lam_star = disk_trace["diagram"].fold[0]
    state = problem.solve_mp(lam_star)
    diag = g_of(problem, state)
    z = z_diagnostics(problem, state, diag.eta)
    assert abs(diag.g) < 1e-6
    assert z.z3_avg > 0.0
    assert z.z_min >= -1e-6


def fixed_mu_nu1(problem, state):
    """The lowest eigenvalue nu_1 of the fixed-mu pencil
    (A_ii - lambda M_rho,ii) phi = nu M_rho,ii phi, by scipy's shift-invert
    Lanczos at sigma = -lambda - 1, below every nu since A_ii is SPD."""
    M = Linearization.at_state(problem, state).M_ii.tocsc()
    nu = eigsh(problem.dirichlet.A_ii - state.lam * M, k=1, M=M, sigma=-state.lam - 1.0, which="LM",
               v0=np.ones(M.shape[0]), return_eigenvectors=False)
    return float(nu[0])


def test_fixed_mu_eigenvalue_sign_is_g_sign(disk_trace):
    # the fixed-mu linearization -Delta - lambda rho is positive on the
    # minimal branch and loses that at the fold, where g changes sign
    problem, states = disk_trace["problem"], disk_trace["states"]
    rows = disk_trace["diagram"].points
    assert sorted(states) == [r.lam for r in rows]
    mismatched = [r.lam for r in rows
                  if (fixed_mu_nu1(problem, states[r.lam]) > 0) != (r.g_value > 0)]
    assert mismatched == []


@pytest.mark.parametrize("trace", ["disk_trace", "ellipse_trace", "offcenter_trace"])
def test_fixed_mu_eigenvalue_vanishes_at_the_fold(trace, request):
    run = request.getfixturevalue(trace)
    problem = run["problem"]
    nu0 = fixed_mu_nu1(problem, problem.solve_mp(0.0))
    nu = fixed_mu_nu1(problem, problem.solve_mp(run["diagram"].fold[0]))
    assert abs(nu) <= 1e-7 * nu0


def test_energy_monotone(disk_trace):
    rows = disk_trace["diagram"].points
    lams = [r.lam for r in rows]
    assert lams == sorted(lams)
    energies = np.array([r.energy for r in rows])
    assert np.all(np.diff(energies) > 0)
    assert all(r.dE_dlambda > 0 for r in rows)


def test_markers_and_kind(disk_trace):
    diagram = disk_trace["diagram"]
    assert diagram.kind == "first"
    assert diagram.termination in ("completed", "blowup")
    assert diagram.mu_at_min < 0
    assert diagram.mu1_estimate is not None
    assert diagram.mu1_estimate < diagram.fold[2]


def test_csv_roundtrip(tmp_path, disk_trace):
    rows = disk_trace["diagram"].points
    path = tmp_path / "branch.csv"
    write_csv(rows, path)
    back = read_csv(path)
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        for field in ("lam", "mu", "energy", "dE_dlambda", "g_value",
                      "sigma1", "tau1", "poincare", "sup_norm", "residual"):
            assert getattr(a, field) == getattr(b, field), field


def test_csv_header_contract(tmp_path, disk_trace):
    path = tmp_path / "branch.csv"
    write_csv(disk_trace["diagram"].points[:2], path)
    first = path.read_text().splitlines()[0]
    assert first == "lambda,mu,E,dEdlambda,g,sigma1,tau1,CP,sup_psi,residual"
    assert first == CSV_HEADER


def test_read_csv_rejects_other_headers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(bad)


def march_over(problem, targets, tol=NEWTON_TOL, **kwargs):
    """_march from the lambda = 0 state over targets, each solve to tol."""
    start = problem.solve_mp(0.0)
    return _march(problem, (start, g_of(problem, start)), targets, tol, **kwargs)


def test_no_fold_without_sign_change():
    # no problem is passed, so a solve would raise
    with pytest.raises(NoFoldInRange, match="does not change sign on the sampled grid"):
        find_fold(None, [])


def test_fold_rejects_multiple_crossings(coarse_problem):
    # g > 0 at 12 and g < 0 at 13 on this disk: there and back crosses twice
    _, brackets, tag = march_over(coarse_problem, [4.0, 8.0, 12.0, 13.0, 12.0])
    assert tag == "completed" and len(brackets) == 2
    for (s_lo, d_lo), (s_hi, d_hi) in brackets:
        assert (d_lo.g > 0) != (d_hi.g > 0), (s_lo.lam, s_hi.lam)
    with pytest.raises(NoFoldInRange, match="changes sign 2 times"):
        find_fold(coarse_problem, brackets)


def test_march_to_fold_stops_past_the_sign_change(coarse_problem):
    last, brackets, tag = march_over(coarse_problem, [4.0, 8.0, 12.0, 13.0, 14.0],
                                     to_fold=True)
    assert tag == "stopped" and last[0].lam == 13.0 and last[1].g <= 0
    (lo, hi), = brackets
    assert lo[0].lam == 12.0 and lo[1].g > 0 and hi == last


def test_classify_requires_rows():
    # no problem is passed, so a solve would raise
    assert classify_kind(None, "completed", None) == "undetermined"


def test_classify_short_run_undetermined(disk_problem):
    # a march that stalled short of 8 pi decides nothing; one that blew up
    # shows the blowup that defines the first kind; neither needs a solve
    state = disk_problem.solve_mp(1.0)
    last = (state, g_of(disk_problem, state))
    assert classify_kind(None, "stalled", last) == "undetermined"
    assert classify_kind(None, "blowup", last) == "first"


def test_classify_long_ellipse_is_second_kind():
    # long thin domains are the classical second-kind examples: the solve at
    # 8 pi from the last grid state converges
    mesh = build_mesh(DomainSpec.ellipse(4.0, 0.5), SingularitySpec.none(), h_max=0.08)
    problem = MeanFieldProblem(mesh, uniform_weight(mesh))
    state = problem.solve_mp(EIGHT_PI - EPS_STOP)
    assert classify_kind(problem, "completed", (state, g_of(problem, state))) == "second"


@pytest.mark.parametrize("lam_min", [5.0, 0.0, math.nan, -math.inf])
def test_trace_refuses_bad_lam_min(coarse_problem, monkeypatch, lam_min):
    # unchecked, _negative_targets would march 5.0 to -5, skip the march for
    # NaN and never finish the target list for -inf
    def refuse(*args, **kwargs):
        raise AssertionError("solved before lam_min was checked")

    monkeypatch.setattr(MeanFieldProblem, "solve_mp", refuse)
    with pytest.raises(ConfigError, match="lam_min"):
        trace_branch(coarse_problem, lam_min=lam_min)


def test_emit_diagram_files(tmp_path, disk_trace):
    paths = emit_diagram(disk_trace["diagram"], tmp_path)
    names = sorted(p.rsplit("/", 1)[-1] for p in paths)
    assert names == ["branch.csv", "branch.json", "branch_E_mu.svg",
                     "branch_lambda_E.svg", "branch_lambda_g.svg",
                     "branch_mu_E.svg"]
    again = plot_csv(tmp_path / "branch.csv", tmp_path / "again")
    for p in again:
        name = p.rsplit("/", 1)[-1]
        assert (tmp_path / name).read_bytes() == (tmp_path / "again" / name).read_bytes()


def test_z_average_rises_along_first_kind_tail(disk_trace):
    # <z> = (1 - g)/lambda keeps growing where the branch approaches 8 pi
    pts = [p for p in disk_trace["diagram"].points if p.lam > 0]
    z = [(1.0 - p.g_value) / p.lam for p in pts[-3:]]
    assert z[0] < z[1] < z[2]


def test_mu_slope_sign_locks_to_g(disk_trace):
    pts = disk_trace["diagram"].points
    checked = 0
    for prev, cur, nxt in zip(pts, pts[1:], pts[2:]):
        if abs(cur.g_value) <= 1e-3:
            continue
        if (prev.g_value > 0) != (nxt.g_value > 0):
            continue  # the difference quotient would straddle the fold
        fd = (nxt.mu - prev.mu) / (nxt.lam - prev.lam)
        assert (fd > 0) == (cur.g_value > 0), cur.lam
        checked += 1
    assert checked > 20


@pytest.fixture(scope="module")
def counted_trace(disk_problem):
    """A trace of the workhorse disk with its Newton work counted.

    Newton solves, steps and factorizations and every meanfield.splu call are
    counted over the whole trace, Newton solves and solve_mp calls inside
    find_fold; the fold state find_fold returned is kept.  A trace that
    counted no Newton solve means a wrap was bypassed, and errors here.
    """
    work = {"solves": 0, "iters": 0, "factorizations": 0, "splu": 0,
            "fold_solves": 0, "fold_solve_mp": 0}
    in_fold, folds = [False], []
    newton, solve_mp, fold, splu = (MeanFieldProblem._newton, MeanFieldProblem.solve_mp,
                                    branch.find_fold, meanfield.splu)

    def counted_newton(self, *args, **kwargs):
        state = newton(self, *args, **kwargs)
        work["solves"] += 1
        work["iters"] += state.iterations
        work["factorizations"] += state.factorizations
        work["fold_solves"] += in_fold[0]
        return state

    def counted_splu(*args, **kwargs):
        work["splu"] += 1
        return splu(*args, **kwargs)

    def counted_solve_mp(self, *args, **kwargs):
        work["fold_solve_mp"] += in_fold[0]
        return solve_mp(self, *args, **kwargs)

    def watched_fold(*args, **kwargs):
        in_fold[0] = True
        try:
            folds.append(fold(*args, **kwargs))
            return folds[-1]
        finally:
            in_fold[0] = False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MeanFieldProblem, "_newton", counted_newton)
        mp.setattr(MeanFieldProblem, "solve_mp", counted_solve_mp)
        mp.setattr(branch, "find_fold", watched_fold)
        mp.setattr(meanfield, "splu", counted_splu)
        diagram = trace_branch(disk_problem)
    assert work["solves"] > 0, "no Newton solve was counted"
    return {"diagram": diagram, "work": work, "folds": folds}


def test_fold_located_from_kept_states(disk_problem, counted_trace):
    work, folds = counted_trace["work"], counted_trace["folds"]
    assert len(folds) == 1
    assert work["fold_solve_mp"] == 0
    assert 1 <= work["fold_solves"] <= 12
    state = folds[0]
    assert abs(g_of(disk_problem, state).g) < 1e-8
    assert counted_trace["diagram"].fold == (state.lam, state.energy, state.mu)


def test_predicted_march_hits_every_target(counted_trace):
    # a halved step would add its midpoint as a row
    targets = _negative_targets()[::-1] + [0.0] + _positive_targets()
    diagram = counted_trace["diagram"]
    assert [p.lam for p in diagram.points] == targets
    assert diagram.termination == "completed"


def test_predicted_trace_newton_work(counted_trace):
    # 66 Newton solves.  Each march solve after a pass's first holds the
    # previous row's LU, so the solves factor 14 times (66 when each factored
    # at its first step) and the trace calls splu 79 times (131); the held
    # chord steps replace factorizations, in 205 steps (136).  The bounds
    # leave 6, 6 and 15 of slack
    work = counted_trace["work"]
    assert work["solves"] == 66
    assert work["factorizations"] <= 20
    assert work["splu"] <= 85
    assert work["iters"] <= 220


def test_negative_grid_pinned():
    # every default trace row sits on these lambdas: a changed grid moves every artifact
    targets = _negative_targets()
    assert len(targets) == 24
    assert targets[0] == -0.05473749468016178 and targets[-1] == -200.0
    assert math.fsum(targets) == -666.5389458457463


@pytest.mark.parametrize("lam_min", [-0.01, -0.05, -0.06, -1.0, -200.0])
def test_negative_grid_ends_at_lam_min(lam_min):
    targets = _negative_targets(lam_min)
    assert targets[-1] == lam_min
    assert all(a > b for a, b in zip(targets, targets[1:]))


def test_positive_grid_pinned():
    targets = _positive_targets()
    assert len(targets) == 37
    assert all(a < b for a, b in zip(targets, targets[1:]))
    assert targets[23] == 18.84955592153877     # 24 summed steps of pi/4, just above 6 pi
    assert targets[-1] == EIGHT_PI - EPS_STOP == 25.107608487489628
    assert math.fsum(targets) == 550.7175516229596


def test_locate_fold_requires_sign_change(disk_problem):
    pairs = [(s, g_of(disk_problem, s)) for s in
             (disk_problem.solve_mp(2.0), disk_problem.solve_mp(4.0))]
    with pytest.raises(NoFoldInRange, match=r"does not change sign on \[2\.0, 4\.0\]"):
        find_fold(disk_problem, [pairs])


def test_locate_fold_reports_unmet_tolerance(coarse_problem, monkeypatch):
    pairs = [(s, g_of(coarse_problem, s)) for s in
             (coarse_problem.solve_mp(12.0), coarse_problem.solve_mp(13.0))]
    assert pairs[0][1].g > 0 > pairs[1][1].g
    monkeypatch.setattr(branch, "FOLD_G_TOL", 0.0)
    with pytest.raises(NoFoldInRange, match=r"did not reach \|g\| < 0 on \[12\.0, 13\.0\]"):
        find_fold(coarse_problem, [pairs])


def march_from_zero(problem, tol):
    """The states of a march from lambda = 0 over pi/4, pi/2, 3 pi/4 and pi,
    each row handing its own Linearization's solve to the next solve."""
    states = []

    def diagnose(state):
        lin = Linearization.at_state(problem, state)
        states.append(state)
        return g_of(problem, state, lin), lin

    targets = [k * math.pi / 4 for k in (1, 2, 3, 4)]
    _, brackets, tag = march_over(problem, targets, tol, diagnose=diagnose)
    assert tag == "completed" and brackets == [] and [s.lam for s in states] == targets
    return states


def test_march_solves_factor_nothing_on_the_held_lu(disk_problem, monkeypatch):
    # a pass's first solve has no row LU to hold; every later one converges
    # on the previous row's LU alone
    for tol in (NEWTON_TOL, 1e-11):
        chord = march_from_zero(disk_problem, tol)
        assert chord[0].factorizations >= 1
        assert [s.factorizations for s in chord[1:]] == [0, 0, 0]
    # with CHORD_RATE = 0 a held step is kept only when it reaches tol, so
    # each solve factors at its own iterates.  A chord state may stop just
    # under tol (at NEWTON_TOL, E then moves by up to 7e-9), so both paths
    # go to 1e-11 and must give the same states to 1e-9
    monkeypatch.setattr(meanfield, "CHORD_RATE", 0.0)
    newton = march_from_zero(disk_problem, 1e-11)
    assert all(s.factorizations >= 1 for s in newton)
    for a, b in zip(chord, newton):
        assert b.mu == pytest.approx(a.mu, rel=1e-9), a.lam
        assert b.energy == pytest.approx(a.energy, rel=1e-9), a.lam


@pytest.mark.parametrize("run", ["trace_branch", "solve_lp past the fold"])
def test_no_earlier_row_lu_alive_in_diagnostics(disk_problem, monkeypatch, run):
    # each row's diagnostics enter g_of; the LU handed to the row's Newton
    # solve must be gone by then, or two rows' factorizations live at once
    alive, init, g_of_real = weakref.WeakSet(), Linearization.__init__, branch.g_of
    seen = []

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        alive.add(self)

    def watched_g_of(problem, state, lin=None):
        seen.append(sorted(other.lam for other in alive if other.lam != state.lam))
        return g_of_real(problem, state, lin)

    monkeypatch.setattr(Linearization, "__init__", tracked_init)
    monkeypatch.setattr(branch, "g_of", watched_g_of)
    if run == "trace_branch":
        trace_branch(disk_problem)
    else:
        with pytest.raises(NoConvergence, match="exceeds the fold value"):
            disk_problem.solve_lp(2.2)
    assert len(seen) > 10
    assert not any(seen)
