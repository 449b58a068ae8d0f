import math

import numpy as np
import pytest

import radial_oracle as oracle
from gelfand import branch
from gelfand.branch import (CSV_HEADER, EPS_STOP, BranchDiagram, BranchPoint,
                            _negative_targets, _positive_targets, classify_kind,
                            dE_dlambda, emit_diagram, find_fold, g_of, locate_fold,
                            plot_csv, read_csv, solve_eta, trace_branch, write_csv)
from gelfand.errors import ConfigError, NoFoldInRange
from gelfand.geometry import DomainSpec, SingularitySpec, build_mesh, uniform_weight
from gelfand.meanfield import EIGHT_PI, MeanFieldProblem
from gelfand.spectrum import expand_modes, weighted_eigs


def test_g_at_zero_is_one(disk_problem):
    state = disk_problem.solve_mp(0.0)
    diag = g_of(disk_problem, state)
    assert diag.g == pytest.approx(1.0, abs=1e-12)
    assert diag.identity_error < 1e-12


def test_g_identity_form(disk_problem):
    # <z> assembled as 2E + lambda <eta> must agree with the direct average
    for lam in (-5.0, 2.0, 9.0):
        state = disk_problem.solve_mp(lam)
        diag = g_of(disk_problem, state)
        assert diag.identity_error < 1e-6


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
    pos = diagram.positive_rows()
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
    assert abs(diag.g) < 1e-6
    assert diag.z3_avg > 0.0
    assert diag.z_min >= -1e-6


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


def _row(lam, g):
    return BranchPoint(lam=lam, mu=lam / 10.0, energy=0.01 * lam,
                       dE_dlambda=0.01, g_value=g, sigma1=1.0, tau1=0.5,
                       poincare=0.4, sup_norm=0.1, residual=1e-10)


def test_no_fold_without_sign_change(disk_problem):
    diagram = BranchDiagram(points=[_row(1.0, 0.9), _row(2.0, 0.8)])
    with pytest.raises(NoFoldInRange):
        find_fold(disk_problem, diagram)


def test_fold_rejects_multiple_crossings(disk_problem):
    points = [_row(1.0, 0.5), _row(2.0, -0.1), _row(3.0, 0.2), _row(4.0, -0.3)]
    with pytest.raises(NoFoldInRange):
        find_fold(disk_problem, BranchDiagram(points=points))


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

    monkeypatch.setattr(coarse_problem, "solve_mp", refuse)
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

    Newton iterations are counted over the whole trace, Newton solves and
    solve_mp calls inside find_fold; the fold state find_fold returned is
    kept.
    """
    work = {"iters": 0, "fold_solves": 0, "fold_solve_mp": 0}
    in_fold, folds = [False], []
    newton, solve_mp, fold = (MeanFieldProblem._newton, MeanFieldProblem.solve_mp,
                              branch.find_fold)

    def counted_newton(self, *args, **kwargs):
        state = newton(self, *args, **kwargs)
        work["iters"] += state.iterations
        work["fold_solves"] += in_fold[0]
        return state

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
        diagram = trace_branch(disk_problem)
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
    assert counted_trace["work"]["iters"] <= 130


def test_negative_grid_pinned():
    # every default trace row sits on these lambdas: a changed grid moves every artifact
    targets = _negative_targets()
    assert len(targets) == 24
    assert targets[0] == -0.05473749468016178 and targets[-1] == -200.0
    assert math.fsum(targets) == -666.5389458457463


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
        locate_fold(disk_problem, *pairs)


def test_find_fold_needs_kept_states(disk_problem):
    points = [_row(1.0, 0.5), _row(2.0, -0.1)]
    with pytest.raises(NoFoldInRange, match="no kept states"):
        find_fold(disk_problem, BranchDiagram(points=points))


def test_locate_fold_reports_unmet_tolerance(coarse_problem):
    pairs = [(s, g_of(coarse_problem, s)) for s in
             (coarse_problem.solve_mp(12.0), coarse_problem.solve_mp(13.0))]
    assert pairs[0][1].g > 0 > pairs[1][1].g
    with pytest.raises(NoFoldInRange, match=r"did not reach \|g\| < 0 on \[12\.0, 13\.0\]"):
        locate_fold(coarse_problem, *pairs, tol=0.0)
