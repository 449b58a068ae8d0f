import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.special import logsumexp

import radial_oracle as oracle
from conftest import make_problem
from gelfand import meanfield
from gelfand.branch import g_of, trace_branch
from gelfand.errors import BlowupDetected, ConfigError, NoConvergence, OverflowGuard
from gelfand.fem import SPLU_RECIPE
from gelfand.geometry import DomainSpec, SingularitySpec, build_mesh, build_weight
from gelfand.meanfield import (EIGHT_PI, G_DIRECT, NEWTON_TOL, TRUST_SUP,
                               Linearization, MeanFieldProblem, save_state)
from mesh_tools import eval_field, load_psi


def c_of_mu_minimal(mu, beta=1.0):
    """Minimal-branch family parameter: root of mu (1+c)^2 = 8 b^2 c, |c| < 1."""
    if mu == 0.0:
        return 0.0
    roots = np.roots([mu, 2.0 * mu - 8.0 * beta * beta, mu])
    for c in sorted(roots, key=abs):
        if abs(c) < 1.0 and 1.0 + c.real > 0:
            return float(c.real)
    raise AssertionError(f"no minimal-branch root for mu={mu}")


def test_lambda_zero_state(disk_problem):
    state = disk_problem.solve_mp(0.0)
    assert state.mu == 0.0
    assert np.all(state.u == 0.0)
    center = eval_field(disk_problem.mesh, state.psi, np.zeros(2))
    assert center == pytest.approx(oracle.PSI0_CENTER, rel=2e-3)
    assert state.energy == pytest.approx(oracle.E0, rel=5e-3)
    assert state.mass_check == pytest.approx(1.0, rel=1e-12)
    assert state.residual <= 1e-9


def test_four_pi_state(disk_problem):
    state = disk_problem.solve_mp(4.0 * math.pi)
    c = oracle.c_of_lam(4.0 * math.pi)
    assert c == pytest.approx(1.0, abs=1e-14)
    assert state.mu == pytest.approx(oracle.mu_of_c(c), rel=5e-3)
    assert state.energy == pytest.approx(oracle.energy_of_c(c), rel=5e-3)
    center = eval_field(disk_problem.mesh, state.psi, np.zeros(2))
    assert center == pytest.approx(oracle.u_center(c) / state.lam, rel=5e-3)


def test_energy_average_identity(disk_problem):
    state = disk_problem.solve_mp(2.0)
    avg_psi = Linearization.at_state(disk_problem, state).rho_average(state.psi)
    assert state.energy == pytest.approx(0.5 * avg_psi, abs=1e-9)


def test_average_decomposition(disk_problem):
    state = disk_problem.solve_mp(1.0)
    lin = Linearization.at_state(disk_problem, state)
    field = state.psi ** 2 + 0.3
    avg = lin.rho_average(field)
    oscillation = field - avg
    assert np.allclose(avg + oscillation, field, atol=1e-14)
    assert lin.rho_average(oscillation) == pytest.approx(0.0, abs=1e-12)


def test_rho_normalization(disk_problem):
    state = disk_problem.solve_mp(-3.0)
    assert state.mass_check == pytest.approx(1.0, rel=1e-12)
    assert np.all(state.rho >= 0)


def test_mu_lambda_consistency(disk_problem):
    # mu int h e^u = lambda, recomputed from the returned u
    for lam in (-7.0, 3.0, 11.0):
        state = disk_problem.solve_mp(lam)
        vals = disk_problem.quad.eval(state.u)
        z = disk_problem.quad.integrate(np.exp(vals))
        assert state.mu * z == pytest.approx(lam, abs=1e-10 * max(1, abs(lam)))


def test_psi_nonnegative_for_nonpositive_lambda(disk_problem):
    for lam in (-200.0, -20.0, 0.0):
        state = disk_problem.solve_mp(lam)
        assert state.psi.min() >= -1e-12


def smooth_starts(mesh, seed_count=5):
    r2 = np.sum(mesh.vertices ** 2, axis=1)
    base = (1.0 - r2) / 4.0
    for seed in range(seed_count):
        rng = np.random.default_rng(100 + seed)
        a, b, c = rng.normal(scale=1.0, size=3)
        guess = a * base + b * base ** 2 + c * base * mesh.vertices[:, 0]
        guess[mesh.boundary_mask] = 0.0
        yield guess


def test_uniqueness_under_initialization(disk_problem):
    # strictly minimal branch: the solution must not depend on the start
    for lam in (-20.0, 0.0, 4.0 * math.pi):
        reference = disk_problem.solve_mp(lam)
        for guess in smooth_starts(disk_problem.mesh):
            state = disk_problem.solve_mp(lam, initial_guess=guess)
            assert np.max(np.abs(state.psi - reference.psi)) < 1e-6


def test_warm_equals_cold(disk_problem):
    cold = disk_problem.solve_mp(4.0 * math.pi)
    prev = disk_problem.solve_mp(3.0)
    warm = disk_problem.solve_mp(4.0 * math.pi, initial_guess=prev.psi)
    assert np.max(np.abs(cold.psi - warm.psi)) < 1e-8


def test_blowup_at_eight_pi(disk_problem):
    with pytest.raises(BlowupDetected):
        disk_problem.solve_mp(EIGHT_PI)


@pytest.mark.parametrize("lam", [4.0 * math.pi, EIGHT_PI - 0.5])
def test_cold_solve_is_one_newton_solve(disk_problem, monkeypatch, lam):
    # wraps go on the class: undoing an instance patch would leave a bound
    # method on the shared problem, hiding later class-level wraps
    calls, newton = [], MeanFieldProblem._newton

    def counted_newton(self, lam, *args):
        calls.append(lam)
        return newton(self, lam, *args)

    monkeypatch.setattr(MeanFieldProblem, "_newton", counted_newton)
    disk_problem.solve_mp(lam)
    assert calls == [lam]


def test_huge_lambda_blows_up(disk_problem):
    # the first Newton trial passes the trust cap 50/lambda
    with pytest.raises(BlowupDetected):
        disk_problem.solve_mp(1e20)


@pytest.mark.parametrize("trace", ["disk_trace", "ellipse_trace", "offcenter_trace",
                                   "centered_trace"])
def test_cold_solve_reproduces_traced_rows(trace, request):
    # the branch has one solution at each lambda below 8 pi: Newton from zero
    # finds the state the trace reached by continuation
    run = request.getfixturevalue(trace)
    rows = [p for p in run["diagram"].points if p.lam > 2.0 * math.pi]
    for row in (rows[0], rows[len(rows) // 2], rows[-1]):
        state = run["problem"].solve_mp(row.lam)
        assert state.mu == pytest.approx(row.mu, rel=1e-7), row.lam
        assert state.energy == pytest.approx(row.energy, rel=1e-7), row.lam


def test_second_kind_weight_crosses_eight_pi():
    sing = SingularitySpec.of((0.0, 0.0, 1.0))
    mesh = build_mesh(DomainSpec.unit_disk(), sing, h_max=0.12)
    problem = MeanFieldProblem(mesh, build_weight(mesh, sing))
    state = problem.solve_mp(EIGHT_PI + 0.5)
    assert np.isfinite(state.energy)
    assert state.residual <= 1e-9


def test_concentration_scanned_only_at_eight_pi(coarse_problem, monkeypatch):
    # the quadrature scan only decides whether a lambda >= 8 pi state is trusted
    def refuse(self, state):
        raise AssertionError(f"_is_concentrated called at lambda={state.lam!r}")

    monkeypatch.setattr(MeanFieldProblem, "_is_concentrated", refuse)
    coarse_problem.solve_mp(2.0)
    coarse_problem.solve_mp(EIGHT_PI - 0.5)      # cold start: one Newton solve from 0
    coarse_problem.solve_lp(1.0)
    coarse_problem.solve_lp(-1.0)


def test_overflow_guard(disk_problem):
    bad = np.full(disk_problem.mesh.n_vertices, np.inf)
    with pytest.raises(OverflowGuard):
        disk_problem.solve_mp(1.0, initial_guess=bad)


def spike_field(problem, height):
    """Zero field with one interior vertex raised to the given height."""
    psi = np.zeros(problem.mesh.n_vertices)
    psi[problem.interior[len(problem.interior) // 2]] = height
    return psi


def test_overflow_guard_on_accepted_state(disk_problem):
    # the quadrature points see at most ~0.82 of a vertex spike, so lam psi
    # - log Z exceeds the float range at the spike vertex; with a tolerance
    # that accepts the start, the state is finalized at once and its vertex
    # density must raise instead of clipping the exponent
    psi = spike_field(disk_problem, 1e4)
    with pytest.raises(OverflowGuard, match="density overflow at vertices"):
        disk_problem.solve_mp(1.0, initial_guess=psi, tol=1e300)


@pytest.mark.parametrize("which", ["coarse_problem", "singular_problem"])
def test_exp_factors_shift_for_negative_lambda(which, request):
    # lam psi spans 0 to 8170 at the quadrature points: far past the float
    # range of exp, while log Z stays finite and is a plain log-sum-exp
    problem = request.getfixturevalue(which)
    lam = -1.0
    r2 = np.sum(problem.mesh.vertices ** 2, axis=1)
    psi = -8170.0 * (1.0 - r2 / r2.max())
    vals = problem.quad.eval(psi)
    assert vals.min() < -8000.0 and vals.max() <= 0.0
    with np.errstate(over="raise"):
        factors, log_z = problem._exp_factors(lam, vals)
    assert factors.shape == vals.shape
    assert log_z == pytest.approx(logsumexp(lam * vals, b=problem.quad.w), rel=1e-13)
    assert problem.quad.integrate(factors) == pytest.approx(1.0, rel=1e-12)


# the two callers of the damped Newton driver, each from the zero field:
# psi at lambda = -5 and v at mu = -5
NEWTON_FORMS = {
    "psi": lambda problem, tol: problem._newton(
        -5.0, np.zeros(problem.mesh.n_vertices), tol),
    "v": lambda problem, tol: problem._lp_newton_negative(-5.0, tol),
}


@pytest.mark.parametrize("form", sorted(NEWTON_FORMS))
def test_negative_mu_line_search_stall_raises(coarse_problem, monkeypatch, form):
    # a residual that never decreases stalls the line search at once
    monkeypatch.setattr(type(coarse_problem.dirichlet), "dual_norm", lambda self, r: 1.0)
    with pytest.raises(NoConvergence, match="line search failed") as info:
        NEWTON_FORMS[form](coarse_problem, NEWTON_TOL)
    assert info.value.iterations == 0
    assert info.value.residual == 1.0


def test_negative_mu_loads_each_iterate_once(coarse_problem, monkeypatch):
    # the accepted line-search trial carries its factors and load into the
    # next iteration: one load per residual, and no iterate is loaded twice
    # wraps go on the classes, so undoing them leaves the shared problem as it was
    quad, dirichlet = type(coarse_problem.quad), type(coarse_problem.dirichlet)
    loaded, residuals = [], []
    load, dual_norm = quad.assemble_load, dirichlet.dual_norm

    def counting_load(self, factors=None):
        loaded.append(factors.tobytes())
        return load(self, factors)

    def counting_dual_norm(self, r):
        residuals.append(r)
        return dual_norm(self, r)

    monkeypatch.setattr(quad, "assemble_load", counting_load)
    monkeypatch.setattr(dirichlet, "dual_norm", counting_dual_norm)
    state = coarse_problem.solve_lp(-5.0)
    assert state.iterations >= 2
    assert len(loaded) == len(residuals) >= state.iterations + 1
    assert len(set(loaded)) == len(loaded)


def bordered_reference(problem, lin):
    """S = A_ii - lam M_ii and K = [[S, lam b_i], [-b_i', 1]] by slicing and bmat."""
    idx = problem.interior
    M_ii = lin.M_rho[idx][:, idx]
    S = (problem.dirichlet.A_ii - lin.lam * M_ii).tocsc()
    K = sp.bmat([
        [S, lin.lam * sp.csc_matrix(lin.b_i[:, None])],
        [-sp.csc_matrix(lin.b_i[None, :]), sp.csc_matrix(np.array([[1.0]]))],
    ], format="csc")
    return S, K


@pytest.fixture(scope="module")
def singular_problem():
    sing = SingularitySpec.of((0.5, 0.0, 0.05))
    mesh = build_mesh(DomainSpec.unit_disk(), sing, h_max=0.14)
    return MeanFieldProblem(mesh, build_weight(mesh, sing))


@pytest.mark.parametrize("which", ["coarse_problem", "singular_problem"])
@pytest.mark.parametrize("lam", [-4.0, 6.0])
def test_bordered_matrix_on_fixed_pattern(which, lam, request):
    problem = request.getfixturevalue(which)
    state = problem.solve_mp(lam)
    lin = Linearization.at_state(problem, state)
    S, K = bordered_reference(problem, lin)
    assert lin.K.has_canonical_format
    assert abs(lin.K - K).max() == 0.0
    M = lin.M_rho
    J = problem.jacobian_pattern(M).interior(-2.5, M)
    J_ref = problem.dirichlet.A_ii - (-2.5) * M[problem.interior][:, problem.interior]
    assert abs(J - J_ref).max() == 0.0

    rng = np.random.default_rng(5)
    x = rng.standard_normal(len(problem.interior))
    want = S @ x + lam * lin.b_i * (lin.b_i @ x)
    assert np.abs(lin.apply(x) - want).max() <= 1e-13 * np.abs(want).max()
    rhs = rng.standard_normal(len(problem.interior))
    sol = lin.solve(rhs, rtol=1e-10)
    residual = S @ sol + lam * lin.b_i * (lin.b_i @ sol) - rhs
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)


@pytest.mark.parametrize("which, blocks", [("coarse_problem", 1), ("singular_problem", 2)])
def test_interior_mass_gathered_through_the_pattern(which, blocks, request):
    problem = request.getfixturevalue(which)
    assert len(problem.quad.blocks) == blocks
    lin = Linearization.at_state(problem, problem.solve_mp(-4.0))
    idx = problem.interior
    ref = lin.M_rho[idx][:, idx]
    for part in ("data", "indices", "indptr"):
        got, want = getattr(lin.M_ii, part), getattr(ref, part)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("which", ["coarse_problem", "singular_problem"])
@pytest.mark.parametrize("lam", [-20.0, 6.0])
def test_newton_state_hands_its_load_to_one_linearization(which, lam, request, monkeypatch):
    # the first Linearization at a Newton state takes over the point factors
    # and load of the solve's last residual and assembles no load; the next
    # one evaluates them again, to the same bits
    problem = request.getfixturevalue(which)
    state = problem.solve_mp(lam)
    loads, assemble_load = [], type(problem.quad).assemble_load
    monkeypatch.setattr(type(problem.quad), "assemble_load",
                        lambda *args: loads.append(1) or assemble_load(*args))
    row = Linearization.at_state(problem, state)
    assert loads == [] and state.newton_load is None
    again = Linearization.at_state(problem, state)
    assert loads == [1]
    assert row.M_rho.data.tobytes() == again.M_rho.data.tobytes()
    assert row.b.tobytes() == again.b.tobytes()
    assert row.K.data.tobytes() == again.K.data.tobytes()


class TestSolveLP:
    def test_mu_zero(self, disk_problem):
        state = disk_problem.solve_lp(0.0)
        assert state.lam == 0.0 and state.mu == 0.0

    def test_positive_root(self, disk_problem):
        mu = 1.0
        state = disk_problem.solve_lp(mu)
        c = c_of_mu_minimal(mu)
        assert c == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-12)
        assert state.lam == pytest.approx(oracle.lam_of_c(c), rel=5e-3)
        assert state.mu == pytest.approx(mu, rel=1e-9)

    def test_negative_mu(self, disk_problem):
        mu = -5.0
        state = disk_problem.solve_lp(mu)
        c = c_of_mu_minimal(mu)
        assert state.lam == pytest.approx(oracle.lam_of_c(c), rel=5e-3)
        assert state.mu == pytest.approx(mu, rel=1e-9)
        u0 = eval_field(disk_problem.mesh, state.u, np.zeros(2))
        assert u0 == pytest.approx(oracle.u_center(c), abs=5e-3)
        assert np.all(state.u <= 1e-12)  # negative branch lies below zero

    def test_fold_band(self, disk_problem):
        state = disk_problem.solve_lp(2.0)
        assert state.lam == pytest.approx(oracle.FOLD_LAM, rel=0.01)
        assert state.mu == pytest.approx(oracle.FOLD_MU, rel=0.01)

    def test_above_fold_rejected(self, disk_problem):
        with pytest.raises(NoConvergence):
            disk_problem.solve_lp(2.2)

    def test_one_v_solve_below_band(self, disk_problem, monkeypatch):
        # a request clear of the fold band is one Newton solve on v from
        # v = 0: no march in lambda and no psi-form solve
        calls = []
        lp_newton, newton = MeanFieldProblem._lp_newton_negative, MeanFieldProblem._newton

        def recording_lp_newton(*args):
            calls.append("v")
            return lp_newton(*args)

        def recording_newton(*args):
            calls.append("psi")
            return newton(*args)

        monkeypatch.setattr(MeanFieldProblem, "_lp_newton_negative", recording_lp_newton)
        monkeypatch.setattr(MeanFieldProblem, "_newton", recording_newton)
        state = disk_problem.solve_lp(1.0)
        assert calls == ["v"]
        assert state.mu == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("mu", [0.5, 1.5, 1.9, 1.97])
    def test_returned_state_on_minimal_branch(self, disk_problem, mu):
        state = disk_problem.solve_lp(mu)
        assert state.mu == pytest.approx(mu, rel=1e-9)
        assert g_of(disk_problem, state).g > 0.0

    def test_below_band_near_fold_returns_direct_state(self, disk_problem):
        # g of the direct state is under G_DIRECT here, so the fold is
        # located; the request lies below the band, so the direct state stands
        mu = 1.97
        direct = disk_problem._lp_newton_negative(mu, NEWTON_TOL)
        assert 0.0 < g_of(disk_problem, direct).g < G_DIRECT
        state = disk_problem.solve_lp(mu)
        assert np.array_equal(state.psi, direct.psi) and state.lam == direct.lam

    def test_failed_solve_below_band_keeps_context(self, disk_problem, monkeypatch):
        # the fold lies above the request, so the failure of Newton on v
        # stands, with its iterations and residual
        def failing(self, mu, tol):
            raise NoConvergence("line search failed", iterations=3, residual=0.5)

        monkeypatch.setattr(MeanFieldProblem, "_lp_newton_negative", failing)
        with pytest.raises(NoConvergence, match="missed the minimal branch") as info:
            disk_problem.solve_lp(1.0)
        assert (info.value.iterations, info.value.residual) == (3, 0.5)

    def test_fold_fallback_keeps_callers_tol(self, disk_problem, monkeypatch):
        # g of the direct state is under G_DIRECT at mu = 1.97, so the march
        # and the fold location run; each of their psi solves takes the
        # request's tol
        tols, newton = [], MeanFieldProblem._newton

        def recording_newton(self, lam, psi, tol, *args):
            tols.append(tol)
            return newton(self, lam, psi, tol, *args)

        monkeypatch.setattr(MeanFieldProblem, "_newton", recording_newton)
        disk_problem.solve_lp(1.97, tol=1e-6)
        assert tols and set(tols) == {1e-6}

    @pytest.mark.parametrize("which", ["disk_problem", "coarse_problem"])
    def test_above_fold_raises_without_overflow(self, which, request):
        # past the fold the trust cap stops Newton on v before exp overflows
        # (uncapped, the coarse disk overflows), and the fold fallback then
        # rejects the request
        problem = request.getfixturevalue(which)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowupDetected) as info:
                problem._lp_newton_negative(2.2, NEWTON_TOL)
            assert info.value.sup > TRUST_SUP
            with pytest.raises(NoConvergence, match="exceeds the fold value"):
                problem.solve_lp(2.2)


def test_fold_fallback_marches_on_held_lus(disk_problem, monkeypatch):
    # past the fold, v-form Newton fails and the march runs from lambda = 0
    # to the sign change of g: each of its solves after the first holds the
    # previous row's LU, so the request factors 32 times (48 when every
    # march solve factored at its first step)
    calls = count_splu(monkeypatch)
    with pytest.raises(NoConvergence, match="exceeds the fold value"):
        disk_problem.solve_lp(2.2)
    assert len(calls) <= 36


@pytest.fixture(scope="module", params=["offcenter_disk", "ellipse"])
def nonradial_problem(request):
    """Coarse non-symmetric domains: alpha = 0.5 at (0.5, 0) in the unit
    disk, and alpha = 1 at (0.3, 0.2) in the 1.3 x 0.8 ellipse."""
    if request.param == "offcenter_disk":
        domain, sing = DomainSpec.unit_disk(), SingularitySpec.of((0.5, 0.0, 0.5))
    else:
        domain, sing = DomainSpec.ellipse(1.3, 0.8), SingularitySpec.of((0.3, 0.2, 1.0))
    mesh = build_mesh(domain, sing, h_max=0.1)
    return MeanFieldProblem(mesh, build_weight(mesh, sing))


@pytest.mark.parametrize("lam", [2.0, 10.0])
def test_lp_round_trip_nonradial(nonradial_problem, lam):
    # mu of the lambda state leads solve_lp back to the same state
    mu = nonradial_problem.solve_mp(lam).mu
    state = nonradial_problem.solve_lp(mu)
    assert state.lam == pytest.approx(lam, rel=1e-8)
    assert g_of(nonradial_problem, state).g > 0.0


@pytest.mark.parametrize("form", sorted(NEWTON_FORMS))
def test_v_newton_accepts_trial_below_tol(coarse_problem, monkeypatch, form):
    # a trial that meets the tolerance is accepted even when it misses the
    # Armijo decrease
    norms = iter([1.0, 1.0 - 1e-6])
    monkeypatch.setattr(type(coarse_problem.dirichlet), "dual_norm",
                        lambda self, r: next(norms))
    state = NEWTON_FORMS[form](coarse_problem, 1.0 - 1e-7)
    assert state.iterations == 1 and state.residual == 1.0 - 1e-6


@pytest.mark.parametrize("form", sorted(NEWTON_FORMS))
def test_newton_converges_on_last_allowed_iteration(disk_problem, monkeypatch, form):
    # the converge test follows every step, the last allowed one included
    state = NEWTON_FORMS[form](disk_problem, NEWTON_TOL)
    monkeypatch.setattr(meanfield, "NEWTON_MAX_ITER", state.iterations)
    again = NEWTON_FORMS[form](disk_problem, NEWTON_TOL)
    assert again.iterations == state.iterations and again.residual == state.residual
    assert np.array_equal(again.psi, state.psi) and again.lam == state.lam


@pytest.mark.parametrize("form", sorted(NEWTON_FORMS))
def test_nan_tol_never_reads_as_converged(coarse_problem, monkeypatch, form):
    monkeypatch.setattr(meanfield, "NEWTON_MAX_ITER", 3)
    with pytest.raises(NoConvergence):
        NEWTON_FORMS[form](coarse_problem, math.nan)


def test_one_line_search_floor():
    # one damped Newton driver serves the psi and v forms, so the 2^-24
    # step floor of its line search sits in exactly one function
    src = Path(__file__).resolve().parents[1] / "src" / "gelfand"
    holders = sorted(
        f"{path.name}:{fn.name}"
        for path in src.glob("*.py")
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(node, ast.BinOp) and ast.unparse(node) == "2.0 ** (-24)"
                for node in ast.walk(fn)))
    assert len(holders) == 1, holders


# -- the SuperLU recipe: each Jacobian pattern ordered once -------------------

def singular_v_jacobian(problem, monkeypatch):
    """meanfield.splu raising SuperLU's singular error on S, the v-form Jacobian."""
    n, real = len(problem.interior), meanfield.splu

    def fake(A, **kw):
        if A.shape[0] == n:
            raise RuntimeError("Factor is exactly singular")
        return real(A, **kw)

    monkeypatch.setattr(meanfield, "splu", fake)


def test_singular_v_jacobian_below_zero_is_no_convergence(coarse_problem, monkeypatch):
    singular_v_jacobian(coarse_problem, monkeypatch)
    with pytest.raises(NoConvergence, match="singular linearization at mu=-5") as info:
        coarse_problem.solve_lp(-5.0)
    assert info.value.iterations == 0
    assert info.value.residual > 0.0


def test_singular_v_jacobian_above_zero_falls_back_to_the_march(coarse_problem,
                                                                 monkeypatch):
    # the failed v solve sends the march up from lambda = 0, which factors
    # only K; mu = 1 lies below the fold, so no state answers the request
    # and its NoConvergence carries the v solve's
    singular_v_jacobian(coarse_problem, monkeypatch)
    with pytest.raises(NoConvergence, match="missed the minimal branch") as info:
        coarse_problem.solve_lp(1.0)
    assert info.value.iterations == 0
    assert "singular linearization" in str(info.value.__cause__)


@pytest.fixture(scope="module")
def recipe_matrices():
    """S at mu = -20 and 3 and K at lambda = 1, 10 and 24 on the h = 0.05
    disk with weight |x|, after solves that ordered both patterns."""
    sing = SingularitySpec.of((0.0, 0.0, 0.5))
    mesh = build_mesh(DomainSpec.unit_disk(), sing, h_max=0.05)
    problem = MeanFieldProblem(mesh, build_weight(mesh, sing))
    S = []
    for mu in (-20.0, 3.0):
        state = problem.solve_lp(mu)
        M = problem.quad.assemble_mass(np.exp(problem.quad.eval(state.u)))
        S.append(problem.jacobian_pattern(M).interior(mu, M))
    K = [Linearization.at_state(problem, problem.solve_mp(lam)).K
         for lam in (1.0, 10.0, 24.0)]
    pattern = problem.jacobian_pattern(M)
    return {"s": (pattern.s_order, S), "k": (pattern.k_order, K)}


@pytest.mark.parametrize("which, i", [("s", 0), ("s", 1), ("k", 0), ("k", 1), ("k", 2)])
def test_reused_order_factors_as_a_fresh_recipe(recipe_matrices, which, i):
    order, matrices = recipe_matrices[which]
    A = matrices[i]
    assert order.perm_c is not None       # an earlier factorization ordered it
    reused, fresh = order.factor(A), splu(A, **SPLU_RECIPE)
    rhs = np.random.default_rng(i).standard_normal(A.shape[0])
    assert np.array_equal(reused.solve(rhs), fresh.solve(rhs))
    assert reused.lu.L.nnz + reused.lu.U.nnz == fresh.L.nnz + fresh.U.nnz


def count_splu(monkeypatch):
    """(size, permc_spec) of every meanfield.splu call, in order."""
    calls, real = [], meanfield.splu

    def counting(A, **kw):
        calls.append((A.shape[0], kw["permc_spec"]))
        return real(A, **kw)

    monkeypatch.setattr(meanfield, "splu", counting)
    return calls


def fresh_disk():
    """A coarse disk whose Jacobian patterns no solve has ordered yet."""
    return make_problem(DomainSpec.unit_disk(), SingularitySpec.none(), 0.14)


def test_solve_lp_orders_each_pattern_once(monkeypatch):
    # mu = 1 is one v-form Newton solve certified by g_of; one more g_of
    # factors K a second time
    problem = fresh_disk()
    n = len(problem.interior)
    calls = count_splu(monkeypatch)
    state = problem.solve_lp(1.0)
    g_of(problem, state)
    assert calls == ([(n, "MMD_AT_PLUS_A")] + [(n, "NATURAL")] * (state.factorizations - 1)
                     + [(n + 1, "MMD_AT_PLUS_A"), (n + 1, "NATURAL")])


def test_trace_orders_k_once_and_factors_as_often_as_before(monkeypatch):
    problem = fresh_disk()
    n = len(problem.interior)
    calls = count_splu(monkeypatch)
    trace_branch(problem)
    kept = list(calls)
    assert kept == [(n + 1, "MMD_AT_PLUS_A")] + [(n + 1, "NATURAL")] * (len(kept) - 1)
    # a pattern that never keeps its order makes every factorization order
    # anew: the factorizations themselves are the same ones
    calls.clear()
    monkeypatch.setattr(meanfield.ColumnOrder, "_adopt", lambda self, perm_c: None)
    trace_branch(fresh_disk())
    assert calls == [(n + 1, "MMD_AT_PLUS_A")] * len(kept)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("solve", ["solve_mp", "solve_lp"])
def test_non_finite_parameter_is_config_error(coarse_problem, monkeypatch, solve, value):
    # refused before any factorization, not by a guard or march far inside
    calls = count_splu(monkeypatch)
    with pytest.raises(ConfigError, match="must be finite"):
        getattr(coarse_problem, solve)(value)
    assert calls == []


COLD_SOLVES = {
    "solve_mp(4 pi)": lambda problem: problem.solve_mp(4.0 * math.pi),
    "solve_lp(-42)": lambda problem: problem.solve_lp(-42.0),
}


@pytest.mark.parametrize("case", sorted(COLD_SOLVES))
def test_refactor_path_matches_the_chord(disk_problem, monkeypatch, case):
    # with CHORD_RATE = 0 a held LU's step is kept only when it reaches tol,
    # so every other step factors afresh: Newton with one factorization per
    # step, which the chord must reproduce to well below the Newton tolerance
    chord = COLD_SOLVES[case](disk_problem)
    calls = count_splu(monkeypatch)
    monkeypatch.setattr(meanfield, "CHORD_RATE", 0.0)
    newton = COLD_SOLVES[case](disk_problem)
    assert len(calls) == newton.factorizations > chord.factorizations
    assert newton.iterations - newton.factorizations in (0, 1)
    assert newton.mu == pytest.approx(chord.mu, rel=1e-9)
    assert newton.energy == pytest.approx(chord.energy, rel=1e-9)


def test_save_load_roundtrip(tmp_path, disk_problem):
    state = disk_problem.solve_mp(1.5)
    path = save_state(state, str(tmp_path / "state.json"))
    assert path.endswith("state.json")
    psi = load_psi(tmp_path / "state_psi.txt")
    assert np.array_equal(psi, state.psi)  # repr round trip is exact
    import json
    header = json.loads((tmp_path / "state.json").read_text())
    assert header["lambda"] == state.lam
    assert header["mu"] == state.mu
    assert header["n_vertices"] == len(state.psi)
