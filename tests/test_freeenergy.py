import importlib
import math
import pkgutil

import numpy as np
import pytest

import radial_oracle as oracle
from conftest import make_problem
import gelfand
from gelfand import fem, freeenergy
from gelfand.cli import error_payload
from gelfand.errors import (InvalidDelta, InvalidDensity, NoConvergence,
                            OverflowGuard, UnsupportedRegime)
from gelfand.freeenergy import (L1_TOL, collar_density, free_energy_of,
                                minimize_free_energy, verify_energy_bound)
from gelfand.geometry import (DomainSpec, SingularitySpec, build_mesh,
                              build_weight, uniform_weight)
from gelfand.meanfield import MeanFieldProblem


def uniform_density(mesh):
    return np.full(mesh.n_vertices, 1.0 / mesh.area())


def test_uniform_density_terms(disk_problem):
    mesh = disk_problem.mesh
    state = free_energy_of(disk_problem, uniform_density(mesh), lam=-1.0)
    assert state.entropy_term == pytest.approx(-math.log(mesh.area()), abs=1e-12)
    assert state.energy == pytest.approx(oracle.E0, rel=5e-3)
    assert state.linear_term == pytest.approx(0.0, abs=1e-12)
    assert state.free_energy == pytest.approx(
        state.entropy_term - state.lam * state.energy - state.linear_term, abs=1e-12)


def test_collar_oracle(disk_problem):
    for delta in (0.2, 0.1):
        rho = collar_density(disk_problem.mesh, delta)
        e = free_energy_of(disk_problem, rho, -1.0).energy
        assert e == pytest.approx(oracle.collar_energy(delta), rel=0.03), delta


def test_collar_oracle_thin_needs_resolved_boundary():
    # delta below the bulk cell size needs a boundary-refined mesh
    dom = DomainSpec.unit_disk(boundary_size=0.02)
    mesh = build_mesh(dom, SingularitySpec.none(), h_max=0.1)
    problem = MeanFieldProblem(mesh, uniform_weight(mesh))
    rho = collar_density(mesh, 0.05)
    e = free_energy_of(problem, rho, -1.0).energy
    assert e == pytest.approx(oracle.collar_energy(0.05), rel=0.03)


def test_collar_energy_decreases(disk_problem):
    es = [free_energy_of(disk_problem, collar_density(disk_problem.mesh, d), -1.0).energy
          for d in (0.2, 0.1, 0.05)]
    assert es[0] > es[1] > es[2] > 0


def test_collar_guards(disk_problem):
    mesh = disk_problem.mesh
    for delta in (0.0, -0.1, 1.0, 2.0):
        with pytest.raises(InvalidDelta):
            collar_density(mesh, delta)


def test_density_guards(disk_problem):
    n = disk_problem.mesh.n_vertices
    with pytest.raises(InvalidDensity):
        free_energy_of(disk_problem, np.full(n, -1.0), -1.0)
    with pytest.raises(InvalidDensity):
        free_energy_of(disk_problem, 3.0 * uniform_density(disk_problem.mesh), -1.0)


def test_minimizer_matches_newton(disk_problem):
    state = minimize_free_energy(disk_problem, -1.0)
    mp = disk_problem.solve_mp(-1.0)
    assert np.max(np.abs(state.potential - mp.psi)) < 1e-6
    assert state.energy == pytest.approx(mp.energy, rel=1e-8)
    assert state.el_residual <= 1e-8
    assert state.iterations > 0


def test_minimizer_beats_competitors(disk_problem):
    lam = -20.0
    best = minimize_free_energy(disk_problem, lam)
    uni = free_energy_of(disk_problem, uniform_density(disk_problem.mesh), lam)
    col = free_energy_of(disk_problem, collar_density(disk_problem.mesh, 0.1), lam)
    assert best.free_energy < uni.free_energy < col.free_energy


def test_minimizer_energy_decreases_with_lambda(disk_problem):
    es = [minimize_free_energy(disk_problem, lam).energy
          for lam in (-2.0, -20.0, -200.0)]
    assert es[0] > es[1] > es[2] > 0


def test_floor_invariance_for_constant_weight(disk_problem):
    # h constant: the floor rescales h_n uniformly and cancels from rho
    mesh = disk_problem.mesh
    outs = []
    for n in (10, 1000):
        problem = MeanFieldProblem(mesh, uniform_weight(mesh).with_floor(n))
        outs.append(minimize_free_energy(problem, -20.0))
    assert np.max(np.abs(outs[0].rho - outs[1].rho)) < 1e-8
    assert outs[0].energy == pytest.approx(outs[1].energy, abs=1e-10)
    assert outs[0].n == 10 and outs[1].n == 1000


def test_unsupported_regime(disk_problem):
    for lam in (0.0, 1.0):
        with pytest.raises(UnsupportedRegime):
            minimize_free_energy(disk_problem, lam)


def test_descent_cap_raises(disk_problem, monkeypatch):
    # the cap carries the last L1 density change, which error.json reports
    monkeypatch.setattr(freeenergy, "MAX_ITER", 2)
    with pytest.raises(NoConvergence, match="iteration cap") as info:
        minimize_free_energy(disk_problem, -20.0)
    assert info.value.iterations == 2
    assert math.isfinite(info.value.residual) and info.value.residual > L1_TOL
    assert error_payload(info.value)["residual"] == info.value.residual


def test_unresolved_boundary_layer_stops_at_step_floor(disk_problem):
    # h = 0.08 does not resolve the boundary layer at lambda = -1e5: the step
    # falls to STEP_FLOOR within a few dozen iterations, and the minimizer
    # stops there with the last L1 change instead of spending all MAX_ITER
    with pytest.raises(NoConvergence, match="the mesh, not the iteration") as info:
        minimize_free_energy(disk_problem, -1e5)
    assert 0 < info.value.iterations < 200
    assert math.isfinite(info.value.residual) and info.value.residual > L1_TOL


@pytest.fixture(scope="module")
def half_power_problem():
    """Weight |x| (alpha = 0.5 at the origin) on the h = 0.08 disk."""
    return make_problem(DomainSpec.unit_disk(), SingularitySpec.of((0.0, 0.0, 0.5)), 0.08)


@pytest.mark.parametrize("lam, cap", [(-200.0, 20), (-1000.0, 32)])
@pytest.mark.parametrize("which", ["disk_problem", "half_power_problem"])
def test_anderson_minimizer_at_strong_repulsion(which, lam, cap, request):
    # the plain damped iteration takes 24 and 48 iterations on both weights
    problem = request.getfixturevalue(which)
    state = minimize_free_energy(problem, lam)
    assert 0 < state.iterations <= cap
    assert state.el_residual <= 1e-8
    mp = problem.solve_mp(lam)
    assert np.max(np.abs(state.potential - mp.psi)) <= 1e-6


def test_minimizer_reports_the_free_energy_of_its_density(fine_problem):
    # F and E are those of rho(psi), re-evaluated from the returned potential
    # with E = b'G b / 2; the energy psi'A psi / 2 of psi itself would put
    # its error into F at first order, times |lambda|
    lam = -1000.0
    state = minimize_free_energy(fine_problem, lam)
    b, factors, log_z, psi_q = fine_problem._load(lam, state.potential)
    b_i = b[fine_problem.interior]
    energy = 0.5 * float(b_i @ fine_problem.dirichlet.lu.solve(b_i))
    wf, log_h = fine_problem.quad.w * factors, fine_problem.quad.log_h
    entropy = float(np.sum(wf * (log_h + lam * psi_q - log_z)))
    linear = float(np.sum(wf * log_h))
    assert state.energy == pytest.approx(energy, rel=1e-12)
    assert state.free_energy == pytest.approx(entropy - lam * energy - linear, rel=1e-12)
    assert state.free_energy == (
        state.entropy_term - state.lam * state.energy - state.linear_term)


@pytest.mark.parametrize("without", ["depth", "gram"])
def test_without_mixing_the_plain_damped_iteration(disk_problem, monkeypatch, without):
    # one kept iterate leaves no differences to mix, and a singular Gram
    # matrix of the differences refuses every trial: either way every step is
    # the damped one
    fast = minimize_free_energy(disk_problem, -200.0)
    if without == "depth":
        monkeypatch.setattr(freeenergy, "AA_DEPTH", 1)
    else:
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")
        monkeypatch.setattr(np.linalg, "solve", singular)
    plain = minimize_free_energy(disk_problem, -200.0)
    assert plain.iterations == 24 > fast.iterations
    assert np.max(np.abs(plain.potential - fast.potential)) < 1e-8
    assert plain.free_energy == pytest.approx(fast.free_energy, rel=1e-9)


def test_energy_bound_chain(disk_problem):
    report = verify_energy_bound(disk_problem, -20.0, 0.1)
    for name, slack in report.slacks.items():
        assert slack >= -1e-9, name
    assert report.energy_value <= report.energy_bound
    assert report.jensen_slack >= 0.0


def test_energy_bound_chain_singular():
    sing = SingularitySpec.of((0.5, 0.0, 0.05))
    mesh = build_mesh(DomainSpec.unit_disk(), sing, h_max=0.12)
    problem = MeanFieldProblem(mesh, build_weight(mesh, sing).with_floor(100))
    report = verify_energy_bound(problem, -20.0, 0.1)
    for name, slack in report.slacks.items():
        assert slack >= -1e-9, name


def test_collar_state_serves_every_lambda_and_floor():
    # cmd_freeenergy evaluates the collar once per floor problem on one mesh
    # and each cell forms F at its own lambda: bit for bit what a problem on
    # a freshly built mesh reports
    sing = SingularitySpec.of((0.0, 0.0, 0.5))
    mesh = build_mesh(DomainSpec.unit_disk(), sing, h_max=0.12)
    weight = build_weight(mesh, sing)
    collar = collar_density(mesh, 0.1)
    for n in (10, 100):
        problem = MeanFieldProblem(mesh, weight.with_floor(n))
        collar_state = free_energy_of(problem, collar, -2.0)
        fresh_mesh = build_mesh(DomainSpec.unit_disk(), sing, h_max=0.12)
        fresh = MeanFieldProblem(fresh_mesh, build_weight(fresh_mesh, sing).with_floor(n))
        for lam in (-2.0, -20.0, -200.0):
            minimizer = minimize_free_energy(problem, lam)
            report = verify_energy_bound(problem, lam, 0.1, minimizer=minimizer,
                                         collar_state=collar_state)
            assert report.f_collar == free_energy_of(fresh, collar, lam).free_energy
            assert report == verify_energy_bound(fresh, lam, 0.1, minimizer=minimizer)


def test_mesh_assembles_its_mass_matrix_once(monkeypatch):
    # the exact P1 mass matrix depends on the mesh alone: evaluating a density
    # and verifying the bound chain at several lambdas, with no collar_state
    # shared, assembles it once, counted at every name the package calls it by
    problem = make_problem(DomainSpec.unit_disk(), SingularitySpec.none(), 0.08)
    collar = collar_density(problem.mesh, 0.1)
    calls, real = [], fem.assemble_mass

    def counting(mesh):
        calls.append(mesh)
        return real(mesh)
    for info in pkgutil.iter_modules(gelfand.__path__):
        module = importlib.import_module(f"gelfand.{info.name}")
        if getattr(module, "assemble_mass", None) is real:
            monkeypatch.setattr(module, "assemble_mass", counting)
    for lam in (-2.0, -20.0, -200.0):
        free_energy_of(problem, collar, lam)
        verify_energy_bound(problem, lam, 0.1)
    assert len(calls) == 1 and calls[0] is problem.mesh


def test_quad_state_consistency(disk_problem):
    # the minimizer state reports a unit-mass density and coherent terms
    state = minimize_free_energy(disk_problem, -2.0)
    m = disk_problem.plain.assemble_load(None)
    assert float(m @ state.rho) == pytest.approx(1.0, abs=1e-12)
    assert state.free_energy == pytest.approx(
        state.entropy_term - state.lam * state.energy - state.linear_term,
        abs=1e-12)
    assert state.jensen_min_slack >= 0.0


def test_quad_state_overflow_raises(disk_problem):
    # a vertex spike puts lam psi - log Z beyond the float range at that
    # vertex (the quadrature points see at most ~0.82 of it); the minimizer's
    # vertex density must raise instead of clipping the exponent.  The helper
    # does not look at the sign of lambda; lambda > 0 keeps the
    # quadrature-level exponentials finite, so the vertex guard is what fires.
    psi = np.zeros(disk_problem.mesh.n_vertices)
    psi[disk_problem.interior[len(disk_problem.interior) // 2]] = 1e4
    with pytest.raises(OverflowGuard, match="density overflow at vertices"):
        disk_problem.vertex_density(1.0, psi, disk_problem._load(1.0, psi)[2])


def test_minimizer_evaluates_each_iterate_once(disk_problem, monkeypatch):
    # each F evaluation evaluates psi at the quadrature points once, and each
    # accepted iterate (and the start) forms its vertex density once, through
    # the guarded MeanFieldProblem.vertex_density
    counts = {"eval": 0, "load": 0, "density": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    # on the class: undoing an instance patch would leave a bound eval in the
    # session fixture's instance dict, hiding it from later class-level wraps
    quad = type(disk_problem.quad)
    monkeypatch.setattr(quad, "eval", counted("eval", quad.eval))
    monkeypatch.setattr(MeanFieldProblem, "_load", counted("load", MeanFieldProblem._load))
    monkeypatch.setattr(MeanFieldProblem, "vertex_density",
                        counted("density", MeanFieldProblem.vertex_density))
    state = minimize_free_energy(disk_problem, -2.0)
    assert counts["load"] > state.iterations > 0
    assert counts["eval"] == counts["load"]
    assert counts["density"] == state.iterations + 1
