import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from gelfand import fem
from gelfand.errors import SolverError
from gelfand.fem import (DirichletSolver, assemble_mass, assemble_stiffness,
                         plain_quadrature, weighted_quadrature)
from gelfand.geometry import (DomainSpec, SingularitySpec, build_mesh, build_weight,
                              uniform_weight)
from gelfand.meanfield import MeanFieldProblem
from mesh_tools import eval_field


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(8)
_G01 = 0.5 * (_GAUSS_X + 1.0)
_W01 = 0.5 * _GAUSS_W


def tri_monomial_integral(verts, px, py):
    """Exact integral of x^px y^py over one triangle: Duffy transform of the
    reference simplex with Gauss rules far beyond the monomial degree.
    Independent of the package quadrature under test."""
    a, b, c = verts
    total = 0.0
    for si, wi in zip(_G01, _W01):
        for tj, wj in zip(_G01, _W01):
            u, v = si, tj * (1.0 - si)
            p = a + u * (b - a) + v * (c - a)
            total += wi * wj * (1.0 - si) * p[0] ** px * p[1] ** py
    e1, e2 = b - a, c - a
    return total * abs(e1[0] * e2[1] - e1[1] * e2[0])


def test_plain_quadrature_polynomials(coarse_problem):
    mesh = coarse_problem.mesh
    quad = plain_quadrature(mesh)
    # degree-4 rule: quartics in the coordinates must integrate exactly
    for px, py in [(0, 0), (1, 0), (2, 1), (2, 2), (4, 0)]:
        got = 0.0
        for blk in quad.blocks:
            f = blk.pos[..., 0] ** px * blk.pos[..., 1] ** py
            got += float(np.sum(blk.w * f))
        want = sum(tri_monomial_integral(mesh.vertices[t], px, py)
                   for t in mesh.triangles)
        assert got == pytest.approx(want, rel=1e-10), (px, py)


def test_mass_matrix_total(coarse_problem):
    mesh = coarse_problem.mesh
    M = assemble_mass(mesh)
    ones = np.ones(mesh.n_vertices)
    assert float(ones @ (M @ ones)) == pytest.approx(mesh.area(), rel=1e-12)


def test_stiffness_annihilates_constants(coarse_problem):
    mesh = coarse_problem.mesh
    A = assemble_stiffness(mesh)
    ones = np.ones(mesh.n_vertices)
    assert np.max(np.abs(A @ ones)) < 1e-12
    # linear field: int |grad (a x + b y)|^2 = (a^2 + b^2) |Omega|
    f = 2.0 * mesh.vertices[:, 0] + 1.0 * mesh.vertices[:, 1]
    assert float(f @ (A @ f)) == pytest.approx(5.0 * mesh.area(), rel=1e-12)


def test_dirichlet_patch_linear(coarse_problem):
    # harmonic linear function with its own trace: solver must return it exactly
    mesh = coarse_problem.mesh
    A = assemble_stiffness(mesh)
    g = 0.3 * mesh.vertices[:, 0] - 0.8 * mesh.vertices[:, 1]
    solver = DirichletSolver(A, mesh.boundary_mask)
    u = solver.solve(np.zeros(mesh.n_vertices), boundary_values=g)
    assert np.max(np.abs(u - g)) < 1e-10


def test_dirichlet_solve_refuses_a_nan_rhs(coarse_problem):
    # a NaN residual fails the residual guard instead of passing as a solution
    load = np.ones(coarse_problem.mesh.n_vertices)
    load[coarse_problem.interior[0]] = math.nan
    with pytest.raises(SolverError, match="residual too large"):
        coarse_problem.dirichlet.solve(load)


def test_torsion_center_value():
    # -Delta u = 1 on the unit disk: u = (1 - r^2)/4
    mesh = build_mesh(DomainSpec.unit_disk(), SingularitySpec.none(), h_max=0.06)
    A = assemble_stiffness(mesh)
    load = plain_quadrature(mesh).assemble_load(None)
    u = DirichletSolver(A, mesh.boundary_mask).solve(load)
    r2 = np.sum(mesh.vertices ** 2, axis=1)
    assert np.max(np.abs(u - (1.0 - r2) / 4.0)) < 2e-3
    center = eval_field(mesh, u, np.zeros(2))
    assert center == pytest.approx(0.25, abs=5e-4)


def test_weighted_quadrature_mass():
    # int r^(2 alpha) over the unit disk = 2 pi / (2 alpha + 2), for the
    # centered weight with local coefficient 1 the relation is exact up to
    # the harmonic correction, so compare against a radial reference computed
    # from the weight's own vertex values instead: total mass must match a
    # fine plain-quadrature integral of the interpolant away from the pole
    # plus the singular-block contribution near it.
    alpha = 0.5
    sing = SingularitySpec.of((0.0, 0.0, alpha))
    mesh = build_mesh(DomainSpec.unit_disk(), sing, h_max=0.08)
    w = build_weight(mesh, sing)
    quad = weighted_quadrature(mesh, w)
    mass = quad.integrate()
    # radial reference: h = c r^(2 alpha) near 0 and smooth elsewhere; the
    # disk formula with the local coefficient holds within a few percent
    ref = 2.0 * math.pi * w.coefficients[0] / (2.0 * alpha + 2.0)
    assert mass == pytest.approx(ref, rel=0.15)
    assert mass > 0


def test_weighted_quadrature_polar_blocks_converge():
    # refine h: the weighted mass must stabilize (the polar Jacobi rule keeps
    # the r^(2 alpha) integrand exact, so changes come only from the smooth part)
    alpha = 0.75
    sing = SingularitySpec.of((0.0, 0.0, alpha))
    masses = []
    for h in (0.16, 0.08):
        mesh = build_mesh(DomainSpec.unit_disk(), sing, h_max=h)
        w = build_weight(mesh, sing)
        masses.append(weighted_quadrature(mesh, w).integrate())
    assert abs(masses[1] - masses[0]) < 0.02 * abs(masses[1])


def test_dual_norm_definite(coarse_problem):
    mesh = coarse_problem.mesh
    A = assemble_stiffness(mesh)
    solver = DirichletSolver(A, mesh.boundary_mask)
    rng = np.random.default_rng(3)
    r = rng.standard_normal(len(solver.interior))
    assert solver.dual_norm(r) > 0
    assert solver.dual_norm(np.zeros_like(r)) == 0.0


def test_load_against_mass(coarse_problem):
    # assemble_load(None) equals M @ 1 row sums
    mesh = coarse_problem.mesh
    quad = plain_quadrature(mesh)
    load = quad.assemble_load(None)
    M = assemble_mass(mesh)
    assert np.allclose(load, M @ np.ones(mesh.n_vertices), atol=1e-12)
    assert load.sum() == pytest.approx(mesh.area(), rel=1e-12)


def reference_assembly(quad, factors, field):
    """Per-triangle COO/einsum assembly of mass, load, point values and integral.

    Every triangle carries its own copy of the block's shape values, and the
    local matrices are summed by a COO-to-CSR conversion: the layout the
    pattern assembly replaces, kept here as its reference.  The flat factors
    are split block by block, in block order."""
    n = quad.n
    rows, cols, vals, values = [], [], [], []
    load = np.zeros(n)
    integral, start = 0.0, 0
    for b in quad.blocks:
        shp = np.broadcast_to(b.shp, (len(b.verts),) + b.shp.shape)
        wq = b.w * factors[start:start + b.w.size].reshape(b.w.shape)
        start += b.w.size
        integral += float(np.sum(wq))
        local = np.einsum("tq,tqi,tqj->tij", wq, shp, shp)
        rows.append(np.repeat(b.verts, 3, axis=1).ravel())
        cols.append(np.tile(b.verts, (1, 3)).ravel())
        vals.append(local.ravel())
        np.add.at(load, b.verts, np.einsum("tq,tqi->ti", wq, shp))
        values.append(np.einsum("tqi,ti->tq", shp, field[b.verts]).ravel())
    mass = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    return mass, load, np.concatenate(values), integral


ASSEMBLY_CASES = {
    "uniform_disk": (DomainSpec.unit_disk(), SingularitySpec.none(), None),
    "centred_singular": (DomainSpec.unit_disk(), SingularitySpec.of((0.0, 0.0, 0.5)), None),
    "offcentre_singular": (DomainSpec.unit_disk(), SingularitySpec.of((0.5, 0.0, 0.05)), None),
    "floored_singular": (DomainSpec.unit_disk(), SingularitySpec.of((0.0, 0.0, 1.0)), 10),
    "ellipse": (DomainSpec.ellipse(1.3, 0.8), SingularitySpec.none(), None),
}


@pytest.mark.parametrize("case", sorted(ASSEMBLY_CASES))
def test_pattern_assembly_matches_reference(case):
    domain, sing, floor_n = ASSEMBLY_CASES[case]
    mesh = build_mesh(domain, sing, h_max=0.14)
    weight = build_weight(mesh, sing) if len(sing) else uniform_weight(mesh)
    if floor_n is not None:
        weight = weight.with_floor(floor_n)
    quad = weighted_quadrature(mesh, weight)
    if case == "floored_singular":
        assert len(quad.blocks) == 3      # regular, polar and floor blocks
    rng = np.random.default_rng(11)
    factors = rng.uniform(0.5, 2.0, quad.w.size)
    field = rng.standard_normal(mesh.n_vertices)
    mass_ref, load_ref, values_ref, integral_ref = reference_assembly(quad, factors, field)

    mass = quad.assemble_mass(factors)
    assert sp.isspmatrix_csr(mass) and mass.has_canonical_format
    assert abs(mass - mass_ref).max() <= 1e-14 * abs(mass_ref).max()
    load = quad.assemble_load(factors)
    assert np.abs(load - load_ref).max() <= 1e-14 * np.abs(load_ref).max()
    values = quad.eval(field)
    assert values.shape == quad.w.shape
    assert np.abs(values - values_ref).max() <= 1e-14 * np.abs(values_ref).max()
    assert quad.integrate(factors) == pytest.approx(integral_ref, rel=1e-14)
    # the pattern is fixed: a second call writes only new data
    again = quad.assemble_mass(None)
    assert np.array_equal(again.indptr, mass.indptr)
    assert np.array_equal(again.indices, mass.indices)


@pytest.mark.parametrize("case", ["vanishing_patch", "floored_singular"])
def test_flat_point_arrays(case):
    # log h is masked to 0 where h <= 0, and every block's w, hval and pos
    # are views into the flat arrays, not copies
    if case == "vanishing_patch":
        mesh = build_mesh(DomainSpec.unit_disk(), SingularitySpec.none(), h_max=0.14)
        weight = dataclasses.replace(
            uniform_weight(mesh), values=np.where(mesh.vertices[:, 0] > 0.3, 0.0, 1.0))
    else:
        sing = SingularitySpec.of((0.0, 0.0, 1.0))
        mesh = build_mesh(DomainSpec.unit_disk(), sing, h_max=0.14)
        weight = build_weight(mesh, sing).with_floor(10)
    quad = weighted_quadrature(mesh, weight)
    positive = quad.hval > 0
    assert quad.log_h.shape == quad.w.shape == quad.hval.shape
    assert quad.pos.shape == quad.w.shape + (2,)
    assert np.array_equal(quad.log_h[positive], np.log(quad.hval[positive]))
    assert np.all(quad.log_h[~positive] == 0.0)
    if case == "vanishing_patch":
        assert not positive.all()
    start = 0
    for b in quad.blocks:
        stop = start + b.w.size
        for name, flat in (("w", quad.w), ("hval", quad.hval), ("pos", quad.pos)):
            view = getattr(b, name)
            assert view.base is not None and np.shares_memory(view, flat), name
            assert np.array_equal(view.reshape(flat[start:stop].shape), flat[start:stop])
        start = stop
    assert start == quad.w.size


def test_only_fem_reads_quadrature_blocks():
    # the block layout of the quadrature is an assembly detail of fem; every
    # other module works on the flat point arrays
    src = Path(__file__).resolve().parents[1] / "src" / "gelfand"
    readers = sorted(
        f"{path.name}:{node.lineno}"
        for path in src.glob("*.py") if path.name != "fem.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "blocks")
    assert readers == []


def test_one_dirichlet_factorization_per_mesh(monkeypatch):
    # the Green function of each singular point and every problem on the
    # mesh solve through the mesh's one factored Dirichlet block, and share
    # its stiffness and plain quadrature
    factored = []

    def counting(*args, _splu=fem.splu, **kwargs):
        factored.append(args[0].shape)
        return _splu(*args, **kwargs)
    monkeypatch.setattr(fem, "splu", counting)
    sing = SingularitySpec.of((0.5, 0.2, 0.5), (-0.7, -0.1, 1.5))
    mesh = build_mesh(DomainSpec.ellipse(2.0, 1.0), sing, h_max=0.1)
    weight = build_weight(mesh, sing)
    problems = [MeanFieldProblem(mesh, weight.with_floor(n)) for n in (10, 100)]
    n_interior = int((~mesh.boundary_mask).sum())
    assert factored == [(n_interior, n_interior)]
    for problem in problems:
        assert problem.dirichlet is mesh.dirichlet and problem.A is mesh.stiffness
        assert problem.plain is mesh.plain and problem.dirichlet.A is mesh.stiffness
