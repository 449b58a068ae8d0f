import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gelfand.errors import ConfigError, InvalidDelta, InvalidSingularity, InvalidWeight
from gelfand.fem import plain_quadrature
from gelfand.freeenergy import collar_density
from gelfand.geometry import (DomainSpec, SingularitySpec, _point_segment_distance,
                              build_mesh, build_weight, green_function,
                              uniform_weight, write_mesh)


def test_disk_mesh_quality(coarse_problem):
    mesh = coarse_problem.mesh
    assert mesh.min_angle() >= 15.0
    assert np.all(mesh.areas() > 0)
    # polygonal approximation from inside: area below pi, converging
    assert 0 < math.pi - mesh.area() < 0.15


def test_disk_area_converges():
    errs = []
    for h in (0.25, 0.125):
        mesh = build_mesh(DomainSpec.unit_disk(), SingularitySpec.none(), h_max=h)
        errs.append(math.pi - mesh.area())
    assert errs[1] < 0.4 * errs[0]


def test_ellipse_area():
    mesh = build_mesh(DomainSpec.ellipse(1.3, 0.8), SingularitySpec.none(), h_max=0.1)
    assert abs(mesh.area() - math.pi * 1.3 * 0.8) < 0.05


def test_boundary_mask_matches_edges(coarse_problem):
    mesh = coarse_problem.mesh
    edges = mesh.boundary_edges()
    on_edges = np.unique(edges)
    assert np.array_equal(np.sort(np.flatnonzero(mesh.boundary_mask)), on_edges)
    r = np.linalg.norm(mesh.vertices[mesh.boundary_mask], axis=1)
    assert np.allclose(r, 1.0, atol=1e-9)


def test_boundary_distance(coarse_problem):
    mesh = coarse_problem.mesh
    d = mesh.boundary_distance()
    assert np.all(d >= 0)
    assert d[mesh.boundary_mask].max() < 1e-9
    r = np.linalg.norm(mesh.vertices, axis=1)
    # the polygonal boundary sits inside the circle by a chord sagitta h^2/8
    assert np.allclose(d, 1.0 - r, atol=0.14 ** 2 / 4.0)
    assert np.all(d <= 1.0 - r + 1e-9)


def test_locate_and_eval_field(coarse_problem):
    mesh = coarse_problem.mesh
    # a linear field is reproduced exactly by P1 interpolation
    field = 2.0 * mesh.vertices[:, 0] - 0.7 * mesh.vertices[:, 1] + 0.3
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.5, 0.5, size=(20, 2))
    vals = mesh.eval_field(field, pts)
    assert np.allclose(vals, 2.0 * pts[:, 0] - 0.7 * pts[:, 1] + 0.3, atol=1e-12)


def test_locate_rejects_outside(coarse_problem):
    with pytest.raises(Exception):
        coarse_problem.mesh.locate(np.array([2.0, 2.0]))


def test_green_function_disk_center():
    mesh = build_mesh(DomainSpec.unit_disk(), SingularitySpec.of((0.0, 0.0, 0.5)),
                      h_max=0.1)
    g = green_function(mesh, (0.0, 0.0))
    assert np.isinf(g.values[g.vertex])
    # closed form on the disk, pole at center: G = -log r / (2 pi)
    r = np.linalg.norm(mesh.vertices, axis=1)
    sample = (r > 0.2) & (r < 0.9)
    expected = -np.log(r[sample]) / (2.0 * math.pi)
    assert np.max(np.abs(g.values[sample] - expected)) < 5e-3


def test_green_function_requires_vertex(coarse_problem):
    with pytest.raises(ConfigError):
        green_function(coarse_problem.mesh, (0.123456, 0.654321))


def test_weight_local_model():
    alpha = 0.5
    sing = SingularitySpec.of((0.0, 0.0, alpha))
    mesh = build_mesh(DomainSpec.unit_disk(), sing, h_max=0.1)
    w = build_weight(mesh, sing)
    v = w.sing_vertices[0]
    assert w.values[v] == 0.0
    assert w.exponents[0] == pytest.approx(2 * alpha)
    # h ~ c r^(2 alpha) against vertices near the pole
    r = np.linalg.norm(mesh.vertices, axis=1)
    near = (r > 1e-6) & (r < 0.05)
    model = w.coefficients[0] * r[near] ** (2 * alpha)
    assert np.max(np.abs(w.values[near] / model - 1.0)) < 0.1


def test_weight_floor():
    mesh = build_mesh(DomainSpec.unit_disk(), SingularitySpec.none(), h_max=0.2)
    w = uniform_weight(mesh)
    wn = w.with_floor(10)
    assert wn.floor == pytest.approx(0.1)
    assert wn.vertex_values()[0] == pytest.approx(1.1)
    assert wn.sup() == pytest.approx(1.1)
    with pytest.raises(InvalidWeight):
        w.with_floor(0)


def test_singularity_validation():
    with pytest.raises(InvalidSingularity):
        SingularitySpec.of((0.0, 0.0, -0.5)).validate()
    with pytest.raises(InvalidSingularity):
        SingularitySpec.of((0.1, 0.1, 0.5), (0.1, 0.1, 0.3)).validate()
    SingularitySpec.of((0.1, 0.1, 0.5), (-0.2, 0.3, 0.3)).validate()


def test_mesh_grades_toward_singularity():
    sing = SingularitySpec.of((0.5, 0.0, 0.05))
    mesh = build_mesh(DomainSpec.unit_disk(), sing, h_max=0.1)
    d = np.linalg.norm(mesh.vertices - np.array([0.5, 0.0]), axis=1)
    near = mesh.size_target[d < 0.05].min()
    far = mesh.size_target[d > 0.7].max()
    assert near < 0.2 * far


def test_write_mesh(tmp_path, coarse_problem):
    mesh = coarse_problem.mesh
    write_mesh(mesh, str(tmp_path / "m"))
    nodes = (tmp_path / "m_nodes.txt").read_text().strip().splitlines()
    elems = (tmp_path / "m_elements.txt").read_text().strip().splitlines()
    assert len(nodes) == mesh.n_vertices
    assert len(elems) == len(mesh.triangles)
    x, y, bnd = nodes[0].split()
    assert float(x) == mesh.vertices[0, 0]
    assert int(bnd) in (0, 1)


# ---------------------------------------------------------------------------
# point-to-segment distance kernel against a brute-force reference

KERNEL_MESHES = {
    "disk": (DomainSpec.unit_disk(), SingularitySpec.none(), 0.1),
    "ellipse": (DomainSpec.ellipse(1.3, 0.8), SingularitySpec.none(), 0.1),
    "polygon": (DomainSpec.polygon([(0.0, 0.0), (1.2, 0.0), (1.4, 0.9), (0.3, 1.1)]),
                SingularitySpec.none(), 0.1),
    "graded_disk": (DomainSpec.unit_disk(boundary_size=0.03), SingularitySpec.none(), 0.15),
    "singular_disk": (DomainSpec.unit_disk(), SingularitySpec.of((0.5, 0.0, 0.05)), 0.1),
}


@pytest.fixture(scope="module")
def kernel_meshes():
    return {name: build_mesh(dom, sing, h_max=h)
            for name, (dom, sing, h) in KERNEL_MESHES.items()}


def brute_distance(pts, a, b):
    """Every point against every segment: clipped projection, then the norm."""
    ab = b - a
    denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    rel = pts[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("pij,ij->pi", rel, ab) / denom[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    return np.linalg.norm(pts[:, None, :] - proj, axis=2).min(axis=1, initial=np.inf)


def assert_matches_reference(pts, a, b, cap):
    d = _point_segment_distance(pts, a, b, cap)
    ref = brute_distance(pts, a, b)
    below = ref < cap
    assert d.shape == (len(pts),)
    assert np.array_equal(d[below], ref[below])
    assert np.all(d[~below] >= cap)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_MESHES)),
       cap=st.one_of(st.just(math.inf), st.floats(0.01, 0.5)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_point_segment_distance_matches_brute_force(kernel_meshes, name, cap, seed):
    mesh = kernel_meshes[name]
    edges = mesh.boundary_edges()
    rng = np.random.default_rng(seed)
    # any subset of the boundary is a valid segment set, and so are points
    # off the mesh: quadrature points, vertices and a box around the domain
    keep = np.sort(rng.choice(len(edges), size=rng.integers(1, len(edges) + 1),
                              replace=False))
    a = mesh.vertices[edges[keep, 0]]
    b = mesh.vertices[edges[keep, 1]]
    quad_pts = plain_quadrature(mesh).pos
    lo, hi = mesh.vertices.min(axis=0) - 0.2, mesh.vertices.max(axis=0) + 0.2
    pts = np.vstack([mesh.vertices,
                     quad_pts[rng.choice(len(quad_pts), size=500)],
                     rng.uniform(lo, hi, size=(200, 2))])
    assert_matches_reference(pts, a, b, cap)


@pytest.mark.parametrize("cap", [0.1, math.inf])
def test_point_segment_distance_degenerate_inputs(cap):
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(300, 2))
    seg = np.array([[0.2, -0.1]]), np.array([[0.5, 0.3]])
    assert_matches_reference(pts, *seg, cap)
    # a zero-length segment is a point, also when a query point sits on it
    dot = np.array([[0.1, 0.1]])
    assert_matches_reference(np.vstack([pts, dot]), dot, dot.copy(), cap)
    mixed_a = np.vstack([seg[0], dot])
    mixed_b = np.vstack([seg[1], dot])
    assert_matches_reference(pts, mixed_a, mixed_b, cap)
    empty = _point_segment_distance(np.zeros((0, 2)), *seg, cap)
    assert empty.shape == (0,)


@pytest.mark.parametrize("name,delta", [("disk", 0.1), ("ellipse", 0.3),
                                        ("polygon", 0.1), ("graded_disk", 0.05),
                                        ("singular_disk", 0.2)])
def test_collar_matches_brute_force_collar(kernel_meshes, name, delta):
    mesh = kernel_meshes[name]
    edges = mesh.boundary_edges()
    a, b = mesh.vertices[edges[:, 0]], mesh.vertices[edges[:, 1]]
    quad = plain_quadrature(mesh)
    factors = (brute_distance(quad.pos, a, b) < delta).astype(float)
    m = quad.assemble_load(None)
    rho = quad.assemble_load(factors) / m
    rho /= float(m @ rho)
    assert np.array_equal(collar_density(mesh, delta), rho)
