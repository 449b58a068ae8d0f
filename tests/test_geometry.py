import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from gelfand import geometry
from gelfand.errors import ConfigError, InvalidDelta, InvalidSingularity, InvalidWeight
from gelfand.fem import plain_quadrature
from gelfand.freeenergy import collar_density
from gelfand.geometry import (DomainSpec, SingularitySpec, _point_segment_distance,
                              _Qhull, _Shape, _smooth, build_mesh, build_weight,
                              green_function, uniform_weight)
from mesh_tools import (boundary_distance, brute_distance, build_mesh_qhull_every_round,
                        eval_field, locate, smooth_add_at, triangle_set, write_mesh)


def test_disk_mesh_quality(coarse_problem):
    mesh = coarse_problem.mesh
    assert mesh.min_angle() >= 15.0
    assert np.all(mesh.areas > 0)
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


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (2.0, 1.0), (1.3, 0.8), (4.0, 0.5)])
def test_offset_rings_lie_on_shrunk_ellipses(a, b):
    # the graded layers' rings are sampled in parameter space and evaluated
    # on the exact ellipse with semi-axes a - d, b - d
    shape = _Shape(DomainSpec.ellipse(a, b))
    for spacing in (lambda x: np.full(len(x), 0.03),
                    lambda x: 0.02 + 0.03 * np.abs(x[:, 0])):
        for d in (0.01, 0.1, 0.45 * min(a, b)):
            ring = shape.offset_ring(d, spacing)
            assert len(ring) >= 8
            residual = (ring[:, 0] / (a - d)) ** 2 + (ring[:, 1] / (b - d)) ** 2 - 1.0
            assert np.abs(residual).max() <= 1e-14, d
        assert len(shape.offset_ring(min(a, b), spacing)) == 0


@pytest.mark.parametrize("bsize, sing, h_max", [
    (None, SingularitySpec.none(), 0.1),
    (0.03, SingularitySpec.none(), 0.15),
    (None, SingularitySpec.of((0.5, 0.0, 0.05)), 0.1)])
def test_unit_disk_is_the_ellipse_with_unit_axes(bsize, sing, h_max):
    disk = build_mesh(DomainSpec.unit_disk(boundary_size=bsize), sing, h_max)
    ellipse = build_mesh(DomainSpec.ellipse(1, 1, boundary_size=bsize), sing, h_max)
    for name in ("vertices", "triangles", "boundary_mask", "size_target",
                 "singular_vertices"):
        assert getattr(disk, name).tobytes() == getattr(ellipse, name).tobytes(), name


def test_unknown_shape_is_refused():
    with pytest.raises(ConfigError, match="unknown shape"):
        DomainSpec("triangle")


def test_boundary_mask_matches_edges(coarse_problem):
    mesh = coarse_problem.mesh
    edges = mesh.boundary_edges()
    on_edges = np.unique(edges)
    assert np.array_equal(np.sort(np.flatnonzero(mesh.boundary_mask)), on_edges)
    r = np.linalg.norm(mesh.vertices[mesh.boundary_mask], axis=1)
    assert np.allclose(r, 1.0, atol=1e-9)


def test_boundary_distance(coarse_problem):
    mesh = coarse_problem.mesh
    d = boundary_distance(mesh)
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
    vals = eval_field(mesh, field, pts)
    assert np.allclose(vals, 2.0 * pts[:, 0] - 0.7 * pts[:, 1] + 0.3, atol=1e-12)


def test_locate_rejects_outside(coarse_problem):
    with pytest.raises(Exception):
        locate(coarse_problem.mesh, np.array([2.0, 2.0]))


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


HEXAGON = np.array([(math.cos(t), math.sin(t)) for t in np.arange(6) * math.pi / 3])
RHOMBUS = np.array([(-1.0, 0.0), (1.0, 0.0), (0.0, 0.5), (0.0, -0.5)])


def test_lawson_certificate_accepts_a_strictly_delaunay_quad():
    # the shared edge is the short diagonal, far from cocircular
    raw = _Qhull(RHOMBUS, n_fixed=4)
    assert triangle_set(raw.simplices) == {(0, 2, 3), (1, 2, 3)}
    assert raw.certifies(RHOMBUS)
    # a free interior point off the centre of a fixed hexagon, moved a little
    points = np.vstack([HEXAGON, [(0.01, 0.02)]])
    raw = _Qhull(points, n_fixed=6)
    points[6] = (-0.05, 0.03)
    assert raw.certifies(points)
    assert triangle_set(raw.simplices) == triangle_set(Delaunay(points).simplices)


def test_lawson_certificate_refuses_an_edge_moved_past_the_circle():
    raw = _Qhull(RHOMBUS, n_fixed=4)
    moved = RHOMBUS * [1.0, 3.0]
    # both triangles keep their orientation, but (1, 0) now lies inside the
    # circle through (-1, 0), (0, 1.5) and (0, -1.5)
    assert (geometry._signed_areas(moved, raw.simplices) > 0).all()
    assert not raw.certifies(moved)
    assert triangle_set(Delaunay(moved).simplices) != triangle_set(raw.simplices)


def test_lawson_certificate_refuses_a_cocircular_tie():
    square = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    raw = _Qhull(square, n_fixed=4)
    # the tie is among fixed points, so it is found once, when qhull runs
    assert not raw.reusable and not raw.certifies(square)


def test_lawson_certificate_refuses_an_inverted_triangle():
    points = np.vstack([HEXAGON, [(0.0, 0.0)]])
    raw = _Qhull(points, n_fixed=6)
    # just past the middle of the side from (1, 0) to (1/2, sqrt(3)/2): the
    # folded triangle's circle holds both vertices across its other edges,
    # so only the orientation clause can refuse it
    points[6] = 0.505 * (HEXAGON[0] + HEXAGON[1])
    assert (geometry._signed_areas(points, raw.simplices) < 0).sum() == 1
    assert not raw.certifies(points)


def test_lawson_certificate_refuses_an_unused_point():
    # qhull leaves the second copy of the centre out of the triangulation
    points = np.vstack([HEXAGON, [(0.0, 0.0), (0.0, 0.0)]])
    raw = _Qhull(points, n_fixed=6)
    assert 7 not in raw.simplices
    assert not raw.certifies(points)


def test_lawson_certificate_refuses_a_free_hull_vertex():
    # a free hull vertex could move inward, and the old triangulation would
    # then no longer cover the hull, though each of its edges stayed Delaunay
    points = np.vstack([HEXAGON, [(0.0, 0.0)]])
    raw = _Qhull(points, n_fixed=5)
    assert not raw.reusable and not raw.certifies(points)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1e-4, 1e-3, 3e-3, 1e-2, 0.05]))
def test_lawson_certificate_implies_qhull_agrees(seed, scale):
    # a fixed square frame around a jittered 6 x 6 lattice, whose points then move
    rng = np.random.default_rng(seed)
    g = np.linspace(-0.8, 0.8, 6)
    lattice = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    points = np.vstack([[(-1.5, -1.5), (1.5, -1.5), (1.5, 1.5), (-1.5, 1.5)],
                        lattice + rng.uniform(-0.1, 0.1, lattice.shape)])
    raw = _Qhull(points, n_fixed=4)
    moved = points.copy()
    moved[4:] += scale * rng.standard_normal(lattice.shape)
    if raw.certifies(moved):
        assert triangle_set(raw.simplices) == triangle_set(Delaunay(moved).simplices)


L_SHAPE = DomainSpec.polygon([(0, 0), (1, 0), (1, 0.5), (0.5, 0.5), (0.5, 1), (0, 1)])
QHULL_MESHES = {
    "disk_h0.08": (DomainSpec.unit_disk(), SingularitySpec.none(), 0.08),
    "disk_h0.05": (DomainSpec.unit_disk(), SingularitySpec.none(), 0.05),
    "disk_h0.03": (DomainSpec.unit_disk(), SingularitySpec.none(), 0.03),
    "ellipse_1.3x0.8": (DomainSpec.ellipse(1.3, 0.8), SingularitySpec.none(), 0.05),
    "ellipse_2x1": (DomainSpec.ellipse(2.0, 1.0), SingularitySpec.none(), 0.05),
    "ellipse_4x0.5": (DomainSpec.ellipse(4.0, 0.5), SingularitySpec.none(), 0.05),
    "alpha1_origin": (DomainSpec.unit_disk(), SingularitySpec.of((0.0, 0.0, 1.0)), 0.05),
    "alpha0.05_off_centre": (DomainSpec.unit_disk(), SingularitySpec.of((0.5, 0.0, 0.05)),
                             0.05),
    "graded_boundary": (DomainSpec.unit_disk(boundary_size=0.01), SingularitySpec.none(), 0.05),
    "rectangle_2x1": (DomainSpec.polygon([(-1, -0.5), (1, -0.5), (1, 0.5), (-1, 0.5)]),
                      SingularitySpec.none(), 0.05),
    "l_shape": (L_SHAPE, SingularitySpec.none(), 0.05),
}


@pytest.mark.parametrize("name", sorted(QHULL_MESHES))
def test_mesh_equals_qhull_every_round(name):
    mesh = build_mesh(*QHULL_MESHES[name])
    ref = build_mesh_qhull_every_round(*QHULL_MESHES[name])
    assert triangle_set(mesh.triangles) == triangle_set(ref.triangles)
    scale = np.abs(ref.vertices).max()
    assert np.abs(mesh.vertices - ref.vertices).max() <= 1e-15 * scale
    assert np.array_equal(mesh.boundary_mask, ref.boundary_mask)
    assert np.array_equal(mesh.singular_vertices, ref.singular_vertices)


@pytest.mark.parametrize("name, calls", [("disk_h0.05", 1),
                                         ("graded_boundary", 1 + geometry.SMOOTHING_ROUNDS),
                                         ("l_shape", 1 + geometry.SMOOTHING_ROUNDS)])
def test_qhull_calls_per_mesh(monkeypatch, name, calls):
    # the default disk keeps its first triangulation through all smoothing
    # passes; the graded disk and the L-shape have a cocircular tie after
    # each of them
    seen = []

    def counting(points):
        seen.append(len(points))
        return Delaunay(points)

    monkeypatch.setattr(geometry, "Delaunay", counting)
    build_mesh(*QHULL_MESHES[name])
    assert len(seen) == calls


@pytest.mark.parametrize("name, tested", [("disk_h0.05", geometry.SMOOTHING_ROUNDS),
                                          ("graded_boundary", 0), ("l_shape", 0)])
def test_certificate_tests_edges_only_when_it_can_hold(monkeypatch, name, tested):
    # the graded disk's and the L-shape's ties lie among fixed points: found
    # when qhull runs, they make every later certifies refuse untested
    counts = {"certifies": 0, "tested": 0}
    inside, certifies, locally_delaunay = [], _Qhull.certifies, geometry._locally_delaunay

    def tested_edges(*args):
        counts["tested"] += bool(inside)
        return locally_delaunay(*args)

    def certifying(self, points):
        counts["certifies"] += 1
        inside.append(True)
        try:
            return certifies(self, points)
        finally:
            inside.pop()

    monkeypatch.setattr(geometry, "_locally_delaunay", tested_edges)
    monkeypatch.setattr(_Qhull, "certifies", certifying)
    build_mesh(*QHULL_MESHES[name])
    assert counts == {"certifies": geometry.SMOOTHING_ROUNDS, "tested": tested}


@pytest.mark.parametrize("name", ["disk_h0.05", "alpha1_origin", "graded_boundary"])
def test_smooth_bincount_equals_add_at(name):
    domain, sing, h_max = QHULL_MESHES[name]
    mesh = build_mesh(domain, sing, h_max)
    shape = _Shape(domain)
    n_fixed = int(mesh.boundary_mask.sum())
    ours = _smooth(mesh.vertices, mesh.triangles, n_fixed, shape)
    ref = smooth_add_at(mesh.vertices, mesh.triangles, n_fixed, shape)
    assert ours.tobytes() == ref.tobytes()
    assert not np.array_equal(ours, mesh.vertices)


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
    "graded_ellipse": (DomainSpec.ellipse(2, 1, boundary_size=0.03), SingularitySpec.none(), 0.15),
    "singular_disk": (DomainSpec.unit_disk(), SingularitySpec.of((0.5, 0.0, 0.05)), 0.1),
}


@pytest.fixture(scope="module")
def kernel_meshes():
    return {name: build_mesh(dom, sing, h_max=h)
            for name, (dom, sing, h) in KERNEL_MESHES.items()}


def assert_matches_reference(pts, a, b, cap):
    d = _point_segment_distance(pts, a, b, cap)
    ref = brute_distance(pts, a, b)
    below = ref < cap
    assert d.shape == (len(pts),)
    assert np.array_equal(d[below], ref[below])
    assert np.all(d[~below] >= cap)


def shell_points(rng, a, b, radius, lo, hi, count=100):
    """Points at radius from their nearest segment midpoint, up to a few
    1e-12 relative on either side.  Random points beyond radius are pulled in
    along the ray to their nearest midpoint, which stays the nearest."""
    mid = 0.5 * (a + b)
    pts = rng.uniform(lo - radius - 0.5, hi + radius + 0.5, size=(20 * count, 2))
    d = np.linalg.norm(pts[:, None, :] - mid[None, :, :], axis=2)
    k = d.argmin(axis=1)
    d0 = d[np.arange(len(pts)), k]
    beyond = np.flatnonzero(d0 > radius)[:count]
    k, d0 = k[beyond], d0[beyond]
    unit = (pts[beyond] - mid[k]) / d0[:, None]
    rel = rng.choice([-2e-12, -1e-12, 0.0, 1e-12, 2e-12, 3e-12], size=len(beyond))
    return mid[k] + (radius * (1.0 + rel))[:, None] * unit


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(KERNEL_MESHES)),
       cap=st.one_of(st.just(math.inf), st.floats(0.01, 0.5)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_point_segment_distance_matches_brute_force(kernel_meshes, name, cap, seed):
    mesh = kernel_meshes[name]
    edges = mesh.boundary_edges()
    rng = np.random.default_rng(seed)
    # any subset of the boundary is a valid segment set, and so are points
    # off the mesh: quadrature points, vertices, a box around the domain and
    # points far outside it
    keep = np.sort(rng.choice(len(edges), size=rng.integers(1, len(edges) + 1),
                              replace=False))
    a = mesh.vertices[edges[keep, 0]]
    b = mesh.vertices[edges[keep, 1]]
    quad_pts = plain_quadrature(mesh).pos
    lo, hi = mesh.vertices.min(axis=0) - 0.2, mesh.vertices.max(axis=0) + 0.2
    parts = [mesh.vertices, quad_pts[rng.choice(len(quad_pts), size=500)],
             rng.uniform(lo, hi, size=(200, 2)),
             rng.uniform(lo - 50.0, hi + 50.0, size=(50, 2))]
    if math.isfinite(cap):
        # the kernel's nearest-midpoint search stops near cap + L (L the
        # largest half-length); points on that shell straddle its bound
        reach = 0.5 * float(np.linalg.norm(b - a, axis=1).max())
        parts.append(shell_points(rng, a, b, cap + reach, lo, hi))
    assert_matches_reference(np.vstack(parts), a, b, cap)


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
                                        ("graded_ellipse", 0.05),
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


@pytest.mark.parametrize("name", sorted(KERNEL_MESHES))
def test_collar_delta_at_the_inradius_edge(kernel_meshes, name):
    # delta must lie below the inradius r, the largest vertex distance to the
    # boundary; the check scans the vertices only as far as delta, and the
    # message still reports r
    mesh = kernel_meshes[name]
    edges = mesh.boundary_edges()
    r = float(brute_distance(mesh.vertices, mesh.vertices[edges[:, 0]],
                             mesh.vertices[edges[:, 1]]).max())
    assert collar_density(mesh, r * (1.0 - 1e-9)).shape == (mesh.n_vertices,)
    for delta in (r, r * (1.0 + 1e-9), 0.0, -0.1, math.nan):
        with pytest.raises(InvalidDelta, match=re.escape(f"(0, {r:.4g}), got")):
            collar_density(mesh, delta)
