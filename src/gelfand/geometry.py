"""Domains, graded triangulations, Green functions and singular weights.

A JSON domain config (`domain_from_config`) becomes a DomainSpec, a
SingularitySpec and h_max.  The mesh generator produces conforming Delaunay
triangulations of ellipses, the unit disk among them, and of simple polygons.
Each prescribed singular point is placed as an exact mesh vertex surrounded
by concentric rings whose radii halve toward the point, so element diameters
decrease geometrically there.  A hexagonal background lattice fills the rest
of the domain and a few Laplacian smoothing passes even out the transition
zones.  qhull triangulates the points once; after each smoothing pass it runs
again only when a Lawson certificate (every triangle keeps its orientation
and every interior edge stays strictly locally Delaunay) fails, so the
triangle set is always the one qhull would return for the moved points.

The Dirichlet Green function G_p is represented as the explicit logarithmic
kernel plus a finite-element harmonic remainder.  This keeps pointwise
accuracy near p; the value at p itself is +inf, which downstream weight
construction maps to h(p) = 0.  A Mesh owns the operators of the mesh alone
(stiffness, factored Dirichlet block, plain quadrature, mass), so every Green
function, weight and MeanFieldProblem on it solves through one factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import ConfigError, InvalidSingularity, InvalidWeight, MeshFailure

# Grading ratio toward singular points, minimum-angle threshold and the
# smoothing rounds of every mesh.
GRADING_RATIO = 0.5
RING_POINTS = 12
MIN_ANGLE_DEG = 15.0
SMOOTHING_ROUNDS = 3
# Relative margin of the in-circle test that lets smoothing keep a Delaunay
# triangulation (see _Qhull).
LAWSON_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# specifications


@dataclass(frozen=True)
class DomainSpec:
    """Geometric description of the computational domain.

    shape is one of "unit_disk", "ellipse", "polygon".  The unit disk is the
    ellipse with the default semi-axes a = b = 1 and is meshed exactly as
    DomainSpec.ellipse(1, 1).  boundary_size is an optional resolution hint:
    when smaller than the interior mesh size the boundary is sampled at that
    spacing and graded layers bridge the gap: the layer at depth d is a ring
    of points on the exact shrunk ellipse with semi-axes a - d, b - d
    (supported for the disk and the ellipse, not for polygons).
    """

    shape: str
    a: float = 1.0
    b: float = 1.0
    vertices: tuple = ()
    boundary_size: float | None = None

    def __post_init__(self):
        if self.shape not in ("unit_disk", "ellipse", "polygon"):
            raise ConfigError(f"unknown shape {self.shape!r}")

    @staticmethod
    def unit_disk(boundary_size=None):
        return DomainSpec("unit_disk", boundary_size=boundary_size)

    @staticmethod
    def ellipse(a, b, boundary_size=None):
        if a <= 0 or b <= 0:
            raise ConfigError(f"ellipse semi-axes must be positive, got {a}, {b}")
        return DomainSpec("ellipse", a=float(a), b=float(b), boundary_size=boundary_size)

    @staticmethod
    def polygon(vertices):
        verts = tuple(tuple(map(float, v)) for v in vertices)
        if len(verts) < 3:
            raise ConfigError("polygon needs at least 3 vertices")
        return DomainSpec("polygon", vertices=verts)


@dataclass(frozen=True)
class SingularitySpec:
    """Locations p_j and strengths alpha_j > 0 of the weight singularities."""

    points: np.ndarray
    alphas: np.ndarray

    @staticmethod
    def none():
        return SingularitySpec(np.zeros((0, 2)), np.zeros(0))

    @staticmethod
    def of(*pairs):
        """Build from (x, y, alpha) triples."""
        if not pairs:
            return SingularitySpec.none()
        arr = np.asarray(pairs, dtype=float)
        return SingularitySpec(arr[:, :2].copy(), arr[:, 2].copy())

    def __len__(self):
        return len(self.alphas)

    def validate(self):
        pts = np.asarray(self.points, dtype=float)
        al = np.asarray(self.alphas, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) != len(al):
            raise InvalidSingularity("singularity points/alphas shapes do not match")
        if np.any(~np.isfinite(pts)) or np.any(~np.isfinite(al)):
            raise InvalidSingularity("singularity data must be finite")
        if np.any(al <= 0):
            raise InvalidSingularity(f"alphas must be positive, got {al}")
        if len(pts) > 1:
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            np.fill_diagonal(d, np.inf)
            if d.min() < 1e-12:
                raise InvalidSingularity("duplicate singular points")


def domain_from_config(cfg: dict):
    """Parse the JSON document layout into specs.

    Expected keys: schema (=1), shape, params, singularities, mesh.h_max.
    Returns (DomainSpec, SingularitySpec, h_max).
    """
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    schema = cfg.get("schema", 1)
    if schema != 1:
        raise ConfigError(f"unsupported schema version {schema}")
    try:
        shape = cfg["shape"]
    except KeyError:
        raise ConfigError("config is missing required key 'shape'") from None
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'params' must be an object")
    bsize = params.get("boundary_size")
    if bsize is not None:
        bsize = config_number(bsize, "params.boundary_size", positive=True)
    if shape == "unit_disk":
        dom = DomainSpec.unit_disk(boundary_size=bsize)
    elif shape == "ellipse":
        try:
            a, b = params["a"], params["b"]
        except KeyError as e:
            raise ConfigError(f"ellipse params need key {e}") from None
        dom = DomainSpec.ellipse(config_number(a, "params.a", positive=True),
                                 config_number(b, "params.b", positive=True),
                                 boundary_size=bsize)
    elif shape == "polygon":
        try:
            vertices = params["vertices"]
        except KeyError:
            raise ConfigError("polygon params need key 'vertices'") from None
        if not isinstance(vertices, list):
            raise ConfigError("polygon vertices must be a list of [x, y] pairs")
        dom = DomainSpec.polygon([config_point(v, f"polygon vertex {i}")
                                  for i, v in enumerate(vertices)])
    else:
        raise ConfigError(f"unknown shape {shape!r}")

    sing_cfg = cfg.get("singularities", [])
    if not isinstance(sing_cfg, list):
        raise ConfigError("'singularities' must be a list")
    triples = []
    for i, item in enumerate(sing_cfg):
        try:
            x, y, alpha = item["x"], item["y"], item["alpha"]
        except (KeyError, TypeError):
            raise ConfigError("each singularity needs keys x, y, alpha") from None
        what = f"singularity {i}"
        triples.append((config_number(x, f"{what} x"), config_number(y, f"{what} y"),
                        config_number(alpha, f"{what} alpha", positive=True)))
    sing = SingularitySpec.of(*triples)

    mesh_cfg = cfg.get("mesh", {})
    try:
        h_max = mesh_cfg["h_max"]
    except (KeyError, TypeError):
        raise ConfigError("config is missing mesh.h_max") from None
    return dom, sing, config_number(h_max, "mesh.h_max", positive=True)


def config_number(value, what, positive=False):
    """A config value as a finite float, positive if asked, or ConfigError."""
    try:
        x = float(value)
        if math.isfinite(x) and (x > 0 or not positive):
            return x
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{what} must be a finite{' positive' * positive} number, got {value!r}")


def config_point(value, what):
    """A config [x, y] pair as a tuple of finite floats, or ConfigError."""
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{what} must be an [x, y] pair, got {value!r}")
    return tuple(config_number(c, what) for c in value)


# ---------------------------------------------------------------------------
# shape helpers


class _Shape:
    """The two boundary models: a simple polygon, or the ellipse
    (a cos t, b sin t), of which the unit disk is the case a = b = 1."""

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        if spec.shape == "polygon":
            self._poly = np.asarray(spec.vertices, dtype=float)
            if _polygon_area(self._poly) < 0:
                self._poly = self._poly[::-1]
            _check_simple(self._poly)
            self._dense = _densify_polygon(self._poly, 4096)
        else:
            self._dense = _ellipse(spec.a, spec.b, _ellipse_params())
        self._tree = cKDTree(self._dense)

    def bbox(self):
        return self._dense.min(axis=0), self._dense.max(axis=0)

    def inside(self, pts):
        pts = np.atleast_2d(pts)
        s = self.spec
        if s.shape == "polygon":
            return _points_in_polygon(pts, self._poly)
        return (pts[:, 0] / s.a) ** 2 + (pts[:, 1] / s.b) ** 2 < 1.0

    def boundary_distance(self, pts):
        """Unsigned distance to the boundary curve: exact on a circle, to the
        dense samples otherwise."""
        pts = np.atleast_2d(pts)
        s = self.spec
        if s.shape != "polygon" and s.a == s.b:
            return np.abs(s.a - np.linalg.norm(pts, axis=1))
        d, _ = self._tree.query(pts)
        return d

    def boundary_points(self, spacing_fn):
        """Sample the boundary so that local spacing follows spacing_fn."""
        s = self.spec
        if s.shape == "polygon":
            return _sample_polygon(self._poly, spacing_fn)
        return _sample_ellipse(s.a, s.b, spacing_fn)

    def offset_ring(self, dist, spacing_fn):
        """Points on the shrunk ellipse with semi-axes a - dist, b - dist
        (ellipse only); none once dist reaches the shorter semi-axis."""
        a, b = self.spec.a - dist, self.spec.b - dist
        if min(a, b) <= 0.0:
            return np.zeros((0, 2))
        return _sample_ellipse(a, b, spacing_fn)


def _polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def _check_simple(poly):
    """Reject self-intersecting polygons (non-adjacent edge crossings)."""
    n = len(poly)
    segs = [(poly[i], poly[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_cross(*segs[i], *segs[j]):
                raise ConfigError("polygon is self-intersecting")


def _segments_cross(a, b, c, d):
    def orient(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    return (o1 * o2 < 0) and (o3 * o4 < 0)


def _points_in_polygon(pts, poly):
    """Ray-crossing test, vectorized over pts."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(poly)
    for i in range(n):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % n]
        cond = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xin = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= cond & (x < xin)
    return inside


def _densify_polygon(poly, n_total):
    lens = np.linalg.norm(np.roll(poly, -1, axis=0) - poly, axis=1)
    out = []
    for i, L in enumerate(lens):
        k = max(2, int(round(n_total * L / lens.sum())))
        t = np.linspace(0, 1, k, endpoint=False)[:, None]
        out.append(poly[i] + t * (poly[(i + 1) % len(poly)] - poly[i]))
    return np.vstack(out)


def _ellipse_params():
    return np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)


def _ellipse(a, b, t):
    return np.column_stack([a * np.cos(t), b * np.sin(t)])


def _sample_ellipse(a, b, spacing_fn):
    """Points on the ellipse (a cos t, b sin t) with spacing ~ spacing_fn(x).

    Works in "units" along a dense parameter grid: du = ds / spacing(s).
    Rounding the total unit count makes the loop close exactly while keeping
    local spacing proportional.  The spacing is decided in parameter space
    and every point is evaluated on the exact curve.
    """
    t = _ellipse_params()
    dense = _ellipse(a, b, t)
    seg = np.linalg.norm(np.diff(np.vstack([dense, dense[:1]]), axis=0), axis=1)
    u = np.concatenate([[0.0], np.cumsum(seg / spacing_fn(dense))])
    k = max(8, int(round(u[-1])))
    return _ellipse(a, b, np.interp(np.arange(k) * u[-1] / k, u, np.append(t, 2 * np.pi)))


def _sample_polygon(poly, spacing_fn):
    """Subdivide each edge by the spacing function, corners kept exactly."""
    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        L = np.linalg.norm(q - p)
        probe = p + np.linspace(0, 1, 17)[:, None] * (q - p)
        h_loc = spacing_fn(probe).min()
        k = max(1, int(round(L / h_loc)))
        t = np.arange(k) / k
        out.append(p + t[:, None] * (q - p))
    return np.vstack(out)


# ---------------------------------------------------------------------------
# mesh


@dataclass
class Mesh:
    """Conforming triangulation with singularity bookkeeping.

    vertices        (n, 2) coordinates
    triangles       (m, 3) CCW vertex indices
    boundary_mask   (n,) True on boundary vertices
    size_target     (n,) local target element size used during generation
    singular_vertices  (k,) vertex index of each singular point
    areas, stiffness, dirichlet (the factored interior block), plain (the
    Lebesgue rule), mass (the exact P1 mass matrix) and lumped_mass (plain's
    load of 1): formed on first read, shared by all weights and problems
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_mask: np.ndarray
    size_target: np.ndarray
    singular_vertices: np.ndarray
    domain: DomainSpec
    singularities: SingularitySpec
    h_max: float

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    @cached_property
    def areas(self):
        return _signed_areas(self.vertices, self.triangles)

    def area(self):
        return float(self.areas.sum())

    @cached_property
    def stiffness(self):
        from .fem import assemble_stiffness  # deferred: fem imports Mesh
        return assemble_stiffness(self)

    @cached_property
    def dirichlet(self):
        from .fem import DirichletSolver  # deferred: fem imports Mesh
        return DirichletSolver(self.stiffness, self.boundary_mask)

    @cached_property
    def plain(self):
        from .fem import plain_quadrature  # deferred: fem imports Mesh
        return plain_quadrature(self)

    @cached_property
    def mass(self):
        from .fem import assemble_mass  # deferred: fem imports Mesh
        return assemble_mass(self)

    @cached_property
    def lumped_mass(self):
        return self.plain.assemble_load(None)

    def min_angle(self):
        """Smallest interior angle over all triangles, in degrees."""
        p = self.vertices[self.triangles]
        u, v = np.roll(p, -1, axis=1) - p, np.roll(p, -2, axis=1) - p
        c = np.einsum("tid,tid->ti", u, v) / (
            np.linalg.norm(u, axis=2) * np.linalg.norm(v, axis=2))
        return float(np.degrees(np.arccos(np.clip(c, -1, 1))).min())

    def boundary_edges(self):
        """Edges lying on the boundary, as (n_b, 2) vertex index pairs (lo, hi)."""
        key = self._boundary_keys()
        return np.column_stack([key // self.n_vertices, key % self.n_vertices])

    def _boundary_keys(self):
        """Sorted int64 key lo * n + hi of each edge that only one triangle has."""
        e = np.sort(self.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        key, counts = np.unique(e[:, 0].astype(np.int64) * self.n_vertices + e[:, 1],
                                return_counts=True)
        return key[counts == 1]


def _point_segment_distance(pts, a, b, cap=np.inf):
    """Min distance from each point to a set of segments (a_i, b_i).

    Only the segments that can be nearest are evaluated.  With midpoints m_i
    and half-lengths at most L, dist(p, s_i) >= |p - m_i| - L, and the
    nearest midpoint, at d0, bounds the answer from above; so every segment
    that can hold the minimum below cap has its midpoint within
    min(d0, cap) + L of p (widened by a relative 1e-12 against rounding at
    the edge of the ball).  Those pairs get the per-pair arithmetic of a
    brute-force scan: clipped projection parameter, projection, norm.

    Wherever the distance is below cap the result is bit-identical to the
    brute-force minimum over all segments.  Elsewhere it is at least cap:
    points whose nearest midpoint lies beyond cap + L are not evaluated and
    read inf.  The nearest-midpoint search itself stops a little beyond
    that ball, since no point past it is ever evaluated.
    """
    best = np.full(len(pts), np.inf)
    if len(pts) == 0 or len(a) == 0:
        return best
    ab = b - a
    denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    tree = cKDTree(0.5 * (a + b))
    reach = 0.5 * float(np.linalg.norm(ab, axis=1).max())
    # past every radius below, so d0 reads inf only where it was never live
    d0, _ = tree.query(pts, distance_upper_bound=(cap + reach) * (1.0 + 2e-12))
    radius = (np.minimum(d0, cap) + reach) * (1.0 + 1e-12)
    live = np.flatnonzero(d0 <= radius)
    # chunk over points to bound memory
    for lo in range(0, len(live), 8192):
        p_idx = live[lo:lo + 8192]
        near = tree.query_ball_point(pts[p_idx], radius[p_idx])
        counts = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
        seg = np.fromiter(chain.from_iterable(near), dtype=np.intp, count=int(counts.sum()))
        pair_pt = np.repeat(p_idx, counts)
        P, A, AB = pts[pair_pt], a[seg], ab[seg]
        t = np.clip(np.einsum("ij,ij->i", P - A, AB) / denom[seg], 0.0, 1.0)
        proj = A + t[:, None] * AB
        np.minimum.at(best, pair_pt, np.linalg.norm(P - proj, axis=1))
    return best


def build_mesh(domain: DomainSpec, sing: SingularitySpec, h_max: float) -> Mesh:
    """Triangulate the domain with geometric grading toward singular points."""
    if h_max <= 0:
        raise ConfigError(f"h_max must be positive, got {h_max}")
    sing.validate()
    shape = _Shape(domain)

    pts = np.asarray(sing.points, dtype=float).reshape(-1, 2)
    if (~shape.inside(pts)).any():
        raise InvalidSingularity("singular points must lie strictly inside the domain")
    bdist = shape.boundary_distance(pts)
    if (bdist < 1e-6).any():
        raise InvalidSingularity("singular points must be strictly interior")

    # outer grading radius per singularity: keep rings off the boundary and
    # off each other; the number of geometric refinement levels grows with alpha
    dd = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(dd, np.inf)
    r0 = np.minimum(np.minimum(2.0 * h_max, 0.45 * bdist),
                    0.45 * dd.min(axis=1, initial=np.inf))
    depths = np.ceil(4.0 + 2.0 * np.asarray(sing.alphas, dtype=float)).astype(int)
    h_min = r0 * GRADING_RATIO ** (depths - 1)

    def size_at(x):
        x = np.atleast_2d(x)
        h = np.full(len(x), h_max)
        for j in range(len(pts)):
            r = np.linalg.norm(x - pts[j], axis=1)
            h = np.minimum(h, np.clip(GRADING_RATIO * r, h_min[j], h_max))
        return h

    bsize = domain.boundary_size
    if bsize is not None and bsize >= h_max:
        bsize = None

    def boundary_spacing(x):
        h = size_at(x)
        if bsize is not None:
            h = np.minimum(h, bsize)
        return h

    fixed = [shape.boundary_points(boundary_spacing)]
    n_boundary = len(fixed[0])
    if n_boundary < 8:
        raise MeshFailure("boundary sampling produced too few points")

    # graded layers bridging a refined boundary to the interior size
    layer_depth = 0.0
    if bsize is not None:
        if domain.shape == "polygon":
            raise ConfigError("boundary_size hint is not supported for polygons")
        d, g = 0.0, bsize
        while True:
            d += g
            g = min(h_max, 1.45 * g)
            if g >= 0.95 * h_max:
                break
            ring = shape.offset_ring(d, lambda x, gg=g: np.minimum(size_at(x), gg))
            if len(ring) < 8:
                break
            fixed.append(ring)
        layer_depth = d

    # concentric rings around each singular point, innermost fan closed by
    # the point itself
    for j in range(len(pts)):
        for k in range(depths[j]):
            rk = r0[j] * GRADING_RATIO ** k
            th = np.arange(RING_POINTS) * (2 * np.pi / RING_POINTS)
            th = th + (k % 2) * (np.pi / RING_POINTS)
            fixed.append(pts[j] + rk * np.column_stack([np.cos(th), np.sin(th)]))

    n_before_centers = sum(len(f) for f in fixed)
    fixed.append(pts)
    fixed_pts = np.vstack(fixed)
    sing_indices = np.arange(n_before_centers, n_before_centers + len(pts))

    # hexagonal background lattice, filtered by clearance
    lo, hi = shape.bbox()
    dy = h_max * np.sqrt(3) / 2
    rows = np.arange(lo[1] - h_max, hi[1] + h_max, dy)
    lattice = []
    for i, y in enumerate(rows):
        xs = np.arange(lo[0] - h_max, hi[0] + h_max, h_max)
        if i % 2:
            xs = xs + 0.5 * h_max
        lattice.append(np.column_stack([xs, np.full(len(xs), y)]))
    lattice = np.vstack(lattice)

    keep = shape.inside(lattice)
    keep &= shape.boundary_distance(lattice) >= layer_depth + 0.55 * h_max
    for j in range(len(pts)):
        keep &= np.linalg.norm(lattice - pts[j], axis=1) >= r0[j] + 0.55 * h_max
    lattice = lattice[keep]
    if len(lattice):
        tree = cKDTree(fixed_pts)
        d, _ = tree.query(lattice)
        lattice = lattice[d >= 0.55 * h_max]

    points = np.vstack([fixed_pts, lattice])
    n_fixed = len(fixed_pts)

    raw = _Qhull(points, n_fixed)
    simplices = _interior_triangles(points, raw.simplices, shape)

    for _ in range(SMOOTHING_ROUNDS):
        points = _smooth(points, simplices, n_fixed, shape)
        if not raw.certifies(points):
            raw = _Qhull(points, n_fixed)
        simplices = _interior_triangles(points, raw.simplices, shape)

    simplices = _orient_ccw(points, simplices)

    boundary_mask = np.zeros(len(points), dtype=bool)
    boundary_mask[:n_boundary] = True

    mesh = Mesh(
        vertices=points,
        triangles=simplices,
        boundary_mask=boundary_mask,
        size_target=size_at(points),
        singular_vertices=sing_indices,
        domain=domain,
        singularities=sing,
        h_max=float(h_max),
    )
    _validate_mesh(mesh, n_boundary)
    return mesh


def _signed_areas(points, simplices):
    """Triangle areas, positive for counter-clockwise vertex order."""
    x, y = points[:, 0][simplices.T], points[:, 1][simplices.T]
    return 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0]))


def _interior_triangles(points, simplices, shape):
    keep = shape.inside(points[simplices].mean(axis=1))
    return simplices[keep & (np.abs(_signed_areas(points, simplices)) > 1e-14)]


class _Qhull:
    """qhull's Delaunay triangulation of the mesh points, with the Lawson
    certificate that says when it still triangulates them after they moved.

    By the Delaunay lemma (Lawson 1977), a triangulation of a point set's
    convex hull whose interior edges are all strictly locally Delaunay is its
    unique Delaunay triangulation.  So after a smoothing pass `certifies`
    says, without calling qhull, that qhull would return the same triangle
    set for the moved points.  It holds when
      - the triangulation uses every point and has only fixed vertices on
        its hull (smoothing moves points to convex combinations of points,
        so the hull, and the region triangulated, stay the same);
      - every triangle keeps the counter-clockwise order qhull gives it in
        2-D, with area > 1e-14 (none folded over or collapsed);
      - across every interior edge the opposite vertex lies strictly outside
        the triangle's circumcircle: the in-circle determinant is below
        -LAWSON_MARGIN max|p|^2 area, far beyond its rounding in coordinates
        of magnitude max|p| (Shewchuk 1997).
    A tie (four cocircular points), a flip or an inversion fails it, and the
    caller runs qhull anew.  Edges whose four vertices are all fixed never
    move, so they are tested once, when qhull runs: a tie among them (as
    between boundary rings or on a polygon) leaves the triangulation not
    reusable, and certifies then refuses without testing anything.
    """

    def __init__(self, points, n_fixed):
        tri = Delaunay(points)
        self.simplices, self._neighbors = tri.simplices, tri.neighbors
        self.reusable = bool(np.bincount(self.simplices.ravel(), minlength=len(points)).all()
                             and (tri.convex_hull < n_fixed).all())
        fixed = (self.simplices < n_fixed).all(axis=1)
        if self.reusable and np.count_nonzero(fixed) > 1:
            self.reusable = _locally_delaunay(points, _signed_areas(points, self.simplices),
                                              self._edges(fixed))

    def _edges(self, among=None):
        """Each interior edge between two triangles of the mask among (all
        by default) once, from its lower-numbered triangle t: t, the (3, E)
        vertices of t and the vertex across the edge, which is the one of
        the neighbour u that faces t."""
        s, nbr = self.simplices, self._neighbors
        flat = nbr.ravel()
        owner = np.arange(flat.size) // 3
        keep = flat > owner
        if among is not None:
            keep &= among[owner] & among[flat]
        slot = np.flatnonzero(keep)
        t, u = slot // 3, flat[slot]
        back = nbr[u]
        faces_t = np.where(back[:, 0] == t, 0, np.where(back[:, 1] == t, 1, 2))
        return t, s[t].T, s[u, faces_t]

    @cached_property
    def _interior_edges(self):
        return self._edges()

    def certifies(self, points):
        """True when this is still qhull's triangulation of points."""
        if not self.reusable:
            return False
        area = _signed_areas(points, self.simplices)
        if not (area > 1e-14).all():
            return False
        return _locally_delaunay(points, area, self._interior_edges)


def _locally_delaunay(points, area, edges):
    """Whether every edge of the (t, abc, opp) table is strictly locally
    Delaunay: opp lies outside the circumcircle of triangle t = abc, whose
    signed area is area[t], by the margin of _Qhull."""
    t, abc, opp = edges
    x, y = points[:, 0], points[:, 1]
    X, Y = x[abc] - x[opp], y[abc] - y[opp]
    r2 = X * X + Y * Y
    incircle = (r2[0] * (X[1] * Y[2] - Y[1] * X[2]) + r2[1] * (X[2] * Y[0] - Y[2] * X[0])
                + r2[2] * (X[0] * Y[1] - Y[0] * X[1]))
    margin = LAWSON_MARGIN * (x * x + y * y).max()
    return bool((incircle < -margin * area[t]).all())


def _smooth(points, simplices, n_fixed, shape):
    """One Laplacian pass over non-fixed vertices.

    Each vertex moves to the mean of its neighbours over the triangle sides,
    a convex combination of points, so no point leaves their convex hull.
    The sums run side (0, 1), then (1, 2), then (2, 0), each first from its
    first vertex and then from its second, one triangle after another.
    """
    n = len(points)
    s = simplices.T
    at = s[[0, 1, 1, 2, 2, 0]].ravel()
    nbr = points[s[[1, 0, 2, 1, 0, 2]].ravel()]
    nbr_cnt = np.bincount(at, minlength=n)
    nbr_sum = np.column_stack([np.bincount(at, nbr[:, 0], n), np.bincount(at, nbr[:, 1], n)])
    target = nbr_sum / np.maximum(nbr_cnt, 1)[:, None]
    moved = points.copy()
    free = np.arange(n) >= n_fixed
    free &= nbr_cnt > 0
    moved[free] = target[free]
    ok = shape.inside(moved)
    moved[~ok] = points[~ok]
    return moved


def _orient_ccw(points, simplices):
    flip = _signed_areas(points, simplices) < 0
    out = simplices.copy()
    out[flip] = out[flip][:, [0, 2, 1]]
    return out


def _validate_mesh(mesh, n_boundary):
    ang = mesh.min_angle()
    if ang < MIN_ANGLE_DEG:
        raise MeshFailure(f"min triangle angle {ang:.2f} deg below {MIN_ANGLE_DEG}")
    # every chord between consecutive boundary samples must be a boundary
    # edge of the mesh, a side of exactly one triangle
    i = np.arange(n_boundary, dtype=np.int64)
    j = np.roll(i, -1)
    chords = np.minimum(i, j) * mesh.n_vertices + np.maximum(i, j)
    if not np.isin(chords, mesh._boundary_keys()).all():
        raise MeshFailure("boundary edge missing from triangulation")
    used = np.zeros(mesh.n_vertices, dtype=bool)
    used[mesh.triangles.ravel()] = True
    if not used.all():
        raise MeshFailure("mesh contains orphan vertices")
    if not np.allclose(mesh.vertices[mesh.singular_vertices], mesh.singularities.points,
                       atol=1e-14):
        raise MeshFailure("singular point lost during meshing")


# ---------------------------------------------------------------------------
# Green function and weights


@dataclass
class GreenField:
    """Dirichlet Green function with pole at a mesh vertex.

    values = -log|x - p|/(2 pi) + harmonic, vertexwise; +inf at the pole.
    The harmonic remainder is the finite-element extension of the boundary
    trace of +log|x - p|/(2 pi).
    """

    values: np.ndarray
    harmonic: np.ndarray
    vertex: int
    point: np.ndarray


def green_function(mesh: Mesh, p) -> GreenField:
    """Green function of -Laplace with zero boundary data, pole at vertex p;
    the harmonic remainder is one solve through the mesh's shared LU."""
    p = np.asarray(p, dtype=float)
    d = np.linalg.norm(mesh.vertices - p, axis=1)
    v = int(np.argmin(d))
    if d[v] > 1e-9:
        raise ConfigError(f"point {p} is not a mesh vertex (nearest at distance {d[v]:.2e})")
    if mesh.boundary_mask[v]:
        raise ConfigError("Green function pole must be an interior vertex")

    with np.errstate(divide="ignore"):
        kernel = -np.log(d) / (2 * np.pi)
    kernel[v] = np.inf

    # the harmonic part cancels the kernel on the boundary
    harmonic = mesh.dirichlet.solve(np.zeros(mesh.n_vertices), boundary_values=-kernel)
    values = kernel + harmonic
    values[v] = np.inf
    return GreenField(values=values, harmonic=harmonic, vertex=v, point=p)


@dataclass
class WeightField:
    """Singular weight h = exp(-4 pi sum_j alpha_j G_{p_j}) on mesh vertices.

    Near each singular vertex the field behaves like c_j r^(2 alpha_j); the
    stored coefficient and exponent feed the singular quadrature rules.  An
    optional additive floor represents the approximant h_n = h + 1/n.
    """

    values: np.ndarray
    sing_vertices: np.ndarray
    exponents: np.ndarray      # 2 * alpha_j
    coefficients: np.ndarray   # local model c_j
    points: np.ndarray
    floor: float = 0.0

    def validate(self):
        vals = self.values
        if np.any(~np.isfinite(vals)) or np.any(vals < 0):
            raise InvalidWeight("weight values must be finite and nonnegative")
        if self.floor < 0:
            raise InvalidWeight("weight floor must be nonnegative")
        for j, v in enumerate(self.sing_vertices):
            if vals[v] != 0.0:
                raise InvalidWeight("weight must vanish at singular vertices")
            if not np.isfinite(self.coefficients[j]) or self.coefficients[j] <= 0:
                raise InvalidWeight("singular local coefficient must be positive")

    def with_floor(self, n):
        """Return h_n = h + 1/n."""
        if n <= 0:
            raise InvalidWeight(f"floor parameter n must be positive, got {n}")
        return replace(self, floor=1.0 / float(n))

    def vertex_values(self):
        """Vertex values including the floor."""
        return self.values + self.floor

    def sup(self):
        """Sup norm over the closed domain (attained away from the poles)."""
        return float(self.values.max() + self.floor)


def uniform_weight(mesh: Mesh) -> WeightField:
    """The trivial weight h = 1."""
    return WeightField(
        values=np.ones(mesh.n_vertices),
        sing_vertices=np.zeros(0, dtype=int),
        exponents=np.zeros(0),
        coefficients=np.zeros(0),
        points=np.zeros((0, 2)),
    )


def build_weight(mesh: Mesh, sing: SingularitySpec | None = None) -> WeightField:
    """Assemble the weight from the Green functions of the singular points."""
    if sing is None:
        sing = mesh.singularities
    if len(sing) == 0:
        return uniform_weight(mesh)
    sing.validate()
    greens = [green_function(mesh, p) for p in sing.points]

    exponent = np.zeros(mesh.n_vertices)
    for j, g in enumerate(greens):
        exponent += 4 * np.pi * sing.alphas[j] * g.values
    values = np.exp(-exponent)  # exp(-inf) -> exact 0 at the poles

    verts = np.array([g.vertex for g in greens], dtype=int)
    coeffs = np.zeros(len(greens))
    for j, g in enumerate(greens):
        # local model h ~ c_j r^(2 alpha_j): the pole's own kernel factor is
        # split off, everything else is evaluated at the pole
        log_c = -4 * np.pi * sing.alphas[j] * g.harmonic[g.vertex]
        for k, gk in enumerate(greens):
            if k != j:
                log_c -= 4 * np.pi * sing.alphas[k] * gk.values[verts[j]]
        coeffs[j] = np.exp(log_c)

    w = WeightField(
        values=values,
        sing_vertices=verts,
        exponents=2.0 * sing.alphas.astype(float),
        coefficients=coeffs,
        points=np.asarray(sing.points, dtype=float),
    )
    w.validate()
    return w
