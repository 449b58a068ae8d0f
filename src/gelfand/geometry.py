"""Domains, graded triangulations, Green functions and singular weights.

The mesh generator produces conforming Delaunay triangulations of disks,
ellipses and simple polygons.  Each prescribed singular point is placed as an
exact mesh vertex surrounded by concentric rings whose radii halve toward the
point, so element diameters decrease geometrically there.  A hexagonal
background lattice fills the rest of the domain and a few Laplacian smoothing
passes even out the transition zones.

The Dirichlet Green function G_p is represented as the explicit logarithmic
kernel plus a finite-element harmonic remainder.  This keeps pointwise
accuracy near p; the value at p itself is +inf, which downstream weight
construction maps to h(p) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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


# ---------------------------------------------------------------------------
# specifications


@dataclass(frozen=True)
class DomainSpec:
    """Geometric description of the computational domain.

    shape is one of "unit_disk", "ellipse", "polygon".  boundary_size is an
    optional resolution hint: when smaller than the interior mesh size the
    boundary is sampled at that spacing and graded layers bridge the gap
    (supported for the disk and the ellipse).
    """

    shape: str
    a: float = 1.0
    b: float = 1.0
    vertices: tuple = ()
    boundary_size: float | None = None

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

    def grading_depth(self, j):
        """Number of geometric refinement levels toward p_j."""
        return int(np.ceil(4.0 + 2.0 * self.alphas[j]))


# ---------------------------------------------------------------------------
# shape helpers


class _Shape:
    """Uniform interface over the supported domain boundaries."""

    def __init__(self, spec: DomainSpec):
        self.spec = spec
        if spec.shape in ("unit_disk", "ellipse"):
            self._params = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
            self._dense = self._at_param(self._params)
        elif spec.shape == "polygon":
            self._poly = np.asarray(spec.vertices, dtype=float)
            if _polygon_area(self._poly) < 0:
                self._poly = self._poly[::-1]
            _check_simple(self._poly)
            self._dense = _densify_polygon(self._poly, 4096)
        else:
            raise ConfigError(f"unknown shape {spec.shape!r}")
        self._tree = cKDTree(self._dense)

    def _at_param(self, t):
        s = self.spec
        a = 1.0 if s.shape == "unit_disk" else s.a
        b = 1.0 if s.shape == "unit_disk" else s.b
        return np.column_stack([a * np.cos(t), b * np.sin(t)])

    def bbox(self):
        lo = self._dense.min(axis=0)
        hi = self._dense.max(axis=0)
        return lo, hi

    def inside(self, pts):
        pts = np.atleast_2d(pts)
        s = self.spec
        if s.shape == "unit_disk":
            return np.einsum("ij,ij->i", pts, pts) < 1.0
        if s.shape == "ellipse":
            return (pts[:, 0] / s.a) ** 2 + (pts[:, 1] / s.b) ** 2 < 1.0
        return _points_in_polygon(pts, self._poly)

    def boundary_distance(self, pts):
        """Approximate unsigned distance to the boundary curve."""
        pts = np.atleast_2d(pts)
        if self.spec.shape == "unit_disk":
            return np.abs(1.0 - np.linalg.norm(pts, axis=1))
        d, _ = self._tree.query(pts)
        return d

    def boundary_points(self, spacing_fn):
        """Sample the boundary so that local spacing follows spacing_fn.

        For the smooth shapes the points are evaluated exactly on the curve
        (spacing decided in parameter space), not on the dense polyline.
        """
        s = self.spec
        if s.shape in ("unit_disk", "ellipse"):
            t_at = _sample_closed_curve(self._dense, spacing_fn, params=self._params)
            return self._at_param(t_at)
        return _sample_polygon(self._poly, spacing_fn)

    def offset_ring(self, dist, spacing_fn):
        """Points along an inward offset of the boundary (disk/ellipse only)."""
        s = self.spec
        if s.shape == "unit_disk":
            if dist >= 1.0:
                return np.zeros((0, 2))
            t = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
            curve = (1.0 - dist) * np.column_stack([np.cos(t), np.sin(t)])
        elif s.shape == "ellipse":
            if dist >= min(s.a, s.b):
                return np.zeros((0, 2))
            t = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
            curve = np.column_stack([(s.a - dist) * np.cos(t), (s.b - dist) * np.sin(t)])
        else:
            return np.zeros((0, 2))
        return _sample_closed_curve(curve, spacing_fn)


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


def _sample_closed_curve(dense, spacing_fn, params=None):
    """Place points on a closed curve with spacing ~ spacing_fn(x).

    Works in "units": du = ds / spacing(s).  Rounding the total unit count
    makes the loop close exactly while keeping local spacing proportional.
    With params given, returns curve parameters instead of polyline points so
    the caller can evaluate the exact curve.
    """
    seg = np.linalg.norm(np.diff(np.vstack([dense, dense[:1]]), axis=0), axis=1)
    h = spacing_fn(dense)
    du = seg / h
    u = np.concatenate([[0.0], np.cumsum(du)])
    total = u[-1]
    k = max(8, int(round(total)))
    targets = np.arange(k) * total / k
    if params is not None:
        t_ext = np.concatenate([params, [2 * np.pi]])
        return np.interp(targets, u, t_ext)
    s_cum = np.concatenate([[0.0], np.cumsum(seg)])
    s_at = np.interp(targets, u, s_cum)
    return _points_at_arclength(dense, s_cum, s_at)


def _points_at_arclength(dense, s_cum, s_at):
    idx = np.searchsorted(s_cum, s_at, side="right") - 1
    idx = np.clip(idx, 0, len(dense) - 1)
    nxt = (idx + 1) % len(dense)
    seg_len = s_cum[idx + 1] - s_cum[idx]
    t = np.where(seg_len > 0, (s_at - s_cum[idx]) / np.maximum(seg_len, 1e-300), 0.0)
    return dense[idx] + t[:, None] * (dense[nxt] - dense[idx])


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
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_mask: np.ndarray
    size_target: np.ndarray
    singular_vertices: np.ndarray
    domain: DomainSpec
    singularities: SingularitySpec
    h_max: float
    _areas: np.ndarray = field(default=None, repr=False)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_triangles(self):
        return len(self.triangles)

    def areas(self):
        if self._areas is None:
            p = self.vertices[self.triangles]
            d1 = p[:, 1] - p[:, 0]
            d2 = p[:, 2] - p[:, 0]
            self._areas = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        return self._areas

    def area(self):
        return float(self.areas().sum())

    def min_angle(self):
        """Smallest interior angle over all triangles, in degrees."""
        p = self.vertices[self.triangles]
        angs = []
        for i in range(3):
            u = p[:, (i + 1) % 3] - p[:, i]
            v = p[:, (i + 2) % 3] - p[:, i]
            c = np.einsum("ij,ij->i", u, v) / (
                np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
            )
            angs.append(np.degrees(np.arccos(np.clip(c, -1, 1))))
        return float(np.min(angs))

    def boundary_edges(self):
        """Edges lying on the boundary, as (n_b, 2) vertex index pairs."""
        e = np.vstack([self.triangles[:, [0, 1]], self.triangles[:, [1, 2]],
                       self.triangles[:, [2, 0]]])
        e_sorted = np.sort(e, axis=1)
        # one int64 key per edge sorts exactly like the (lo, hi) rows
        key = e_sorted[:, 0].astype(np.int64) * self.n_vertices + e_sorted[:, 1]
        _, idx, counts = np.unique(key, return_index=True, return_counts=True)
        return e_sorted[idx[counts == 1]]

    def boundary_distance(self):
        """Per-vertex distance to the (polygonal) mesh boundary."""
        edges = self.boundary_edges()
        a = self.vertices[edges[:, 0]]
        b = self.vertices[edges[:, 1]]
        return _point_segment_distance(self.vertices, a, b)

    def locate(self, point):
        """Triangle index and barycentric coordinates containing point."""
        point = np.asarray(point, dtype=float)
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        rel = point[None, :] - p[:, 0]
        w1 = (rel[:, 0] * d2[:, 1] - rel[:, 1] * d2[:, 0]) / det
        w2 = (d1[:, 0] * rel[:, 1] - d1[:, 1] * rel[:, 0]) / det
        w0 = 1.0 - w1 - w2
        ok = (w0 >= -1e-10) & (w1 >= -1e-10) & (w2 >= -1e-10)
        hits = np.nonzero(ok)[0]
        if len(hits) == 0:
            raise ValueError(f"point {point} is outside the mesh")
        t = int(hits[0])
        return t, np.array([w0[t], w1[t], w2[t]])

    def eval_field(self, values, point):
        """Evaluate a P1 vertex field at a point, or at each row of (n, 2)."""
        point = np.asarray(point, dtype=float)
        if point.ndim == 2:
            return np.array([self.eval_field(values, q) for q in point])
        t, bary = self.locate(point)
        return float(bary @ values[self.triangles[t]])


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
    read inf.
    """
    best = np.full(len(pts), np.inf)
    if len(pts) == 0 or len(a) == 0:
        return best
    ab = b - a
    denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    tree = cKDTree(0.5 * (a + b))
    reach = 0.5 * float(np.linalg.norm(ab, axis=1).max())
    d0, _ = tree.query(pts)
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
    if len(pts) and (~shape.inside(pts)).any():
        raise InvalidSingularity("singular points must lie strictly inside the domain")
    bdist = shape.boundary_distance(pts) if len(pts) else np.zeros(0)
    if len(pts) and (bdist < 1e-6).any():
        raise InvalidSingularity("singular points must be strictly interior")

    # outer grading radius per singularity: keep rings off the boundary and
    # off each other
    r0 = np.full(len(pts), 2.0 * h_max)
    if len(pts):
        r0 = np.minimum(r0, 0.45 * bdist)
        if len(pts) > 1:
            dd = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            np.fill_diagonal(dd, np.inf)
            r0 = np.minimum(r0, 0.45 * dd.min(axis=1))
    depths = np.array([sing.grading_depth(j) for j in range(len(pts))], dtype=int)
    h_min = np.array([r0[j] * GRADING_RATIO ** (depths[j] - 1) for j in range(len(pts))]) \
        if len(pts) else np.zeros(0)

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
    sing_vertex_pos = []
    for j in range(len(pts)):
        rings = []
        for k in range(depths[j]):
            rk = r0[j] * GRADING_RATIO ** k
            th = np.arange(RING_POINTS) * (2 * np.pi / RING_POINTS)
            th = th + (k % 2) * (np.pi / RING_POINTS)
            rings.append(pts[j] + rk * np.column_stack([np.cos(th), np.sin(th)]))
        fixed.extend(rings)
        sing_vertex_pos.append(pts[j])

    n_before_centers = sum(len(f) for f in fixed)
    if len(pts):
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

    tri = Delaunay(points)
    simplices = _interior_triangles(points, tri.simplices, shape)

    for _ in range(SMOOTHING_ROUNDS):
        points = _smooth(points, simplices, n_fixed, shape)
        tri = Delaunay(points)
        simplices = _interior_triangles(points, tri.simplices, shape)

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


def _interior_triangles(points, simplices, shape):
    cen = points[simplices].mean(axis=1)
    keep = shape.inside(cen)
    p = points[simplices]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    area = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    return simplices[keep & (area > 1e-14)]


def _smooth(points, simplices, n_fixed, shape):
    """One Laplacian pass over non-fixed vertices."""
    n = len(points)
    nbr_sum = np.zeros((n, 2))
    nbr_cnt = np.zeros(n)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        i, j = simplices[:, a], simplices[:, b]
        np.add.at(nbr_sum, i, points[j])
        np.add.at(nbr_cnt, i, 1.0)
        np.add.at(nbr_sum, j, points[i])
        np.add.at(nbr_cnt, j, 1.0)
    target = nbr_sum / np.maximum(nbr_cnt, 1)[:, None]
    moved = points.copy()
    free = np.arange(n) >= n_fixed
    free &= nbr_cnt > 0
    moved[free] = target[free]
    ok = shape.inside(moved)
    moved[~ok] = points[~ok]
    return moved


def _orient_ccw(points, simplices):
    p = points[simplices]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    flip = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) < 0
    out = simplices.copy()
    out[flip] = out[flip][:, [0, 2, 1]]
    return out


def _validate_mesh(mesh, n_boundary):
    ang = mesh.min_angle()
    if ang < MIN_ANGLE_DEG:
        raise MeshFailure(f"min triangle angle {ang:.2f} deg below {MIN_ANGLE_DEG}")
    # every boundary segment between consecutive samples must be a mesh edge
    edges = {tuple(e) for e in np.sort(
        np.vstack([mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]],
                   mesh.triangles[:, [2, 0]]]), axis=1).tolist()}
    for i in range(n_boundary):
        j = (i + 1) % n_boundary
        if (min(i, j), max(i, j)) not in edges:
            raise MeshFailure("boundary edge missing from triangulation")
    used = np.zeros(mesh.n_vertices, dtype=bool)
    used[mesh.triangles.ravel()] = True
    if not used.all():
        raise MeshFailure("mesh contains orphan vertices")
    for j, v in enumerate(mesh.singular_vertices):
        if not np.allclose(mesh.vertices[v], mesh.singularities.points[j], atol=1e-14):
            raise MeshFailure("singular point lost during meshing")


def write_mesh(mesh: Mesh, prefix: str):
    """Dump plain-text node/element lists: '<prefix>_nodes.txt', '<prefix>_elements.txt'."""
    with open(f"{prefix}_nodes.txt", "w") as f:
        for (x, y), bnd in zip(mesh.vertices, mesh.boundary_mask):
            f.write(f"{float(x)!r} {float(y)!r} {int(bnd)}\n")
    with open(f"{prefix}_elements.txt", "w") as f:
        for a, b, c in mesh.triangles:
            f.write(f"{int(a)} {int(b)} {int(c)}\n")


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
    """Green function of -Laplace with zero boundary data, pole at vertex p."""
    from .fem import assemble_stiffness, solve_dirichlet  # deferred: fem imports Mesh

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

    A = assemble_stiffness(mesh)
    boundary_values = -kernel.copy()  # harmonic part cancels the kernel on the boundary
    harmonic = solve_dirichlet(A, np.zeros(mesh.n_vertices), mesh.boundary_mask,
                               boundary_values=boundary_values)
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
