"""Point evaluation, boundary distance, mesh references and plain-text I/O.

Only the tests read these, so they live here rather than in the package:
`locate` and `eval_field` evaluate a P1 vertex field at a point,
`boundary_distance` measures each vertex's distance to the polygonal mesh
boundary, `brute_distance` is the every-point-against-every-segment
reference for that distance, `build_mesh_qhull_every_round` (qhull after
every smoothing pass) and `smooth_add_at` (sums by `np.add.at`) are the
references for `build_mesh` and `_smooth`, `triangle_set` is a
triangulation as a set, and `write_mesh` and `load_psi` write a mesh and
read back the psi file that `gelfand.meanfield.save_state` writes.
"""

from unittest import mock

import numpy as np

from gelfand import geometry
from gelfand.geometry import Mesh, _point_segment_distance


def build_mesh_qhull_every_round(domain, sing, h_max):
    """build_mesh with qhull run again after every smoothing pass."""
    with mock.patch.object(geometry._Qhull, "certifies", lambda self, points: False):
        return geometry.build_mesh(domain, sing, h_max)


def smooth_add_at(points, simplices, n_fixed, shape):
    """Laplacian pass summed by np.add.at, side (0, 1), (1, 2), then (2, 0)."""
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
    free = (np.arange(n) >= n_fixed) & (nbr_cnt > 0)
    moved[free] = target[free]
    ok = shape.inside(moved)
    moved[~ok] = points[~ok]
    return moved


def triangle_set(simplices):
    """Triangles as a set of sorted vertex triples: order and rotation dropped."""
    return set(map(tuple, np.sort(simplices, axis=1).tolist()))


def boundary_distance(mesh: Mesh):
    """Per-vertex distance to the (polygonal) mesh boundary."""
    edges = mesh.boundary_edges()
    a = mesh.vertices[edges[:, 0]]
    b = mesh.vertices[edges[:, 1]]
    return _point_segment_distance(mesh.vertices, a, b)


def brute_distance(pts, a, b):
    """Every point against every segment: clipped projection, then the norm."""
    ab = b - a
    denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    rel = pts[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("pij,ij->pi", rel, ab) / denom[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    return np.linalg.norm(pts[:, None, :] - proj, axis=2).min(axis=1, initial=np.inf)


def locate(mesh: Mesh, point):
    """Triangle index and barycentric coordinates containing point."""
    point = np.asarray(point, dtype=float)
    p = mesh.vertices[mesh.triangles]
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


def eval_field(mesh: Mesh, values, point):
    """Evaluate a P1 vertex field at a point, or at each row of (n, 2)."""
    point = np.asarray(point, dtype=float)
    if point.ndim == 2:
        return np.array([eval_field(mesh, values, q) for q in point])
    t, bary = locate(mesh, point)
    return float(bary @ values[mesh.triangles[t]])


def write_mesh(mesh: Mesh, prefix: str):
    """Dump plain-text node/element lists: '<prefix>_nodes.txt', '<prefix>_elements.txt'."""
    with open(f"{prefix}_nodes.txt", "w") as f:
        for (x, y), bnd in zip(mesh.vertices, mesh.boundary_mask):
            f.write(f"{float(x)!r} {float(y)!r} {int(bnd)}\n")
    with open(f"{prefix}_elements.txt", "w") as f:
        for a, b, c in mesh.triangles:
            f.write(f"{int(a)} {int(b)} {int(c)}\n")


def load_psi(path):
    with open(path) as f:
        return np.array([float(line) for line in f if line.strip()])
