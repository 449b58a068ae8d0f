"""P1 finite elements with weight-aware quadrature.

Stiffness and plain mass use exact per-triangle formulas.  Integrals against
the singular weight split the mesh into two groups: triangles touching a
singular vertex get a tensorized polar rule (Gauss-Jacobi in the radial
coordinate, so the r^(2 alpha) factor is integrated exactly against
polynomials; Gauss-Legendre in the angular sweep), everything else gets a
symmetric degree-4 rule with the weight interpolated linearly.  The measure
weights stored per quadrature point already include the weight-field value,
so downstream code only ever supplies smooth point factors such as
exp(lambda psi) / Z.

That split stays inside this module: every point field a `Quadrature` takes
or returns is one flat (P,) array over all its points.  Only its kernels
run block by block, on contiguous slices, because a per-point gather was
2-5x slower (exponential plus load on the h = 0.05 disk: 1.02 against 0.19 ms).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu
from scipy.special import roots_jacobi

from .errors import InvalidWeight, SolverError
from .geometry import Mesh, WeightField, _signed_areas

# symmetric degree-4 rule on the reference triangle (6 points, weights sum 1)
_A1, _W1 = 0.445948490915965, 0.223381589678011
_A2, _W2 = 0.091576213509771, 0.109951743655322
DEG4_BARY = np.array([
    [_A1, _A1, 1 - 2 * _A1], [_A1, 1 - 2 * _A1, _A1], [1 - 2 * _A1, _A1, _A1],
    [_A2, _A2, 1 - 2 * _A2], [_A2, 1 - 2 * _A2, _A2], [1 - 2 * _A2, _A2, _A2],
])
DEG4_W = np.array([_W1, _W1, _W1, _W2, _W2, _W2])

POLAR_RADIAL_POINTS = 6
POLAR_ANGULAR_POINTS = 10

# The one SuperLU recipe of every factorization in the package: minimum degree
# on the structure of A + A', which suits these structurally symmetric
# matrices (the Dirichlet block of the h = 0.05 disk gets 52.6k fill entries
# against COLAMD's 73.8k), and relax = 1.  A larger relax (scipy's default is
# 10) amalgamates small etree subtrees into padded dense supernodes; on these
# 2-D matrices that leaves the fill as it is and slows factorization and
# solves (that Dirichlet block: 7.2 against 4.3 ms, 184 against 160 us).
# SuperLU does not check relax <= panel_size (20 by default), and a larger
# relax corrupts memory, so panel_size keeps its default.
SPLU_RECIPE = {"permc_spec": "MMD_AT_PLUS_A", "relax": 1}


@dataclass
class QuadBlock:
    """One homogeneous group of triangles sharing a point layout.

    Every triangle of a block places its points at the same barycentric
    coordinates (the polar rule after rotating the pole to the first
    vertex), so the P1 shape values are stored once for all of them.  w
    holds measure weights including the weight-field value; hval the bare
    weight-field value at each point (needed for logarithms of the weight).
    """

    verts: np.ndarray   # (T, 3)
    shp: np.ndarray     # (Q, 3) P1 shape values at the points of every triangle
    pos: np.ndarray     # (T, Q, 2)
    w: np.ndarray       # (T, Q)
    hval: np.ndarray    # (T, Q)


class Quadrature:
    """A family of quadrature points covering the mesh.

    Every point field is one flat (P,) array, block after block: `w`, `hval`,
    `log_h`, `pos` (P, 2), the values `eval` returns and the factors the
    other methods take.  The blocks are the assembly layout only: their w,
    hval and pos are views into the flat arrays, and the kernels run per
    block on contiguous slices, since a per-point gather was 2-5x slower.
    """

    def __init__(self, n_vertices, blocks):
        self.n = n_vertices
        self.blocks = blocks
        self.w = np.concatenate([b.w.ravel() for b in blocks])
        self.hval = np.concatenate([b.hval.ravel() for b in blocks])
        self.pos = np.concatenate([b.pos.reshape(-1, 2) for b in blocks])
        ends = np.cumsum([b.w.size for b in blocks])
        self._slices = [slice(e - b.w.size, e) for b, e in zip(blocks, ends)]
        for b, s in zip(blocks, self._slices):
            b.w, b.hval = self.w[s].reshape(b.w.shape), self.hval[s].reshape(b.w.shape)
            b.pos = self.pos[s].reshape(b.pos.shape)
        self._mass_layout = None   # built by the first assemble_mass

    @cached_property
    def log_h(self):
        """log h, 0 where h <= 0; formed on first read, which the plain rule never makes."""
        return np.log(np.where(self.hval > 0, self.hval, 1.0))

    def eval(self, field):
        """P1 field values at the quadrature points."""
        out = np.empty(self.w.size)
        for b, s in zip(self.blocks, self._slices):
            np.matmul(field[b.verts], b.shp.T, out=out[s].reshape(b.w.shape))
        return out

    def integrate(self, factors=None):
        """Integral of the stored weight times the optional point factors."""
        return float(np.sum(self.w if factors is None else self.w * factors))

    def _weights(self, factors):
        wq = self.w if factors is None else self.w * factors
        for b, s in zip(self.blocks, self._slices):
            yield b, wq[s].reshape(b.w.shape)

    def assemble_load(self, factors=None):
        """Vector of integrals against each hat function."""
        out = np.zeros(self.n)
        for b, wq in self._weights(factors):
            out += np.bincount(b.verts.ravel(), weights=(wq @ b.shp).ravel(),
                               minlength=self.n)
        return out

    def assemble_mass(self, factors=None):
        """Weighted mass matrix sum_q w_q f_q phi_i phi_j, sparse CSR.

        Every call returns the same sparsity pattern (the vertex pairs of
        the mesh triangles, sorted, no duplicates); only `data` is new.
        """
        if self._mass_layout is None:
            self._mass_layout = self._build_mass_layout()
        indptr, indices, slots, outers = self._mass_layout
        local = np.concatenate([wq @ outer for (_, wq), outer
                                in zip(self._weights(factors), outers)])
        data = np.bincount(slots, weights=local.ravel(), minlength=len(indices))
        return sp.csr_matrix((data, indices, indptr), shape=(self.n, self.n))

    def _build_mass_layout(self):
        """CSR pattern of the mass matrix and the slot of each local entry.

        Local entry (i, j) of a block triangle sits at column 3 i + j of the
        block's (T, 9) products; `slots` maps the concatenation of those
        products, block after block, to positions in the CSR `data`.
        """
        n = self.n
        keys = np.concatenate([
            (b.verts[:, :, None].astype(np.int64) * n + b.verts[:, None, :]).reshape(-1)
            for b in self.blocks])
        pattern, slots = np.unique(keys, return_inverse=True)
        indptr = np.searchsorted(pattern, np.arange(n + 1) * n).astype(np.int32)
        indices = (pattern % n).astype(np.int32)
        outers = [(b.shp[:, :, None] * b.shp[:, None, :]).reshape(-1, 9)
                  for b in self.blocks]
        return indptr, indices, slots, outers


def _deg4_block(mesh, tris, point_values):
    """Degree-4 block over the given triangles with given vertex values.

    point_values: (n,) vertex field whose P1 interpolation is the stored
    weight value (use ones for plain Lebesgue measure).
    """
    verts = mesh.triangles[tris]
    p = mesh.vertices[verts]                      # (T, 3, 2)
    pos = np.einsum("qi,tid->tqd", DEG4_BARY, p)
    areas = mesh.areas[tris]
    hval = np.einsum("qi,ti->tq", DEG4_BARY, point_values[verts])
    w = areas[:, None] * DEG4_W[None, :] * hval
    return QuadBlock(verts=verts, shp=DEG4_BARY, pos=pos, w=w, hval=hval)


def plain_quadrature(mesh: Mesh) -> Quadrature:
    """Degree-4 rule on every triangle, plain Lebesgue measure."""
    ones = np.ones(mesh.n_vertices)
    block = _deg4_block(mesh, np.arange(mesh.n_triangles), ones)
    block.hval = np.ones_like(block.w)
    block.w = mesh.areas[:, None] * DEG4_W[None, :]
    return Quadrature(mesh.n_vertices, [block])


def _polar_block(mesh, tris, pole_vertex, coeff, exponent, values, floor):
    """Polar rule on triangles sharing the singular vertex.

    Local model: weight = coeff * r^exponent * corr(x) + floor, where corr is
    the linear correction matching the stored vertex values at the two
    non-singular corners (corr == 1 at the pole).
    """
    tri_v = mesh.triangles[tris]
    # rotate each triangle so the pole comes first (the turn keeps it CCW)
    first = np.argmax(tri_v == pole_vertex, axis=1)
    order = np.take_along_axis(tri_v, (first[:, None] + np.arange(3)) % 3, axis=1)
    P = mesh.vertices[order[:, 0]]
    A = mesh.vertices[order[:, 1]]
    B = mesh.vertices[order[:, 2]]
    area = _signed_areas(mesh.vertices, order)

    beta = exponent + 1.0  # radial measure s^(1+exponent)
    xj, wj = roots_jacobi(POLAR_RADIAL_POINTS, 0.0, beta)
    s = (1.0 + xj) / 2.0
    ws = wj * 2.0 ** (-beta - 1.0)
    xg, wg = np.polynomial.legendre.leggauss(POLAR_ANGULAR_POINTS)
    t = (1.0 + xg) / 2.0
    wt = wg / 2.0

    # e(t) spans the far edge; r = s |e(t)|
    e = (1 - t)[None, :, None] * (A - P)[:, None, :] + t[None, :, None] * (B - P)[:, None, :]
    enorm = np.linalg.norm(e, axis=2)                      # (T, nt)
    pos = P[:, None, None, :] + s[None, :, None, None] * e[:, None, :, :]

    # shape functions in (s, t): pole 1-s, far corners s(1-t), s t
    shp = np.empty((POLAR_RADIAL_POINTS, POLAR_ANGULAR_POINTS, 3))
    shp[..., 0] = (1 - s)[:, None]
    shp[..., 1] = s[:, None] * (1 - t)[None, :]
    shp[..., 2] = s[:, None] * t[None, :]

    # linear correction so the model matches the vertex values at A and B
    with np.errstate(divide="ignore", invalid="ignore"):
        ra = np.linalg.norm(A - P, axis=1)
        rb = np.linalg.norm(B - P, axis=1)
        ca = values[order[:, 1]] / (coeff * ra ** exponent)
        cb = values[order[:, 2]] / (coeff * rb ** exponent)
    corr = (shp[..., 0] + ca[:, None, None] * shp[..., 1]
            + cb[:, None, None] * shp[..., 2])

    # measure weight: 2 area coeff |e|^exp ws wt, times the correction
    w = (2.0 * area[:, None, None] * coeff
         * enorm[:, None, :] ** exponent
         * ws[None, :, None] * wt[None, None, :]) * corr
    hval = coeff * (s[None, :, None] * enorm[:, None, :]) ** exponent * corr + floor

    Q = POLAR_RADIAL_POINTS * POLAR_ANGULAR_POINTS
    return QuadBlock(
        verts=order,
        shp=shp.reshape(Q, 3),
        pos=pos.reshape(len(tris), Q, 2),
        w=w.reshape(len(tris), Q),
        hval=hval.reshape(len(tris), Q),
    )


def weighted_quadrature(mesh: Mesh, weight: WeightField) -> Quadrature:
    """Quadrature whose measure is weight (including its floor) times dx."""
    weight.validate()
    blocks = []
    singular_tris = np.zeros(mesh.n_triangles, dtype=bool)
    for j, v in enumerate(weight.sing_vertices):
        mask = np.any(mesh.triangles == v, axis=1)
        if not mask.any():
            raise InvalidWeight("singular vertex not referenced by any triangle")
        if (singular_tris & mask).any():
            raise InvalidWeight("two singular points share a triangle; refine the mesh")
        singular_tris |= mask
        blocks.append(_polar_block(
            mesh, np.nonzero(mask)[0], v,
            weight.coefficients[j], weight.exponents[j],
            weight.values, weight.floor,
        ))

    regular = np.nonzero(~singular_tris)[0]
    if len(regular):
        blocks.insert(0, _deg4_block(mesh, regular, weight.values + weight.floor))
    if weight.floor > 0 and singular_tris.any():
        # the polar blocks carry only the singular model; add the floor part
        tris = np.nonzero(singular_tris)[0]
        fb = _deg4_block(mesh, tris, np.full(mesh.n_vertices, weight.floor))
        # report the full weight value at these points, not just the floor
        fb.hval = fb.hval + np.einsum(
            "qi,ti->tq", DEG4_BARY, weight.values[mesh.triangles[tris]])
        blocks.append(fb)
    return Quadrature(mesh.n_vertices, blocks)


# ---------------------------------------------------------------------------
# assembly


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """P1 stiffness matrix of -Laplace (exact per-triangle formula)."""
    p = mesh.vertices[mesh.triangles]
    t0 = p[:, 2] - p[:, 1]
    t1 = p[:, 0] - p[:, 2]
    t2 = p[:, 1] - p[:, 0]
    edges = np.stack([t0, t1, t2], axis=1)        # (T, 3, 2)
    areas = mesh.areas
    local = np.einsum("tid,tjd->tij", edges, edges) / (4.0 * areas)[:, None, None]
    r = np.repeat(mesh.triangles, 3, axis=1).reshape(-1, 3, 3)
    c = np.tile(mesh.triangles[:, None, :], (1, 3, 1))
    A = sp.coo_matrix(
        (local.ravel(), (r.ravel(), c.ravel())),
        shape=(mesh.n_vertices, mesh.n_vertices),
    )
    return A.tocsr()


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Plain P1 mass matrix (exact)."""
    areas = mesh.areas
    local = (areas[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))[None]
    r = np.repeat(mesh.triangles, 3, axis=1).reshape(-1, 3, 3)
    c = np.tile(mesh.triangles[:, None, :], (1, 3, 1))
    M = sp.coo_matrix(
        (local.ravel(), (r.ravel(), c.ravel())),
        shape=(mesh.n_vertices, mesh.n_vertices),
    )
    return M.tocsr()


# ---------------------------------------------------------------------------
# Dirichlet solves


class DirichletSolver:
    """Factorized interior block of a fixed operator, reused across solves.

    A_ii is factored once, under the package's SPLU_RECIPE.
    """

    def __init__(self, A, boundary_mask):
        self.boundary_mask = np.asarray(boundary_mask, dtype=bool)
        self.interior = np.nonzero(~self.boundary_mask)[0]
        self.boundary = np.nonzero(self.boundary_mask)[0]
        A = A.tocsr()
        self.A = A
        self.A_ii = A[self.interior][:, self.interior].tocsc()
        self.A_ib = A[self.interior][:, self.boundary].tocsr()
        try:
            self.lu = splu(self.A_ii, **SPLU_RECIPE)
        except RuntimeError as e:
            raise SolverError(f"interior factorization failed: {e}") from e

    def solve(self, rhs_full, boundary_values=None):
        """Solve A u = rhs with the given (default zero) boundary trace."""
        rhs_i = np.asarray(rhs_full, dtype=float)[self.interior]
        u = np.zeros(len(self.boundary_mask))
        if boundary_values is not None:
            u[self.boundary] = boundary_values[self.boundary]
            rhs_i = rhs_i - self.A_ib @ u[self.boundary]
        u[self.interior] = self.lu.solve(rhs_i)
        res = self.A_ii @ u[self.interior] - rhs_i
        scale = max(np.linalg.norm(rhs_i), 1e-300)
        if not np.linalg.norm(res) <= 1e-8 * scale:      # NaN fails it too
            raise SolverError("Dirichlet solve residual too large")
        return u

    def dual_norm(self, r_interior):
        """H^-1-type norm sqrt(r' A_ii^-1 r) of an interior residual."""
        return float(np.sqrt(abs(r_interior @ self.lu.solve(r_interior))))
