"""Quasi-uniform triangle meshes of convex polygons for P1 elements.

Convexity is what keeps this simple: the Delaunay triangulation of boundary
samples plus interior points tiles the polygon exactly, so no constrained
triangulation is needed.  Interior points are a hexagonal lattice with h/2
clearance from the boundary, triangulated as laid down, and fill points h/2
inside the boundary where the lattice leaves a gap.  Where the mesh misses
the angle bound (polygon edges much shorter than h, thin domains),
Ruppert-style split rounds insert circumcenters and split encroached
boundary segments.  The mesh keeps its polygon, which is its boundary: the
depth tests (lattice, fill points, circumcenters) are its exact threshold
test ``geometry.depth_exceeds``, and the vertices' boundary clearance is
``geometry.half_plane_depth`` against its edges.

The triangulation rests on Delaunay locality: a triangle belongs iff its
circumcircle is empty (de Berg et al., Computational Geometry, ch. 9).
Lattice points at least DEEP_DEPTH*h inside are deep: the lattice triangles
among them are equilateral, so Delaunay with a 60 degree margin, and follow
from (row, col) arithmetic.  Qhull sees only the rest, the strip along the
boundary, plus a HALO_DEPTH*h halo of deep points, and its triangles count
where they touch the strip.  Triangles come in one canonical order, so a
mesh is a function of its points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import InvalidH, QualityFailure
from .geometry import ConvexPolygon, depth_exceeds, half_plane_depth

MIN_ANGLE_DEG = 20.0
SPLIT_ROUNDS = 20
MAX_MESH_SIZE = 4_000_000  # cap on the lattice points of generate, the triangles of refine
DEEP_DEPTH = 3.0  # in h: lattice points this deep are triangulated by index arithmetic
HALO_DEPTH = 2.0  # in h: deep points this near the strip are given to Qhull as well
# Largest h, in inradii.  A thin domain's split rounds refine its boundary to
# about its width: at 64 inradii a 1600x1 rectangle meshes in 0.1 s, at 1024
# a 25600x1 one takes 38 s (one core of a shared 2-vCPU machine).
MAX_H_INRADII = 64.0


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Conforming triangulation of a convex polygon.

    Stored is the polygon meshed and what the mesher decides:
    ``boundary_edges`` lists vertex index pairs forming one closed CCW loop
    along the polygon's edges.  Element geometry, ``h_max``, the interior
    mask, the boundary normals and the boundary clearance are derived.
    """

    polygon: ConvexPolygon
    vertices: np.ndarray            # (n, 2)
    triangles: np.ndarray           # (m, 3) int, CCW
    boundary_edges: np.ndarray      # (b, 2) int, ordered CCW loop

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    @cached_property
    def edges(self) -> np.ndarray:
        """(e, 2) unique vertex pairs (a < b), sorted lexicographically.  Of the
        CCW triangles' half-edges a -> b, an interior edge has one with a < b; a
        boundary edge has only its own, which the CCW loop holds as well."""
        t = self.triangles.astype(np.int64)
        a, b = t.ravel(), t[:, [1, 2, 0]].ravel()
        ba, bb = self.boundary_edges.astype(np.int64).T
        keys = np.concatenate([(a * self.vertex_count + b)[a < b],
                               (bb * self.vertex_count + ba)[ba > bb]])
        return np.column_stack(np.divmod(np.sort(keys), self.vertex_count))

    @property
    def lengths(self) -> np.ndarray:
        """(m, 3) length of the edge opposite each triangle's local vertex i.
        Not cached: it is cheap, and an (m, 3) array would stay resident."""
        e, _ = element_edges(self.vertices, self.triangles)
        return np.hypot(*np.stack(e).T)

    @cached_property
    def h_max(self) -> float:
        """The longest edge."""
        return float(self.lengths.max())

    @cached_property
    def interior_mask(self) -> np.ndarray:
        """(n,) True for vertices off the boundary loop."""
        interior = np.ones(self.vertex_count, dtype=bool)
        interior[self.boundary_edges] = False
        return interior

    @cached_property
    def boundary_normals(self) -> np.ndarray:
        """(b, 2) outward unit normal of each boundary edge."""
        a, b = self.vertices[self.boundary_edges.T]
        n = np.column_stack([b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]])
        return n / np.linalg.norm(n, axis=1)[:, None]

    def clearance(self, ids) -> np.ndarray:
        """Distance to the boundary of the vertices ``ids``, 0 on the loop.

        On a convex polygon this is the half-plane depth over its edges: the
        nearest edge line's foot point lies on that edge, or another line
        would be nearer."""
        depth = half_plane_depth(self.vertices[ids], *self.polygon.edge_normals)
        return np.where(self.interior_mask[ids], np.maximum(depth, 0.0), 0.0)

    def clear_of_boundary(self, level: float, ids=slice(None)) -> np.ndarray:
        """``clearance(ids) > level`` for a level >= 0, bit for bit."""
        ok = self.interior_mask[ids].copy()
        ok[ok] = depth_exceeds(self.polygon, self.vertices[ids][ok], level)
        return ok


@dataclass(frozen=True)
class MeshQuality:
    min_angle: float  # degrees
    h_min: float
    h_max: float
    vertex_count: int
    triangle_count: int


def element_edges(vertices: np.ndarray, triangles: np.ndarray):
    """Per triangle (a, b, c), the edge vectors e[i] opposite local vertex i,
    e = (c - b, a - c, b - a), and the signed area, positive when CCW."""
    p = np.take(vertices, triangles, axis=0)  # several times faster than vertices[triangles]
    e = (p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0])
    area = 0.5 * (e[2][:, 0] * (-e[1][:, 1]) - e[2][:, 1] * (-e[1][:, 0]))
    return e, area


def _min_angles_deg(lengths: np.ndarray) -> np.ndarray:
    """Smallest angle of each triangle from its (m, 3) edge lengths."""
    ls = np.sort(lengths, axis=1)
    a, b, c = ls[:, 0], ls[:, 1], ls[:, 2]
    cos_min = np.clip((b * b + c * c - a * a) / (2.0 * b * c), -1.0, 1.0)
    return np.degrees(np.arccos(cos_min))


class _Lattice:
    """The kept lattice points, which are the mesher's points n_b + k for
    k = 0 .. m-1 in row-major order, with their (row, col) and two masks.

    The lattice triangles with three ``deep`` vertices are the mesh's;
    ``core`` points (deep, and HALO_DEPTH*h further from every strip point)
    are not given to Qhull.  Row r is offset by h/2 when r is odd, so the
    neighbours of (r, c) are (r, c+-1) and, in rows r+-1, columns c+s-1 and
    c+s with s = r % 2.
    """

    def __init__(self, rc: np.ndarray, deep: np.ndarray, core: np.ndarray, shape):
        self.rc, self.deep, self.core = rc, deep, core
        self.grid = np.full(shape, -1, dtype=np.int64)
        self.grid[rc[:, 0], rc[:, 1]] = np.arange(len(rc))

    def triangles(self) -> np.ndarray:
        """The up and down lattice triangles with three deep vertices, each
        with its vertices sorted and then oriented CCW."""
        k = np.flatnonzero(self.deep)
        r, c = self.rc[k].T
        s = r % 2
        right = self.grid[r, c + 1]
        up_left, up_right = self.grid[r + 1, c + s - 1], self.grid[r + 1, c + s]
        up = self.deep[right] & self.deep[up_right]
        down = self.deep[up_right] & self.deep[up_left]
        return np.vstack([np.column_stack([k, right, up_right])[up],
                          np.column_stack([k, up_right, up_left])[down]])

    def demote(self, positions: np.ndarray, inserted: np.ndarray, h: float) -> None:
        """Lattice points (at ``positions``) near inserted points leave the
        deep set within DEEP_DEPTH*h and the core within a halo further."""
        if len(inserted) and self.deep.any():
            reach = (DEEP_DEPTH + HALO_DEPTH) * h
            dist, _ = cKDTree(inserted).query(positions, distance_upper_bound=reach)
            self.deep &= dist >= DEEP_DEPTH * h
            self.core &= dist >= reach


def _lattice(poly: ConvexPolygon, h: float, n_rows: int) -> tuple[np.ndarray, _Lattice]:
    """Hexagonal lattice points with half-plane depth >= h/2, row-major.

    The candidates are the bounding box's lattice points, which generate's
    MAX_MESH_SIZE estimate counts.  One ``depth_exceeds`` call decides keep
    (depth >= h/2, that is > the float below h/2), deep (> DEEP_DEPTH*h) and
    core (> (DEEP_DEPTH + HALO_DEPTH)*h) for all of them, bit for bit.
    """
    (xmin, ymin), (xmax, _) = poly.vertices.min(axis=0), poly.vertices.max(axis=0)
    rows = np.arange(n_rows + 1)
    ys = ymin + rows * (h * math.sqrt(3.0) / 2.0)
    x0 = xmin + np.where(rows % 2 == 1, 0.5 * h, 0.0)
    count = ((xmax - x0) / h).astype(np.int64) + 2
    r = np.repeat(rows, count)
    c = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    pts = np.column_stack([x0[r] + h * c, ys[r]])
    levels = [np.nextafter(0.5 * h, -np.inf), DEEP_DEPTH * h, (DEEP_DEPTH + HALO_DEPTH) * h]
    keep, deep, core = depth_exceeds(poly, pts, levels)
    return pts[keep], _Lattice(np.column_stack([r, c])[keep], deep[keep], core[keep],
                               (n_rows + 1, count.max()))


def _assemble(poly: ConvexPolygon, points: np.ndarray, n_b: int, lattice: _Lattice) -> TriMesh:
    """The Delaunay mesh of the points.

    Qhull sees every point but the core lattice points, and its triangles
    count when they touch a strip (not deep) point; the rest are the deep
    lattice triangles, canonical by construction.  Triangles are canonical:
    vertex ids sorted, then oriented CCW, then the rows lexsorted.
    """
    m = len(lattice.rc)
    seen = np.ones(len(points), dtype=bool)
    seen[n_b:n_b + m] = ~lattice.core
    strip = np.ones(len(points), dtype=bool)
    strip[n_b:n_b + m] = ~lattice.deep
    ids = np.flatnonzero(seen)
    tri = Delaunay(points[ids])
    if len(tri.coplanar):
        raise QualityFailure(f"{len(tri.coplanar)} input points omitted by Qhull")
    t = ids[tri.simplices]
    t = np.sort(t[strip[t].any(axis=1)], axis=1)
    e, areas = element_edges(points, t)
    flip = areas < 0.0
    t[flip, 1], t[flip, 2] = t[flip, 2], t[flip, 1]
    # Exactly-collinear boundary chains make Qhull emit measure-zero slivers;
    # drop anything area-degenerate relative to its longest edge.
    longest = np.hypot(*np.stack(e).T).max(axis=1)
    fine = np.abs(areas) > 1e-9 * longest * longest
    triangles = np.vstack([t[fine], lattice.triangles() + n_b])
    triangles = triangles[np.lexsort(triangles.T[::-1])].astype(np.int32)
    used = np.zeros(len(points), dtype=bool)
    used[triangles.ravel()] = True
    if not used.all():
        raise QualityFailure("vertex lost to degenerate-sliver filtering")
    # Boundary samples were laid down CCW along the polygon, so the loop is
    # theirs by construction, independent of triangulation degeneracies.
    loop = np.column_stack([np.arange(n_b), (np.arange(n_b) + 1) % n_b])
    return TriMesh(polygon=poly, vertices=points, triangles=triangles, boundary_edges=loop)


def generate(poly: ConvexPolygon, h: float) -> TriMesh:
    """Mesh the polygon at target edge length h; min angle >= 20 deg (or
    just under the sharpest polygon corner, which no triangle there can
    exceed) or QualityFailure after SPLIT_ROUNDS split rounds.  An h of
    diam/4 or more, or of more than MAX_H_INRADII inradii, is InvalidH.

    The lattice and the strip's fill points are triangulated as laid down;
    split rounds then insert circumcenters of the worst triangles and
    midpoints of encroached boundary segments until every angle meets the
    bound."""
    diam, _ = poly.diameter
    if not (0.0 < h < diam / 4.0):
        raise InvalidH(f"need 0 < h < diam/4 = {diam / 4.0:g}, got {h}")
    rho, _ = poly.inradius
    if h > MAX_H_INRADII * rho:
        raise InvalidH(f"need h <= {MAX_H_INRADII:g} * inradius = {MAX_H_INRADII * rho:g}, "
                       f"got {h}")
    verts = poly.vertices
    xmin, ymin = verts.min(axis=0)
    xmax, ymax = verts.max(axis=0)
    n_rows = int((ymax - ymin) / (h * math.sqrt(3.0) / 2.0)) + 1
    estimate = (n_rows + 1) * (int((xmax - xmin) / h) + 2)
    if estimate > MAX_MESH_SIZE:
        raise InvalidH(f"h = {h} lays down up to {estimate} lattice points > {MAX_MESH_SIZE}")

    # Boundary samples: spacing <= h on every polygon edge, vertices kept.
    step = np.roll(verts, -1, axis=0) - verts
    per_edge = np.array([max(1, math.ceil(math.hypot(*s) / h)) for s in step])
    edge = np.repeat(np.arange(len(verts)), per_edge)
    j = np.arange(len(edge)) - np.repeat(np.cumsum(per_edge) - per_edge, per_edge)
    boundary_pts = verts[edge] + (j / per_edge[edge])[:, None] * step[edge]

    # Hexagonal interior lattice with h/2 clearance.
    interior_pts, lattice = _lattice(poly, h, n_rows)
    m = len(interior_pts)

    # Fill points.  Where a lattice row just misses the h/2 clearance the
    # strip is up to 1.4 h deep.  A point h/2 inside each boundary segment's
    # midpoint goes where it is farther than the lattice's covering radius
    # h/sqrt(3) from every lattice point (in a gap, not beside a row), h/2
    # from every polygon edge (its own is h/2 away up to rounding) and from
    # the fill points kept before it, largest gap first.
    fill = (verts[edge] + ((j + 0.5) / per_edge[edge])[:, None] * step[edge]
            - 0.5 * h * poly.edge_normals[0][edge])
    gap, _ = cKDTree(interior_pts).query(fill)
    keep = ((gap > h / math.sqrt(3.0))
            & depth_exceeds(poly, fill, np.nextafter(0.5 * h * (1.0 - 1e-9), -np.inf)))
    fill, gap = fill[keep], gap[keep]
    fill = fill[_independent(fill, np.full(len(fill), 0.5 * h), np.argsort(-gap, kind="stable"))]

    target = min(MIN_ANGLE_DEG, _sharpest_corner_deg(verts) - 1e-9)
    n_b = len(boundary_pts)
    points = np.vstack([boundary_pts, interior_pts, fill])
    mesh = _assemble(poly, points, n_b, lattice)

    # Ruppert-style split rounds (Ruppert, J. Algorithms 18, 1995).  Worst
    # triangles go first; a circumcenter already chosen inside a triangle's
    # circumcircle destroys that triangle, so its own circumcenter waits for
    # the next round.
    for split_round in itertools.count():
        angles = _min_angles_deg(mesh.lengths)
        if angles.min() >= target:
            return mesh
        if split_round == SPLIT_ROUNDS:
            raise QualityFailure(f"min angle {angles.min():.2f} deg < {target} "
                                 f"after {SPLIT_ROUNDS} split rounds")
        bad = mesh.triangles[angles < target]
        cc = _circumcenters(mesh.vertices, bad)
        radius = np.hypot(*(cc - mesh.vertices[bad[:, 0]]).T)
        cc = cc[_independent(cc, radius, np.argsort(angles[angles < target], kind="stable"))]
        # A boundary segment with a vertex or a chosen circumcenter inside
        # its diametral circle is split instead; a vertex there is what puts
        # circumcenters outside the domain.
        bnd, ends = points[:n_b], np.roll(points[:n_b], -1, axis=0)
        mids = 0.5 * (bnd + ends)
        half = 0.5 * np.hypot(*(ends - bnd).T)
        # Candidate pairs within the longest half-segment come from a k-d tree,
        # so no circumcenter x segment matrix is built; then the exact test.
        pairs = cKDTree(cc).sparse_distance_matrix(cKDTree(mids), half.max() * (1.0 + 1e-9),
                                                   output_type="ndarray")
        ci, si = pairs["i"], pairs["j"]
        near = np.hypot(*(cc[ci] - mids[si]).T) < half[si]
        crowded = cKDTree(points).query_ball_point(mids, half * (1.0 - 1e-9),
                                                   return_length=True) > 0
        split = crowded | (np.bincount(si[near], minlength=n_b) > 0)
        order = np.argsort(np.concatenate([np.arange(n_b), np.nonzero(split)[0] + 0.5]))
        bnd = np.vstack([bnd, mids[split]])[order]
        clear = np.bincount(ci[near], minlength=len(cc)) == 0
        inserted = cc[clear & depth_exceeds(poly, cc, 0.0)]
        points = np.vstack([bnd, points[n_b:], inserted])
        n_b = len(bnd)
        lattice.demote(points[n_b:n_b + m], inserted, h)
        mesh = _assemble(poly, points, n_b, lattice)


def _independent(cc: np.ndarray, radius: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The points (circumcenters, fill points) taken greedily in ``order``:
    each one that no point taken before it lies closer to than its
    ``radius``.  Only those in a ball of that radius (with a rounding
    margin) are tested."""
    ball = cKDTree(cc).query_ball_point(cc, radius * (1.0 + 1e-9))
    xy, taken = cc.tolist(), [False] * len(cc)
    for i in order.tolist():
        taken[i] = all(math.dist(xy[i], xy[j]) >= radius[i] for j in ball[i] if taken[j])
    return order[np.array(taken, dtype=bool)[order]]


def _sharpest_corner_deg(verts: np.ndarray) -> float:
    to_prev = np.roll(verts, 1, axis=0) - verts
    to_next = np.roll(verts, -1, axis=0) - verts
    cos = np.einsum("ij,ij->i", to_prev, to_next) / (
        np.linalg.norm(to_prev, axis=1) * np.linalg.norm(to_next, axis=1)
    )
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))).min())


def _circumcenters(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    e, area = element_edges(vertices, triangles)
    ab, ac = e[2], -e[1]
    b2 = np.einsum("ij,ij->i", ab, ab)
    c2 = np.einsum("ij,ij->i", ac, ac)
    u = np.column_stack([ac[:, 1] * b2 - ab[:, 1] * c2, ab[:, 0] * c2 - ac[:, 0] * b2])
    return vertices[triangles[:, 0]] + u / (4.0 * area)[:, None]


def refine(mesh: TriMesh) -> TriMesh:
    """Split every triangle into 4 by edge midpoints; boundary midpoints stay
    on the (straight) polygon edges, h_max halves."""
    if 4 * mesh.triangle_count > MAX_MESH_SIZE:
        raise InvalidH(f"refining the h_max = {mesh.h_max:g} mesh makes "
                       f"{4 * mesh.triangle_count} triangles > {MAX_MESH_SIZE}")
    verts = mesh.vertices
    tris = mesh.triangles
    edges = mesh.edges
    n0 = len(verts)
    new_verts = np.vstack([verts, 0.5 * (verts[edges[:, 0]] + verts[edges[:, 1]])])
    keys = edges[:, 0] * n0 + edges[:, 1]

    def mid(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        return n0 + np.searchsorted(keys, np.minimum(p, q) * n0 + np.maximum(p, q))

    a, b, c = tris.astype(np.int64).T
    mab, mbc, mca = mid(a, b), mid(b, c), mid(c, a)
    new_tris = np.stack([
        np.column_stack([a, mab, mca]),
        np.column_stack([mab, b, mbc]),
        np.column_stack([mca, mbc, c]),
        np.column_stack([mab, mbc, mca]),
    ], axis=1).reshape(-1, 3).astype(tris.dtype)

    ba, bb = mesh.boundary_edges.astype(np.int64).T
    bm = mid(ba, bb)
    loops = np.column_stack([ba, bm, bm, bb]).reshape(-1, 2)

    return TriMesh(polygon=mesh.polygon, vertices=new_verts, triangles=new_tris,
                   boundary_edges=loops)


def quality(mesh: TriMesh) -> MeshQuality:
    ls = mesh.lengths
    return MeshQuality(float(_min_angles_deg(ls).min()), float(ls.min()), float(ls.max()),
                       mesh.vertex_count, mesh.triangle_count)


def dump_mesh(mesh: TriMesh, path) -> None:
    """Plain-text dump: header 'HSV-MESH 1', counts, coordinates, index triples."""
    lines = ["HSV-MESH 1", f"{mesh.vertex_count} {mesh.triangle_count}"]
    for x, y in mesh.vertices.tolist():
        lines.append(f"{x!r} {y!r}")
    for i, j, k in mesh.triangles.tolist():
        lines.append(f"{i} {j} {k}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
