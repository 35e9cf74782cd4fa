"""Quasi-uniform triangle meshes of convex polygons for P1 elements.

Convexity is what keeps this simple: the Delaunay triangulation of boundary
samples plus interior points tiles the polygon exactly, so no constrained
triangulation is needed.  Interior points start on a hexagonal lattice with
h/2 clearance from the boundary and are relaxed by barycentric smoothing
(boundary samples never move).  Smoothing triangulates once and keeps those
neighbour lists while the points move; the mesh is then the Delaunay
triangulation of the final point set.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import InvalidH, PointOutsideMesh, QualityFailure
from .geometry import ConvexPolygon

MIN_ANGLE_DEG = 20.0
SMOOTHING_PASSES = 10
QUALITY_RETRIES = 3
SPLIT_ROUNDS = 20
DEPTH_CHUNK = 65_536  # elements per depth chunk: its temporaries stay in cache
MAX_MESH_SIZE = 4_000_000  # cap on the lattice points of generate, the triangles of refine


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Conforming triangulation of a convex polygon.

    ``boundary_edges`` lists vertex index pairs forming one closed CCW loop;
    ``boundary_normals`` are the outward unit normals.
    """

    vertices: np.ndarray            # (n, 2)
    triangles: np.ndarray           # (m, 3) int, CCW
    boundary_edges: np.ndarray      # (b, 2) int, ordered CCW loop
    boundary_normals: np.ndarray    # (b, 2)
    h_max: float
    interior_mask: np.ndarray       # (n,) bool

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def triangle_count(self) -> int:
        return len(self.triangles)

    @cached_property
    def edges(self) -> np.ndarray:
        """(e, 2) unique vertex pairs (a < b), sorted lexicographically."""
        t = self.triangles.astype(np.int64)
        pairs = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
        keys = np.unique(pairs[:, 0] * self.vertex_count + pairs[:, 1])
        return np.column_stack(np.divmod(keys, self.vertex_count))

    @cached_property
    def boundary_clearance(self) -> np.ndarray:
        """(n,) distance from each vertex to the boundary.

        On a convex domain this is the half-plane depth
        max(0, min_e(offset_e - n_e.v)) over the boundary edges: the nearest
        edge line's foot point lies on that edge, or another line would be
        nearer.  Edges with bit-equal normals (the halves that `refine` makes)
        share a line up to rounding, so each such group enters with its least
        offset only; subtraction rounds monotonically, so the result is
        bit-equal to testing every edge.
        """
        normals = np.ascontiguousarray(self.boundary_normals)
        offsets = np.einsum("ij,ij->i", normals, self.vertices[self.boundary_edges[:, 0]])
        _, first, group = np.unique(normals.view(np.int64), axis=0,
                                    return_index=True, return_inverse=True)
        least = np.full(len(first), np.inf)
        np.minimum.at(least, group.ravel(), offsets)
        return np.maximum(_half_plane_depth(self.vertices, normals[first], least), 0.0)


@dataclass(frozen=True)
class MeshQuality:
    min_angle: float  # degrees
    h_min: float
    h_max: float
    vertex_count: int
    triangle_count: int


def _half_plane_depth(points: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(n,) min over edges e of offset_e - n_e.p, DEPTH_CHUNK elements at a time.
    Elementwise, not a BLAS product (which rounds per block): same bits for any chunk."""
    out = np.empty(len(points))
    nx, ny = normals[:, 0], normals[:, 1]
    rows = max(1, DEPTH_CHUNK // len(normals))
    for lo in range(0, len(points), rows):
        depth = points[lo:lo + rows, :1] * nx
        depth += points[lo:lo + rows, 1:] * ny
        np.subtract(offsets, depth, out=depth)
        out[lo:lo + rows] = depth.min(axis=1)
    return out


def _signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    return 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                  - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))


def _orient_ccw(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    flip = _signed_areas(vertices, triangles) < 0.0
    out = triangles.copy()
    out[flip, 1], out[flip, 2] = triangles[flip, 2], triangles[flip, 1]
    return out


def _edge_lengths(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    return np.column_stack([
        np.hypot(*(b - a).T),
        np.hypot(*(c - b).T),
        np.hypot(*(a - c).T),
    ])


def _min_angles_deg(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    ls = np.sort(_edge_lengths(vertices, triangles), axis=1)
    a, b, c = ls[:, 0], ls[:, 1], ls[:, 2]
    cos_min = np.clip((b * b + c * c - a * a) / (2.0 * b * c), -1.0, 1.0)
    return np.degrees(np.arccos(cos_min))


def _outward_normals(vertices: np.ndarray, loop: np.ndarray) -> np.ndarray:
    e = vertices[loop[:, 1]] - vertices[loop[:, 0]]
    n = np.column_stack([e[:, 1], -e[:, 0]])
    return n / np.linalg.norm(n, axis=1)[:, None]


def _assemble(points: np.ndarray, n_boundary: int) -> TriMesh:
    tri = Delaunay(points)
    if len(tri.coplanar):
        raise QualityFailure(f"{len(tri.coplanar)} input points omitted by Qhull")
    triangles = _orient_ccw(points, np.sort(tri.simplices, axis=1))
    # Exactly-collinear boundary chains make Qhull emit measure-zero slivers;
    # drop anything area-degenerate relative to its longest edge.
    areas = _signed_areas(points, triangles)
    longest = _edge_lengths(points, triangles).max(axis=1)
    triangles = triangles[areas > 1e-9 * longest * longest]
    used = np.zeros(len(points), dtype=bool)
    used[triangles.ravel()] = True
    if not used.all():
        raise QualityFailure("vertex lost to degenerate-sliver filtering")
    # Boundary samples were laid down CCW along the polygon, so the loop is
    # theirs by construction, independent of triangulation degeneracies.
    loop = np.column_stack([
        np.arange(n_boundary), (np.arange(n_boundary) + 1) % n_boundary
    ])
    normals = _outward_normals(points, loop)
    interior = np.ones(len(points), dtype=bool)
    interior[:n_boundary] = False
    return TriMesh(
        vertices=points,
        triangles=triangles,
        boundary_edges=loop,
        boundary_normals=normals,
        h_max=float(_edge_lengths(points, triangles).max()),
        interior_mask=interior,
    )


def _smooth(points: np.ndarray, movable: np.ndarray, passes: int) -> np.ndarray:
    """Barycentric smoothing on the neighbour lists of one Delaunay
    triangulation, kept fixed while the points move (DistMesh's rule)."""
    pts = points.copy()
    indptr, indices = Delaunay(pts).vertex_neighbor_vertices
    nbr_cnt = np.diff(indptr)
    owner = np.repeat(np.arange(len(pts)), nbr_cnt)
    upd = movable & (nbr_cnt > 0)
    for _ in range(passes):
        nbr_sum = np.column_stack([
            np.bincount(owner, weights=pts[indices, j], minlength=len(pts))
            for j in (0, 1)
        ])
        pts[upd] = nbr_sum[upd] / nbr_cnt[upd, None]
    return pts


def generate(poly: ConvexPolygon, h: float) -> TriMesh:
    """Mesh the polygon at target edge length h; min angle >= 20 deg (or
    just under the sharpest polygon corner, which no triangle there can
    exceed) or QualityFailure after the circumcenter-insertion retry budget."""
    diam, _ = poly.diameter
    if not (0.0 < h < diam / 4.0):
        raise InvalidH(f"need 0 < h < diam/4 = {diam / 4.0:g}, got {h}")
    verts = poly.vertices
    xmin, ymin = verts.min(axis=0)
    xmax, ymax = verts.max(axis=0)
    dy = h * math.sqrt(3.0) / 2.0
    n_rows = int((ymax - ymin) / dy) + 1
    estimate = (n_rows + 1) * (int((xmax - xmin) / h) + 2)
    if estimate > MAX_MESH_SIZE:
        raise InvalidH(f"h = {h} lays down up to {estimate} lattice points > {MAX_MESH_SIZE}")

    # Boundary samples: spacing <= h on every polygon edge, vertices kept.
    nxt = np.roll(verts, -1, axis=0)
    bnd: list[np.ndarray] = []
    for a, b in zip(verts, nxt):
        m = max(1, int(math.ceil(math.hypot(*(b - a)) / h)))
        for j in range(m):
            bnd.append(a + (j / m) * (b - a))
    boundary_pts = np.array(bnd)

    # Hexagonal interior lattice with h/2 clearance (conservative: distance
    # to edge lines underestimates distance to the boundary).
    normals, offsets = poly.edge_normals
    rows = []
    for r in range(n_rows + 1):
        y = ymin + r * dy
        x0 = xmin + (0.5 * h if r % 2 else 0.0)
        n_cols = int((xmax - x0) / h) + 1
        xs = x0 + h * np.arange(n_cols + 1)
        rows.append(np.column_stack([xs, np.full(len(xs), y)]))
    lattice = np.vstack(rows)
    keep = _half_plane_depth(lattice, normals, offsets) >= 0.5 * h
    interior_pts = lattice[keep]

    target = min(MIN_ANGLE_DEG, _sharpest_corner_deg(verts) - 1e-9)
    n_b = len(boundary_pts)
    points = np.vstack([boundary_pts, interior_pts]) if len(interior_pts) else boundary_pts
    movable = np.zeros(len(points), dtype=bool)
    movable[n_b:] = True
    points = _smooth(points, movable, SMOOTHING_PASSES)
    mesh = _assemble(points, n_b)

    retries = 0
    for _ in range(QUALITY_RETRIES + SPLIT_ROUNDS):
        angles = _min_angles_deg(mesh.vertices, mesh.triangles)
        if angles.min() >= target:
            return mesh
        bad = mesh.triangles[angles < target]
        cc = _circumcenters(mesh.vertices, bad)
        # clearance proportional to the offending triangle, not the global h:
        # badly graded boundary layers need insertions near the boundary
        shortest = _edge_lengths(mesh.vertices, bad).min(axis=1)
        depth = _half_plane_depth(cc, normals, offsets)
        keep = depth >= 0.45 * shortest
        if retries < QUALITY_RETRIES and keep.any():
            retries += 1
            points = np.vstack([points, cc[keep]])
            movable = np.zeros(len(points), dtype=bool)
            movable[n_b:] = True
            points = _smooth(points, movable, SMOOTHING_PASSES)
        else:
            # What smoothed insertion cannot fix (polygon edges much shorter
            # than h) is refined Ruppert-style, without smoothing, which would
            # undo the grading.  Worst triangles go first; a circumcenter
            # already chosen inside a triangle's circumcircle destroys that
            # triangle, so its own circumcenter waits for the next round.
            retries = QUALITY_RETRIES
            radius = np.hypot(*(cc - mesh.vertices[bad[:, 0]]).T)
            take: list[int] = []
            for i in np.argsort(angles[angles < target], kind="stable"):
                if all(math.dist(cc[i], cc[j]) >= radius[i] for j in take):
                    take.append(i)
            cc, depth = cc[take], depth[take]
            # A boundary segment with a vertex or a chosen circumcenter inside
            # its diametral circle is split instead; a vertex there is what
            # puts circumcenters outside the domain.
            bnd, ends = points[:n_b], np.roll(points[:n_b], -1, axis=0)
            mids = 0.5 * (bnd + ends)
            half = 0.5 * np.hypot(*(ends - bnd).T)
            near = np.hypot(cc[:, None, 0] - mids[:, 0], cc[:, None, 1] - mids[:, 1]) < half
            crowded = cKDTree(points).query_ball_point(mids, half * (1.0 - 1e-9),
                                                       return_length=True) > 0
            split = near.any(axis=0) | crowded
            order = np.argsort(np.concatenate([np.arange(n_b), np.nonzero(split)[0] + 0.5]))
            bnd = np.vstack([bnd, mids[split]])[order]
            points = np.vstack([bnd, points[n_b:], cc[~near.any(axis=1) & (depth > 0.0)]])
            n_b = len(bnd)
        mesh = _assemble(points, n_b)

    angles = _min_angles_deg(mesh.vertices, mesh.triangles)
    if angles.min() < target:
        raise QualityFailure(
            f"min angle {angles.min():.2f} deg < {target} after retries"
        )
    return mesh


def _sharpest_corner_deg(verts: np.ndarray) -> float:
    to_prev = np.roll(verts, 1, axis=0) - verts
    to_next = np.roll(verts, -1, axis=0) - verts
    cos = np.einsum("ij,ij->i", to_prev, to_next) / (
        np.linalg.norm(to_prev, axis=1) * np.linalg.norm(to_next, axis=1)
    )
    return float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))).min())


def _circumcenters(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    a = vertices[triangles[:, 0]]
    b = vertices[triangles[:, 1]]
    c = vertices[triangles[:, 2]]
    d = 2.0 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
               - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    b2 = np.einsum("ij,ij->i", b - a, b - a)
    c2 = np.einsum("ij,ij->i", c - a, c - a)
    ux = (c[:, 1] - a[:, 1]) * b2 - (b[:, 1] - a[:, 1]) * c2
    uy = (b[:, 0] - a[:, 0]) * c2 - (c[:, 0] - a[:, 0]) * b2
    return a + np.column_stack([ux, uy]) / d[:, None]


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

    interior = np.ones(len(new_verts), dtype=bool)
    interior[:n0] = mesh.interior_mask
    interior[loops.ravel()] = False

    return TriMesh(
        vertices=new_verts,
        triangles=new_tris,
        boundary_edges=loops,
        boundary_normals=np.repeat(mesh.boundary_normals, 2, axis=0),
        h_max=float(_edge_lengths(new_verts, new_tris).max()),
        interior_mask=interior,
    )


def quality(mesh: TriMesh) -> MeshQuality:
    ls = _edge_lengths(mesh.vertices, mesh.triangles)
    return MeshQuality(
        min_angle=float(_min_angles_deg(mesh.vertices, mesh.triangles).min()),
        h_min=float(ls.min()),
        h_max=float(ls.max()),
        vertex_count=mesh.vertex_count,
        triangle_count=mesh.triangle_count,
    )


def interpolate(mesh: TriMesh, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """P1 interpolation of vertex values at arbitrary points inside the mesh.

    Each point is located among the triangles whose centroids are near it,
    in index order, so the lowest-index containing triangle wins.  Raises
    PointOutsideMesh.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tris = mesh.triangles
    a = mesh.vertices[tris[:, 0]]
    b = mesh.vertices[tris[:, 1]]
    c = mesh.vertices[tris[:, 2]]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    centroids = (a + b + c) / 3.0
    # A point of triangle t, or of the 1e-6 micro-gap band around it, lies
    # within (1 + 3e-6) R_t of t's centroid, R_t its farthest vertex.
    reach = max(np.hypot(*(v - centroids).T).max() for v in (a, b, c))
    near = cKDTree(centroids).query_ball_point(pts, 1.01 * reach, return_sorted=True)
    counts = np.fromiter(map(len, near), dtype=np.intp, count=len(pts))
    t = np.fromiter(itertools.chain.from_iterable(near), dtype=np.intp, count=counts.sum())
    owner = np.repeat(np.arange(len(pts)), counts)
    px, py = pts[owner, 0], pts[owner, 1]
    l1 = ((b[t, 0] - px) * (c[t, 1] - py) - (b[t, 1] - py) * (c[t, 0] - px)) / det[t]
    l2 = ((c[t, 0] - px) * (a[t, 1] - py) - (c[t, 1] - py) * (a[t, 0] - px)) / det[t]
    l3 = 1.0 - l1 - l2
    worst = np.minimum(np.minimum(l1, l2), l3)
    starts = np.cumsum(counts) - counts
    hit = np.flatnonzero(worst >= -1e-12)
    pick = np.full(len(pts), len(t))
    np.minimum.at(pick, owner[hit], hit)
    for i in np.flatnonzero(pick == len(t)):
        # heal micro-gaps left by the degenerate-sliver filter
        seg = worst[starts[i]:starts[i] + counts[i]]
        if not len(seg) or seg.max() < -1e-6:
            raise PointOutsideMesh(f"point {pts[i]} is outside the mesh")
        pick[i] = starts[i] + int(np.argmax(seg))
    tp = tris[t[pick]]
    return l1[pick] * values[tp[:, 0]] + l2[pick] * values[tp[:, 1]] + l3[pick] * values[tp[:, 2]]


def dump_mesh(mesh: TriMesh, path) -> None:
    """Plain-text dump: header 'HSV-MESH 1', counts, coordinates, index triples."""
    lines = ["HSV-MESH 1", f"{mesh.vertex_count} {mesh.triangle_count}"]
    for x, y in mesh.vertices.tolist():
        lines.append(f"{x!r} {y!r}")
    for i, j, k in mesh.triangles.tolist():
        lines.append(f"{i} {j} {k}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
