"""Independent oracles used to freeze expected values.

Everything here is deliberately decoupled from the package implementations:
exact rational arithmetic for the Bessel series, O(n^2)/O(n^4) enumeration
for the geometry.  Slow and simple on purpose.
"""

import math
from fractions import Fraction

import numpy as np


def j0_series_exact(x: float, terms: int = 80) -> float:
    """J0 by the ascending series in exact rational arithmetic (x <= ~20)."""
    q = Fraction(x) * Fraction(x) / 4
    term = Fraction(1)
    acc = Fraction(1)
    for k in range(1, terms + 1):
        term *= -q / (k * k)
        acc += term
    return float(acc)


def j1_series_exact(x: float, terms: int = 80) -> float:
    q = Fraction(x) * Fraction(x) / 4
    term = Fraction(1)
    acc = Fraction(1)
    for k in range(1, terms + 1):
        term *= -q / (k * (k + 1))
        acc += term
    return float(Fraction(x) / 2 * acc)


def brute_force_diameter(vertices: np.ndarray) -> float:
    best = -1.0
    n = len(vertices)
    for i in range(n):
        for j in range(i + 1, n):
            d_sq = (vertices[i, 0] - vertices[j, 0]) ** 2 + (
                vertices[i, 1] - vertices[j, 1]
            ) ** 2
            if d_sq > best:
                best = d_sq
    return math.sqrt(best)


def brute_force_mec(vertices: np.ndarray) -> tuple[float, float, float]:
    """Exhaustive 2- and 3-point candidate circles; smallest valid one."""
    pts = np.asarray(vertices, dtype=float)
    n = len(pts)
    scale = float(np.abs(pts).max()) + 1.0
    best = None

    def consider(cx, cy, r):
        nonlocal best
        d = np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
        if np.all(d <= r + 1e-12 * scale) and (best is None or r < best[2]):
            best = (cx, cy, r)

    for i in range(n):
        for j in range(i + 1, n):
            cx = (pts[i, 0] + pts[j, 0]) / 2.0
            cy = (pts[i, 1] + pts[j, 1]) / 2.0
            consider(cx, cy, max(math.hypot(cx - pts[i, 0], cy - pts[i, 1]),
                                 math.hypot(cx - pts[j, 0], cy - pts[j, 1])))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ax, ay = pts[i]
                bx, by = pts[j]
                cx, cy = pts[k]
                d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
                if d == 0.0:
                    continue
                ux = ((ax * ax + ay * ay) * (by - cy)
                      + (bx * bx + by * by) * (cy - ay)
                      + (cx * cx + cy * cy) * (ay - by)) / d
                uy = ((ax * ax + ay * ay) * (cx - bx)
                      + (bx * bx + by * by) * (ax - cx)
                      + (cx * cx + cy * cy) * (bx - ax)) / d
                r = max(
                    math.hypot(ux - ax, uy - ay),
                    math.hypot(ux - bx, uy - by),
                    math.hypot(ux - cx, uy - cy),
                )
                consider(ux, uy, r)
    return best


def chebyshev_lp(poly) -> tuple[float, np.ndarray]:
    """Inradius and one Chebyshev centre by the LP: maximize rho subject to
    n_i.c + rho <= offset_i for every edge (HiGHS)."""
    from scipy.optimize import linprog

    normals, offsets = poly.edge_normals
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.column_stack([normals, np.ones(len(normals))]),
                  b_ub=offsets, bounds=[(None, None), (None, None), (0.0, None)],
                  method="highs")
    assert res.success, res.message
    return float(res.x[2]), res.x[:2]


# --- per-vertex reference loops for the vectorized mesh analysis -------------

def _vertex_links(mesh) -> list:
    """Neighbors of each vertex sorted by angle around it (cyclic link order)."""
    n = mesh.vertex_count
    nbrs = [set() for _ in range(n)]
    for a, b, c in mesh.triangles:
        nbrs[a].update((b, c))
        nbrs[b].update((a, c))
        nbrs[c].update((a, b))
    verts = mesh.vertices
    links = []
    for v in range(n):
        arr = np.fromiter(nbrs[v], dtype=int)
        d = verts[arr] - verts[v]
        links.append(arr[np.argsort(np.arctan2(d[:, 1], d[:, 0]), kind="stable")])
    return links


def banchoff_critical_points(mesh, psi, poly) -> list:
    """Banchoff classification by walking each interior vertex's angularly
    sorted link; ties within 1e-12*||psi||_inf broken by vertex index."""
    from hotspots.analysis import TIE_REL, CriticalPoint
    from hotspots.geometry import farthest_boundary_distance

    tie = TIE_REL * float(np.abs(psi).max())
    links = _vertex_links(mesh)
    out = []
    for v in np.nonzero(mesh.interior_mask)[0]:
        link = links[int(v)]
        diffs = psi[link] - psi[v]
        signs = np.where(
            np.abs(diffs) <= tie, np.where(link > v, 1.0, -1.0), np.sign(diffs)
        )
        alt = int(np.sum(signs != np.roll(signs, 1)))
        if alt == 2:
            continue
        kind = "saddle" if alt >= 4 else ("min" if signs[0] > 0 else "max")
        loc = (float(mesh.vertices[v, 0]), float(mesh.vertices[v, 1]))
        out.append(CriticalPoint(
            vertex_id=int(v), location=loc, value=float(psi[v]), kind=kind,
            alternations=alt, farthest_distance=farthest_boundary_distance(poly, [loc])[0],
        ))
    return out


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def union_find_nodal(mesh, w):
    """Nodal decomposition by union-find over edges and a per-triangle
    segment loop: (segments, labels, component_signs, touches_boundary)."""
    from hotspots.analysis import TIE_REL

    w = np.asarray(w, dtype=float)
    n = mesh.vertex_count
    tie = TIE_REL * float(np.abs(w).max()) if np.any(w) else 0.0
    signed = np.where(np.abs(w) <= tie, 0, np.where(w > 0.0, 1, -1))

    uf = _UnionFind(n)
    edges = set()
    for a, b, c in mesh.triangles:
        edges.update({(min(a, b), max(a, b)), (min(b, c), max(b, c)), (min(a, c), max(a, c))})
    for a, b in edges:
        if signed[a] != 0 and signed[a] == signed[b]:
            uf.union(a, b)

    labels = np.full(n, -1)
    roots = {}
    for v in range(n):
        if signed[v] == 0:
            continue
        r = uf.find(v)
        if r not in roots:
            roots[r] = len(roots)
        labels[v] = roots[r]
    comp_signs = np.zeros(len(roots), dtype=int)
    for v in range(n):
        if labels[v] >= 0:
            comp_signs[labels[v]] = signed[v]

    near = boundary_distances(mesh, mesh.vertices) <= mesh.h_max
    touches = np.zeros(len(roots), dtype=bool)
    for v in range(n):
        if labels[v] >= 0 and (not mesh.interior_mask[v] or near[v]):
            touches[labels[v]] = True

    segments = []
    verts = mesh.vertices
    for tri in mesh.triangles:
        pos = [int(v) for v in tri if w[v] > 0.0]
        neg = [int(v) for v in tri if w[v] <= 0.0]
        if not pos or not neg:
            continue
        solo, duo = (pos[0], neg) if len(pos) == 1 else (neg[0], pos)
        segments.append([
            verts[solo] + (w[solo] / (w[solo] - w[other])) * (verts[other] - verts[solo])
            for other in duo
        ])
    seg_arr = np.array(segments) if segments else np.empty((0, 2, 2))
    return seg_arr, labels, comp_signs, touches


def _segment_distances(points: np.ndarray, seg_a: np.ndarray, seg_b: np.ndarray) -> np.ndarray:
    """Min distance from each point to a set of segments (chunked broadcast)."""
    out = np.full(len(points), np.inf)
    ab = seg_b - seg_a
    denom = np.einsum("ij,ij->i", ab, ab)
    chunk = max(1, 2_000_000 // max(len(seg_a), 1))
    for lo in range(0, len(points), chunk):
        p = points[lo:lo + chunk]
        ap = p[:, None, :] - seg_a[None, :, :]
        t = np.clip(np.einsum("pej,ej->pe", ap, ab) / denom[None, :], 0.0, 1.0)
        d = ap - t[:, :, None] * ab[None, :, :]
        out[lo:lo + chunk] = np.sqrt(np.einsum("pej,pej->pe", d, d).min(axis=1))
    return out


def boundary_distances(mesh, points: np.ndarray) -> np.ndarray:
    """Distance from each point to the mesh boundary, segment by segment."""
    seg_a = mesh.vertices[mesh.boundary_edges[:, 0]]
    seg_b = mesh.vertices[mesh.boundary_edges[:, 1]]
    return _segment_distances(np.atleast_2d(points), seg_a, seg_b)


def all_edges_clearance(mesh) -> np.ndarray:
    """Half-plane depth of every vertex against the line of every boundary
    edge (the mesher's earlier `boundary_clearance`)."""
    from hotspots.geometry import half_plane_depth

    normals = mesh.boundary_normals
    offsets = np.einsum("ij,ij->i", normals, mesh.vertices[mesh.boundary_edges[:, 0]])
    return np.maximum(half_plane_depth(mesh.vertices, normals, offsets), 0.0)


def unique_edges(mesh) -> np.ndarray:
    """(e, 2) unique vertex pairs (a < b) of the triangles, sorted
    lexicographically by `np.unique` (the mesh's earlier `edges`)."""
    t = mesh.triangles.astype(np.int64)
    pairs = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    keys = np.unique(pairs[:, 0] * mesh.vertex_count + pairs[:, 1])
    return np.column_stack(np.divmod(keys, mesh.vertex_count))


def in_circumcircle(a, b, c, p, scale: float, tie: float = 1e-12) -> bool:
    """True iff p lies strictly inside the circumcircle of CCW triangle abc.

    Compensated determinant with an absolute tie band tie*scale^4; ties
    report False (not inside).
    """
    ax, ay = a[0] - p[0], a[1] - p[1]
    bx, by = b[0] - p[0], b[1] - p[1]
    cx, cy = c[0] - p[0], c[1] - p[1]
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    det = math.fsum([
        ax * by * c2, -ax * b2 * cy, -a2 * by * cx,
        ay * b2 * cx, -ay * bx * c2, a2 * bx * cy,
    ])
    if abs(det) <= tie * scale ** 4:
        return False
    return det > 0.0


# --- membership predicates and the bisection exclusion region -----------------

def contains(poly, p) -> bool:
    """Closed-region membership with a 1e-12*scale boundary band."""
    q = np.asarray(p, dtype=float)
    normals, offsets = poly.edge_normals
    return bool(np.all(normals @ q <= offsets + 1e-12 * poly.scale))


def region_member(poly, region, p) -> bool:
    """Direct predicate the region samples: F(p) <= threshold and p in domain."""
    from hotspots.geometry import farthest_boundary_distance

    return contains(poly, p) and farthest_boundary_distance(poly, [p])[0] <= region.threshold


def polyline_contains(boundary: np.ndarray, p) -> bool:
    """Membership in the closed polyline (CCW convex fan from its centroid)."""
    q = np.asarray(p, dtype=float)
    a = boundary
    b = np.roll(boundary, -1, axis=0)
    cross = (b[:, 0] - a[:, 0]) * (q[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (q[0] - a[:, 0])
    return bool(np.all(cross >= -1e-12 * (np.abs(cross).max() + 1.0)))


def bisection_region(poly, ratio: float, rays: int = 720):
    """The exclusion region by per-ray bisection of the membership predicate
    to 1e-6*diam: (boundary, binding), binding guessed from |F - T| <= 2 tol."""
    from hotspots.geometry import farthest_boundary_distance

    d = poly.diameter[0]
    threshold = ratio * d
    tol = 1e-6 * d
    seed_xy = np.array(poly.min_enclosing_circle.center)
    normals, offsets = poly.edge_normals
    verts = poly.vertices
    inside_tol = 1e-12 * poly.scale

    def member(q: np.ndarray) -> bool:
        if np.any(normals @ q > offsets + inside_tol):
            return False
        dx = verts[:, 0] - q[0]
        dy = verts[:, 1] - q[1]
        return math.sqrt(float(np.max(dx * dx + dy * dy))) <= threshold

    boundary = np.empty((rays, 2))
    binding = []
    for i in range(rays):
        theta = 2.0 * math.pi * i / rays
        direction = np.array([math.cos(theta), math.sin(theta)])
        lo, hi = 0.0, 2.0 * d
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if member(seed_xy + mid * direction):
                lo = mid
            else:
                hi = mid
        q = seed_xy + lo * direction
        boundary[i] = q
        f_q = farthest_boundary_distance(poly, [q])[0]
        binding.append("farthest" if abs(f_q - threshold) <= 2.0 * tol else "domain")
    return boundary, tuple(binding)


# --- the mesher's earlier loops and its Delaunay references ------------------

def greedy_circumcenters(cc: np.ndarray, radius: np.ndarray, order: np.ndarray) -> list:
    """The split rounds' greedy choice, testing each circumcenter against
    every one taken before it (the mesher's earlier all-pairs loop)."""
    take = []
    for i in order:
        if all(math.dist(cc[i], cc[j]) >= radius[i] for j in take):
            take.append(i)
    return take


def canonical_delaunay(points: np.ndarray) -> np.ndarray:
    """Qhull's triangulation of all points in the mesher's canonical form:
    vertex ids sorted, then oriented CCW, measure-zero slivers (area at most
    1e-9 times the longest edge squared) dropped, rows lexsorted."""
    from scipy.spatial import Delaunay

    t = np.sort(Delaunay(points).simplices, axis=1)
    a, b, c = (points[t[:, i]] for i in range(3))
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    flip = cross < 0.0
    t[flip, 1], t[flip, 2] = t[flip, 2], t[flip, 1]
    longest = np.max([np.hypot(*(b - a).T), np.hypot(*(c - b).T), np.hypot(*(a - c).T)], axis=0)
    t = t[0.5 * np.abs(cross) > 1e-9 * longest * longest]
    return t[np.lexsort(t.T[::-1])]


def cocircular(a, b, c, p, tol: float = 1e-10) -> bool:
    """True iff p lies on the circumcircle of abc within tol, relative to
    the fourth power of the largest distance from p to a, b, c."""
    rows = [(q[0] - p[0], q[1] - p[1]) for q in (a, b, c)]
    (ax, ay), (bx, by), (cx, cy) = rows
    a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    det = math.fsum([
        ax * by * c2, -ax * b2 * cy, -a2 * by * cx,
        ay * b2 * cx, -ay * bx * c2, a2 * bx * cy,
    ])
    return abs(det) <= tol * max(a2, b2, c2) ** 2


def delaunay_cells(points: np.ndarray, triangles: np.ndarray, tol: float = 1e-10) -> set:
    """The cells of a Delaunay triangulation, each a frozenset of vertex ids:
    triangles merged (union-find) across every edge whose quad is cocircular
    within tol.  Every Delaunay triangulation of the points has the same
    cells, the faces of the Delaunay subdivision."""
    parent = list(range(len(triangles)))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    across = {}
    for t, tri in enumerate(triangles.tolist()):
        for k in range(3):
            across.setdefault(frozenset(tri[:k] + tri[k + 1:]), []).append((t, tri[k]))
    for pair in across.values():
        if len(pair) == 2:
            (s, _), (t, q) = pair
            if cocircular(*points[triangles[s]], points[q], tol):
                parent[root(s)] = root(t)
    cells = {}
    for t, tri in enumerate(triangles.tolist()):
        cells.setdefault(root(t), set()).update(tri)
    return {frozenset(c) for c in cells.values()}


class OutsideMesh(Exception):
    """A point of brute_force_interpolate lies in no triangle."""


def brute_force_interpolate(mesh, values: np.ndarray, points: np.ndarray) -> np.ndarray:
    """P1 interpolation that scans every triangle for every point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    tris = mesh.triangles
    a = mesh.vertices[tris[:, 0]]
    b = mesh.vertices[tris[:, 1]]
    c = mesh.vertices[tris[:, 2]]
    det = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0])
    out = np.empty(len(pts))
    eps = 1e-12
    for i, p in enumerate(pts):
        l1 = ((b[:, 0] - p[0]) * (c[:, 1] - p[1]) - (b[:, 1] - p[1]) * (c[:, 0] - p[0])) / det
        l2 = ((c[:, 0] - p[0]) * (a[:, 1] - p[1]) - (c[:, 1] - p[1]) * (a[:, 0] - p[0])) / det
        l3 = 1.0 - l1 - l2
        worst = np.minimum(np.minimum(l1, l2), l3)
        hits = np.nonzero(worst >= -eps)[0]
        if len(hits):
            t = hits[0]
        else:
            # heal micro-gaps left by the degenerate-sliver filter
            t = int(np.argmax(worst))
            if worst[t] < -1e-6:
                raise OutsideMesh(f"point {p} is outside the mesh")
        out[i] = (
            l1[t] * values[tris[t, 0]]
            + l2[t] * values[tris[t, 1]]
            + l3[t] * values[tris[t, 2]]
        )
    return out
