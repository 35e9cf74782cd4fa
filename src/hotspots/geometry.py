"""Convex polygonal domains: validation, diameter, inradius, the two
polygon-distance kernels, minimum enclosing circle, and the critical-point
exclusion region.

All tolerances are relative to the domain's length scale so domains of any
size behave identically.  The boundary supremum of ``|p - y|`` over a polygon
is attained at a vertex (on each edge the distance to a fixed point is a
convex function of the parameter), so ``farthest_boundary_distance`` only
inspects vertices; the infimum, for a point inside, is its
``half_plane_depth``, the slack of the nearest edge line.  The straight
skeleton gives the inradius and Welzl the enclosing circle, with no
optimizer.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bessel import find_constants
from .errors import (
    DegenerateArea,
    InternalInvariantViolation,
    NotConvex,
    TooFewVertices,
)

RAY_COUNT = 720
CHUNK = 65_536  # elements per polygon-distance chunk: its temporaries stay in cache


@dataclass(frozen=True, eq=False)
class ConvexPolygon:
    """CCW convex polygon; construct through :func:`validate`.

    ``scale`` is the bounding-box diagonal, used to make tolerances relative.
    The derived facts (diameter, edge normals, inradius, minimum enclosing
    circle) are computed on first use and cached; the cached arrays are
    read-only.
    """

    vertices: np.ndarray  # (n, 2)
    area: float
    scale: float

    @cached_property
    def edge_normals(self) -> tuple[np.ndarray, np.ndarray]:
        """Outward unit normals and offsets: inside iff normals @ p <= offsets."""
        v = self.vertices
        e = np.roll(v, -1, axis=0) - v
        normals = np.column_stack([e[:, 1], -e[:, 0]])
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        offsets = np.einsum("ij,ij->i", normals, v)
        normals.flags.writeable = False
        offsets.flags.writeable = False
        return normals, offsets

    @cached_property
    def diameter(self) -> tuple[float, tuple[tuple[float, float], tuple[float, float]]]:
        """Max vertex-pair distance via rotating calipers; first attaining pair wins.

        The calipers walk the two chains between the lexicographically
        smallest and largest vertex: the lower chain CCW from the smallest,
        the upper chain the other arc reversed, both from left to right.
        """
        pts = [(float(x), float(y)) for x, y in self.vertices]
        n = len(pts)
        lo, hi = pts.index(min(pts)), pts.index(max(pts))
        lower = [pts[(lo + s) % n] for s in range((hi - lo) % n + 1)]
        upper = [pts[(lo - s) % n] for s in range((lo - hi) % n + 1)]
        best = -1.0
        best_pair = (pts[0], pts[0])
        i, j = 0, len(lower) - 1
        while i < len(upper) - 1 or j > 0:
            p, q = upper[i], lower[j]
            d_sq = (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
            if d_sq > best:
                best = d_sq
                best_pair = (p, q)
            if i == len(upper) - 1:
                j -= 1
            elif j == 0:
                i += 1
            elif (upper[i + 1][1] - upper[i][1]) * (lower[j][0] - lower[j - 1][0]) > (
                lower[j][1] - lower[j - 1][1]
            ) * (upper[i + 1][0] - upper[i][0]):
                i += 1
            else:
                j -= 1
        return math.sqrt(best), best_pair

    @cached_property
    def inradius(self) -> tuple[float, tuple[float, float]]:
        """Largest inscribed circle (rho, Chebyshev centre) by the straight
        skeleton: the edge lines move inward at unit speed, the edge whose
        neighbours meet on it first leaves, and the last three lines meet at
        the centre.  It is re-solved on three near-active lines about 120
        degrees apart, and rho is the least edge slack there, so the circle
        is feasible by construction.  A centre that can slide between
        antiparallel binding edges (rectangles) is the segment's midpoint.
        """
        normals, offsets = self.edge_normals
        n = len(offsets)
        prev, nxt = [(i - 1) % n for i in range(n)], [(i + 1) % n for i in range(n)]
        t0 = _meet(normals[prev].T, normals.T, normals[nxt].T,
                   offsets[prev], offsets, offsets[nxt])[2]
        heap = [(t, i, prev[i], nxt[i]) for i, t in enumerate(t0.tolist())]
        heapq.heapify(heap)
        nb = list(zip(map(tuple, normals.tolist()), offsets.tolist()))
        for _ in range(n - 3):
            _, i, p, q = heapq.heappop(heap)
            while prev[i] != p or nxt[i] != q:  # stale: its neighbours changed
                _, i, p, q = heapq.heappop(heap)
            nxt[p], prev[q], prev[i] = q, p, -1
            for e in (p, q):
                (na, ba), (ne, be), (nc, bc) = nb[prev[e]], nb[e], nb[nxt[e]]
                heapq.heappush(heap, (_meet(na, ne, nc, ba, be, bc)[2], e, prev[e], nxt[e]))
        last = [i for i in range(n) if prev[i] >= 0]
        centre = np.array(_meet(*normals[last], *offsets[last])[:2])
        # near-active: within 1e-9 * scale of binding (a 2,048-gon's skeleton
        # centre is 1.5e-10 off); one that does not bind must not lower rho
        slack = offsets - normals @ centre
        near = np.flatnonzero(slack <= slack.min() + 1e-9 * self.scale)
        trio = [int(near[np.argmin(slack[near])])]
        a = normals[trio[0]]
        for sign in (1.0, -1.0):  # a turned by +-120 degrees
            u = -0.5 * a + sign * math.sqrt(0.75) * np.array([-a[1], a[0]])
            score = np.where(np.isin(near, trio), -2.0, normals[near] @ u)
            trio.append(int(near[np.argmax(score)]))
        polished = np.array(_meet(*normals[trio], *offsets[trio])[:2])
        if (offsets - normals @ polished).min() >= slack.min():
            centre = polished
        for (ax, ay), (cx, cy) in itertools.combinations(normals[trio], 2):
            if ax * cx + ay * cy < 0.0 and abs(ax * cy - ay * cx) <= 4.0 * np.finfo(float).eps:
                d = np.array([-ay, ax])
                gap = offsets - normals @ centre
                along = normals @ d
                fwd, back = along > 1e-12, along < -1e-12
                lo, hi = ((gap - gap.min())[m] / along[m] for m in (back, fwd))
                centre += 0.5 * (lo.max() + hi.min()) * d
        return float((offsets - normals @ centre).min()), (float(centre[0]), float(centre[1]))

    @cached_property
    def min_enclosing_circle(self) -> Circle:
        """Welzl's move-to-front algorithm with a fixed shuffle seed (deterministic)."""
        return _welzl([(float(x), float(y)) for x, y in self.vertices], self.scale)


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float


@dataclass(frozen=True, eq=False)
class ExclusionRegion:
    """Sublevel set {p in domain : F(p) <= threshold} of the farthest-boundary
    distance F, sampled as a closed 720-point polyline.

    ``binding`` records, per boundary sample, whether the F-threshold
    ('farthest') or the domain boundary ('domain') stopped the ray.
    """

    threshold: float
    boundary: np.ndarray  # (RAY_COUNT, 2), CCW
    seed: tuple[float, float]
    binding: tuple[str, ...] = field(repr=False, default=())


def _meet(na, nb, nc, ba, bb, bc):
    """(x, y, t) where the lines n.p = b - t of three edges meet: one (x, y)
    normal and one offset per edge, or (2, m) normals and (m,) offsets.
    Never singular: three distinct unit normals are never collinear."""
    ux, uy, vx, vy = nb[0] - na[0], nb[1] - na[1], nc[0] - na[0], nc[1] - na[1]
    det = ux * vy - uy * vx
    x = ((bb - ba) * vy - uy * (bc - ba)) / det
    y = (ux * (bc - ba) - (bb - ba) * vx) / det
    return x, y, ba - na[0] * x - na[1] * y


def _shoelace(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def validate(raw_vertices) -> ConvexPolygon:
    """Normalize a vertex list into a CCW convex polygon.

    CW input is reversed; consecutive duplicates and collinear vertices are
    dropped.  Raises TooFewVertices / DegenerateArea / NotConvex.
    """
    pts = np.array(raw_vertices, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("vertices must be 2-D points")
    if len(pts) < 3:
        raise TooFewVertices(f"need >= 3 vertices, got {len(pts)}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("vertex coordinates must be finite")

    span = pts.max(axis=0) - pts.min(axis=0)
    scale = float(math.hypot(span[0], span[1]))
    if scale == 0.0:
        raise DegenerateArea("all vertices coincide")

    if _shoelace(pts) < 0.0:
        pts = pts[::-1].copy()

    # Drop duplicates and collinear vertices until stable.
    cross_tol = 1e-12 * scale * scale
    dist_tol = 1e-9 * scale
    changed = True
    while changed and len(pts) >= 3:
        changed = False
        keep = np.ones(len(pts), dtype=bool)
        m = len(pts)
        for i in range(m):
            prev = pts[(i - 1) % m]
            cur = pts[i]
            nxt = pts[(i + 1) % m]
            if math.hypot(*(nxt - cur)) <= dist_tol:
                keep[i] = False
                changed = True
                break
            cross = (cur[0] - prev[0]) * (nxt[1] - cur[1]) - (
                cur[1] - prev[1]
            ) * (nxt[0] - cur[0])
            if abs(cross) <= cross_tol:
                keep[i] = False
                changed = True
                break
        pts = pts[keep]

    if len(pts) < 3:
        raise DegenerateArea("fewer than 3 vertices after cleanup")

    area = _shoelace(pts)
    if area <= 1e-12 * scale * scale:
        raise DegenerateArea(f"area {area:g} below degeneracy threshold")

    nxt = np.roll(pts, -1, axis=0)
    nxt2 = np.roll(pts, -2, axis=0)
    e1 = nxt - pts
    e2 = nxt2 - nxt
    crosses = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(crosses < -cross_tol):
        raise NotConvex("negative cross product after orientation fix")

    return ConvexPolygon(vertices=pts, area=float(area), scale=scale)


def _chunks(n: int, width: int) -> list[slice]:
    """Row slices of an (n, width) computation, CHUNK elements at a time."""
    rows = max(1, CHUNK // width)
    return [slice(lo, lo + rows) for lo in range(0, n, rows)]


def farthest_boundary_distance(poly: ConvexPolygon, points) -> np.ndarray:
    """(n,) F(p) = max over boundary of |p - y| for each row p of the (n, 2)
    points, at a vertex for polygons."""
    pts = np.asarray(points, dtype=float)
    vx, vy = poly.vertices.T
    out = np.empty(len(pts))
    for s in _chunks(len(pts), len(vx)):
        out[s] = np.max((vx - pts[s, :1]) ** 2 + (vy - pts[s, 1:]) ** 2, axis=1)
    return np.sqrt(out)


def half_plane_depth(points: np.ndarray, normals: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """(n,) min over edges e of offset_e - n_e.p: for a point of a convex
    polygon (``edge_normals``), its distance to the boundary.  Elementwise,
    not a BLAS product (which rounds per block): same bits for any chunk."""
    out = np.empty(len(points))
    nx, ny = normals[:, 0], normals[:, 1]
    for s in _chunks(len(points), len(normals)):
        depth = points[s, :1] * nx
        depth += points[s, 1:] * ny
        np.subtract(offsets, depth, out=depth)
        out[s] = depth.min(axis=1)
    return out


# --- minimum enclosing circle (Welzl) ----------------------------------------

_MEC_EPS = 1e-14


def _circle_from_two(p, q):
    cx = (p[0] + q[0]) / 2.0
    cy = (p[1] + q[1]) / 2.0
    r = max(math.hypot(cx - p[0], cy - p[1]), math.hypot(cx - q[0], cy - q[1]))
    return cx, cy, r


def _circle_from_three(p, q, r):
    ax, ay = p
    bx, by = q
    cx, cy = r
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    rad = max(
        math.hypot(ux - ax, uy - ay),
        math.hypot(ux - bx, uy - by),
        math.hypot(ux - cx, uy - cy),
    )
    return ux, uy, rad


def _in_circle(c, p, scale) -> bool:
    return math.hypot(p[0] - c[0], p[1] - c[1]) <= c[2] + _MEC_EPS * scale


def _welzl(pts: list[tuple[float, float]], scale: float) -> Circle:
    """Three-loop move-to-front Welzl: a point outside the circle so far
    lies on the circle of the points before it."""
    shuffled = list(pts)
    random.Random(1729).shuffle(shuffled)
    c = (*shuffled[0], 0.0)
    for i, p in enumerate(shuffled):
        if _in_circle(c, p, scale):
            continue
        c = (p[0], p[1], 0.0)
        for j, q in enumerate(shuffled[:i]):
            if _in_circle(c, q, scale):
                continue
            c = _circle_from_two(p, q)
            for r in shuffled[:j]:
                if not _in_circle(c, r, scale):
                    c = _circle_from_three(p, q, r) or c
    return Circle((c[0], c[1]), c[2])


# --- the exclusion region ---------------------------------------------------------

def exclusion_region(poly: ConvexPolygon) -> ExclusionRegion:
    """Extract {p in domain : F(p) <= c_excl * diam}, c_excl = j1/(2 j0), as a
    720-ray polyline.

    The sublevel set is the domain intersected with one disk of radius
    threshold around each vertex, hence convex; rays from the
    min-enclosing-circle center (a member by Jung's theorem, since
    c_excl ~ 0.797 >= 1/sqrt(3)) leave it exactly once.  Along s + t*u the
    exit is the smallest of the half-plane exits (offset - n.s)/(n.u) over
    edges with n.u > 0 and the disk exits -b + sqrt(b^2 - c) over vertices
    v, where b = u.(s - v) and c = |s - v|^2 - threshold^2.
    """
    threshold = find_constants().c_excl * poly.diameter[0]
    seed = poly.min_enclosing_circle.center
    seed_xy = np.array(seed)

    normals, offsets = poly.edge_normals
    rel = seed_xy - poly.vertices
    c = np.einsum("ij,ij->i", rel, rel) - threshold * threshold
    slack = offsets - normals @ seed_xy
    if np.any(c > 0.0) or np.any(slack < -1e-12 * poly.scale):
        raise InternalInvariantViolation("min-enclosing-circle center not a member")
    slack = np.maximum(slack, 0.0)

    theta = 2.0 * math.pi * np.arange(RAY_COUNT) / RAY_COUNT
    u = np.column_stack([np.cos(theta), np.sin(theta)])
    nu = u @ normals.T
    with np.errstate(divide="ignore", invalid="ignore"):
        plane_exit = np.where(nu > 0.0, slack / nu, np.inf).min(axis=1)
    b = u @ rel.T
    disk_exit = (np.sqrt(b * b - c) - b).min(axis=1)

    return ExclusionRegion(
        threshold=threshold,
        boundary=seed_xy + np.minimum(plane_exit, disk_exit)[:, None] * u,
        seed=seed,
        binding=tuple(np.where(disk_exit <= plane_exit, "farthest", "domain").tolist()),
    )
