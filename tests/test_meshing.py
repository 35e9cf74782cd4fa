import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay, cKDTree

from hotspots import geometry as geo
from hotspots import meshing as msh
from hotspots.domains import DomainSpec, realize
from hotspots.errors import DegenerateArea, InvalidH
from hotspots.report import _sweep_domain_spec

from .conftest import random_polygon
from .oracles import (
    all_edges_clearance,
    boundary_distances,
    bounding_box_lattice,
    canonical_delaunay,
    delaunay_cells,
    full_depth_lattice,
    greedy_circumcenters,
    in_circumcircle,
    polygon_clearance,
    unique_edges,
)


@pytest.fixture(scope="module")
def square_mesh():
    return msh.generate(geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.1)


def triangle_edges(triangles):
    edges = set()
    for a, b, c in triangles:
        edges.update({(min(a, b), max(a, b)), (min(b, c), max(b, c)),
                      (min(a, c), max(a, c))})
    return edges


def test_invalid_h():
    poly = geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)])
    with pytest.raises(InvalidH):
        msh.generate(poly, math.sqrt(2.0))
    with pytest.raises(InvalidH):
        msh.generate(poly, 0.0)


def test_exact_area_cover_coarse():
    poly = geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)])
    mesh = msh.generate(poly, 0.3)
    _, areas = msh.element_edges(mesh.vertices, mesh.triangles)
    assert np.all(areas > 0.0)
    assert areas.sum() == pytest.approx(1.0, abs=1e-12)


def test_disk_vertex_count_and_quality():
    disk = realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=256))
    mesh = msh.generate(disk, 0.05)
    q = msh.quality(mesh)
    assert q.min_angle >= 20.0
    estimate = 2.0 * disk.area / (math.sqrt(3.0) * 0.05**2)
    assert 0.5 * estimate <= q.vertex_count <= 2.0 * estimate


def test_euler_characteristic(square_mesh):
    v = square_mesh.vertex_count
    e = len(triangle_edges(square_mesh.triangles))
    t = square_mesh.triangle_count
    assert v - e + t == 1


def test_boundary_loop_closed_and_ccw(square_mesh):
    loop = square_mesh.boundary_edges
    assert np.array_equal(np.roll(loop[:, 0], -1), loop[:, 1])
    # CCW: the polygon of boundary vertices has positive area
    pts = square_mesh.vertices[loop[:, 0]]
    x, y = pts[:, 0], pts[:, 1]
    assert 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) > 0


def test_boundary_normals_outward_unit(square_mesh):
    norms = np.linalg.norm(square_mesh.boundary_normals, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    centroid = square_mesh.vertices.mean(axis=0)
    mids = 0.5 * (square_mesh.vertices[square_mesh.boundary_edges[:, 0]]
                  + square_mesh.vertices[square_mesh.boundary_edges[:, 1]])
    dots = np.einsum("ij,ij->i", square_mesh.boundary_normals, mids - centroid)
    assert np.all(dots > 0)


def test_interior_mask(square_mesh):
    b = np.unique(square_mesh.boundary_edges)
    assert not square_mesh.interior_mask[b].any()
    assert square_mesh.interior_mask.sum() + len(b) == square_mesh.vertex_count


@pytest.mark.parametrize("make, h_rel", [
    (lambda: geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.07),
    (lambda: geo.validate([(0, 0), (2, 0), (2, 1), (0, 1)]), 0.04),
    (lambda: realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=512)), 0.05),
    *[(lambda i=i: realize(_sweep_domain_spec(1, i)), 0.04) for i in range(3)],
], ids=["square", "rect21", "disk512", "sweep1-0", "sweep1-1", "sweep1-2"])
def test_derived_facts_match_the_constructors(make, h_rel):
    # generate lays the boundary samples down first, and refine keeps the
    # parent's mask and marks the new loop's midpoints
    poly = make()
    coarse = msh.generate(poly, h_rel * poly.diameter[0])
    n_b = len(coarse.boundary_edges)
    assert np.array_equal(coarse.interior_mask, np.arange(coarse.vertex_count) >= n_b)
    fine = msh.refine(coarse)
    interior = np.ones(fine.vertex_count, dtype=bool)
    interior[:coarse.vertex_count] = coarse.interior_mask
    interior[fine.boundary_edges.ravel()] = False
    assert np.array_equal(fine.interior_mask, interior)
    for mesh in (coarse, fine):
        a, b = mesh.vertices[mesh.edges.T]
        assert mesh.h_max == mesh.lengths.max() == np.hypot(*(b - a).T).max()
        t = mesh.triangles
        for i in range(3):
            tail, head = mesh.vertices[t[:, (i + 1) % 3]], mesh.vertices[t[:, (i + 2) % 3]]
            assert np.array_equal(mesh.lengths[:, i], np.hypot(*(head - tail).T))


def _edge_meshes():
    """Sweep domains of seeds 1-7, 31 domains with split rounds, thin
    rectangles, a 20:1 ellipse and refined meshes."""
    for seed in range(1, 8):
        for index in range(6):
            poly = realize(_sweep_domain_spec(seed, index))
            yield msh.generate(poly, 0.02 * poly.diameter[0])
    for master_seed, index in _SHORT_EDGE_DOMAINS[::22]:
        poly = realize(_sweep_domain_spec(master_seed, index))
        yield msh.generate(poly, 0.02 * poly.diameter[0])
    for length, width in ((1.0, 0.01), (2.0, 0.05)):
        poly = geo.validate([(0, 0), (length, 0), (length, width), (0, width)])
        mesh = msh.generate(poly, math.sqrt(3.0) / 2.0 * poly.inradius[0])
        yield from (mesh, msh.refine(mesh))
    ellipse = _ellipse20()
    yield msh.generate(ellipse, 0.02 * ellipse.diameter[0])
    yield msh.refine(msh.generate(_disk(512)(), 0.1))
    yield msh.refine(msh.refine(msh.generate(geo.validate([(0, 0), (1, 0), (0.3, 0.8)]), 0.05)))


def test_edges_match_the_unique_pairs():
    # the half-edge form is bit-equal to deduplicating all triangle sides
    count = 0
    for mesh in _edge_meshes():
        expected = unique_edges(mesh)
        assert mesh.edges.dtype == expected.dtype
        assert np.array_equal(mesh.edges, expected)
        count += 1
    assert count == 80


def test_quality_builds_the_lengths_once(monkeypatch):
    mesh = msh.generate(geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.1)
    kernel, calls = msh.element_edges, []

    def spy(*args):
        calls.append(len(args[1]))
        return kernel(*args)

    monkeypatch.setattr(msh, "element_edges", spy)
    q = msh.quality(mesh)
    assert calls == [mesh.triangle_count]
    monkeypatch.undo()
    assert (q.h_min, q.h_max) == (mesh.lengths.min(), mesh.h_max)


@pytest.mark.parametrize("make, h", [
    (lambda: realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=512)), 0.02),
    (lambda: geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.05),
    (lambda: realize(_sweep_domain_spec(1, 0)), None),
], ids=["disk512", "square", "sweep1-0"])
def test_deep_lattice_is_equilateral(make, h):
    # the lattice is triangulated as laid down: away from the strip every
    # triangle is equilateral with side h
    poly = make()
    h = h if h is not None else 0.02 * poly.diameter[0]
    mesh = msh.generate(poly, h)
    deep = polygon_clearance(mesh) >= msh.DEEP_DEPTH * h
    lengths = mesh.lengths[deep[mesh.triangles].all(axis=1)]
    assert len(lengths) > 0.2 * mesh.triangle_count
    assert np.abs(lengths / h - 1.0).max() <= 1e-12


def test_element_edges_area_is_the_cross_product(square_mesh):
    e, area = msh.element_edges(square_mesh.vertices, square_mesh.triangles)
    a, b, c = np.moveaxis(square_mesh.vertices[square_mesh.triangles], 1, 0)
    assert np.array_equal(e[0], c - b) and np.array_equal(e[1], a - c)
    assert np.array_equal(e[2], b - a)
    cross = 0.5 * ((b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1])
                   - (b[:, 1] - a[:, 1]) * (c[:, 0] - a[:, 0]))
    assert np.array_equal(area, cross) and np.all(area > 0.0)


def test_determinism():
    poly = random_polygon(42, 24)
    m1 = msh.generate(poly, 0.07)
    m2 = msh.generate(poly, 0.07)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert np.array_equal(m1.triangles, m2.triangles)


def test_delaunay_property(square_mesh):
    # opposing vertices of interior edges fail the in-circumcircle test
    mesh = square_mesh
    edge_to_tris = {}
    for t_idx, (a, b, c) in enumerate(mesh.triangles):
        for e in ((a, b), (b, c), (a, c)):
            edge_to_tris.setdefault((min(e), max(e)), []).append(t_idx)
    interior = [(e, ts) for e, ts in edge_to_tris.items() if len(ts) == 2]
    rng = np.random.default_rng(0)
    scale = float(mesh.vertices.max() - mesh.vertices.min())
    for idx in rng.choice(len(interior), size=min(100, len(interior)), replace=False):
        (e, (t1, t2)) = interior[idx]
        for tri_idx, other_idx in ((t1, t2), (t2, t1)):
            tri = mesh.triangles[tri_idx]
            opp = [v for v in mesh.triangles[other_idx] if v not in tri]
            assert len(opp) == 1
            a, b, c = (mesh.vertices[v] for v in tri)
            p = mesh.vertices[opp[0]]
            assert not in_circumcircle(a, b, c, p, scale, tie=1e-10)


def test_boundary_samples_on_polygon_edges(square_mesh):
    b = np.unique(square_mesh.boundary_edges)
    pts = square_mesh.vertices[b]
    on_edge = (
        (np.abs(pts[:, 0]) < 1e-15) | (np.abs(pts[:, 0] - 1) < 1e-15)
        | (np.abs(pts[:, 1]) < 1e-15) | (np.abs(pts[:, 1] - 1) < 1e-15)
    )
    assert on_edge.all()


class TestRefine:
    def test_counts_and_area(self, square_mesh):
        fine = msh.refine(square_mesh)
        assert fine.triangle_count == 4 * square_mesh.triangle_count
        a0 = msh.element_edges(square_mesh.vertices, square_mesh.triangles)[1].sum()
        a1 = msh.element_edges(fine.vertices, fine.triangles)[1].sum()
        assert a1 == pytest.approx(a0, rel=1e-14)

    def test_h_max_halves(self, square_mesh):
        fine = msh.refine(square_mesh)
        assert fine.h_max == pytest.approx(square_mesh.h_max / 2.0, rel=1e-15)

    def test_min_angle_preserved(self, square_mesh):
        fine = msh.refine(square_mesh)
        assert msh.quality(fine).min_angle == pytest.approx(
            msh.quality(square_mesh).min_angle, rel=1e-12
        )

    def test_boundary_midpoints_on_polygon_edges(self, square_mesh):
        fine = msh.refine(square_mesh)
        b = np.unique(fine.boundary_edges)
        pts = fine.vertices[b]
        dist_to_edges = np.minimum.reduce([
            np.abs(pts[:, 0]), np.abs(pts[:, 0] - 1),
            np.abs(pts[:, 1]), np.abs(pts[:, 1] - 1),
        ])
        assert dist_to_edges.max() <= 1e-15


def test_quality_known_triangles(square_mesh):
    # similar-triangle sanity on hand meshes
    right_xy = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    right = msh.TriMesh(
        polygon=geo.validate(right_xy),
        vertices=np.array(right_xy),
        triangles=np.array([[0, 1, 2]]),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
    )
    assert msh.quality(right).min_angle == pytest.approx(45.0, abs=1e-12)
    eq_xy = [[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]]
    eq = msh.TriMesh(
        polygon=geo.validate(eq_xy),
        vertices=np.array(eq_xy),
        triangles=np.array([[0, 1, 2]]),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
    )
    assert msh.quality(eq).min_angle == pytest.approx(60.0, abs=1e-12)


def test_dump_format(square_mesh, tmp_path):
    path = tmp_path / "mesh.txt"
    msh.dump_mesh(square_mesh, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "HSV-MESH 1"
    nv, nt = map(int, lines[1].split())
    assert nv == square_mesh.vertex_count
    assert nt == square_mesh.triangle_count
    assert len(lines) == 2 + nv + nt
    coords = np.array([[float(v) for v in line.split()] for line in lines[2:2 + nv]])
    assert coords.tobytes() == square_mesh.vertices.tobytes()


def _corner_angles_deg(poly):
    v = poly.vertices
    out = []
    for i in range(len(v)):
        a, b = v[i - 1] - v[i], v[(i + 1) % len(v)] - v[i]
        out.append(math.degrees(math.atan2(abs(a[0] * b[1] - a[1] * b[0]), a @ b)))
    return np.array(out)


# sweep domains (master seed, index) with a polygon edge much shorter than h
_SHORT_POLYGON_EDGES = [
    (15000847, 4), (4000016, 3), (5000021, 5), (701, 5), (2000708, 2),
    (38000184, 3), (47000298, 3), (50000274, 5),
]


class TestMinAngleTarget:
    """The 20 degree bound is capped just under the sharpest polygon corner,
    which no triangle at that corner can exceed."""

    @staticmethod
    def _sweep_poly(master_seed, index):
        poly = realize(_sweep_domain_spec(master_seed, index))
        return poly, poly.diameter[0]

    def test_sharp_corner_domain_meshes(self):
        poly, diam = self._sweep_poly(2000010, 0)
        corner = _corner_angles_deg(poly).min()
        assert corner < msh.MIN_ANGLE_DEG
        mesh = msh.generate(poly, 0.02 * diam)
        assert msh.quality(mesh).min_angle >= corner - 1e-9

    def test_blunt_corners_keep_twenty_degrees(self):
        poly, diam = self._sweep_poly(4000016, 3)
        assert _corner_angles_deg(poly).min() >= msh.MIN_ANGLE_DEG
        assert msh.quality(msh.generate(poly, 0.02 * diam)).min_angle >= msh.MIN_ANGLE_DEG
        square = geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert msh.quality(msh.generate(square, 0.05)).min_angle >= msh.MIN_ANGLE_DEG


    @pytest.mark.parametrize("master_seed, index", _SHORT_POLYGON_EDGES)
    def test_short_polygon_edges_are_split(self, master_seed, index):
        # each domain has a polygon edge of 0.01-0.12 h, which leaves the
        # lattice below 20 degrees until split rounds refine it
        poly, diam = self._sweep_poly(master_seed, index)
        h = 0.02 * diam
        assert np.hypot(*(np.roll(poly.vertices, -1, axis=0) - poly.vertices).T).min() < 0.13 * h
        mesh = msh.generate(poly, h)
        assert msh.quality(mesh).min_angle >= msh.MIN_ANGLE_DEG
        _, area = msh.element_edges(mesh.vertices, mesh.triangles)
        assert area.sum() == pytest.approx(poly.area, rel=1e-12)
        normals, offsets = poly.edge_normals
        loop = mesh.vertices[mesh.boundary_edges[:, 0]]
        assert np.abs(offsets[None, :] - loop @ normals.T).min(axis=1).max() <= 1e-12 * poly.scale
        assert len(np.unique(mesh.boundary_edges)) == len(mesh.boundary_edges)
        assert mesh.interior_mask.sum() + len(mesh.boundary_edges) == mesh.vertex_count


def test_boundary_clearance_matches_segment_distances(square_mesh):
    poly = random_polygon(5, 18)
    for mesh in (square_mesh, msh.refine(square_mesh), msh.generate(poly, 0.08)):
        ref = boundary_distances(mesh, mesh.vertices)
        clearance = mesh.clearance(np.arange(mesh.vertex_count))
        assert np.max(np.abs(clearance - ref)) <= 1e-14
        assert np.all(clearance[~mesh.interior_mask] == 0.0)
        assert np.array_equal(~mesh.clear_of_boundary(mesh.h_max), ref <= mesh.h_max)


@pytest.mark.parametrize("make, h", [
    (lambda: geo.validate([(0, 0), (2, 0), (2, 1), (0, 1)]), 0.04),
    (lambda: realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=512)), 0.1),
    *((lambda i=i: realize(_sweep_domain_spec(1, i)), 0.1) for i in range(3)),
], ids=["rect", "disk512", "sweep_1_0", "sweep_1_1", "sweep_1_2"])
def test_boundary_clearance_is_the_polygon_depth(make, h):
    # the polygon's edge lines, not the boundary edges' own (which differ
    # from them by rounding), with the loop at exactly 0
    poly = make()
    mesh = msh.generate(poly, h)
    for _ in range(3):
        assert mesh.polygon is poly
        depth = geo.half_plane_depth(mesh.vertices, *poly.edge_normals)
        expected = np.where(mesh.interior_mask, np.maximum(depth, 0.0), 0.0)
        ids = np.arange(mesh.vertex_count)
        assert np.array_equal(mesh.clearance(ids), expected)
        assert np.array_equal(mesh.clearance(ids[::-7]), expected[::-7])
        for level in (0.0, mesh.h_max, 2.0 * mesh.h_max):
            assert np.array_equal(mesh.clear_of_boundary(level), expected > level)
            assert np.array_equal(mesh.clear_of_boundary(level, ids[1::3]), expected[1::3] > level)
        assert np.abs(expected - all_edges_clearance(mesh)).max() <= 1e-14
        assert expected[mesh.interior_mask].min() > 0.0
        mesh = msh.refine(mesh)


@pytest.mark.parametrize("make, h", [
    (lambda: realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=512)), 0.1),
    *((lambda i=i: realize(_sweep_domain_spec(1, i)), 0.1) for i in range(3)),
], ids=["disk512", "sweep_1_0", "sweep_1_1", "sweep_1_2"])
def test_refined_normals_are_the_parent_edges(make, h):
    # each half of a parent boundary edge derives its own normal, which is
    # unit, outward and the parent's up to rounding
    mesh = msh.generate(make(), h)
    for _ in range(2):
        fine = msh.refine(mesh)
        normals = fine.boundary_normals
        assert np.abs(np.linalg.norm(normals, axis=1) - 1.0).max() <= 1e-15
        assert np.abs(normals - np.repeat(mesh.boundary_normals, 2, axis=0)).max() <= 1e-13
        mids = 0.5 * (fine.vertices[fine.boundary_edges[:, 0]]
                      + fine.vertices[fine.boundary_edges[:, 1]])
        inward = mids - 1e-3 * h * normals
        assert geo.half_plane_depth(inward, *mesh.polygon.edge_normals).min() > 0.0
        mesh = fine


def test_edges_are_the_sorted_triangle_edges(square_mesh):
    for mesh in (square_mesh, msh.refine(square_mesh)):
        assert mesh.edges.tolist() == [list(e) for e in sorted(triangle_edges(mesh.triangles))]


def _target_deg(poly):
    return min(msh.MIN_ANGLE_DEG, msh._sharpest_corner_deg(poly.vertices) - 1e-9)


_SWEEP_CASES = [
    pytest.param(lambda i=i: realize(_sweep_domain_spec(1, i)), None, id=f"sweep1-{i}")
    for i in range(6)
]


def _counting_qhull_calls(monkeypatch) -> list:
    """The number of points of each Qhull call the mesher makes from now on."""
    calls = []

    def counting(points):
        calls.append(len(points))
        return Delaunay(points)

    monkeypatch.setattr(msh, "Delaunay", counting)
    return calls


@pytest.mark.parametrize("make, h", [
    (lambda: realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=512)), 0.02),
    (lambda: geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.05),
    (lambda: geo.validate([(0, 0), (2, 0), (2, 1), (0, 1)]), 0.04),
] + _SWEEP_CASES, ids=["disk512", "square", "rect"] + [f"sweep1-{i}" for i in range(6)])
def test_strip_edges_stay_near_h(make, h):
    # h_max sets the verdict tolerance 2 h_max.  Without fill points a
    # lattice row that just misses the h/2 clearance leaves boundary-to-
    # lattice edges of 1.57-1.64 h on these domains
    poly = make()
    h = h if h is not None else 0.02 * poly.diameter[0]
    assert msh.generate(poly, h).h_max <= 1.5 * h


class TestOneQhullCall:
    """The lattice is triangulated as laid down: a mesh that needs no split
    round is one Qhull call, on the boundary strip only."""

    def test_one_qhull_call_sees_a_strip(self, monkeypatch, disk512):
        calls = _counting_qhull_calls(monkeypatch)
        mesh = msh.generate(disk512, 0.02)
        assert len(calls) == 1
        assert calls[0] < 0.3 * mesh.vertex_count

    def test_thin_domain_has_no_deep_points(self, monkeypatch):
        # at h = diam/50 the 2x0.1 rectangle is under 3 h deep everywhere, so
        # Qhull sees every point
        calls = _counting_qhull_calls(monkeypatch)
        poly = geo.validate([(0, 0), (2, 0), (2, 0.1), (0, 0.1)])
        mesh = msh.generate(poly, 0.02 * poly.diameter[0])
        assert calls == [mesh.vertex_count]
        assert np.array_equal(mesh.triangles, canonical_delaunay(mesh.vertices))


def _assert_full_qhull_mesh(mesh, poly):
    """The mesh is a Delaunay triangulation of its vertices: it has Qhull's
    Delaunay subdivision, the cells that the triangles make when merged
    across every edge of a cocircular quad (unique, unlike a triangulation
    of cocircular points), Euler's count and the polygon's area."""
    want = canonical_delaunay(mesh.vertices)
    if not np.array_equal(mesh.triangles, want):
        assert delaunay_cells(mesh.vertices, mesh.triangles) == delaunay_cells(mesh.vertices, want)
    assert mesh.triangle_count == 2 * mesh.vertex_count - len(mesh.boundary_edges) - 2
    _, area = msh.element_edges(mesh.vertices, mesh.triangles)
    assert area.sum() == pytest.approx(poly.area, rel=1e-12)


def _assert_circumcircles_empty(mesh):
    """No vertex lies inside any triangle's circumcircle by more than 1e-9
    of its radius."""
    a, b, c = np.moveaxis(mesh.vertices[mesh.triangles], 1, 0)
    ab, ac = b - a, c - a
    d = 2.0 * (ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0])
    b2, c2 = (ab * ab).sum(axis=1), (ac * ac).sum(axis=1)
    u = np.column_stack([ac[:, 1] * b2 - ab[:, 1] * c2, ab[:, 0] * c2 - ac[:, 0] * b2]) / d[:, None]
    radius = np.hypot(*u.T)
    inside = cKDTree(mesh.vertices).query_ball_point(a + u, radius * (1.0 - 1e-9),
                                                     return_length=True)
    assert not inside.any(), mesh.triangles[inside > 0][:5]


_ORACLE_CASES = [
    pytest.param(lambda: realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=512)),
                 0.02, id="disk512-0.02"),
    pytest.param(lambda: realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=512)),
                 0.1, id="disk512-0.1"),
    pytest.param(lambda: geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.05, id="square"),
    pytest.param(lambda: geo.validate([(0, 0), (2, 0), (2, 1), (0, 1)]), 0.04, id="rect"),
    # too thin for deep points; split rounds refine its ends
    pytest.param(lambda: realize(DomainSpec(kind="ellipse", a=20.0, b=1.0, polygonization_n=256)),
                 None, id="ellipse20"),
] + _SWEEP_CASES

_SHORT_EDGE_DOMAINS = [
    tuple(map(int, line.split()))
    for line in (Path(__file__).parent / "short_edge_domains.txt").read_text().splitlines()
    if not line.startswith("#")
]


class TestMatchesFullQhull:
    """Qhull sees only the boundary strip; the deep lattice is triangulated
    by index arithmetic.  The result must be Qhull's on every point, up to
    the triangulation of cocircular cells: lattice rows under boundary
    samples make chains of cocircular rectangles, whose diagonals the strip
    Qhull and the full Qhull choose differently."""

    @pytest.mark.parametrize("make, h", _ORACLE_CASES)
    def test_fixtures(self, make, h):
        poly = make()
        h = h if h is not None else 0.02 * poly.diameter[0]
        mesh = msh.generate(poly, h)
        _assert_full_qhull_mesh(mesh, poly)
        _assert_circumcircles_empty(mesh)

    def test_short_edge_list(self):
        assert len(_SHORT_EDGE_DOMAINS) == 664
        for master_seed, index in _SHORT_EDGE_DOMAINS[::83]:
            poly = realize(_sweep_domain_spec(master_seed, index))
            edges = np.hypot(*(np.roll(poly.vertices, -1, axis=0) - poly.vertices).T)
            assert edges.min() < 0.25 * 0.02 * poly.diameter[0]

    @pytest.mark.parametrize("part", range(8))
    def test_short_edge_domains(self, part):
        # the domains whose split rounds insert circumcenters and boundary
        # midpoints, which demote lattice points from the deep set
        for master_seed, index in _SHORT_EDGE_DOMAINS[part::8]:
            poly = realize(_sweep_domain_spec(master_seed, index))
            _assert_full_qhull_mesh(msh.generate(poly, 0.02 * poly.diameter[0]), poly)


def _disk(n):
    return lambda: realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=n))


def _ellipse20():
    return realize(DomainSpec(kind="ellipse", a=20.0, b=1.0))


_GRADED_CASES = [
    pytest.param(_disk(2048), 0.05, id="disk2048"),
    pytest.param(_ellipse20, 0.05, id="ellipse20"),
] + [
    pytest.param(lambda s=s, i=i: realize(_sweep_domain_spec(s, i)), 0.02, id=f"short{s}-{i}")
    for s, i in _SHORT_POLYGON_EDGES
]


class TestSplitRounds:
    """Meshes that miss the angle bound on the lattice are graded by split
    rounds.  Sizes are relative to the diameter."""

    @pytest.mark.parametrize("make, h_rel, splits", [
        pytest.param(_disk(512), 0.01, False, id="disk512-h0.02"),
        pytest.param(_disk(512), 0.05, True, id="disk512-h0.1"),
        pytest.param(_ellipse20, 0.05, True, id="ellipse20"),
        pytest.param(lambda: realize(_sweep_domain_spec(*_SHORT_POLYGON_EDGES[0])), 0.02, True,
                     id="short-edge"),
    ])
    def test_split_rounds_run_only_when_needed(self, monkeypatch, make, h_rel, splits):
        poly = make()
        calls = _counting_qhull_calls(monkeypatch)
        mesh = msh.generate(poly, h_rel * poly.diameter[0])
        assert (len(calls) > 1) == splits  # one Qhull call, then one per split round
        assert msh.quality(mesh).min_angle >= _target_deg(poly)

    @pytest.mark.parametrize("make, h_rel", _GRADED_CASES)
    def test_greedy_choice_matches_all_pairs_oracle(self, monkeypatch, make, h_rel):
        # the chosen circumcenters are tested only against those within
        # their radius; the oracle tests every one chosen before
        poly = make()
        h = h_rel * poly.diameter[0]
        mesh = msh.generate(poly, h)
        rounds = []

        def oracle(cc, radius, order):
            rounds.append(len(cc))
            return greedy_circumcenters(cc, radius, order)

        with monkeypatch.context() as m:
            m.setattr(msh, "_independent", oracle)
            ref = msh.generate(poly, h)
        assert rounds
        assert np.array_equal(mesh.vertices, ref.vertices)
        assert np.array_equal(mesh.triangles, ref.triangles)

    @pytest.mark.parametrize("make", [_disk(512), _ellipse20], ids=["disk512", "ellipse20"])
    def test_mesh_does_not_get_finer_as_h_grows(self, make):
        poly = make()
        counts = [msh.generate(poly, h_rel * poly.diameter[0]).vertex_count
                  for h_rel in (0.02, 0.05, 0.1)]
        assert all(coarse <= 1.05 * fine for fine, coarse in zip(counts, counts[1:])), counts


_CHUNK_CASES = [
    pytest.param(lambda: realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=512)),
                 0.02, id="disk512"),
    pytest.param(lambda: geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.05, id="square"),
] + _SWEEP_CASES


@pytest.mark.parametrize("make, h", _CHUNK_CASES)
def test_depth_chunking_is_bit_exact(monkeypatch, make, h):
    poly = make()
    h = h if h is not None else 0.02 * poly.diameter[0]
    ref = msh.generate(poly, h)
    ids = np.arange(ref.vertex_count)
    clearance, clear = ref.clearance(ids), ref.clear_of_boundary(2.0 * ref.h_max)
    for chunk in (1, 7, 10**9):
        monkeypatch.setattr(geo, "CHUNK", chunk)
        mesh = msh.generate(poly, h)
        assert mesh.vertices.tobytes() == ref.vertices.tobytes()
        assert mesh.triangles.tobytes() == ref.triangles.tobytes()
        assert mesh.clearance(ids).tobytes() == clearance.tobytes()
        assert np.array_equal(mesh.clear_of_boundary(2.0 * mesh.h_max), clear)


def test_depth_tests_run_in_bounded_memory(disk512):
    # the 512-gon at h=0.02 tests 11.7k lattice points and 9.4k vertices
    # against 512 edges; one full points x edges matrix is 48 MB
    tracemalloc.start()
    try:
        mesh = msh.generate(disk512, 0.02)
        _, generate_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        mesh.clearance(np.arange(mesh.vertex_count))
        mesh.clear_of_boundary(2.0 * mesh.h_max)
        _, clearance_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert generate_peak < 8e6
    assert clearance_peak - before < 8e6


def _lattice_of(poly, h):
    """The mesher's lattice of the polygon at h, with generate's row count."""
    v = poly.vertices
    n_rows = int((v[:, 1].max() - v[:, 1].min()) / (h * math.sqrt(3.0) / 2.0)) + 1
    return msh._lattice(poly, h, n_rows)


def _ellipse20_256():
    return realize(DomainSpec(kind="ellipse", a=10.0, b=0.5, polygonization_n=256))


_LATTICE_CASES = [
    pytest.param(_disk(512), h, id=f"disk512-{h}") for h in (0.1, 0.05, 0.02)
] + [
    pytest.param(lambda: geo.validate([(0, 0), (2, 0), (2, 1), (0, 1)]), 0.04, id="rect"),
    pytest.param(lambda: geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.02, id="square-0.02"),
    pytest.param(lambda: geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)]), 0.05, id="square-0.05"),
    pytest.param(_ellipse20_256, None, id="ellipse20"),
    pytest.param(_ellipse20_256, 0.0433, id="ellipse20-0.0433"),
] + [
    pytest.param(lambda s=s, i=i: realize(_sweep_domain_spec(s, i)), None, id=f"sweep{s}-{i}")
    for s in (1, 4) for i in range(6)
]


class TestLatticeDepth:
    """The lattice's kept points and its deep and core masks are the full
    depth kernel's answers on every bounding-box lattice point, bit for
    bit: kept at depth >= h/2, deep above DEEP_DEPTH*h, core above
    (DEEP_DEPTH + HALO_DEPTH)*h."""

    @staticmethod
    def _assert_matches_oracle(poly, h):
        pts, lattice = _lattice_of(poly, h)
        want_pts, want_rc, want_deep, want_core = full_depth_lattice(poly, h)
        assert pts.tobytes() == want_pts.tobytes()
        assert np.array_equal(lattice.rc, want_rc)
        assert np.array_equal(lattice.deep, want_deep)
        assert np.array_equal(lattice.core, want_core)

    @pytest.mark.parametrize("make, h", _LATTICE_CASES)
    def test_fixtures(self, make, h):
        poly = make()
        h = h or min(poly.diameter[0] / 50.0, math.sqrt(3.0) / 2.0 * poly.inradius[0])
        self._assert_matches_oracle(poly, h)

    def test_planted_ties(self):
        # on the 2x1 rectangle at h = 0.04, lattice points lie at depth
        # exactly h/2 (kept), 3h (not deep) and 5h (not core)
        poly, h = geo.validate([(0, 0), (2, 0), (2, 1), (0, 1)]), 0.04
        pts, rc = bounding_box_lattice(poly, h)
        depth = geo.half_plane_depth(pts, *poly.edge_normals)
        _, lattice = _lattice_of(poly, h)
        ids = {(r, c): k for k, (r, c) in enumerate(lattice.rc.tolist())}
        for level, count, mask in [(0.5 * h, 14, None), (msh.DEEP_DEPTH * h, 11, lattice.deep),
                                   ((msh.DEEP_DEPTH + msh.HALO_DEPTH) * h, 9, lattice.core)]:
            tied = [tuple(x) for x in rc[depth == level].tolist()]
            assert len(tied) == count, level
            assert all(t in ids for t in tied), level
            if mask is not None:
                assert not mask[[ids[t] for t in tied]].any(), level

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(5, 300), aspect=st.floats(0.05, 1.0), turn=st.floats(0.0, 3.2),
           k=st.sampled_from([-14, 0, 14]), shift=st.tuples(st.floats(-1e3, 1e3),
                                                              st.floats(-1e3, 1e3)),
           h_rel=st.floats(0.02, 0.2), seed=st.integers(0, 2**32 - 1))
    def test_drawn_convex_polygons(self, n, aspect, turn, k, shift, h_rel, seed):
        # vertices on a turned ellipse at random angles: strictly convex
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        xy = np.column_stack([np.cos(t), aspect * np.sin(t)])
        xy = xy @ np.array([[math.cos(turn), math.sin(turn)], [-math.sin(turn), math.cos(turn)]])
        try:
            poly = geo.validate((xy + np.array(shift)) * 2.0 ** k)
        except DegenerateArea:
            assume(False)
        self._assert_matches_oracle(poly, h_rel * poly.diameter[0])


class TestMeshSizeCap:
    """Caps are monkeypatched down, so a check that comes too late costs
    milliseconds, not gigabytes."""

    def test_generate_refuses_before_building_anything(self, monkeypatch):
        square = geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        monkeypatch.setattr(msh, "MAX_MESH_SIZE", 2000)
        assert msh.generate(square, 0.05).vertex_count < 2000
        tracemalloc.start()
        try:
            with pytest.raises(InvalidH, match=r"h = 0\.005 .* \d+ lattice points > 2000"):
                msh.generate(square, 0.005)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the 53k-point lattice alone would take 850 kB
        assert peak < 100_000

    def test_generate_refuses_h_over_inradius_cap(self):
        # a 1600 x 1 rectangle: its default h, diam/50, is 64.0003 inradii;
        # 0.999 of that meshes, its boundary split down to the width
        thin = geo.validate([(0, 0), (1600, 0), (1600, 1), (0, 1)])
        h = thin.diameter[0] / 50.0
        with pytest.raises(InvalidH, match=r"h <= 64 \* inradius = 32, got"):
            msh.generate(thin, h)
        mesh = msh.generate(thin, 0.999 * h)
        assert mesh.vertex_count >= 1600

    def test_refine_refuses_over_cap(self, monkeypatch, square_mesh):
        n = 4 * square_mesh.triangle_count
        monkeypatch.setattr(msh, "MAX_MESH_SIZE", n - 1)
        with pytest.raises(InvalidH, match=rf"h_max = .* {n} triangles"):
            msh.refine(square_mesh)
        monkeypatch.setattr(msh, "MAX_MESH_SIZE", n)
        assert msh.refine(square_mesh).triangle_count == n
