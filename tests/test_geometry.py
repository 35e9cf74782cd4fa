import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from hotspots import analysis as ana
from hotspots import geometry as geo
from hotspots import meshing as msh
from hotspots.domains import DomainSpec, realize
from hotspots.errors import DegenerateArea, NotConvex, TooFewVertices
from hotspots.report import _sweep_domain_spec

from .conftest import admissible_set, random_polygon
from .oracles import (
    bisection_region,
    brute_force_diameter,
    brute_force_mec,
    chebyshev_lp,
    contains,
    polygon_clearance,
    polyline_contains,
    region_member,
)
from .test_meshing import _SHORT_EDGE_DOMAINS

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
# every turn is left and the area is positive, but the edges go round twice
STAR = [[-2, -2], [2, 1.5], [0, -0.5], [-0.5, 0], [1, -1]]


class TestValidate:
    def test_square_ccw_identity(self):
        poly = geo.validate(SQUARE)
        assert poly.area == pytest.approx(1.0, abs=1e-12)
        assert len(poly.vertices) == 4

    def test_square_cw_reoriented(self):
        poly = geo.validate(SQUARE[::-1])
        assert poly.area == pytest.approx(1.0, abs=1e-12)
        nxt = np.roll(poly.vertices, -1, axis=0)
        nxt2 = np.roll(poly.vertices, -2, axis=0)
        crosses = ((nxt - poly.vertices)[:, 0] * (nxt2 - nxt)[:, 1]
                   - (nxt - poly.vertices)[:, 1] * (nxt2 - nxt)[:, 0])
        assert np.all(crosses > 0)

    def test_collinear_points_degenerate(self):
        with pytest.raises(DegenerateArea):
            geo.validate([(0, 0), (1, 0), (2, 0)])

    def test_too_few(self):
        with pytest.raises(TooFewVertices):
            geo.validate([(0, 0), (1, 0)])

    def test_not_convex(self):
        with pytest.raises(NotConvex):
            geo.validate([(0, 0), (4, 0), (4, 4), (2, 1), (0, 4)])

    def test_star_pentagon_is_not_convex(self):
        assert abs(geo._shoelace(np.array(STAR, dtype=float))) == 1.875  # CW as given
        for pts in (STAR, STAR[::-1], STAR[2:] + STAR[:2]):
            with pytest.raises(NotConvex, match="more than once"):
                geo.validate(pts)

    @pytest.mark.parametrize("pts", [
        [(0, 0), (1e308, 0), (0, 1e308)],
        [(0, 0), (1e-300, 0), (0, 1e-300)],
        [(-1e308, 0), (1e308, 0), (0, 1)],  # the span itself overflows
        [(0, 0), (2.0 ** 200 * (1.0 + 2.0 ** -52), 0), (0, 1)],  # one ulp above the range
        [(0, 0), (2.0 ** -201, 0), (0, 2.0 ** -201)],
        [(1, 1), (1, 1), (1, 1)],
        [(0, 0), (math.inf, 0), (0, 1)],
        [(0, 0), (math.nan, 0), (0, 1)],
    ])
    def test_diagonal_outside_range_names_vertices(self, pts):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="vertices: bounding-box diagonal"):
                geo.validate(pts)

    @pytest.mark.parametrize("e", [-geo.SCALE_EXPONENT + 0.01, geo.SCALE_EXPONENT - 0.01])
    def test_diagonal_just_inside_range_is_valid(self, e):
        s = 2.0 ** (e - 0.5)  # a right isosceles triangle of diagonal 2^e
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            poly = geo.validate([(0, 0), (s, 0), (0, s)])
        assert poly.scale == pytest.approx(2.0 ** e, rel=1e-15)
        assert poly.area == pytest.approx(s * s / 2.0, rel=1e-15)

    def test_diagonal_range_is_inclusive(self):
        assert geo.validate([(0, 0), (2.0 ** 200, 0), (0, 2.0 ** 172)]).scale == 2.0 ** 200

    def test_duplicate_and_collinear_vertices_dropped(self):
        poly = geo.validate([(0, 0), (0.5, 0), (1, 0), (1, 1), (1, 1), (0, 1)])
        assert len(poly.vertices) == 4
        assert poly.area == pytest.approx(1.0, abs=1e-12)


class TestDiameter:
    def test_square(self):
        d, (p, q) = geo.validate(SQUARE).diameter
        assert d == pytest.approx(math.sqrt(2.0), abs=1e-14)
        assert {p, q} in ({(0.0, 0.0), (1.0, 1.0)}, {(1.0, 0.0), (0.0, 1.0)})

    def test_regular_hexagon(self):
        hexagon = realize(DomainSpec(kind="regular_polygon", k=6, circumradius=1.0))
        d, (p, q) = hexagon.diameter
        assert d == pytest.approx(2.0, abs=1e-14)
        assert math.hypot(p[0] + q[0], p[1] + q[1]) < 1e-12  # antipodal pair

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(5, 60))
    def test_equals_brute_force_exactly(self, seed, n):
        poly = random_polygon(seed, n)
        d, _ = poly.diameter
        assert d == brute_force_diameter(poly.vertices)

    def test_disk512_tie_break(self, disk512):
        # 17 vertex pairs attain the largest squared distance bit for bit;
        # the one the calipers meet first is in every disk report
        d, (p, q) = disk512.diameter
        assert d == 2.0
        assert (p, q) == ((-0.9951847266721968, 0.09801714032956083),
                          (0.9951847266721969, -0.0980171403295605))


class TestInradius:
    def test_square(self):
        rho, center = geo.validate(SQUARE).inradius
        assert rho == pytest.approx(0.5, abs=1e-9)
        assert center == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_equilateral_triangle(self):
        poly = geo.validate([(0, 0), (1, 0), (0.5, math.sqrt(3) / 2)])
        rho, _ = poly.inradius
        assert rho == pytest.approx(1.0 / (2.0 * math.sqrt(3.0)), abs=1e-9)

    def test_rectangle_nonunique_center(self):
        # every centre on the segment x in [0.5, 1.5] is optimal; the
        # segment's midpoint is reported, whatever the vertex order
        corners = [(0, 0), (2, 0), (2, 1), (0, 1)]
        for order in (corners[s:] + corners[:s] for s in range(4)):
            for verts in (order, [(2 - x, y) for x, y in order], [(x, 1 - y) for x, y in order]):
                assert geo.validate(verts).inradius == (0.5, (1.0, 0.5))

    def test_cut_just_outside_the_incircle(self):
        # a fourth edge 1e-9 beyond the incircle is near-active but not
        # binding, so rho stays the triangle's (HiGHS misses it by 1e-9)
        tri = geo.validate([(0, 0), (1, 0), (0.3, 0.8)])
        rho, center = tri.inradius
        for degrees in range(0, 360, 5):
            u = np.array([math.cos(math.radians(degrees)), math.sin(math.radians(degrees))])
            depth = tri.vertices @ u - (u @ center + rho + 1e-9)
            cut = []
            for p, q, dp, dq in zip(tri.vertices, np.roll(tri.vertices, -1, axis=0),
                                    depth, np.roll(depth, -1)):
                cut += [p] * bool(dp <= 0) + [p + dp / (dp - dq) * (q - p)] * bool(dp * dq < 0)
            assert abs(geo.validate(cut).inradius[0] - rho) <= 2e-15 * rho, degrees

    def test_matches_lp(self):
        """The skeleton against HiGHS on short-edge sweep domains, regular
        3- to 12-gons, 64- to 2048-gon disks, random triangles, thin
        rectangles and the 20:1 ellipse: rho within 2e-15 relative, and the
        circle inside every edge."""
        rng = np.random.default_rng(11)
        polys = [realize(_sweep_domain_spec(s, i)) for s, i in _SHORT_EDGE_DOMAINS]
        polys += [realize(DomainSpec(kind="regular_polygon", k=k, circumradius=1.0))
                  for k in range(3, 13)]
        polys += [realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=n))
                  for n in (64, 128, 256, 512, 1024, 2048)]
        polys += [geo.validate([(0, 0), (1, 0), (x, y)])
                  for x, y in zip(rng.uniform(-2, 3, 200), rng.uniform(0.02, 2, 200))]
        polys += [realize(DomainSpec(kind="rectangle", length=a, width=b))
                  for a, b in ((2, 1), (8, 1), (2, 0.05), (1000, 0.001))]
        polys.append(realize(DomainSpec(kind="ellipse", a=20.0, b=1.0, polygonization_n=256)))
        for poly in polys:
            rho, center = poly.inradius
            rho_lp, _ = chebyshev_lp(poly)
            normals, offsets = poly.edge_normals
            assert abs(rho - rho_lp) <= 2e-15 * rho_lp
            assert np.min(offsets - normals @ np.array(center)) == rho

    # hull vertices of drawn grid points, from slivers to round many-gons,
    # at 2^-14, 1 and 2^14
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
                    min_size=3, max_size=60),
           st.sampled_from([-14, 0, 14]))
    def test_drawn_convex_polygons_raise_no_warning(self, pts, k):
        pts = np.array(pts, dtype=float) * 2.0 ** (k - 10)
        try:
            hull = pts[ConvexHull(pts).vertices]
            poly = geo.validate(hull)
        except (QhullError, DegenerateArea):
            assume(False)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            rho, centre = poly.inradius
        normals, offsets = poly.edge_normals
        assert 0.0 < rho == np.min(offsets - normals @ np.array(centre))


class TestFarthestBoundaryDistance:
    def test_square_center(self):
        poly = geo.validate(SQUARE)
        assert geo.farthest_boundary_distance(poly, [(0.5, 0.5)])[0] == pytest.approx(
            math.sqrt(2) / 2, abs=1e-14
        )

    def test_polygonized_disk(self):
        disk = realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=512))
        f = geo.farthest_boundary_distance(disk, [(0.2, 0.0)])[0]
        assert f == pytest.approx(1.2, abs=2e-5)

    def test_vertex_bounded_by_diameter(self):
        poly = random_polygon(11, 20)
        d, _ = poly.diameter
        assert np.all(geo.farthest_boundary_distance(poly, poly.vertices) <= d + 1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2)
    )
    def test_lipschitz(self, px, py, qx, qy):
        poly = random_polygon(3, 25)
        fp, fq = geo.farthest_boundary_distance(poly, [(px, py), (qx, qy)])
        assert abs(fp - fq) <= math.hypot(px - qx, py - qy) + 1e-12

    @pytest.mark.parametrize("chunk", [1, 700, 65_536])
    def test_chunks_match_pointwise_bits(self, monkeypatch, chunk):
        # one point at a time, as the vertex-by-vertex maximum was computed
        # before it took arrays; the chunk size must not change a bit
        disk = realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=512))
        pts = np.random.default_rng(5).uniform(-1.0, 1.0, (300, 2))
        pointwise = [math.sqrt(float(np.max((disk.vertices[:, 0] - x) ** 2
                                            + (disk.vertices[:, 1] - y) ** 2)))
                     for x, y in pts]
        monkeypatch.setattr(geo, "CHUNK", chunk)
        np.testing.assert_array_equal(geo.farthest_boundary_distance(disk, pts), pointwise)
        assert geo.farthest_boundary_distance(disk, np.empty((0, 2))).shape == (0,)


class TestMinEnclosingCircle:
    def test_two_point_dominated(self):
        poly = geo.validate([(0, 0), (2, 0), (1, 0.1)])
        c = poly.min_enclosing_circle
        assert c.center == pytest.approx((1.0, 0.0), abs=1e-12)
        assert c.radius == pytest.approx(1.0, abs=1e-12)

    def test_square(self):
        c = geo.validate(SQUARE).min_enclosing_circle
        assert c.center == pytest.approx((0.5, 0.5), abs=1e-12)
        assert c.radius == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_matches_brute_force_on_40gon(self):
        poly = random_polygon(97, 40)
        c = poly.min_enclosing_circle
        _, _, r_oracle = brute_force_mec(poly.vertices)
        assert c.radius == pytest.approx(r_oracle, abs=1e-9)

    @pytest.mark.parametrize("make", [
        *(lambda k=k: realize(DomainSpec(kind="regular_polygon", k=k, circumradius=1.0))
          for k in range(3, 13)),
        *(lambda s=s, i=i: realize(_sweep_domain_spec(s, i)) for s, i in ((1, 0), (4, 2), (6, 5))),
        lambda: geo.validate([(0, 0), (1, 0), (0.3, 0.8)]),
    ])
    def test_center_matches_brute_force(self, make):
        poly = make()
        c = poly.min_enclosing_circle
        cx, cy, r = brute_force_mec(poly.vertices)
        assert math.dist(c.center, (cx, cy)) <= 1e-12 * poly.scale
        assert abs(c.radius - r) <= 1e-12 * poly.scale

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_brute_force_small(self, seed):
        poly = random_polygon(seed, 12)
        c = poly.min_enclosing_circle
        _, _, r_oracle = brute_force_mec(poly.vertices)
        assert c.radius == pytest.approx(r_oracle, abs=1e-9)


class TestContains:
    def test_examples(self):
        poly = geo.validate(SQUARE)
        assert contains(poly, (0.5, 0.5))
        assert not contains(poly, (1.5, 0.5))
        assert contains(poly, (0.5, 0.0))  # edge midpoint, closed region


class TestExclusionRegion:
    def test_disk_region_is_centered_disk(self, disk512, constants):
        region = geo.exclusion_region(disk512)
        radii = np.hypot(region.boundary[:, 0], region.boundary[:, 1])
        expected = 2.0 * constants.c_excl - 1.0  # F(p) = 1 + |p| on the disk
        assert np.max(np.abs(radii - expected)) <= 5e-3
        assert all(b == "farthest" for b in region.binding)

    def test_disk_boundary_hits_threshold(self, disk512):
        region = geo.exclusion_region(disk512)
        d, _ = disk512.diameter
        f = geo.farthest_boundary_distance(disk512, region.boundary[::7])
        assert np.all(np.abs(f - region.threshold) <= 1e-3 * d)

    def test_thin_rectangle_band(self, constants):
        poly = geo.validate([(0, 0), (1, 0), (1, 0.01), (0, 0.01)])
        region = geo.exclusion_region(poly)
        xs = region.boundary[:, 0]
        assert xs.min() == pytest.approx(1.0 - constants.c_excl, abs=1e-3)
        assert xs.max() == pytest.approx(constants.c_excl, abs=1e-3)

    def test_seed_strictly_inside(self):
        poly = random_polygon(23, 33)
        region = geo.exclusion_region(poly)
        f_seed = geo.farthest_boundary_distance(poly, [region.seed])[0]
        assert f_seed < region.threshold - 1e-6 * poly.diameter[0]

    def test_membership_band_agreement(self, unit_square):
        # polyline membership vs the direct predicate, away from a 2*tol band
        region = geo.exclusion_region(unit_square)
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 1.0, size=(10_000, 2))
        d, _ = unit_square.diameter
        disagreements = 0
        for p in pts:
            direct = region_member(unit_square, region, p)
            poly_based = polyline_contains(region.boundary, p)
            if direct != poly_based:
                f = geo.farthest_boundary_distance(unit_square, [p])[0]
                near_f_boundary = abs(f - region.threshold) <= 2e-3 * d
                near_domain_boundary = (
                    min(p[0], p[1], 1 - p[0], 1 - p[1]) <= 2.0 * 1e-6 * d
                )
                assert near_f_boundary or near_domain_boundary
                disagreements += 1
        assert disagreements < 500

    def test_region_convexity_midpoints(self):
        poly = random_polygon(41, 28)
        region = geo.exclusion_region(poly)
        rng = np.random.default_rng(3)
        members = []
        while len(members) < 200:
            p = poly.vertices.min(axis=0) + rng.uniform(size=2) * (
                poly.vertices.max(axis=0) - poly.vertices.min(axis=0)
            )
            if region_member(poly, region, p):
                members.append(p)
        for i in range(0, 200, 2):
            mid = 0.5 * (members[i] + members[i + 1])
            assert region_member(poly, region, mid)

    def test_matches_bisection_oracle(self, disk512, constants):
        thin = geo.validate([(0, 0), (1, 0), (1, 0.01), (0, 0.01)])
        randoms = [random_polygon(seed, n) for seed, n in ((5, 18), (23, 33), (41, 8))]
        for poly in (disk512, thin, *randoms):
            d = poly.diameter[0]
            region = geo.exclusion_region(poly)
            boundary, binding = bisection_region(poly, constants.c_excl)
            assert np.max(np.hypot(*(region.boundary - boundary).T)) <= 1e-6 * d
            assert region.binding == binding
            far = np.array(region.binding) == "farthest"
            f = geo.farthest_boundary_distance(poly, region.boundary[far])
            assert np.all(np.abs(f - region.threshold) <= 1e-12 * d)
            normals, offsets = poly.edge_normals
            gap = np.abs(offsets[None, :] - region.boundary[~far] @ normals.T).min(axis=1)
            assert np.all(gap <= 1e-12 * poly.scale)


class TestJung:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.integers(5, 60))
    def test_mec_radius_within_jung_bound(self, seed, n):
        poly = random_polygon(seed, n)
        d, _ = poly.diameter
        c = poly.min_enclosing_circle
        assert c.radius <= d / math.sqrt(3.0) + 1e-12


def _tied_levels(values: np.ndarray, rng, count: int = 8) -> list[float]:
    """Levels equal to some of the values and to their neighbouring floats,
    so points sit exactly on each level and one ulp to either side."""
    picks = rng.choice(values, count)
    return [*picks, *np.nextafter(picks, np.inf), *np.nextafter(picks, -np.inf)]


def _assert_threshold_tests_exact(poly, pts, far_levels=(), depth_levels=(), seed=0):
    rng = np.random.default_rng(seed)
    far = geo.farthest_boundary_distance(poly, pts)
    depth = geo.half_plane_depth(pts, *poly.edge_normals)
    for level in [*_tied_levels(far, rng), *far_levels]:
        assert np.array_equal(geo.farthest_within(poly, pts, level), far <= level), level
    levels = [*_tied_levels(depth, rng), *depth_levels]
    for level in levels:
        assert np.array_equal(geo.depth_exceeds(poly, pts, level), depth > level), level
    assert np.array_equal(geo.depth_exceeds(poly, pts, levels), depth > np.array(levels)[:, None])


def _ellipse20():
    return realize(DomainSpec(kind="ellipse", a=10.0, b=0.5, polygonization_n=256))


def _disk512():
    return realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=512))


class TestThresholdTests:
    """``farthest_within`` and ``depth_exceeds`` decide most points from
    bounds on SCREEN_SIZE features; every decision must equal the full
    kernel thresholded, bit for bit, at levels tied to the kernels' own
    values."""

    @pytest.mark.parametrize("make, h, refinements", [
        (_disk512, 0.1, 0), (_disk512, 0.05, 0), (_disk512, 0.02, 0), (_disk512, 0.1, 1),
        (_ellipse20, None, 0),
        (lambda: realize(DomainSpec(kind="regular_polygon", k=33, circumradius=1.0)), None, 0),
    ], ids=["disk512-0.1", "disk512-0.05", "disk512-0.02", "disk512-0.1-refined",
            "ellipse20", "regular33"])
    def test_mesh_vertices(self, make, h, refinements):
        poly = make()
        assert len(poly.vertices) > geo.SCREEN_SIZE
        mesh = msh.generate(poly, h or min(poly.diameter[0] / 50.0,
                                           math.sqrt(3.0) / 2.0 * poly.inradius[0]))
        for _ in range(refinements):
            mesh = msh.refine(mesh)
        threshold = geo.exclusion_region(poly).threshold
        tolerance = 2.0 * mesh.h_max
        _assert_threshold_tests_exact(poly, mesh.vertices, [threshold - tolerance],
                                      [0.0, mesh.h_max, tolerance])
        clearance = polygon_clearance(mesh)
        rng = np.random.default_rng(1)
        ids = rng.choice(mesh.vertex_count, 50)
        assert mesh.clearance(ids).tobytes() == clearance[ids].tobytes()
        for level in [*_tied_levels(clearance, rng), mesh.h_max, tolerance]:
            if level >= 0.0:
                assert np.array_equal(mesh.clear_of_boundary(level), clearance > level)
                assert np.array_equal(mesh.clear_of_boundary(level, ids), clearance[ids] > level)
        admissible = admissible_set(mesh)
        far = geo.farthest_boundary_distance(poly, mesh.vertices)
        ok = (far <= threshold - tolerance) & (clearance > tolerance)
        assert np.array_equal(admissible.vertices, ok)
        points = ana.find_critical_points(mesh, np.cos(3.0 * mesh.vertices[:, 0] / poly.scale))
        assert [p.farthest_distance for p in points] == far[[p.vertex_id for p in points]].tolist()

    def test_upper_far_bound_is_widened_for_rounding(self, disk512):
        # half-way from the centre away from vertex 2, F and |p - c| + R are
        # both 1.5 in reals, and F rounds one ulp above the bound
        c = np.array(disk512.min_enclosing_circle.center)
        p = (c + 0.5 * (c - disk512.vertices[2]))[None]
        far = geo.farthest_boundary_distance(disk512, p)[0]
        assert far == np.nextafter(1.5, 2.0)
        for level in (far, 1.5):
            assert geo.farthest_within(disk512, p, level)[0] == (far <= level)

    def test_lower_depth_bound_keeps_a_rounding_margin(self, disk512):
        # an ulp inside vertex 64, a corner of the inscribed hull too, the
        # hull's depth rounds above the polygon's
        p = disk512.vertices[[64]] * (1.0 - 1e-16)
        depth = geo.half_plane_depth(p, *disk512.edge_normals)[0]
        ids = np.arange(geo.SCREEN_SIZE) * 512 // geo.SCREEN_SIZE
        assert geo.half_plane_depth(p, *geo._edge_lines(disk512.vertices[ids]))[0] > depth
        for level in (0.0, depth):
            assert geo.depth_exceeds(disk512, p, level)[0] == (depth > level)

    @pytest.mark.parametrize("make", [
        lambda: geo.validate(SQUARE),
        lambda: realize(DomainSpec(kind="regular_polygon", k=32, circumradius=1.0)),
        lambda: realize(DomainSpec(kind="regular_polygon", k=33, circumradius=1.0)),
        _disk512, _ellipse20,
    ], ids=["square", "regular32", "regular33", "disk512", "ellipse20"])
    def test_level_vector_is_scalar_calls(self, make):
        # a (k,) vector of levels answers (k, n) as k scalar calls would, at
        # levels on the depths and one ulp to either side; one level as a
        # vector is a (1, n) answer
        poly = make()
        rng = np.random.default_rng(7)
        v = poly.vertices
        lo, hi = v.min(axis=0), v.max(axis=0)
        pts = np.vstack([v, 0.5 * (v + np.roll(v, -1, axis=0)),
                         rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), (2000, 2))])
        depth = geo.half_plane_depth(pts, *poly.edge_normals)
        levels = [*_tied_levels(depth[depth > 0.0], rng), *_tied_levels(depth, rng), 0.0]
        got = geo.depth_exceeds(poly, pts, np.array(levels))
        assert got.shape == (len(levels), len(pts))
        for row, level in zip(got, levels):
            assert row.tobytes() == geo.depth_exceeds(poly, pts, level).tobytes(), level
        assert geo.depth_exceeds(poly, pts, levels[:1]).shape == (1, len(pts))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(33, 300), aspect=st.floats(0.05, 1.0), turn=st.floats(0.0, 3.2),
           k=st.sampled_from([-14, 0, 14]), shift=st.tuples(st.floats(-1e3, 1e3),
                                                              st.floats(-1e3, 1e3)),
           seed=st.integers(0, 2**32 - 1))
    def test_drawn_many_gons(self, n, aspect, turn, k, shift, seed):
        # vertices on a turned ellipse at random angles: strictly convex
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        xy = np.column_stack([np.cos(t), aspect * np.sin(t)])
        xy = xy @ np.array([[math.cos(turn), math.sin(turn)], [-math.sin(turn), math.cos(turn)]])
        try:
            poly = geo.validate(xy * 2.0 ** k + np.array(shift) * 2.0 ** k)
        except DegenerateArea:
            assume(False)
        v = poly.vertices
        lo, hi = v.min(axis=0), v.max(axis=0)
        c = np.array(poly.min_enclosing_circle.center)
        # F's upper bound |p - c| + R is attained on the rays from a vertex
        # through c, up to rounding
        pts = np.vstack([v, 0.5 * (v + np.roll(v, -1, axis=0)),
                         v + 1e-9 * (v.mean(axis=0) - v), c + 0.3 * (c - v), c + 0.7 * (c - v),
                         rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), (400, 2))])
        _assert_threshold_tests_exact(poly, pts, seed=seed)
