import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotspots import geometry as geo
from hotspots.domains import DomainSpec, realize
from hotspots.errors import DegenerateArea, NotConvex, TooFewVertices

from .conftest import random_polygon
from .oracles import (
    bisection_region,
    brute_force_diameter,
    brute_force_mec,
    contains,
    polyline_contains,
    region_member,
)

SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]


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
        rho, center = geo.validate([(0, 0), (2, 0), (2, 1), (0, 1)]).inradius
        assert rho == pytest.approx(0.5, abs=1e-9)
        assert 0.5 - 1e-9 <= center[0] <= 1.5 + 1e-9  # any optimizer pick is fine


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
        monkeypatch.setattr(geo, "F_CHUNK", chunk)
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
