import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hotspots import analysis as ana
from hotspots import fem
from hotspots import geometry as geo
from hotspots import meshing as msh
from hotspots.bessel import j0_eval, j1_eval
from hotspots.domains import DomainSpec, realize
from hotspots.errors import AnchorOnBoundary, NotPositiveComponent
from hotspots.report import _comparison_diagnostics, _sweep_domain_spec

from . import oracles
from .conftest import _solve, admissible_set

PI_SQ = math.pi**2


def j2_eval(x: float) -> float:
    # recurrence J2 = (2/x) J1 - J0
    return (2.0 / x) * j1_eval(x) - j0_eval(x) if x > 0 else 0.0


@pytest.fixture(scope="module")
def coarse_disk():
    poly = realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=128))
    return poly, msh.generate(poly, 0.1)


@pytest.fixture(scope="module")
def centered_square_mesh():
    poly = geo.validate([(-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5)])
    return poly, msh.generate(poly, 0.1)


class TestFindCriticalPoints:
    def test_rectangle_eigenvector_has_no_interior_critical_points(self, rect_solved):
        psi = rect_solved.neumann.eigenvectors[:, 1]
        pts = ana.find_critical_points(rect_solved.mesh, psi)
        assert pts == []

    def test_synthetic_paraboloid_min(self, coarse_disk):
        _, mesh = coarse_disk
        center = mesh.vertices[
            np.argmin(np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]))
        ]
        psi = np.hypot(*(mesh.vertices - center).T) ** 2
        pts = ana.find_critical_points(mesh, psi)
        mins = [p for p in pts if p.kind == "min"]
        assert len(mins) == 1
        assert mins[0].location == tuple(center)
        assert mins[0].alternations == 0

    def test_synthetic_saddle(self, coarse_disk):
        _, mesh = coarse_disk
        center = mesh.vertices[
            np.argmin(np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1]))
        ]
        dx = mesh.vertices[:, 0] - center[0]
        dy = mesh.vertices[:, 1] - center[1]
        psi = dx * dx - dy * dy
        pts = ana.find_critical_points(mesh, psi)
        saddles = [p for p in pts if p.location == tuple(center)]
        assert len(saddles) == 1
        assert saddles[0].kind == "saddle"
        assert saddles[0].alternations == 4

    def test_alternations_always_even(self, disk_solved):
        psi = disk_solved.neumann.eigenvectors[:, 2]
        for p in ana.find_critical_points(disk_solved.mesh, psi):
            assert p.alternations % 2 == 0


class TestTheoremCheck:
    def test_vacuous_pass(self, square_solved):
        assert ana.theorem_check([], square_solved.admissible) == ()

    def test_planted_center_of_square_is_flagged(self, square_solved):
        loc = (0.5, 0.5)
        planted = ana.CriticalPoint(
            vertex_id=0, location=loc, value=1.0, kind="max", alternations=0,
            farthest_distance=geo.farthest_boundary_distance(square_solved.poly, [loc])[0],
        )
        assert ana.theorem_check([planted], square_solved.admissible) == (planted,)
        assert square_solved.admissible.threshold == pytest.approx(1.1266619, abs=1e-3)
        assert planted.farthest_distance == pytest.approx(0.7071068, abs=1e-6)

    def test_planted_disk_point_outside_region_not_flagged(self, disk_solved):
        loc = (0.7, 0.0)
        planted = ana.CriticalPoint(
            vertex_id=0, location=loc, value=1.0, kind="max", alternations=0,
            farthest_distance=geo.farthest_boundary_distance(disk_solved.poly, [loc])[0],
        )
        assert planted.farthest_distance == pytest.approx(1.7, abs=1e-4)
        assert ana.theorem_check([planted], disk_solved.admissible) == ()


@pytest.fixture(scope="module")
def sweep_6_5():
    """Sweep seed 6, domain 5 at h = diam/50: mu3/mu2 - 1 = 8.6e-3, a flagged
    pair whose least-gradient triangle is not tied by a symmetry."""
    poly = realize(_sweep_domain_spec(6, 5))
    return _solve(poly, 0.02 * poly.diameter[0])


def _admissible(fx, constants):
    """(m,) mask of the triangles whose vertices all have F <= c_excl * diam -
    2 h_max and boundary clearance > 2 h_max, from the paper's numbers."""
    tolerance = 2.0 * fx.mesh.h_max
    far = geo.farthest_boundary_distance(fx.poly, fx.mesh.vertices)
    deep = ((far <= constants.c_excl * fx.poly.diameter[0] - tolerance)
            & (oracles.polygon_clearance(fx.mesh) > tolerance))
    return deep[fx.mesh.triangles].all(axis=1)


class TestAdmissibleSet:
    @pytest.mark.parametrize("name", ["disk_solved", "sweep_6_5", "rect_solved"])
    def test_triangle_mask_matches_independent_helper(self, request, constants, name):
        fx = request.getfixturevalue(name)
        record = fx.admissible
        assert record.threshold == constants.c_excl * fx.poly.diameter[0]
        assert record.tolerance == 2.0 * fx.mesh.h_max
        mask = _admissible(fx, constants)
        assert mask.any()
        np.testing.assert_array_equal(record.triangles, mask)
        np.testing.assert_array_equal(
            record.triangles, record.vertices[fx.mesh.triangles].all(axis=1))

    def test_far_is_f_of_each_vertex(self, coarse_disk):
        # F of a point does not depend on the points computed with it, and the
        # admissible set decides each vertex by that F, whichever bound screens it
        poly, mesh = coarse_disk
        record = admissible_set(mesh)
        far = geo.farthest_boundary_distance(poly, mesh.vertices)
        clearance = oracles.polygon_clearance(mesh)
        level = record.threshold - record.tolerance
        for v in range(0, mesh.vertex_count, 37):
            assert far[v] == geo.farthest_boundary_distance(poly, mesh.vertices[[v]])[0]
            x, y = mesh.vertices[v]
            assert far[v] == pytest.approx(max(math.hypot(x - a, y - b) for a, b in poly.vertices),
                                           rel=1e-15)
        assert record.vertices.any()
        np.testing.assert_array_equal(record.vertices,
                                      (far <= level) & (clearance > record.tolerance))


class TestMu2Eigenvectors:
    """psi2 alone for a separated mu2; psi2, psi3 and the unit combination
    of least gradient on the admissible triangles for a flagged pair."""

    @pytest.mark.parametrize("name, rel_gap", [("square_solved", 1e-5), ("sweep_6_5", 1e-2)])
    def test_degenerate_pair_gets_three_eigenvectors(self, request, name, rel_gap):
        # every vector lies in span(psi2, psi3): its Rayleigh quotient is in
        # [mu2, mu3], within rel_gap of mu2 (the square's pair is 4.0e-7 apart at
        # h=0.02, sweep 6/5's 8.6e-3)
        fx = request.getfixturevalue(name)
        mu2, mu3 = fx.neumann.eigenvalues[1:3]
        assert mu3 / mu2 - 1.0 <= ana.DEGENERACY_FLAG_REL_GAP
        vecs = ana.mu2_eigenvectors(fx.mesh, fx.neumann, fx.admissible)
        assert len(vecs) == 3
        np.testing.assert_array_equal(vecs[0], fx.neumann.eigenvectors[:, 1])
        np.testing.assert_array_equal(vecs[1], fx.neumann.eigenvectors[:, 2])
        for v in vecs:
            q = fem.rayleigh(fx.K, fx.M, v)
            assert mu2 * (1.0 - 1e-9) <= q <= mu3 * (1.0 + 1e-9)
            assert q == pytest.approx(mu2, rel=rel_gap)
        assert vecs[2][np.argmax(np.abs(vecs[2]))] > 0.0

    def test_separated_pair_gets_psi2_alone(self, rect_solved):
        mu2, mu3 = rect_solved.neumann.eigenvalues[1:3]
        assert mu3 / mu2 - 1.0 > ana.DEGENERACY_FLAG_REL_GAP
        vecs = ana.mu2_eigenvectors(rect_solved.mesh, rect_solved.neumann,
                                    rect_solved.admissible)
        assert len(vecs) == 1
        np.testing.assert_array_equal(vecs[0], rect_solved.neumann.eigenvectors[:, 1])

    def test_least_gradient_matches_angle_scan(self, disk_solved, constants):
        # the closed form is the minimum over all unit combinations: a
        # 2,000-angle scan can only come down to it
        admissible = _admissible(disk_solved, constants)
        grads = fem.gradients(disk_solved.mesh, disk_solved.neumann.eigenvectors[:, 1:3])[admissible]
        assert len(grads) == 5246
        third = ana.mu2_eigenvectors(disk_solved.mesh, disk_solved.neumann,
                                     disk_solved.admissible)[2]
        g3 = fem.gradients(disk_solved.mesh, third[:, None])
        g3 = g3[admissible, :, 0]
        least = np.hypot(*g3.T).min()
        assert least == pytest.approx(np.linalg.svd(grads, compute_uv=False)[:, 1].min(),
                                      rel=1e-14)
        theta = np.linspace(0.0, math.pi, 2000, endpoint=False)
        scan = min(np.hypot(*(grads @ (math.cos(t), math.sin(t))).T).min() for t in theta)
        assert least <= scan * (1.0 + 1e-14)
        assert least == pytest.approx(scan, rel=1e-7)

    @pytest.mark.parametrize("angle", [0.3, 1.0, 2.5, math.pi, 4.0, 5.9])
    def test_combination_does_not_depend_on_basis(self, sweep_6_5, angle):
        # here the least-gradient triangle is 2.3e-3 (in sigma^2) below the
        # next one, so rotating the basis (psi2, psi3) cannot change it
        fx = sweep_6_5
        third = ana.mu2_eigenvectors(fx.mesh, fx.neumann, fx.admissible)[2]
        turn = np.array([[math.cos(angle), -math.sin(angle)],
                         [math.sin(angle), math.cos(angle)]])
        vecs = fx.neumann.eigenvectors.copy()
        vecs[:, 1:3] = vecs[:, 1:3] @ turn
        turned = dataclasses.replace(fx.neumann, eigenvectors=vecs)
        np.testing.assert_allclose(
            ana.mu2_eigenvectors(fx.mesh, turned, fx.admissible)[2], third, rtol=0,
            atol=1e-9)

    def test_pair_alone_without_admissible_triangles(self, constants):
        # an 8x1 rectangle has no vertex both deep in E and 2 h_max inside;
        # a pair forced to be degenerate there falls back to psi2 and psi3
        fx = _solve(geo.validate([(0, 0), (8, 0), (8, 1), (0, 1)]), 0.2)
        assert not _admissible(fx, constants).any()
        vals = fx.neumann.eigenvalues.copy()
        vals[2] = vals[1]
        forced = dataclasses.replace(fx.neumann, eigenvalues=vals)
        vecs = ana.mu2_eigenvectors(fx.mesh, forced, fx.admissible)
        assert len(vecs) == 2
        np.testing.assert_array_equal(np.column_stack(vecs), fx.neumann.eigenvectors[:, 1:3])


@pytest.fixture(scope="module")
def equilateral():
    poly = geo.validate([(0, 0), (1, 0), (0.5, math.sqrt(3.0) / 2.0)])
    return _solve(poly, poly.diameter[0] / 50.0)


def _svd_of_every_triangle(vecs: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """The least-gradient combination as an SVD of every admissible
    triangle's gradient chooses it."""
    _, sigma, vt = np.linalg.svd(grads)
    return fem.fix_signs(vecs[:, 1:3] @ vt[np.argmin(sigma[:, 1]), 1, :, None])[:, 0]


class TestClosedFormLeastSingularValue:
    """sigma_min = |det G| / sigma_max leaves the SVD only the few triangles
    within SVD_SLACK_ULPS of the least, and the choice keeps every bit."""

    @staticmethod
    def _third(mesh, spectrum, admissible, monkeypatch):
        svd, batches = np.linalg.svd, []

        def spy(a, *args, **kwargs):
            batches.append(len(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        third = ana.mu2_eigenvectors(mesh, spectrum, admissible)[2]
        monkeypatch.setattr(np.linalg, "svd", svd)
        return third, batches

    @pytest.mark.parametrize("name", ["disk_solved", "sweep_6_5", "equilateral"])
    def test_chooses_as_the_svd_of_every_triangle(self, request, name, monkeypatch):
        fx = request.getfixturevalue(name)
        third, batches = self._third(fx.mesh, fx.neumann, fx.admissible, monkeypatch)
        vecs = fx.neumann.eigenvectors
        grads = fem.gradients(fx.mesh, vecs[:, 1:3])[fx.admissible.triangles]
        assert third.tobytes() == _svd_of_every_triangle(vecs, grads).tobytes()
        assert len(batches) == 1 and 1 <= batches[0] <= 8 < len(grads), (batches, len(grads))

    @pytest.mark.parametrize("plant", ["rank_one", "congruent", "turned"])
    def test_planted_ties(self, coarse_disk, monkeypatch, plant):
        # random gradients with the least planted twice (triangles 40 and 7):
        # rank one (sigma_min = 0 in closed form), bit-equal, or the same
        # matrix turned, whose singular values differ only by rounding
        poly, mesh = coarse_disk
        rng = np.random.default_rng(4)
        grads = rng.standard_normal((mesh.triangle_count, 2, 2))
        least = 1e-3 * rng.standard_normal((2, 2))
        if plant == "rank_one":
            least[:, 1] = 2.0 * least[:, 0]
        turn = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
        grads[40], grads[7] = least, turn @ least if plant == "turned" else least
        vecs = rng.standard_normal((mesh.vertex_count, 4))
        spectrum = fem.Spectrum(np.array([0.0, 1.0, 1.0, 2.0]), vecs, np.zeros(4), None)
        admissible = ana.AdmissibleSet(threshold=1.0, tolerance=0.0,
                                       vertices=np.ones(mesh.vertex_count, dtype=bool),
                                       triangles=np.ones(mesh.triangle_count, dtype=bool))
        monkeypatch.setattr(ana, "gradients", lambda mesh, values: grads)
        third, batches = self._third(mesh, spectrum, admissible, monkeypatch)
        assert third.tobytes() == _svd_of_every_triangle(vecs, grads).tobytes()
        assert batches == [2]


def _triangle_critical_counts(apex):
    """Interior critical vertices of each analyzed mu2 eigenvector of the
    triangle (0, 0), (1, 0), apex at h = diam/50."""
    poly = geo.validate([(0, 0), (1, 0), apex])
    mesh = msh.generate(poly, poly.diameter[0] / 50.0)
    k_mat, m_mat = fem.assemble_stiffness(mesh), fem.assemble_mass(mesh)
    spectrum = fem.solve_neumann(k_mat, m_mat, k=4)
    vecs = ana.mu2_eigenvectors(mesh, spectrum, admissible_set(mesh))
    return [len(ana.find_critical_points(mesh, v)) for v in vecs]


class TestJudgeMondal:
    """A second Neumann eigenfunction of a triangle has no interior critical
    point (Judge & Mondal, Ann. of Math. 191, 2020), so no analyzed vector
    may have an interior critical vertex."""

    def test_equilateral_eigenspace(self):
        # mu2 is double: psi2, psi3 and the least-gradient combination
        assert _triangle_critical_counts((0.5, math.sqrt(3.0) / 2.0)) == [0, 0, 0]

    # apexes over obtuse (x < 0, x > 1 or near the base) and near-degenerate
    # (height down to 0.02 of the base) triangles; about 15 ms each
    @settings(max_examples=40, deadline=None)
    @example(x=0.5, y=math.sqrt(3.0) / 2.0)
    @example(x=-2.0, y=0.02)
    @given(x=st.floats(-2.0, 3.0), y=st.floats(0.02, 2.0))
    def test_no_interior_critical_vertices(self, x, y):
        assert not any(_triangle_critical_counts((x, y)))


class TestComparisonField:
    def test_zero_at_anchor(self, disk_solved):
        mesh = disk_solved.mesh
        psi = disk_solved.neumann.eigenvectors[:, 1]
        mu2 = disk_solved.neumann.eigenvalues[1]
        idx = int(np.argmax(np.abs(psi) * mesh.interior_mask))
        field = ana.build_comparison(mesh, psi, mu2, idx)
        assert field.values[field.anchor_index] == 0.0
        assert field.psi_at_anchor >= 0.0

    def test_zero_anchor_value_gives_minus_psi(self, coarse_disk):
        poly, mesh = coarse_disk
        rng = np.random.default_rng(2)
        psi = rng.standard_normal(mesh.vertex_count)
        idx = int(np.nonzero(mesh.interior_mask)[0][0])
        psi[idx] = 0.0
        field = ana.build_comparison(mesh, psi, 3.0, idx)
        assert np.array_equal(field.values, -psi)

    def test_discrete_helmholtz_residual_shrinks(self):
        poly = realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=256))
        residuals = []
        mesh = msh.generate(poly, 0.1)
        for _ in range(2):
            k_mat = fem.assemble_stiffness(mesh)
            m_mat = fem.assemble_mass(mesh)
            spectrum = fem.solve_neumann(k_mat, m_mat, k=3)
            psi = spectrum.eigenvectors[:, 1]
            mu2 = spectrum.eigenvalues[1]
            idx = int(np.argmax(np.abs(psi) * mesh.interior_mask))
            field = ana.build_comparison(mesh, psi, mu2, idx)
            w = field.values
            res = (k_mat @ w - mu2 * (m_mat @ w))[mesh.interior_mask]
            residuals.append(np.linalg.norm(res) / np.linalg.norm(m_mat @ w))
            mesh = msh.refine(mesh)
        assert residuals[1] <= residuals[0] / 1.5


def _branches(mesh, field, radius):
    segments = ana.nodal_decomposition(mesh, field.values).segments
    return ana.branch_count(mesh, field.anchor_index, segments, radius)


def _sampled_branches(mesh, field, radius, samples=1024):
    """Sign changes of the brute-force P1 interpolant at `samples` points of
    the circle, ignoring values within 1e-10 * max|w| of zero."""
    theta = 2.0 * math.pi * np.arange(samples) / samples
    circle = mesh.vertices[field.anchor_index] + radius * np.column_stack(
        [np.cos(theta), np.sin(theta)])
    vals = oracles.brute_force_interpolate(mesh, field.values, circle)
    signs = np.sign(vals[np.abs(vals) > 1e-10 * np.abs(field.values).max()])
    return int(np.sum(signs != np.roll(signs, 1)))


@pytest.fixture(scope="module")
def rect_refined(rect21):
    """The benchmark's rect_refined mesh (h=0.04, 2 refinements) and psi2."""
    mesh = msh.refine(msh.refine(msh.generate(rect21, 0.04)))
    k_mat, m_mat = fem.assemble_stiffness(mesh), fem.assemble_mass(mesh)
    return SimpleNamespace(poly=rect21, mesh=mesh,
                           neumann=fem.solve_neumann(k_mat, m_mat, k=4))


class TestBranchCount:
    def _synthetic_field(self, mesh, values):
        idx = int(np.argmin(np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])))
        return ana.ComparisonField(
            anchor_index=idx,
            mu2=3.39,
            psi_at_anchor=1.0,
            values=values,
        )

    @staticmethod
    def _bessel_field(mesh, order):
        root_mu = math.sqrt(3.39)
        r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        theta = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])
        radial = j2_eval if order == 2 else j1_eval
        return np.array([radial(root_mu * ri) for ri in r]) * np.cos(order * theta)

    def test_second_order_zero_has_four_branches(self, disk_solved):
        mesh = disk_solved.mesh
        field = self._synthetic_field(mesh, self._bessel_field(mesh, 2))
        assert _branches(mesh, field, 0.3) == 4

    def test_simple_zero_has_two_branches(self, disk_solved):
        mesh = disk_solved.mesh
        field = self._synthetic_field(mesh, self._bessel_field(mesh, 1))
        assert _branches(mesh, field, 0.3) == 2

    def test_positive_field_has_no_branches(self, disk_solved):
        mesh = disk_solved.mesh
        field = self._synthetic_field(mesh, np.ones(mesh.vertex_count))
        assert _branches(mesh, field, 0.3) == 0

    def test_radius_below_mesh_resolution_rejected(self, disk_solved):
        mesh = disk_solved.mesh
        field = self._synthetic_field(mesh, np.ones(mesh.vertex_count))
        with pytest.raises(ValueError):
            _branches(mesh, field, 2.0 * mesh.h_max)

    def test_circle_outside_domain(self, disk_solved):
        mesh = disk_solved.mesh
        field = self._synthetic_field(mesh, np.ones(mesh.vertex_count))
        with pytest.raises(ana.CircleOutsideDomain):
            _branches(mesh, field, 1.5)
        clearance = oracles.polygon_clearance(mesh)[field.anchor_index]
        with pytest.raises(ana.CircleOutsideDomain):
            _branches(mesh, field, clearance)
        assert _branches(mesh, field, 0.999 * clearance) == 0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ends, expected", [
        (((0.1, 0.0), (0.5, 0.0)), 1),
        (((0.5, 0.0), (0.1, 0.0)), 1),
        (((-0.5, 0.1), (0.5, 0.1)), 2),
        (((0.05, 0.05), (0.1, -0.1)), 0),
        (((0.4, 0.0), (0.6, 0.0)), 0),    # its line passes the anchor, but beyond t = 0
        (((-0.5, 0.4), (0.5, 0.4)), 0),   # its nearest point lies outside
        (((0.0, 0.0), (0.0, 0.0)), 0),    # zero length, at the anchor
        (((0.5, 0.0), (0.5, 0.0)), 0),    # zero length, outside
    ], ids=["straddles", "straddles-reversed", "dips-inside", "inside", "outside-collinear",
            "outside-chord", "zero-length-anchor", "zero-length-outside"])
    def test_hand_made_segments(self, disk_solved, ends, expected):
        mesh = disk_solved.mesh
        anchor = self._synthetic_field(mesh, np.ones(mesh.vertex_count)).anchor_index
        segments = mesh.vertices[anchor] + np.array([ends], dtype=float)
        assert ana.branch_count(mesh, anchor, segments, 0.3) == expected

    def test_matches_sampled_oracle(self, disk_solved, rect_refined):
        """The closed form equals the sign changes of the brute-force P1
        interpolant at 1,024 points of the circle, for the report's diagnostic
        anchor on the disk and on rect_refined, random deep anchors at random
        radii, the planted J1 and J2 fields, and a wavy field on wide circles."""
        cases = []
        for solved in (disk_solved, rect_refined):
            mesh, poly = solved.mesh, solved.poly
            psi, mu2 = solved.neumann.eigenvectors[:, 1], solved.neumann.eigenvalues[1]
            cand = np.nonzero(mesh.interior_mask)[0]
            rel = mesh.vertices[cand] - np.array(poly.min_enclosing_circle.center)
            anchor = int(cand[np.argmin(np.hypot(rel[:, 0], rel[:, 1]))])
            clearance = oracles.polygon_clearance(mesh)
            radius = min(0.9 * clearance[anchor],  # run_verify's rule
                         max(3.0 * mesh.h_max, 0.05 * poly.diameter[0]))
            cases.append((mesh, ana.build_comparison(mesh, psi, mu2, anchor), radius))
            rng = np.random.default_rng(11)
            deep = np.flatnonzero(clearance > 4.0 * mesh.h_max)
            for anchor in rng.choice(deep, 3, replace=False):
                cases.append((mesh, ana.build_comparison(mesh, psi, mu2, int(anchor)),
                              rng.uniform(3.0 * mesh.h_max, 0.9 * clearance[anchor])))
        mesh = disk_solved.mesh
        for order in (1, 2):
            cases.append((mesh, self._synthetic_field(mesh, self._bessel_field(mesh, order)),
                          0.3))
        x, y = mesh.vertices.T
        wavy = np.cos(5.0 * x + 1.0) * np.cos(4.0 * y - 0.5) + 0.3 * np.sin(7.0 * x - 3.0 * y)
        for radius in (0.3, 0.6, 0.9):
            cases.append((mesh, self._synthetic_field(mesh, wavy), radius))
        counts = [(_branches(mesh, field, radius), _sampled_branches(mesh, field, radius))
                  for mesh, field, radius in cases]
        assert all(closed == sampled for closed, sampled in counts), counts
        assert {closed for closed, _ in counts} == {2, 4, 6, 8}


class TestNodalDecomposition:
    def test_linear_field_on_centered_square(self, centered_square_mesh):
        poly, mesh = centered_square_mesh
        nd = ana.nodal_decomposition(mesh, mesh.vertices[:, 0].copy())
        assert len(nd.component_signs) == 2
        assert nd.positive_component_count == 1
        assert nd.touches_boundary.all()
        assert len(nd.segments) > 0
        assert np.max(np.abs(nd.segments[:, :, 0])) <= 1e-9

    def test_interior_nodal_domain_flagged(self):
        poly = realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=256))
        mesh = msh.generate(poly, 0.05)
        w = mesh.vertices[:, 0] ** 2 + mesh.vertices[:, 1] ** 2 - 0.25
        nd = ana.nodal_decomposition(mesh, w)
        inner = [
            c for c in range(len(nd.component_signs))
            if nd.component_signs[c] < 0
        ]
        assert len(inner) == 1
        assert not nd.touches_boundary[inner[0]]  # the interior nodal domain

    def test_positive_field_single_component(self, centered_square_mesh):
        poly, mesh = centered_square_mesh
        nd = ana.nodal_decomposition(mesh, np.ones(mesh.vertex_count))
        assert len(nd.component_signs) == 1
        assert nd.touches_boundary.all()
        assert len(nd.segments) == 0

    def test_computed_psi2_has_no_interior_nodal_domain(self, disk_solved, rect_solved):
        for fx in (disk_solved, rect_solved):
            psi = fx.neumann.eigenvectors[:, 1]
            nd = ana.nodal_decomposition(fx.mesh, psi)
            assert nd.touches_boundary.all()

    def test_every_significant_vertex_labeled(self, rect_solved):
        psi = rect_solved.neumann.eigenvectors[:, 1]
        nd = ana.nodal_decomposition(rect_solved.mesh, psi)
        tie = 1e-12 * np.abs(psi).max()
        assert np.all((nd.labels >= 0) == (np.abs(psi) > tie))


def circumscribed_fan_mesh(n=64):
    """Fan mesh of a circumscribed polygon: boundary-edge midpoints lie
    exactly on the unit circle, with x.nu = r = 1."""
    big_r = 1.0 / math.cos(math.pi / n)
    theta = 2.0 * math.pi * np.arange(n) / n
    ring = big_r * np.column_stack([np.cos(theta), np.sin(theta)])
    verts = np.vstack([[0.0, 0.0], ring])
    tris = np.array([[0, 1 + i, 1 + (i + 1) % n] for i in range(n)])
    loop = np.array([[1 + i, 1 + (i + 1) % n] for i in range(n)])
    return msh.TriMesh(polygon=geo.validate(ring), vertices=verts, triangles=tris,
                       boundary_edges=loop)


class TestBoundaryFlux:
    def test_zero_prefactor(self, coarse_disk):
        poly, mesh = coarse_disk
        idx = int(np.nonzero(mesh.interior_mask)[0][0])
        field = ana.ComparisonField(
            anchor_index=idx,
            mu2=4.0, psi_at_anchor=0.0, values=np.zeros(mesh.vertex_count),
        )
        assert np.all(ana.boundary_flux(field, mesh) == 0.0)

    def test_analytic_disk_value(self):
        mesh = circumscribed_fan_mesh()
        field = ana.ComparisonField(
            anchor_index=0,
            mu2=4.0, psi_at_anchor=1.0, values=np.zeros(mesh.vertex_count),
        )
        flux = ana.boundary_flux(field, mesh)
        expected = 2.0 * (-j1_eval(2.0))  # 2 J0'(2) = -1.1534496155
        assert np.max(np.abs(flux - expected)) <= 1e-8
        assert expected == pytest.approx(-1.1534496, abs=1e-7)

    def test_sign_property_inside_j1_window(self, disk_solved, constants):
        mesh = disk_solved.mesh
        psi = disk_solved.neumann.eigenvectors[:, 1]
        mu2 = disk_solved.neumann.eigenvalues[1]
        interior = np.nonzero(mesh.interior_mask)[0]
        rel = mesh.vertices[interior] - np.array([0.3, 0.1])
        idx = int(interior[np.argmin(np.hypot(rel[:, 0], rel[:, 1]))])
        f_anchor = geo.farthest_boundary_distance(disk_solved.poly, mesh.vertices[[idx]])[0]
        assert math.sqrt(mu2) * f_anchor <= constants.j1
        field = ana.build_comparison(mesh, psi, mu2, idx)
        flux = ana.boundary_flux(field, mesh)
        scale = abs(field.psi_at_anchor) * math.sqrt(mu2)
        assert np.all(flux <= 1e-10 * scale)

    def test_anchor_on_boundary_rejected(self, coarse_disk):
        poly, mesh = coarse_disk
        idx = int(np.nonzero(~mesh.interior_mask)[0][0])
        psi = np.ones(mesh.vertex_count)
        field = ana.build_comparison(mesh, psi, 3.0, idx)
        with pytest.raises(AnchorOnBoundary):
            ana.boundary_flux(field, mesh)


class TestSupportPositivity:
    """The comparison's support positivity, min over the boundary of
    (x - x0).nu, is the anchor's boundary clearance; on the unit square it is
    the distance to the nearest side."""

    @staticmethod
    def _at(fx, target):
        mesh = fx.mesh
        interior = np.nonzero(mesh.interior_mask)[0]
        idx = int(interior[np.argmin(np.hypot(*(mesh.vertices[interior] - target).T))])
        doc = _comparison_diagnostics(mesh, fx.K, fx.M, fx.neumann.eigenvectors[:, 1],
                                      float(fx.neumann.eigenvalues[1]), idx, True, 0)
        x, y = mesh.vertices[idx]
        assert doc["support_positivity"] == oracles.polygon_clearance(mesh)[idx]
        assert doc["support_positivity"] == pytest.approx(min(x, y, 1.0 - x, 1.0 - y),
                                                          rel=1e-13)
        return doc["support_positivity"]

    def test_square_center(self, square_solved):
        assert self._at(square_solved, (0.5, 0.5)) == pytest.approx(0.5, abs=0.02)

    def test_square_near_edge(self, square_solved):
        assert self._at(square_solved, (0.99, 0.5)) == pytest.approx(0.01, abs=0.02)


class TestRayleighDefect:
    def _half_wave(self, rect_solved):
        mesh = rect_solved.mesh
        psi = np.cos(math.pi * mesh.vertices[:, 0] / 2.0)
        rel = mesh.vertices - np.array([1.0, 0.5])
        idx = int(np.argmin(np.hypot(rel[:, 0], rel[:, 1])))
        field = ana.ComparisonField(
            anchor_index=idx,
            mu2=PI_SQ / 4.0, psi_at_anchor=0.0, values=-psi,
        )
        return mesh, field

    def test_half_wave_ratio_one(self, rect_solved):
        mesh, field = self._half_wave(rect_solved)
        nd = ana.nodal_decomposition(mesh, field.values)
        flux = ana.boundary_flux(field, mesh)
        assert np.all(flux == 0.0)
        positive = int(np.nonzero(nd.component_signs > 0)[0][0])
        defect = ana.rayleigh_defect(
            mesh, rect_solved.K, rect_solved.M, field, nd, positive, flux
        )
        assert defect.dirichlet_energy / defect.mass_energy == pytest.approx(1.0, abs=0.02)
        assert defect.boundary_term == 0.0
        # the positive lobe of -cos(pi x / 2) is the x > 1 half
        labels = nd.labels
        lobe = mesh.vertices[labels == positive]
        assert lobe[:, 0].min() >= 1.0 - 2 * mesh.h_max

    def test_negative_component_rejected(self, rect_solved):
        mesh, field = self._half_wave(rect_solved)
        nd = ana.nodal_decomposition(mesh, field.values)
        flux = ana.boundary_flux(field, mesh)
        negative = int(np.nonzero(nd.component_signs < 0)[0][0])
        with pytest.raises(NotPositiveComponent):
            ana.rayleigh_defect(
                mesh, rect_solved.K, rect_solved.M, field, nd, negative, flux
            )
        with pytest.raises(NotPositiveComponent):
            ana.rayleigh_defect(
                mesh, rect_solved.K, rect_solved.M, field, nd,
                len(nd.component_signs), flux,
            )

    def test_non_helmholtz_field_measured_not_assumed(self, rect_solved):
        # distance-to-boundary tent: the op reports, it does not crash
        mesh = rect_solved.mesh
        w = oracles.polygon_clearance(mesh)
        idx = int(np.nonzero(mesh.interior_mask)[0][0])
        field = ana.ComparisonField(
            anchor_index=idx,
            mu2=PI_SQ / 4.0, psi_at_anchor=0.0, values=w,
        )
        nd = ana.nodal_decomposition(mesh, w)
        flux = np.zeros(len(mesh.boundary_edges))
        positive = int(np.nonzero(nd.component_signs > 0)[0][0])
        defect = ana.rayleigh_defect(
            mesh, rect_solved.K, rect_solved.M, field, nd, positive, flux
        )
        assert defect.dirichlet_energy / defect.mass_energy != pytest.approx(1.0, abs=0.02)

    def test_two_lobe_combination(self, square_solved):
        # cos(2 pi x) has two positive lobes; the zero-mean combination is a
        # valid trial field, so its quotient cannot undercut mu2
        mesh = square_solved.mesh
        w = np.cos(2.0 * math.pi * mesh.vertices[:, 0])
        idx = int(np.nonzero(mesh.interior_mask)[0][0])
        field = ana.ComparisonField(
            anchor_index=idx,
            mu2=float(square_solved.neumann.eigenvalues[1]),
            psi_at_anchor=0.0, values=w,
        )
        nd = ana.nodal_decomposition(mesh, w)
        assert nd.positive_component_count == 2
        flux = np.zeros(len(mesh.boundary_edges))
        positive = int(np.nonzero(nd.component_signs > 0)[0][0])
        defect = ana.rayleigh_defect(
            mesh, square_solved.K, square_solved.M, field, nd, positive, flux
        )
        assert defect.combo_rayleigh is not None
        assert defect.combo_rayleigh >= square_solved.neumann.eigenvalues[1] - 1e-8


class TestInequalityChecks:
    def test_disk(self, disk_solved, constants):
        mu2 = float(disk_solved.neumann.eigenvalues[1])
        lam1 = float(disk_solved.dirichlet.eigenvalues[0])
        rep = ana.inequality_checks(mu2, lam1, disk_solved.poly, constants)
        assert rep.kroger_margin == pytest.approx(9.572, abs=0.05)
        assert rep.strong_kroger_holds
        assert rep.polya_margin > 0
        assert mu2 * 4.0 == pytest.approx(13.560, abs=0.05)
        # dimensionless margins: (j0^2 - jp11^2) diam^2, and Szegoe-Weinberger
        # is an equality on the disk
        assert rep.polya_margin == pytest.approx(4.0 * (constants.j0**2 - constants.jp11**2),
                                                 rel=0.01)
        assert abs(rep.szego_weinberger_margin) <= 0.01 * math.pi * constants.jp11**2

    def test_rectangle(self, rect_solved, constants):
        mu2 = float(rect_solved.neumann.eigenvalues[1])
        lam1 = float(rect_solved.dirichlet.eigenvalues[0])
        rep = ana.inequality_checks(mu2, lam1, rect_solved.poly, constants)
        assert mu2 * 5.0 == pytest.approx(12.337, abs=0.05)
        assert rep.strong_kroger_holds
        assert rep.payne_weinberger_margin == pytest.approx(2.467, abs=0.05)
        # lambda1 = 5 pi^2 / 4, mu2 = pi^2 / 4, diam^2 = 5, area = 2
        assert rep.polya_margin == pytest.approx(5.0 * math.pi**2, rel=0.01)
        assert rep.szego_weinberger_margin == pytest.approx(
            math.pi * constants.jp11**2 - math.pi**2 / 2.0, rel=0.01)

    def test_square_strong_kroger_fails(self, square_solved, constants):
        mu2 = float(square_solved.neumann.eigenvalues[1])
        lam1 = float(square_solved.dirichlet.eigenvalues[0])
        rep = ana.inequality_checks(mu2, lam1, square_solved.poly, constants)
        assert mu2 * 2.0 == pytest.approx(19.739, abs=0.08)
        assert not rep.strong_kroger_holds
        assert rep.kroger_margin == pytest.approx(3.393, abs=0.06)

    def test_certification_consistency(self, disk_solved, rect_solved):
        # strong Kroeger holds on both; no interior critical vertex may exist
        for fx in (disk_solved, rect_solved):
            for psi in ana.mu2_eigenvectors(fx.mesh, fx.neumann, fx.admissible):
                assert ana.find_critical_points(fx.mesh, psi) == []


class TestSteinerberger:
    def test_rectangle_analytic_field(self, rect_solved):
        # interpolated cos(pi x / 2): the max set is the whole x=0 edge,
        # which contains a diameter endpoint
        mesh = rect_solved.mesh
        psi = np.cos(math.pi * mesh.vertices[:, 0] / 2.0)
        val = ana.steinerberger_diagnostic(mesh, psi)
        rho, _ = rect_solved.poly.inradius
        assert 0.0 <= val <= mesh.h_max / rho + 1e-9

    def test_computed_eigenvector_finite_nonnegative(self, disk_solved):
        psi = disk_solved.neumann.eigenvectors[:, 1]
        val = ana.steinerberger_diagnostic(disk_solved.mesh, psi)
        assert math.isfinite(val) and val >= 0.0


def _planted_fields(mesh):
    """Fields with known interior critical vertices: a max and a min of
    Gaussian bumps, and a monkey saddle (6 alternations) at a vertex."""
    v = mesh.vertices
    interior = np.nonzero(mesh.interior_mask)[0]
    c = v[interior[np.argmin(np.hypot(v[interior, 0], v[interior, 1]))]]
    dx, dy = v[:, 0] - c[0], v[:, 1] - c[1]
    bumps = (np.exp(-20.0 * ((v[:, 0] - 0.4) ** 2 + v[:, 1] ** 2))
             - np.exp(-20.0 * ((v[:, 0] + 0.4) ** 2 + v[:, 1] ** 2)))
    return [bumps, dx ** 3 - 3.0 * dx * dy ** 2, -(dx ** 2 + dy ** 2)]


def _tied_fields(mesh, rng):
    """Fields with exact ties between neighbors, decided by vertex index."""
    n = mesh.vertex_count
    return [
        np.ones(n),
        np.zeros(n),
        rng.integers(-1, 2, size=n).astype(float),
        np.round(3.0 * mesh.vertices[:, 0]),
    ]


class TestVectorizedMatchesOracles:
    """The array passes equal the per-vertex reference loops exactly."""

    @staticmethod
    def _assert_same(mesh, poly, psi):
        assert ana.find_critical_points(mesh, psi) == \
            oracles.banchoff_critical_points(mesh, psi, poly)
        nd = ana.nodal_decomposition(mesh, psi)
        segments, labels, signs, touches = oracles.union_find_nodal(mesh, psi)
        assert np.array_equal(nd.segments, segments)
        assert nd.segments.shape == segments.shape
        assert np.array_equal(nd.labels, labels)
        assert np.array_equal(nd.component_signs, signs)
        assert np.array_equal(nd.touches_boundary, touches)
        assert nd.positive_component_count == int(np.sum(signs > 0))

    def test_solved_eigenvectors(self, disk_solved, square_solved):
        for fx, cols in ((disk_solved, (1,)), (square_solved, (1, 2, 3))):
            for j in cols:
                self._assert_same(fx.mesh, fx.poly, fx.neumann.eigenvectors[:, j])

    def test_random_fields(self, coarse_disk):
        poly, mesh = coarse_disk
        rng = np.random.default_rng(7)
        for _ in range(4):
            self._assert_same(mesh, poly, rng.standard_normal(mesh.vertex_count))

    def test_planted_critical_points(self, coarse_disk):
        poly, mesh = coarse_disk
        kinds = []
        for psi in _planted_fields(mesh):
            self._assert_same(mesh, poly, psi)
            kinds.append({p.kind for p in ana.find_critical_points(mesh, psi)})
        assert {"max", "min"} <= kinds[0]
        assert "saddle" in kinds[1]
        assert "max" in kinds[2]
        monkey = [p for p in ana.find_critical_points(mesh, _planted_fields(mesh)[1])
                  if p.alternations == 6]
        assert len(monkey) == 1

    def test_exact_ties(self, coarse_disk, centered_square_mesh):
        rng = np.random.default_rng(3)
        for poly, mesh in (coarse_disk, centered_square_mesh):
            for psi in _tied_fields(mesh, rng):
                self._assert_same(mesh, poly, psi)

    def test_refined_mesh(self, centered_square_mesh):
        poly, mesh = centered_square_mesh
        fine = msh.refine(mesh)
        psi = np.sin(3.0 * fine.vertices[:, 0]) * np.cos(2.0 * fine.vertices[:, 1])
        self._assert_same(fine, poly, psi)
