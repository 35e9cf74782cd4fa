import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.spatial import ConvexHull, QhullError

from hotspots import fem
from hotspots import geometry as geo
from hotspots import meshing as msh
from hotspots.domains import realize
from hotspots.errors import ConvergenceFailure, DegenerateArea, NoInteriorVertices, ZeroVector
from hotspots.report import _sweep_domain_spec

PI_SQ = math.pi**2


def single_triangle_mesh(v0=(0, 0), v1=(1, 0), v2=(0, 1)):
    return msh.TriMesh(
        polygon=geo.validate([v0, v1, v2]),
        vertices=np.array([v0, v1, v2], dtype=float),
        triangles=np.array([[0, 1, 2]]),
        boundary_edges=np.array([[0, 1], [1, 2], [2, 0]]),
    )


class TestAssembly:
    def test_reference_stiffness_element(self):
        k_mat = fem.assemble_stiffness(single_triangle_mesh()).toarray()
        expected = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
        assert np.allclose(k_mat, expected, atol=1e-14)

    def test_reference_mass_element(self):
        m_mat = fem.assemble_mass(single_triangle_mesh()).toarray()
        expected = (1.0 / 24.0) * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]])
        assert np.allclose(m_mat, expected, atol=1e-15)

    def test_stiffness_annihilates_constants(self, square_solved):
        k_mat = square_solved.K
        ones = np.ones(k_mat.shape[0])
        norm_k = np.abs(k_mat.data).max()
        assert np.linalg.norm(k_mat @ ones, np.inf) <= 1e-12 * norm_k * 10

    def test_stiffness_psd_on_random_vectors(self, square_solved):
        k_mat = square_solved.K
        rng = np.random.default_rng(1)
        for _ in range(100):
            v = rng.standard_normal(k_mat.shape[0])
            assert v @ (k_mat @ v) >= -1e-10

    def test_symmetry(self, square_solved):
        for mat in (square_solved.K, square_solved.M):
            delta = (mat - mat.T).tocoo()
            assert np.abs(delta.data).max() <= 1e-14 if delta.nnz else True

    def test_mass_partition_of_unity(self, square_solved):
        m_mat = square_solved.M
        ones = np.ones(m_mat.shape[0])
        assert ones @ (m_mat @ ones) == pytest.approx(1.0, rel=1e-10)

    def test_fix_signs_makes_each_peak_positive(self):
        vecs = np.random.default_rng(3).standard_normal((50, 6))
        vecs[7, 5] = -10.0
        fixed = fem.fix_signs(vecs)
        for j in range(6):
            i = int(np.argmax(np.abs(vecs[:, j])))
            np.testing.assert_array_equal(fixed[:, j], vecs[:, j] * np.sign(vecs[i, j]))
        assert fixed[7, 5] == 10.0

    def test_gradients_exact_for_linear_fields(self, square_solved):
        # P1 reproduces linear fields, so each triangle's gradient is exact;
        # a fourth-power field has the gradient of its linear interpolant,
        # whose energy is the stiffness form
        mesh = square_solved.mesh
        x, y = mesh.vertices.T
        fields = np.column_stack([2.0 * x - 3.0 * y, np.ones_like(x), x ** 4])
        grads = fem.gradients(mesh, fields)
        assert grads.shape == (mesh.triangle_count, 2, 3)
        np.testing.assert_allclose(grads[:, :, 0], np.tile([2.0, -3.0], (len(grads), 1)),
                                   rtol=0, atol=1e-11)
        assert np.abs(grads[:, :, 1]).max() <= 1e-11
        _, area = msh.element_edges(mesh.vertices, mesh.triangles)
        energy = float(np.sum(area * np.einsum("md,md->m", grads[:, :, 2], grads[:, :, 2])))
        assert energy == pytest.approx(fields[:, 2] @ (square_solved.K @ fields[:, 2]), rel=1e-12)


class TestNeumann:
    def test_square_mu2_bracket(self, square_solved):
        mu2 = square_solved.neumann.eigenvalues[1]
        assert PI_SQ <= mu2 <= 1.01 * PI_SQ

    def test_mu1_is_zero_with_constant_vector(self, square_solved):
        s = square_solved.neumann
        assert s.eigenvalues[0] <= 1e-8 * max(s.eigenvalues[1], 1.0)
        v1 = s.eigenvectors[:, 0]
        assert np.max(np.abs(v1 - v1.mean())) <= 1e-6 * np.abs(v1.mean())

    def test_disk_mu2_degenerate_pair(self, disk_solved, constants):
        mu = disk_solved.neumann.eigenvalues
        exact = constants.jp11**2
        assert exact * (1 - 2e-3) <= mu[1] <= exact * 1.01
        assert mu[2] - mu[1] <= 0.01 * mu[1]

    def test_m_orthonormal(self, disk_solved):
        s = disk_solved.neumann
        m_mat = disk_solved.M
        gram = s.eigenvectors.T @ (m_mat @ s.eigenvectors)
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) <= 1e-8

    def test_residual_bound(self, disk_solved):
        assert np.all(disk_solved.neumann.residuals <= 1e-8)

    def test_deterministic(self, square_solved):
        s2 = fem.solve_neumann(square_solved.K, square_solved.M, k=4)
        assert np.array_equal(s2.eigenvalues, square_solved.neumann.eigenvalues)
        assert np.array_equal(s2.eigenvectors, square_solved.neumann.eigenvectors)

    def test_k_too_small(self, square_solved):
        with pytest.raises(ValueError):
            fem.solve_neumann(square_solved.K, square_solved.M, k=1)
        with pytest.raises(ValueError, match="2 <= k < 12"):  # the Krylov basis holds 12
            fem.solve_neumann(square_solved.K, square_solved.M, k=12)


def _dirichlet(mesh):
    k_mat, m_mat = fem.assemble_stiffness(mesh), fem.assemble_mass(mesh)
    order = fem.solve_neumann(k_mat, m_mat, k=2).order
    return fem.solve_dirichlet(mesh, k_mat, m_mat, order)


class TestDirichlet:
    def test_square_lambda1(self, square_solved):
        lam1 = square_solved.dirichlet.eigenvalues[0]
        assert 2 * PI_SQ <= lam1 <= 1.01 * 2 * PI_SQ

    def test_disk_lambda1(self, disk_solved, constants):
        lam1 = disk_solved.dirichlet.eigenvalues[0]
        assert lam1 == pytest.approx(constants.j0**2, rel=0.01)

    def test_zero_on_boundary(self, square_solved):
        v = square_solved.dirichlet.eigenvectors[:, 0]
        assert np.all(v[~square_solved.mesh.interior_mask] == 0.0)

    def test_domain_monotonicity(self):
        outer = geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        inner = geo.validate([(0.2, 0.2), (0.8, 0.2), (0.8, 0.8), (0.2, 0.8)])
        lam_outer = _dirichlet(msh.generate(outer, 0.05)).eigenvalues[0]
        lam_inner = _dirichlet(msh.generate(inner, 0.05)).eigenvalues[0]
        assert lam_inner >= lam_outer

    def test_no_interior_vertices(self):
        with pytest.raises(NoInteriorVertices):
            _dirichlet(single_triangle_mesh())

    def test_lambda1_above_its_lower_bound(self, square_solved, disk_solved, rect_solved):
        # the shift is a fraction of this bound, so it must hold where it is used
        for fx in (square_solved, disk_solved, rect_solved):
            assert fx.dirichlet.eigenvalues[0] >= fem.dirichlet_lower_bound(fx.poly)

    # hull vertices of drawn grid points, from slivers (diam up to 100 rho) to
    # round 60-gons, each meshed at run_verify's default h
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000)),
                    min_size=3, max_size=60))
    def test_lambda1_above_its_lower_bound_on_drawn_polygons(self, pts):
        pts = np.array(pts, dtype=float)
        try:
            poly = geo.validate(pts[ConvexHull(pts).vertices])
        except (QhullError, DegenerateArea):
            assume(False)
        diam, rho = poly.diameter[0], poly.inradius[0]
        assume(diam <= 100.0 * rho)
        mesh = msh.generate(poly, min(diam / 50.0, math.sqrt(3.0) / 2.0 * rho))
        spectrum = _dirichlet(mesh)
        assert spectrum.stats.path == "banded"
        assert spectrum.eigenvalues[0] >= fem.dirichlet_lower_bound(poly)


class TestRayleigh:
    def test_constant_vector(self, square_solved):
        n = square_solved.K.shape[0]
        assert fem.rayleigh(square_solved.K, square_solved.M, np.ones(n)) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_second_eigenvector(self, square_solved):
        s = square_solved.neumann
        q = fem.rayleigh(square_solved.K, square_solved.M, s.eigenvectors[:, 1])
        assert q == pytest.approx(s.eigenvalues[1], rel=1e-10)

    def test_min_max_lower_bound(self, square_solved):
        k_mat, m_mat = square_solved.K, square_solved.M
        mu2 = square_solved.neumann.eigenvalues[1]
        rng = np.random.default_rng(5)
        ones = np.ones(k_mat.shape[0])
        m_ones = m_mat @ ones
        for _ in range(20):
            v = rng.standard_normal(k_mat.shape[0])
            v -= (v @ m_ones) / (ones @ m_ones) * ones
            assert fem.rayleigh(k_mat, m_mat, v) >= mu2 - 1e-8

    def test_zero_vector(self, square_solved):
        with pytest.raises(ZeroVector):
            fem.rayleigh(square_solved.K, square_solved.M, np.zeros(square_solved.K.shape[0]))


class TestSpectralStructure:
    def test_polya_discrete(self, square_solved, disk_solved, rect_solved):
        for fx in (square_solved, disk_solved, rect_solved):
            assert fx.neumann.eigenvalues[1] < fx.dirichlet.eigenvalues[0]

    def test_galerkin_upper_bound(self, square_solved, rect_solved, disk_solved, constants):
        assert square_solved.neumann.eigenvalues[1] >= PI_SQ * (1 - 1e-12)
        assert rect_solved.neumann.eigenvalues[1] >= PI_SQ / 4 * (1 - 1e-12)
        assert disk_solved.neumann.eigenvalues[1] >= constants.jp11**2 * (1 - 2e-3)

    def test_convergence_order_on_square(self):
        poly = geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        mesh = msh.generate(poly, 0.1)
        errors = []
        for _ in range(3):
            k_mat = fem.assemble_stiffness(mesh)
            m_mat = fem.assemble_mass(mesh)
            mu2 = fem.solve_neumann(k_mat, m_mat, k=3).eigenvalues[1]
            errors.append(mu2 - PI_SQ)
            mesh = msh.refine(mesh)
        assert 3.5 <= errors[0] / errors[1] <= 4.5
        assert 3.5 <= errors[1] / errors[2] <= 4.5


def _built_factors(mesh, k_mat, m_mat, monkeypatch):
    """The factors that solve_neumann and then solve_dirichlet (given the
    Neumann order) build, with the SPD matrices they factor, by problem."""
    built = {}

    class Recording(fem.SpdInverse):
        def __init__(self, mat, problem, perm):
            super().__init__(mat, problem, perm)
            built[problem] = (self, mat)

    monkeypatch.setattr(fem, "SpdInverse", Recording)
    order = fem.solve_neumann(k_mat, m_mat, k=2).order
    fem.solve_dirichlet(mesh, k_mat, m_mat, order)
    return built


def _rect_refined_mesh():
    rect = geo.validate([(0, 0), (2, 0), (2, 1), (0, 1)])
    return msh.refine(msh.refine(msh.generate(rect, 0.04)))


def _sweep_mesh(index):
    poly = realize(_sweep_domain_spec(1, index))
    return msh.generate(poly, 0.02 * poly.diameter[0])


class TestShiftInvert:
    @pytest.mark.parametrize("make", [
        None,
        _rect_refined_mesh,
        *(lambda i=i: _sweep_mesh(i) for i in range(3)),
    ], ids=["disk", "rect_refined", "sweep_1_0", "sweep_1_1", "sweep_1_2"])
    def test_banded_solve_matches_spsolve(self, disk_solved, make, monkeypatch):
        if make is None:
            mesh, k_mat, m_mat = disk_solved.mesh, disk_solved.K, disk_solved.M
        else:
            mesh = make()
            k_mat, m_mat = fem.assemble_stiffness(mesh), fem.assemble_mass(mesh)
        rng = np.random.default_rng(3)
        for problem, (inverse, mat) in _built_factors(mesh, k_mat, m_mat, monkeypatch).items():
            assert inverse.path == "banded"
            assert (inverse.kd + 1) * mat.shape[0] <= fem.BAND_MAX_ENTRIES
            # P A P' = U'U, so |U P b|^2 = b.(A b), and unwhitening undoes U P
            b = rng.standard_normal(mat.shape[0])
            solves = inverse.solves
            y = inverse.whiten(b)
            assert y @ y == pytest.approx(b @ (mat @ b), rel=1e-12)
            back = inverse.unwhiten(y[:, None])[:, 0]
            assert np.linalg.norm(back - b) <= 1e-10 * np.linalg.norm(b)
            assert inverse.solves == solves

    def test_superlu_side_agrees_with_banded(self, square_solved, monkeypatch):
        monkeypatch.setattr(fem, "BAND_MAX_ENTRIES", 0)
        neumann = fem.solve_neumann(square_solved.K, square_solved.M, k=4)
        dirichlet = fem.solve_dirichlet(square_solved.mesh, square_solved.K, square_solved.M,
                                        neumann.order)
        for lu, band in ((neumann, square_solved.neumann),
                         (dirichlet, square_solved.dirichlet)):
            assert lu.stats.path == "superlu" and band.stats.path == "banded"
            assert lu.stats.kd == band.stats.kd
            assert np.all(lu.residuals <= 1e-8)
            assert np.allclose(lu.eigenvalues, band.eigenvalues, rtol=1e-12, atol=0.0)

    def test_dirichlet_factor_takes_the_neumann_order(self, square_solved, disk_solved,
                                                      monkeypatch):
        # restricted to the interior vertices: deleting rows and columns from
        # a band ordering cannot widen its band
        for fx in (square_solved, disk_solved):
            built = _built_factors(fx.mesh, fx.K, fx.M, monkeypatch)
            order, interior = fx.neumann.order, fx.mesh.interior_mask
            assert np.array_equal(order, reverse_cuthill_mckee(fx.K, symmetric_mode=True))
            assert np.array_equal(built["Neumann"][0].perm, order)
            idx = np.flatnonzero(interior)
            assert np.array_equal(idx[built["Dirichlet"][0].perm], order[interior[order]])
            assert fx.dirichlet.stats.kd <= fx.neumann.stats.kd

    def test_solve_stats(self, disk_solved):
        neumann, dirichlet = disk_solved.neumann.stats, disk_solved.dirichlet.stats
        assert (neumann.path, neumann.converged_pairs) == ("banded", 4)
        assert (dirichlet.path, dirichlet.converged_pairs) == ("banded", 1)
        assert neumann.n == disk_solved.mesh.vertex_count
        assert dirichlet.n == int(disk_solved.mesh.interior_mask.sum())
        assert neumann.operator_solves > 0 and dirichlet.operator_solves > 0

    def test_dense_path_stats(self):
        # only k >= n - 1, where ARPACK cannot run, is solved densely: the
        # unit square cut into four triangles at its centre has n = 5 and
        # one interior vertex
        loop = np.array([[0, 1], [1, 2], [2, 3], [3, 0]])
        square = geo.validate([(0, 0), (1, 0), (1, 1), (0, 1)])
        mesh = msh.TriMesh(polygon=square, vertices=np.vstack([square.vertices, [0.5, 0.5]]),
                           triangles=np.column_stack([loop, np.full(4, 4)]),
                           boundary_edges=loop)
        k_mat, m_mat = fem.assemble_stiffness(mesh), fem.assemble_mass(mesh)
        neumann = fem.solve_neumann(k_mat, m_mat, k=4)
        dirichlet = fem.solve_dirichlet(mesh, k_mat, m_mat, neumann.order)
        assert neumann.stats == fem.SolveStats("dense", 5, None, 0, 4)
        assert dirichlet.stats == fem.SolveStats("dense", 1, None, 0, 1)
        # the interior vertex's row: K_ii = 4, M_ii = 4 * 2 (1/4) / 12
        assert dirichlet.eigenvalues[0] == pytest.approx(24.0, rel=1e-14)
        assert np.all(neumann.residuals[1:] <= fem.RESIDUAL_GATE)

    @pytest.mark.parametrize("h", [0.02, 0.03])
    def test_singular_matrix_is_named(self, unit_square, h):
        # the unshifted K is singular (constants): at both h LAPACK's factor
        # fails ("not positive definite") before the last pivot is tested
        k_mat = fem.assemble_stiffness(msh.generate(unit_square, h))
        with pytest.raises(ConvergenceFailure, match="Neumann matrix is"):
            fem.SpdInverse(k_mat, "Neumann", reverse_cuthill_mckee(k_mat, symmetric_mode=True))

    def test_pivot_within_rounding_is_named(self):
        # [[1, 1], [1, 1 + d]] factors with last pivot^2 = d, which the
        # rounding test (<= n eps diag) rejects at d = eps and accepts at 4 eps
        eps = np.finfo(float).eps
        with pytest.raises(ConvergenceFailure,
                           match="pivot 2 of 2 is within rounding of zero"):
            fem.SpdInverse(sp.csr_matrix([[1.0, 1.0], [1.0, 1.0 + eps]]), "Test", np.arange(2))
        inv = fem.SpdInverse(sp.csr_matrix([[1.0, 1.0], [1.0, 1.0 + 4.0 * eps]]), "Test",
                             np.arange(2))
        assert inv.path == "banded"


_SMALL_MESHES = {  # 50 to 700 vertices, where a dense solve is still cheap
    "square": ([(0, 0), (1, 0), (1, 1), (0, 1)], 0.036),
    "square_coarse": ([(0, 0), (1, 0), (1, 1), (0, 1)], 0.1),
    "triangle": ([(0, 0), (1, 0), (0.3, 0.8)], 0.03),
    "thin_triangle": ([(0, 0), (1, 0), (0.5, 0.1)], 0.02),
    "sweep_1_0": (None, 0.04),
}


class TestLanczos:
    @pytest.mark.parametrize("name", list(_SMALL_MESHES))
    def test_matches_dense_eigh(self, name):
        vertices, h_rel = _SMALL_MESHES[name]
        poly = geo.validate(vertices) if vertices else realize(_sweep_domain_spec(1, 0))
        mesh = msh.generate(poly, h_rel * poly.diameter[0])
        k_mat, m_mat = fem.assemble_stiffness(mesh), fem.assemble_mass(mesh)
        idx = np.nonzero(mesh.interior_mask)[0]
        assert 50 < mesh.vertex_count < 700
        neumann = fem.solve_neumann(k_mat, m_mat, k=4)
        dirichlet = fem.solve_dirichlet(mesh, k_mat, m_mat, neumann.order)
        assert neumann.stats.path == dirichlet.stats.path == "banded"
        dense = eigh(k_mat.toarray(), m_mat.toarray(), eigvals_only=True)
        dense_d = eigh(k_mat[np.ix_(idx, idx)].toarray(), m_mat[np.ix_(idx, idx)].toarray(),
                       eigvals_only=True)
        assert np.allclose(neumann.eigenvalues[1:], dense[1:4], rtol=1e-12, atol=0.0)
        assert np.allclose(dirichlet.eigenvalues, dense_d[:1], rtol=1e-12, atol=0.0)

    def test_dirichlet_ground_state_has_one_sign(self, square_solved, disk_solved):
        for fx in (square_solved, disk_solved):
            v = fx.dirichlet.eigenvectors[:, 0]
            assert np.all(v[fx.mesh.interior_mask] > 0.0)

    def test_operator_solve_ceilings(self, disk_solved):
        # seed 0; the counts repeat exactly from run to run.  The 100 x 1
        # rectangle's lowest Dirichlet eigenvalues are 3e-4 apart relative,
        # which the shift just below lambda1's lower bound separates
        spectra = {"disk": (disk_solved.neumann, disk_solved.dirichlet)}
        rect_100 = geo.validate([(0, 0), (100, 0), (100, 1), (0, 1)])
        for name, mesh in (("rect_refined", _rect_refined_mesh()),
                           ("rect_100x1", msh.generate(rect_100, math.sqrt(3.0) / 4.0))):
            k_mat, m_mat = fem.assemble_stiffness(mesh), fem.assemble_mass(mesh)
            neumann = fem.solve_neumann(k_mat, m_mat, k=4)
            spectra[name] = (neumann, fem.solve_dirichlet(mesh, k_mat, m_mat, neumann.order))
        ceilings = {"disk": (31, 13), "rect_refined": (31, 13), "rect_100x1": (19, 100)}
        for name, pair in spectra.items():
            solves = tuple(s.stats.operator_solves for s in pair)
            assert all(s <= c for s, c in zip(solves, ceilings[name])), (name, solves)
