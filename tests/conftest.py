import time
from types import SimpleNamespace

import pytest

from hotspots import analysis, domains, fem, geometry, meshing
from hotspots.bessel import find_constants


@pytest.fixture(scope="session")
def constants():
    return find_constants()


@pytest.fixture(scope="session")
def unit_square():
    return geometry.validate([(0, 0), (1, 0), (1, 1), (0, 1)])


@pytest.fixture(scope="session")
def rect21():
    return geometry.validate([(0, 0), (2, 0), (2, 1), (0, 1)])


@pytest.fixture(scope="session")
def disk512():
    return domains.realize(
        domains.DomainSpec(kind="disk", radius=1.0, polygonization_n=512)
    )


def _solve(poly, h, k=4):
    t0 = time.perf_counter()
    mesh = meshing.generate(poly, h)
    k_mat = fem.assemble_stiffness(mesh)
    m_mat = fem.assemble_mass(mesh)
    neumann = fem.solve_neumann(k_mat, m_mat, k=k)
    dirichlet = fem.solve_dirichlet(mesh, k_mat, m_mat, k=1, order=neumann.order)
    return SimpleNamespace(
        poly=poly,
        mesh=mesh,
        K=k_mat,
        M=m_mat,
        neumann=neumann,
        dirichlet=dirichlet,
        seconds=time.perf_counter() - t0,
        admissible=admissible_set(mesh),
    )


@pytest.fixture(scope="session")
def disk_solved(disk512):
    """Unit-disk 512-gon at h=0.02: the acceptance-criterion-1 workload."""
    return _solve(disk512, 0.02)


@pytest.fixture(scope="session")
def square_solved(unit_square):
    return _solve(unit_square, 0.02)


@pytest.fixture(scope="session")
def rect_solved(rect21):
    return _solve(rect21, 0.02)


def admissible_set(mesh):
    """The run's admissible-set record, at the exclusion region's threshold."""
    return analysis.admissible_set(mesh, geometry.exclusion_region(mesh.polygon).threshold)


def random_polygon(seed, n=30, diam=2.0):
    return domains.realize(
        domains.DomainSpec(kind="random_convex", seed=seed, n=n, diameter=diam)
    )
