"""Metamorphic test: the claim is invariant under similarity, and so is the
pipeline.  Scaling a domain by 2^k is exact in binary floating point, so
every length must scale exactly, every structural field must stay equal and
mu2 * diam^2 and the dimensionless inequality margins must agree to
rounding.  Relabelling, translation, reflection and quarter turns keep the
verdict, the critical-point count and mu2 * diam^2."""

import json

import numpy as np
import pytest

from hotspots import meshing as msh
from hotspots.domains import DomainSpec, load_spec, realize
from hotspots.report import _sweep_domain_spec, run_verify

EXPONENTS = [-14, -1, 0, 1, 14]
MARGINS = ("kroger_margin", "payne_weinberger_margin", "polya_margin",
           "szego_weinberger_margin")


def _disk(scale):
    return {"schema": 1, "kind": "disk", "radius": scale, "polygonization_n": 128}


def _sweep(index):
    def spec(scale):
        verts = realize(_sweep_domain_spec(1, index)).vertices * scale
        return {"schema": 1, "kind": "explicit", "vertices": verts.tolist()}
    return spec


def _run(tmp_path, make, k):
    path = tmp_path / f"spec{k}.json"
    path.write_text(json.dumps(make(2.0 ** k)))
    rep = run_verify(path)
    poly = realize(load_spec(path))
    return rep, msh.generate(poly, rep.mesh["h_target"])


def _critical_ids(rep):
    return [[p["vertex_id"] for p in e["points"]] for e in rep.interior_critical_points]


@pytest.mark.parametrize("make", [_disk, _sweep(0), _sweep(3)],
                         ids=["disk128", "sweep1-0", "sweep1-3"])
def test_scaling_by_powers_of_two(tmp_path, make):
    base, base_mesh = _run(tmp_path, make, 0)
    mu2_d2 = base.spectrum["eigenvalues"][1] * base.geometry["diameter"] ** 2
    for k in EXPONENTS:
        scale = 2.0 ** k
        rep, mesh = _run(tmp_path, make, k)
        for field in ("vertex_count", "triangle_count", "min_angle"):
            assert rep.mesh[field] == base.mesh[field], (k, field)
        assert _critical_ids(rep) == _critical_ids(base)
        assert rep.theorem["passed"] == base.theorem["passed"]
        assert np.array_equal(mesh.vertices, scale * base_mesh.vertices), k
        assert np.array_equal(mesh.triangles, base_mesh.triangles), k
        for field in ("h_target", "h_min", "h_max"):
            assert rep.mesh[field] == scale * base.mesh[field], (k, field)
        assert rep.geometry["diameter"] == scale * base.geometry["diameter"]
        assert rep.theorem["threshold"] == scale * base.theorem["threshold"]
        got = rep.spectrum["eigenvalues"][1] * rep.geometry["diameter"] ** 2
        assert got == pytest.approx(mu2_d2, rel=1e-9, abs=0.0), k
        assert max(rep.spectrum["residuals"] + rep.spectrum["dirichlet_residuals"]) <= 1e-8
        for name in MARGINS:
            assert rep.inequalities[name] == pytest.approx(
                base.inequalities[name], rel=1e-9, abs=0.0), (k, name)
        for problem in ("neumann", "dirichlet"):
            solves = rep.metrics["eigensolve"][problem]["operator_solves"]
            reference = base.metrics["eigensolve"][problem]["operator_solves"]
            assert abs(solves - reference) <= 0.1 * reference, (k, problem)


# Relabelling and translation leave the mesh the same up to rounding.  The
# mesher's lattice is axis-aligned, so a reflection or a quarter turn meshes
# the domain differently and mu2 * diam^2 moves by discretization error.
TRANSFORMS = {
    "relabel": (lambda v: np.roll(v, -(len(v) // 3), axis=0), True, 1e-12),
    "translate": (lambda v: v + [0.5, -0.25], True, 1e-12),
    "reflect": (lambda v: v * [-1.0, 1.0], False, 1e-4),
    "rotate90": (lambda v: np.column_stack([-v[:, 1], v[:, 0]]), False, 1e-4),
}
DOMAINS = {
    "disk128": lambda: realize(DomainSpec(kind="disk", radius=1.0, polygonization_n=128)),
    "sweep1-0": lambda: realize(_sweep_domain_spec(1, 0)),
    "sweep1-3": lambda: realize(_sweep_domain_spec(1, 3)),
    "triangle": lambda: realize(DomainSpec(kind="explicit",
                                           vertices=((0, 0), (1, 0), (0.3, 0.8)))),
}


def _verify_vertices(path, verts):
    path.write_text(json.dumps({"schema": 1, "kind": "explicit", "vertices": verts.tolist()}))
    rep = run_verify(path)
    critical = sum(len(e["points"]) for e in rep.interior_critical_points)
    mu2_d2 = rep.spectrum["eigenvalues"][1] * rep.geometry["diameter"] ** 2
    return rep, critical, mu2_d2


@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("domain", DOMAINS)
def test_rigid_motions_and_relabelling(tmp_path, domain, transform):
    move, rounding_only, rel = TRANSFORMS[transform]
    verts = DOMAINS[domain]().vertices
    base, base_critical, base_mu2_d2 = _verify_vertices(tmp_path / "base.json", verts)
    rep, critical, mu2_d2 = _verify_vertices(tmp_path / "moved.json", move(verts))
    assert rep.theorem["passed"] == base.theorem["passed"]
    assert critical == base_critical
    if rounding_only:
        assert rep.mesh["vertex_count"] == base.mesh["vertex_count"]
        assert (rep.spectrum["analyzed_eigenvectors"]
                == base.spectrum["analyzed_eigenvectors"])
    assert mu2_d2 == pytest.approx(base_mu2_d2, rel=rel, abs=0.0)
