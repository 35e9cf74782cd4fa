"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
Heavy artifacts (the 50-domain sweep, the h=0.02 solves) are session fixtures
shared with the module tests.
"""

import json
import math

import numpy as np
import pytest

from hotspots import analysis as ana
from hotspots import fem
from hotspots import geometry as geo
from hotspots import meshing as msh
from hotspots import report
from hotspots.bessel import j1_eval
from hotspots.domains import DomainSpec, realize, save_spec

from .conftest import random_polygon
from .oracles import brute_force_diameter, brute_force_mec, j0_series_exact, j1_series_exact
from .test_analysis import j2_eval

PI_SQ = math.pi**2
SWEEP_COUNT = 50
SWEEP_SEED = 1


def _line(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep50")
    summary = report.run_sweep(SWEEP_COUNT, seed=SWEEP_SEED, h_rel=0.02, out_dir=out)
    reports = []
    for i in range(SWEEP_COUNT):
        path = out / f"domain_{i:03d}" / "report.json"
        if path.exists():
            reports.append(json.loads(path.read_text()))
    return summary, reports


@pytest.fixture(scope="session")
def fixture_reports(tmp_path_factory):
    """disk/ellipse/square/rectangle verified at h = diam/50 (pipeline default)."""
    out = tmp_path_factory.mktemp("fixtures")
    specs = {
        "disk": DomainSpec(kind="disk", radius=1.0, polygonization_n=512),
        "ellipse": DomainSpec(kind="ellipse", a=2.0, b=1.0, polygonization_n=256),
        "square": DomainSpec(
            kind="explicit", vertices=((0, 0), (1, 0), (1, 1), (0, 1))
        ),
        "rectangle": DomainSpec(kind="rectangle", length=2.0, width=1.0),
    }
    docs = {}
    for name, spec in specs.items():
        spec_path = out / f"{name}.json"
        save_spec(spec, spec_path)
        report.run_verify(spec_path, out_dir=out / name)
        docs[name] = json.loads((out / name / "report.json").read_text())
    return docs


def test_criterion_1_disk_spectrum(disk_solved, constants):
    mu2 = float(disk_solved.neumann.eigenvalues[1])
    lam1 = float(disk_solved.dirichlet.eigenvalues[0])
    mu_ok = abs(mu2 - 3.389964) <= 0.01 * 3.389964
    mu_ok &= abs(mu2 - constants.jp11**2) <= 0.01 * constants.jp11**2
    lam_ok = abs(lam1 - 5.783186) <= 0.01 * 5.783186
    lam_ok &= abs(lam1 - constants.j0**2) <= 0.01 * constants.j0**2
    time_ok = disk_solved.seconds <= 60.0
    _line(1, mu_ok and lam_ok and time_ok,
          f"disk h=0.02: mu2={mu2:.6f} (exact {constants.jp11**2:.6f}), "
          f"lambda1={lam1:.6f} (exact {constants.j0**2:.6f}), "
          f"runtime {disk_solved.seconds:.1f}s <= 60s")
    assert mu_ok and lam_ok and time_ok


def test_criterion_2_rectangle_spectrum_and_convergence(rect_solved):
    exact = PI_SQ / 4.0
    mu2 = float(rect_solved.neumann.eigenvalues[1])
    mu_ok = abs(mu2 - exact) <= 0.01 * exact

    errors = [mu2 - exact]
    mesh = rect_solved.mesh
    for _ in range(2):
        mesh = msh.refine(mesh)
        k_mat = fem.assemble_stiffness(mesh)
        m_mat = fem.assemble_mass(mesh)
        errors.append(
            float(fem.solve_neumann(k_mat, m_mat, k=3).eigenvalues[1]) - exact
        )
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    conv_ok = 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
    _line(2, mu_ok and conv_ok,
          f"rect 2x1 h=0.02: mu2={mu2:.6f} (exact {exact:.6f}), "
          f"refinement error ratios {r1:.2f}, {r2:.2f} in [3.5, 4.5]")
    assert mu_ok and conv_ok


def test_criterion_3_bessel_constants(constants):
    j0_ok = abs(constants.j0 - 2.404825557695773) <= 1e-12
    j1_ok = abs(constants.j1 - 3.831705970207512) <= 1e-12
    oracle_ok = abs(j0_series_exact(constants.j0)) <= 1e-12
    oracle_ok &= abs(j1_series_exact(constants.j1)) <= 1e-12
    ratio_ok = abs(constants.c_excl - 0.796670) <= 1e-6
    paper_ok = abs(constants.c_excl - 0.7967) <= 5e-5
    ok = j0_ok and j1_ok and oracle_ok and ratio_ok and paper_ok
    _line(3, ok,
          f"j0={constants.j0:.15f}, j1={constants.j1:.15f} (1e-12 vs series oracle), "
          f"c_excl={constants.c_excl:.6f} = 0.796670 +- 1e-6")
    assert ok


def test_criterion_4_theorem_suite(sweep, fixture_reports, square_solved):
    summary, reports = sweep
    suite_ok = (
        not summary["failures"]
        and summary["violation_count"] == 0
        and summary["pass_count"] == SWEEP_COUNT
    )
    fixture_ok = all(doc["theorem"]["passed"] for doc in fixture_reports.values())
    square = fixture_reports["square"]
    # the square's discrete mu2/mu3 pair is flagged nearly degenerate, so
    # psi2, psi3 and their least-gradient combination are analyzed
    degenerate_covered = (
        square["spectrum"]["degenerate_pair"]
        and square["spectrum"]["analyzed_eigenvectors"] == 3
        and all(e["passed"] for e in square["theorem"]["eigenvectors"])
    )

    # negative control: a planted critical point at the square's center
    loc = (0.5, 0.5)
    planted = ana.CriticalPoint(
        vertex_id=0, location=loc, value=1.0, kind="max", alternations=0,
        farthest_distance=geo.farthest_boundary_distance(square_solved.poly, [loc])[0],
    )
    rule = square_solved.admissible
    control_ok = ana.theorem_check([planted], rule) == (planted,)
    control_ok &= abs(planted.farthest_distance - 0.707107) <= 1e-6
    control_ok &= abs(rule.threshold - 1.126662) <= 1e-4
    control_ok &= all(doc["theorem"]["threshold"] == doc["geometry"]["exclusion_threshold"]
                      for doc in reports + list(fixture_reports.values()))

    ok = suite_ok and fixture_ok and degenerate_covered and control_ok
    _line(4, ok,
          f"{SWEEP_COUNT} random domains + 4 fixtures: 0 violations "
          f"(threshold {rule.threshold:.6f} vs planted F={planted.farthest_distance:.6f} flagged)")
    assert ok


def test_criterion_5_inequality_suite(sweep, fixture_reports, constants):
    summary, reports = sweep
    kroger_cap = 4.0 * constants.j0**2
    # the margins are dimensionless: pi jp11^2 - mu2 area >= -1% of pi jp11^2
    # is mu2 <= 1.01 pi jp11^2 / area, and (lambda1 - mu2) diam^2 > 0 is
    # lambda1 > mu2
    sw_cap = math.pi * constants.jp11**2
    sw_ok = kr_ok = pw_ok = polya_ok = True
    for doc in reports + list(fixture_reports.values()):
        ineq = doc["inequalities"]
        kr_ok &= ineq["kroger_margin"] >= -0.01 * kroger_cap
        pw_ok &= ineq["payne_weinberger_margin"] >= 0.0
        polya_ok &= ineq["polya_margin"] > 0.0
        sw_ok &= ineq["szego_weinberger_margin"] >= -0.01 * sw_cap
    strong_ok = (
        fixture_reports["rectangle"]["inequalities"]["strong_kroger_holds"]
        and fixture_reports["disk"]["inequalities"]["strong_kroger_holds"]
        and not fixture_reports["square"]["inequalities"]["strong_kroger_holds"]
    )
    mu_d2 = {
        name: doc["spectrum"]["eigenvalues"][1] * doc["geometry"]["diameter"] ** 2
        for name, doc in fixture_reports.items()
    }
    values_ok = (
        abs(mu_d2["rectangle"] - 12.337) <= 0.1
        and abs(mu_d2["disk"] - 13.560) <= 0.1
        and abs(mu_d2["square"] - 19.739) <= 0.15
    )
    ok = kr_ok and pw_ok and polya_ok and sw_ok and strong_ok and values_ok
    _line(5, ok,
          f"Kroeger/Payne-Weinberger/Polya/Szegoe-Weinberger hold on all "
          f"{len(reports) + 4} domains; strong-Kroeger: rect {mu_d2['rectangle']:.3f}<=14.682, "
          f"disk {mu_d2['disk']:.3f}<=14.682, square {mu_d2['square']:.3f}>14.682")
    assert ok


def test_criterion_6_proof_machinery(sweep, fixture_reports, disk_solved, rect_solved, constants):
    mesh = disk_solved.mesh
    root_mu = math.sqrt(3.39)
    r = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
    theta = np.arctan2(mesh.vertices[:, 1], mesh.vertices[:, 0])
    center = int(np.argmin(r))

    def field_of(values):
        return ana.ComparisonField(
            anchor_index=center,
            mu2=3.39, psi_at_anchor=1.0, values=values,
        )

    j2_field = np.array([j2_eval(root_mu * ri) for ri in r]) * np.cos(2 * theta)
    j1_field = np.array([j1_eval(root_mu * ri) for ri in r]) * np.cos(theta)
    def branches(field):
        segments = ana.nodal_decomposition(mesh, field.values).segments
        return ana.branch_count(mesh, field.anchor_index, segments, 0.3)

    branches_ok = branches(field_of(j2_field)) == 4 and branches(field_of(j1_field)) == 2

    # flux sign whenever sqrt(mu2) F(anchor) <= j1 and psi(anchor) >= 0
    psi = disk_solved.neumann.eigenvectors[:, 1]
    mu2 = float(disk_solved.neumann.eigenvalues[1])
    interior = np.nonzero(mesh.interior_mask)[0]
    flux_ok = True
    for target in ([0.0, 0.0], [0.3, 0.1], [-0.2, 0.4]):
        rel = mesh.vertices[interior] - np.array(target)
        idx = int(interior[np.argmin(np.hypot(rel[:, 0], rel[:, 1]))])
        anchor = mesh.vertices[idx]
        assert math.sqrt(mu2) * geo.farthest_boundary_distance(disk_solved.poly, [anchor])[0] <= constants.j1
        fld = ana.build_comparison(mesh, psi, mu2, idx)
        flux = ana.boundary_flux(fld, mesh)
        scale = abs(fld.psi_at_anchor) * math.sqrt(mu2) + 1e-30
        flux_ok &= bool(np.all(flux <= 1e-10 * scale))

    summary, reports = sweep
    lemma_ok = all(
        entry["all_touch_boundary"]
        for doc in reports + list(fixture_reports.values())
        for entry in doc["lemma"]
    )

    # rectangle half-wave Rayleigh defect
    rmesh = rect_solved.mesh
    psi_rect = np.cos(math.pi * rmesh.vertices[:, 0] / 2.0)
    rel = rmesh.vertices - np.array([1.0, 0.5])
    idx = int(np.argmin(np.hypot(rel[:, 0], rel[:, 1])))
    fld = ana.ComparisonField(
        anchor_index=idx,
        mu2=PI_SQ / 4.0, psi_at_anchor=0.0, values=-psi_rect,
    )
    nd = ana.nodal_decomposition(rmesh, fld.values)
    flux = ana.boundary_flux(fld, rmesh)
    positive = int(np.nonzero(nd.component_signs > 0)[0][0])
    defect = ana.rayleigh_defect(rmesh, rect_solved.K, rect_solved.M, fld, nd, positive, flux)
    ratio = defect.dirichlet_energy / defect.mass_energy
    ratio_ok = abs(ratio - 1.0) <= 0.02

    ok = branches_ok and flux_ok and lemma_ok and ratio_ok
    _line(6, ok,
          f"branches 4/2 for J2 cos2t / J1 cost; flux <= 0 in the j1 window; "
          f"all nodal components touch the boundary on {len(reports) + 4} domains; "
          f"half-wave Rayleigh ratio {ratio:.4f} = 1 +- 2%")
    assert ok


def test_criterion_7_geometry_oracles(disk512, constants):
    rng_calipers_ok = True
    jung_ok = True
    seeds = np.random.default_rng(2024).integers(0, 2**31, size=1000)
    for i, seed in enumerate(seeds):
        n = 5 + int(seed) % 56
        poly = random_polygon(int(seed), n)
        d, _ = poly.diameter
        rng_calipers_ok &= d == brute_force_diameter(poly.vertices)
        jung_ok &= poly.min_enclosing_circle.radius <= d / math.sqrt(3.0) + 1e-12
    kgons = [DomainSpec(kind="regular_polygon", k=k, circumradius=1.0) for k in range(3, 13)]
    sweep_specs = [report._sweep_domain_spec(s, i) for s in (1, 2, 3) for i in range(6)]
    for spec in kgons + sweep_specs:
        poly = realize(spec)
        rng_calipers_ok &= poly.diameter[0] == brute_force_diameter(poly.vertices)

    mec_ok = True
    for seed, n in [(97, 40)] + [(s, 12) for s in range(15)]:
        poly = random_polygon(seed, n)
        c = poly.min_enclosing_circle
        mec_ok &= abs(c.radius - brute_force_mec(poly.vertices)[2]) <= 1e-9

    region = geo.exclusion_region(disk512)
    d, _ = disk512.diameter
    f_vals = geo.farthest_boundary_distance(disk512, region.boundary)
    band_ok = bool(np.max(np.abs(f_vals - region.threshold)) <= 1e-3 * d)
    radii = np.hypot(region.boundary[:, 0], region.boundary[:, 1])
    radius_ok = bool(np.all(np.abs(radii - 0.5933) <= 0.005))

    ok = rng_calipers_ok and jung_ok and mec_ok and band_ok and radius_ok
    _line(7, ok,
          f"calipers == brute force on 1000 random polygons, the 3- to 12-gons and "
          f"18 sweep domains; Jung r <= d/sqrt(3); "
          f"MEC within 1e-9 of exhaustive; disk region |F-thr| <= 1e-3*diam at all "
          f"720 samples; exclusion radius {radii.mean():.4f} = 0.5933 +- 0.005")
    assert ok


def test_criterion_8_determinism(tmp_path):
    spec_path = tmp_path / "disk.json"
    save_spec(DomainSpec(kind="disk", radius=1.0, polygonization_n=512), spec_path)
    report.run_verify(spec_path, h=0.05, out_dir=tmp_path / "a", svg=True)
    report.run_verify(spec_path, h=0.05, out_dir=tmp_path / "b", svg=True)
    report_ok = (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()
    svg_ok = (tmp_path / "a/figure.svg").read_bytes() == (tmp_path / "b/figure.svg").read_bytes()

    import os

    os.environ["HSV_THREADS"] = "2"
    report.run_sweep(3, seed=11, h_rel=0.05, out_dir=tmp_path / "s1")
    os.environ["HSV_THREADS"] = "1"
    report.run_sweep(3, seed=11, h_rel=0.05, out_dir=tmp_path / "s2")
    os.environ.pop("HSV_THREADS")
    sweep_ok = (tmp_path / "s1/summary.json").read_bytes() == (tmp_path / "s2/summary.json").read_bytes()
    sweep_ok &= all(
        (tmp_path / f"s1/domain_{i:03d}/report.json").read_bytes()
        == (tmp_path / f"s2/domain_{i:03d}/report.json").read_bytes()
        for i in range(3)
    )
    ok = report_ok and svg_ok and sweep_ok
    _line(8, ok, "byte-identical report.json + figure.svg across reruns and thread caps")
    assert ok
