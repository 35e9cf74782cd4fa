"""Pipeline orchestration: verified runs, JSON reports, and batch sweeps.

``run_verify`` executes the full chain (realize -> mesh -> assemble -> solve
-> geometry -> exclusion region -> critical points -> verdict -> comparison
diagnostics -> inequalities) and writes ``report.json``.  The report is fully
deterministic for identical inputs; wall-clock timings therefore live in a
``timings.json`` sidecar, and how the eigensolves ran (dense, banded or
SuperLU factor, band width, operator solves) in a ``metrics.json`` sidecar,
not in the canonical report bytes.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import analysis as ana
from . import fem
from .bessel import find_constants
from .domains import DomainSpec, SplitMix64, load_spec, realize, save_spec
from .errors import BadArgument, StageError
from .geometry import exclusion_region
from .meshing import dump_mesh, generate, quality, refine
from .svgfig import render_svg

REPORT_SCHEMA = 13
_SIDECARS = ("timings_ms", "metrics")


@dataclass(eq=False)
class VerificationReport:
    """Aggregated machine-readable outcome of one verified run."""

    schema: int
    domain_spec: dict
    geometry: dict
    mesh: dict
    spectrum: dict
    inequalities: dict
    boundary_extrema: list
    interior_critical_points: list
    theorem: dict
    lemma: list
    comparison: list
    steinerberger: list
    render: dict
    timings_ms: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """The canonical report document: every field except the sidecars."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name not in _SIDECARS}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"


def _plain(obj):
    """Recursively convert numpy containers/scalars to JSON-native values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


@dataclass(frozen=True, eq=False)
class _Eigenvector:
    """One analyzed eigenvector of mu2: its entry in each per-eigenvector
    report list, JSON-ready, plus the field, critical points and nodal
    segments that the comparison stage and the figure read."""

    theorem: dict
    boundary_extrema: dict
    interior_critical_points: dict
    lemma: dict
    steinerberger: float
    psi: np.ndarray
    critical_points: list[ana.CriticalPoint]
    nodal_segments: np.ndarray


def _analyze_eigenvector(mesh, admissible, j: int, psi: np.ndarray) -> _Eigenvector:
    cps = ana.find_critical_points(mesh, psi, admissible)
    violations = ana.theorem_check(cps, admissible)
    nd = ana.nodal_decomposition(mesh, psi)
    bverts = np.nonzero(~mesh.interior_mask)[0]

    def extremum(i) -> dict:
        return {"vertex_id": int(i), "location": mesh.vertices[i], "value": float(psi[i])}

    return _Eigenvector(
        theorem=_plain({"passed": not violations,
                        "violations": [asdict(p) for p in violations]}),
        boundary_extrema=_plain({"eigenvector": j,
                                 "max": extremum(bverts[int(np.argmax(psi[bverts]))]),
                                 "min": extremum(bverts[int(np.argmin(psi[bverts]))])}),
        interior_critical_points=_plain(
            {"eigenvector": j, "points": [asdict(p) for p in cps]}),
        lemma={"eigenvector": j,
               "components": len(nd.component_signs),
               "positive_components": nd.positive_component_count,
               "all_touch_boundary": bool(nd.touches_boundary.all())},
        steinerberger=ana.steinerberger_diagnostic(mesh, psi),
        psi=psi,
        critical_points=cps,
        nodal_segments=nd.segments,
    )


def _spec_echo(spec: DomainSpec) -> dict:
    doc = {k: v for k, v in asdict(spec).items() if v is not None and k != "warnings"}
    if spec.vertices is not None:
        doc["vertices"] = [list(v) for v in spec.vertices]
    doc["warnings"] = list(spec.warnings)
    return doc


class _Stages:
    def __init__(self):
        self.timings: dict[str, float] = {}

    def run(self, name: str, fn):
        t0 = time.perf_counter()
        try:
            out = fn()
        except StageError:
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc
        self.timings[name] = self.timings.get(name, 0.0) + 1000.0 * (time.perf_counter() - t0)
        return out


def _comparison_diagnostics(mesh, admissible, k_mat, m_mat, psi, mu2, anchor_vertex,
                            diagnostic_only, eig_index):
    fld = ana.build_comparison(mesh, psi, mu2, anchor_vertex)
    flux = ana.boundary_flux(fld, mesh)
    flux_bound_applies = math.sqrt(mu2) * admissible.far[anchor_vertex] <= find_constants().j1
    clearance = float(mesh.boundary_clearance[anchor_vertex])
    radius = min(0.9 * clearance, max(3.0 * mesh.h_max, 0.05 * mesh.polygon.diameter[0]))
    nd = ana.nodal_decomposition(mesh, fld.values)
    branches = None
    if radius >= 3.0 * mesh.h_max:
        branches = ana.branch_count(mesh, anchor_vertex, nd.segments, radius)

    defects = []
    for comp in np.nonzero(nd.component_signs > 0)[0]:
        rd = ana.rayleigh_defect(mesh, k_mat, m_mat, fld, nd, int(comp), flux)
        defects.append({"component": int(comp), **asdict(rd)})
        if len(defects) >= 2:
            break

    return {
        "eigenvector": eig_index,
        "anchor_vertex": int(anchor_vertex),
        "anchor": mesh.vertices[anchor_vertex],
        "diagnostic_only": diagnostic_only,
        "psi_at_anchor": fld.psi_at_anchor,
        "support_positivity": clearance,
        "flux_bound_applies": bool(flux_bound_applies),
        "flux_min": float(flux.min()),
        "flux_max": float(flux.max()),
        "branch_radius": radius if branches is not None else None,
        "branch_count": branches,
        "nodal_components": int(len(nd.component_signs)),
        "positive_components": int(nd.positive_component_count),
        "interior_nodal_components": int(np.sum(~nd.touches_boundary)),
        "rayleigh_defects": defects,
    }


def run_verify(
    spec_path,
    h: float | None = None,
    refinements: int = 0,
    out_dir=None,
    svg: bool = False,
    show_nodal: bool = False,
    show_mesh: bool = False,
    dump_mesh_file: bool = False,
    seed: int = 0,
) -> VerificationReport:
    """Full verification pipeline for one domain spec. Writes report.json
    (and figure.svg / mesh.txt on request) into out_dir when given."""
    stages = _Stages()
    consts = find_constants()
    if out_dir is not None:  # an unusable out_dir fails before any stage runs
        Path(out_dir).mkdir(parents=True, exist_ok=True)

    spec = stages.run("input", lambda: load_spec(spec_path))

    def realize_domain():
        poly = realize(spec)
        return poly, poly.diameter

    poly, (d, endpoints) = stages.run("realize", realize_domain)
    if h is None:  # an interior lattice point lies within rho/2 of the Chebyshev centre
        h = min(d / 50.0, math.sqrt(3.0) / 2.0 * poly.inradius[0])

    mesh = stages.run("mesh", lambda: generate(poly, h))
    for _ in range(max(0, refinements)):
        mesh = stages.run("refine", lambda: refine(mesh))
    mq = stages.run("quality", lambda: quality(mesh))

    k_mat = stages.run("assemble", lambda: fem.assemble_stiffness(mesh))
    m_mat = stages.run("assemble_mass", lambda: fem.assemble_mass(mesh))
    neumann = stages.run(
        "solve_neumann", lambda: fem.solve_neumann(k_mat, m_mat, k=4, seed=seed)
    )
    dirichlet = stages.run(
        "solve_dirichlet",
        lambda: fem.solve_dirichlet(mesh, k_mat, m_mat, k=1, order=neumann.order),
    )
    mu2 = float(neumann.eigenvalues[1])
    lambda1 = float(dirichlet.eigenvalues[0])

    (rho, rho_center), mec = stages.run(
        "geometry", lambda: (poly.inradius, poly.min_enclosing_circle)
    )
    region = stages.run("exclusion_region", lambda: exclusion_region(poly))

    def analyze():
        admissible = ana.admissible_set(mesh, region.threshold)
        return admissible, [_analyze_eigenvector(mesh, admissible, j, psi) for j, psi
                            in enumerate(ana.mu2_eigenvectors(mesh, neumann, admissible))]

    admissible, records = stages.run("analysis", analyze)

    def compare():
        out = [
            _comparison_diagnostics(mesh, admissible, k_mat, m_mat, rec.psi, mu2,
                                    cp.vertex_id, False, j)
            for j, rec in enumerate(records)
            for cp in rec.critical_points
        ]
        if not out:
            cand = np.nonzero(mesh.interior_mask)[0]
            rel = mesh.vertices[cand] - rho_center
            anchor_vertex = int(cand[np.argmin(np.hypot(rel[:, 0], rel[:, 1]))])
            out.append(_comparison_diagnostics(
                mesh, admissible, k_mat, m_mat, records[0].psi, mu2,
                anchor_vertex, True, 0,
            ))
        return out

    comparison = stages.run("comparison", compare)
    ineq = stages.run(
        "inequalities", lambda: ana.inequality_checks(mu2, lambda1, poly, consts)
    )

    theorem = {
        "threshold": admissible.threshold,
        "tolerance": admissible.tolerance,
        "eigenvectors": [rec.theorem for rec in records],
        "passed": all(rec.theorem["passed"] for rec in records),
    }

    report = VerificationReport(
        schema=REPORT_SCHEMA,
        domain_spec=_plain(_spec_echo(spec)),
        geometry=_plain({
            "diameter": d,
            "diameter_endpoints": endpoints,
            "inradius": rho,
            "inradius_center": rho_center,
            "area": poly.area,
            "min_enclosing_circle": {
                "center": mec.center,
                "radius": mec.radius,
            },
            "exclusion_threshold": region.threshold,
        }),
        mesh=_plain({"h_target": h, "refinements": refinements, **asdict(mq)}),
        spectrum=_plain({
            "boundary_condition": "neumann",
            "eigenvalues": neumann.eigenvalues,
            "residuals": neumann.residuals,
            "lambda1": lambda1,
            "dirichlet_residuals": dirichlet.residuals,
            "degenerate_pair": len(records) > 1,  # mu2_eigenvectors' gap rule
            "analyzed_eigenvectors": len(records),
        }),
        inequalities=_plain(asdict(ineq)),
        boundary_extrema=[rec.boundary_extrema for rec in records],
        interior_critical_points=[rec.interior_critical_points for rec in records],
        theorem=_plain(theorem),
        lemma=[rec.lemma for rec in records],
        comparison=_plain(comparison),
        steinerberger=[rec.steinerberger for rec in records],
        render=_plain({
            "polygon": poly.vertices,
            "region_boundary": region.boundary,
            "nodal_segments": records[0].nodal_segments,
        }),
        timings_ms=dict(stages.timings),
        metrics={"eigensolve": {"neumann": asdict(neumann.stats),
                                "dirichlet": asdict(dirichlet.stats)}},
    )

    if out_dir is not None:
        out = Path(out_dir)
        (out / "report.json").write_text(report.to_json(), encoding="utf-8")
        (out / "timings.json").write_text(
            json.dumps(report.timings_ms, indent=2) + "\n", encoding="utf-8"
        )
        (out / "metrics.json").write_text(
            json.dumps(report.metrics, indent=2) + "\n", encoding="utf-8"
        )
        if dump_mesh_file:
            dump_mesh(mesh, out / "mesh.txt")
        if svg:
            write_report_svg(report, out / "figure.svg", show_nodal=show_nodal,
                             mesh=mesh if show_mesh else None)
    return report


def write_report_svg(report: VerificationReport | dict, out_path,
                     show_nodal: bool = False, mesh=None):
    """Render a report; the mesh edges are drawn when `mesh` is given."""
    doc = report.as_dict() if isinstance(report, VerificationReport) else report
    criticals = [
        p["location"]
        for entry in doc["interior_critical_points"]
        for p in entry["points"]
    ]
    extrema = []
    for entry in doc["boundary_extrema"]:
        extrema.append(entry["max"]["location"])
        extrema.append(entry["min"]["location"])
    mesh_edges = None
    if mesh is not None:
        mesh_edges = [[list(mesh.vertices[a]), list(mesh.vertices[b])] for a, b in mesh.edges]
    render_svg(
        polygon=doc["render"]["polygon"],
        region_boundary=doc["render"]["region_boundary"],
        critical_points=criticals,
        boundary_extrema=extrema,
        out_path=out_path,
        nodal_segments=doc["render"]["nodal_segments"] if show_nodal else None,
        mesh_edges=mesh_edges,
    )


# --- sweep ---------------------------------------------------------------------

def _sweep_domain_spec(master_seed: int, index: int) -> DomainSpec:
    rng = SplitMix64((master_seed << 20) ^ index)
    child_seed = rng.next_u64()
    n = 5 + int(rng.uniform() * 56)  # 5..60 hull samples
    return DomainSpec(kind="random_convex", seed=child_seed, n=min(n, 60), diameter=2.0)


def _sweep_one(args: tuple) -> dict:
    master_seed, index, h_rel, out_root = args
    spec = _sweep_domain_spec(master_seed, index)
    out_dir = Path(out_root) / f"domain_{index:03d}"
    out_dir.mkdir(parents=True, exist_ok=True)
    spec_path = out_dir / "spec.json"
    save_spec(spec, spec_path)
    try:
        d, _ = _Stages().run("realize", lambda: realize(spec).diameter)
        report = run_verify(spec_path, h=h_rel * d, out_dir=out_dir)
    except StageError as exc:
        return {"index": index, "error": str(exc), "stage": exc.stage}
    ineq = report.inequalities
    return {
        "index": index,
        "passed": report.theorem["passed"],
        "violations": sum(len(e["violations"]) for e in report.theorem["eigenvectors"]),
        "strong_kroger": ineq["strong_kroger_holds"],
        "kroger_margin": ineq["kroger_margin"],
        "payne_weinberger_margin": ineq["payne_weinberger_margin"],
        "polya_margin": ineq["polya_margin"],
        "szego_weinberger_margin": ineq["szego_weinberger_margin"],
    }


def run_sweep(count: int, seed: int, h_rel: float, out_dir) -> dict:
    """Verify `count` seeded random convex domains; deterministic given seed.

    Parallelism is capped by the HSV_THREADS environment variable; results
    merge in index order so the summary bytes do not depend on the cap.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    threads = os.environ.get("HSV_THREADS", "0")
    try:
        workers = int(threads)
    except ValueError:
        workers = -1
    if workers < 0:
        raise BadArgument(f"HSV_THREADS must be an integer >= 0, got {threads!r}")
    workers = max(1, min(workers or (os.cpu_count() or 1), count))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(seed, i, h_rel, str(out)) for i in range(count)]
    if workers == 1:
        results = [_sweep_one(j) for j in jobs]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs))

    ok = [r for r in results if "error" not in r]
    failures = [r for r in results if "error" in r]
    summary = {
        "schema": REPORT_SCHEMA,
        "count": count,
        "seed": seed,
        "h_rel": h_rel,
        "pass_count": sum(1 for r in ok if r["passed"]),
        "violation_count": sum(r["violations"] for r in ok),
        "strong_kroger_count": sum(1 for r in ok if r["strong_kroger"]),
        "min_margins": {
            name: (min(r[name] for r in ok) if ok else None)
            for name in ("kroger_margin", "payne_weinberger_margin",
                         "polya_margin", "szego_weinberger_margin")
        },
        "failures": failures,
        "domains": results,
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    return summary
