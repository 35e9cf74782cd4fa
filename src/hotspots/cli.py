"""Command-line entry point.

Subcommands: verify (full pipeline), region (geometry-only exclusion region),
render (re-plot a saved report), sweep (batch of seeded random domains).

Exit codes: 0 success, 1 input error, 2 solver/mesh error, 3 theorem
violation detected.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bessel import find_constants
from .domains import load_spec, realize
from .errors import HotspotsError, ParseError, SchemaVersionMismatch, StageError
from .geometry import exclusion_region
from .report import REPORT_SCHEMA, run_sweep, run_verify, write_report_svg
from .svgfig import render_svg

_INPUT_STAGES = {"input", "realize"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsv",
        description="Verify the critical-point exclusion region of second "
        "Neumann eigenfunctions on convex planar domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification pipeline")
    p_verify.add_argument("--spec", required=True, help="domain spec JSON path")
    p_verify.add_argument("--h", type=float, default=None,
                          help="target mesh size (default: diam/50)")
    p_verify.add_argument("--refine", type=int, default=0, help="uniform refinements")
    p_verify.add_argument("--k", type=int, default=4, help="Neumann eigenpairs (>= 3)")
    p_verify.add_argument("--tol", type=float, default=1e-8, help="residual tolerance")
    p_verify.add_argument("--out", required=True, help="output directory")
    p_verify.add_argument("--seed", type=int, default=0, help="eigensolver start seed")
    p_verify.add_argument("--svg", action="store_true", help="also write figure.svg")
    p_verify.add_argument("--show-nodal", action="store_true")
    p_verify.add_argument("--show-mesh", action="store_true")
    p_verify.add_argument("--dump-mesh", action="store_true",
                          help="also write mesh.txt (HSV-MESH 1)")

    p_region = sub.add_parser("region", help="compute the exclusion region only")
    p_region.add_argument("--spec", required=True)
    p_region.add_argument("--ratio", type=float, default=None,
                          help="threshold/diameter ratio (default: j1/(2 j0))")
    p_region.add_argument("--out", required=True, help="output directory")
    p_region.add_argument("--svg", action="store_true")

    p_render = sub.add_parser("render", help="render figure.svg from report.json")
    p_render.add_argument("--report", required=True)
    p_render.add_argument("--out", required=True, help="output SVG path")
    p_render.add_argument("--show-nodal", action="store_true")

    p_sweep = sub.add_parser("sweep", help="verify a batch of random convex domains")
    p_sweep.add_argument("--count", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, default=1)
    p_sweep.add_argument("--h-rel", type=float, default=0.02,
                         help="mesh size relative to each diameter")
    p_sweep.add_argument("--k", type=int, default=4)
    p_sweep.add_argument("--tol", type=float, default=1e-8)
    p_sweep.add_argument("--out", required=True)
    return parser


def _cmd_verify(args) -> int:
    report = run_verify(
        args.spec,
        h=args.h,
        refinements=args.refine,
        k=args.k,
        tol=args.tol,
        out_dir=args.out,
        svg=args.svg,
        show_nodal=args.show_nodal,
        show_mesh=args.show_mesh,
        dump_mesh_file=args.dump_mesh,
        seed=args.seed,
    )
    passed = report.theorem["passed"]
    mu2 = report.spectrum["eigenvalues"][1]
    print(f"mu2 = {mu2:.6f}  theorem: {'pass' if passed else 'VIOLATION'}  "
          f"strong_kroger: {report.inequalities['strong_kroger_holds']}")
    return 0 if passed else 3


def _cmd_region(args) -> int:
    spec = load_spec(args.spec)
    poly = realize(spec)
    ratio = args.ratio if args.ratio is not None else find_constants().c_excl
    region = exclusion_region(poly, ratio)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": REPORT_SCHEMA,
        "ratio": ratio,
        "diameter": poly.diameter[0],
        "threshold": region.threshold,
        "seed_point": [region.seed.x, region.seed.y],
        "boundary": region.boundary.tolist(),
        "binding": list(region.binding),
    }
    (out / "region.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    if args.svg:
        render_svg(
            polygon=poly.vertices.tolist(),
            region_boundary=region.boundary.tolist(),
            critical_points=[],
            boundary_extrema=[],
            out_path=out / "region.svg",
        )
    print(f"region threshold = {region.threshold:.6f} written to {out}")
    return 0


def _cmd_render(args) -> int:
    with open(args.report, encoding="utf-8") as fh:
        doc = json.load(fh)
    # Schema 2 only dropped fields that rendering does not read.
    if doc.get("schema") not in (1, REPORT_SCHEMA):
        raise SchemaVersionMismatch(f"unsupported report schema {doc.get('schema')!r}")
    write_report_svg(doc, args.out, show_nodal=args.show_nodal)
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    summary = run_sweep(args.count, args.seed, args.h_rel, args.out,
                        k=args.k, tol=args.tol)
    print(f"sweep: {summary['pass_count']}/{args.count} passed, "
          f"{summary['violation_count']} violations, "
          f"{len(summary['failures'])} failures")
    if summary["failures"]:
        return 2
    return 0 if summary["violation_count"] == 0 else 3


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "region":
            return _cmd_region(args)
        if args.command == "render":
            return _cmd_render(args)
        return _cmd_sweep(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if exc.stage in _INPUT_STAGES else 2
    except (ParseError, SchemaVersionMismatch, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HotspotsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
