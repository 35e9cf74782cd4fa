"""Command-line entry point.

Subcommands: verify (full pipeline), region (geometry-only exclusion region),
render (re-plot a saved report), sweep (batch of seeded random domains).

Exit codes: 0 success, 1 input error (including a flag out of range),
2 solver/mesh error, 3 theorem violation detected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .bessel import find_constants
from .domains import load_spec, realize
from .errors import BadArgument, HotspotsError, ParseError, SchemaVersionMismatch, StageError
from .geometry import exclusion_region
from .report import REPORT_SCHEMA, Stages, run_sweep, run_verify, write_report_svg
from .svgfig import render_svg

_INPUT_STAGES = {"input", "realize"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a bad flag is an input error (exit 1); argparse's own code, 2,
        # would read as a solver failure
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {text}")
        return value

    parse.__name__ = "int"
    return parse


def _float_between(lo: float, hi: float):
    def parse(text: str) -> float:
        value = float(text)
        if not lo < value < hi:
            bound = f"> {lo:g}" if hi == math.inf else f"in ({lo:g}, {hi:g})"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    parse.__name__ = "float"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hsv",
        description="Verify the critical-point exclusion region of second "
        "Neumann eigenfunctions on convex planar domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the full verification pipeline")
    p_verify.add_argument("--spec", required=True, help="domain spec JSON path")
    p_verify.add_argument("--h", type=_float_between(0.0, math.inf), default=None,
                          help="target mesh size (default: min(diam/50, 0.866 * inradius))")
    p_verify.add_argument("--refine", type=_int_at_least(0), default=0,
                          help="uniform refinements")
    p_verify.add_argument("--out", required=True, help="output directory")
    p_verify.add_argument("--seed", type=_int_at_least(0), default=0,
                          help="eigensolver start seed")
    p_verify.add_argument("--svg", action="store_true", help="also write figure.svg")
    p_verify.add_argument("--show-nodal", action="store_true")
    p_verify.add_argument("--show-mesh", action="store_true")
    p_verify.add_argument("--dump-mesh", action="store_true",
                          help="also write mesh.txt (HSV-MESH 1)")

    p_region = sub.add_parser("region", help="compute the exclusion region only")
    p_region.add_argument("--spec", required=True)
    p_region.add_argument("--out", required=True, help="output directory")
    p_region.add_argument("--svg", action="store_true")

    p_render = sub.add_parser("render", help="render figure.svg from report.json")
    p_render.add_argument("--report", required=True)
    p_render.add_argument("--out", required=True, help="output SVG path")
    p_render.add_argument("--show-nodal", action="store_true")

    p_sweep = sub.add_parser("sweep", help="verify a batch of random convex domains")
    p_sweep.add_argument("--count", type=_int_at_least(1), required=True)
    p_sweep.add_argument("--seed", type=int, default=1)
    # the mesher needs h < diam/4
    p_sweep.add_argument("--h-rel", type=_float_between(0.0, 0.25), default=0.02,
                         help="mesh size relative to each diameter")
    p_sweep.add_argument("--out", required=True)
    return parser


def _cmd_verify(args) -> int:
    report = run_verify(
        args.spec,
        h=args.h,
        refinements=args.refine,
        out_dir=args.out,
        svg=args.svg,
        show_nodal=args.show_nodal,
        show_mesh=args.show_mesh,
        dump_mesh_file=args.dump_mesh,
        seed=args.seed,
    )
    passed = report.theorem["passed"]
    mu2 = report.spectrum["eigenvalues"][1]
    print(f"mu2 = {mu2:.7g}  theorem: {'pass' if passed else 'VIOLATION'}  "
          f"strong_kroger: {report.inequalities['strong_kroger_holds']}")
    return 0 if passed else 3


def _cmd_region(args) -> int:
    stages = Stages()
    spec = stages.run("input", lambda: load_spec(args.spec))
    poly = stages.run("realize", lambda: realize(spec))
    region = exclusion_region(poly)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": REPORT_SCHEMA,
        "ratio": find_constants().c_excl,
        "diameter": poly.diameter[0],
        "threshold": region.threshold,
        "seed_point": region.seed,
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
    if not isinstance(doc, dict):
        raise ParseError(f"report {args.report}: not a JSON object")
    schema = doc.get("schema")
    # True and 1.0 are in range(1, 2), but are not schema 1
    if isinstance(schema, bool) or not isinstance(schema, int):
        raise ParseError(f"report {args.report}: field 'schema': expected an integer, "
                         f"got {schema!r}")
    # No schema bump so far changed a field that rendering reads.
    if schema not in range(1, REPORT_SCHEMA + 1):
        raise SchemaVersionMismatch(f"unsupported report schema {schema!r}")
    try:
        write_report_svg(doc, args.out, show_nodal=args.show_nodal)
    except KeyError as exc:
        raise ParseError(f"report {args.report}: field {exc} is missing") from exc
    except (TypeError, ValueError, IndexError) as exc:
        raise ParseError(f"report {args.report}: malformed field ({exc})") from exc
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    summary = run_sweep(args.count, args.seed, args.h_rel, args.out)
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
    except (BadArgument, ParseError, SchemaVersionMismatch, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HotspotsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
