"""Fuzz the command line: random argv over the four subcommands, with random
JSON spec and report documents, through `cli.main`.  Every run ends with an
exit code in 0..3 and never with a traceback.  Specs stay tiny and `--h`
coarse or invalid, so a verify run meshes at most a few hundred vertices.
(`load_spec` alone is fuzzed in test_domains.py.)"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from hotspots import cli
from hotspots.domains import KINDS

JUNK = (st.none() | st.booleans() | st.text(max_size=3)
        | st.sampled_from([0, -1, 0.0, -0.5, 1e300, -1e300, 10**30, 5_000_000])
        | st.sampled_from([float("nan"), float("inf"), -float("inf")]))
# equal to a valid schema number, but not an integer
NON_INT_SCHEMA = st.sampled_from([True, 1.0, 10.0])
SIZE = st.floats(0.5, 2.0)
POINT = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)
VALID = {
    "disk": {"radius": SIZE, "polygonization_n": st.integers(32, 64)},
    "ellipse": {"a": st.floats(1.0, 2.0), "b": st.floats(0.5, 1.0),
                "polygonization_n": st.integers(32, 64)},
    "rectangle": {"length": st.floats(1.0, 2.0), "width": SIZE},
    "regular_polygon": {"k": st.integers(3, 12), "circumradius": SIZE},
    "random_convex": {"seed": st.integers(0, 2**64 - 1), "n": st.integers(3, 40),
                      "diameter": SIZE},
    "explicit": {"vertices": st.lists(POINT, min_size=3, max_size=7)},
}
ANY_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=12,
)


@st.composite
def valid_specs(draw):
    kind = draw(st.sampled_from(sorted(VALID)))
    return {"schema": 1, "kind": kind,
            **{name: draw(values) for name, values in VALID[kind].items()}}


@st.composite
def mutated_specs(draw):
    """A valid spec with one field dropped, replaced by junk or added."""
    doc = draw(valid_specs())
    name = draw(st.sampled_from(["schema", "kind", "extra", *doc]))
    if draw(st.booleans()):
        doc.pop(name, None)
    else:
        doc[name] = draw(JUNK | st.sampled_from(KINDS))
    return doc


@st.composite
def non_int_schema_specs(draw):
    """A valid spec whose schema is True, 1.0 or 10.0."""
    return {**draw(valid_specs()), "schema": draw(NON_INT_SCHEMA)}


# valid specs first: hypothesis leans toward the first branch
SPEC_DOCS = valid_specs() | valid_specs() | mutated_specs() | non_int_schema_specs() | ANY_JSON


REPORT_FIELDS = {
    "interior_critical_points": st.just([]) | st.just([{"points": [{"location": [0, 0]}]}]),
    "boundary_extrema": st.just([]) | st.just([{"max": {"location": [1, 0]}}]),
    "render": st.just({"polygon": [[0, 0], [1, 0], [0, 1]], "region_boundary": [],
                       "nodal_segments": []}) | st.just({"polygon": 5}),
}


@st.composite
def report_docs(draw):
    """Report-shaped documents, often with fields missing or malformed."""
    if draw(st.booleans()):
        return draw(ANY_JSON)
    doc = {"schema": draw(st.integers(1, 10) | st.integers(0, 11) | NON_INT_SCHEMA | JUNK)}
    for name in draw(st.sets(st.sampled_from(sorted(REPORT_FIELDS)))):
        doc[name] = draw(REPORT_FIELDS[name] | REPORT_FIELDS[name] | ANY_JSON)
    return doc


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


COARSE_H = st.sampled_from(["0.25", "0.4", "0.7"])
H_VALUES = COARSE_H | COARSE_H | COARSE_H | st.sampled_from(["5", "0", "-1", "nan", "inf", "x"])


@st.composite
def argvs(draw, tmp: Path):
    command = draw(st.sampled_from(["verify", "region", "render", "sweep"]))
    argv = [command]
    if command in ("verify", "region"):
        argv += ["--spec", str(_write(tmp / "spec.json", draw(SPEC_DOCS)))]
    if command == "verify":
        argv += ["--h", draw(H_VALUES)]
        argv += draw(st.sampled_from([[], [], ["--refine", "1"], ["--refine", "-1"],
                                      ["--seed", "3"], ["--svg", "--show-nodal"],
                                      ["--svg", "--show-mesh", "--dump-mesh"]]))
    if command == "render":
        argv += ["--report", str(_write(tmp / "report.json", draw(report_docs())))]
        argv += draw(st.sampled_from([[], ["--show-nodal"]]))
    if command == "sweep":
        argv += ["--count", draw(st.sampled_from(["1", "1", "0", "x"])),
                 "--h-rel", draw(st.sampled_from(["0.2", "0.24", "0.2", "0.3", "x"])),
                 "--seed", str(draw(st.integers(-2, 2**40)))]
    out = tmp / ("f.svg" if command == "render" else "out")
    argv += draw(st.sampled_from([["--out", str(out)]] * 8 + [[], ["--bogus", "1"]]))
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_cli_exits_with_a_code_and_no_traceback(data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(argvs(Path(tmp)))
        err = io.StringIO()
        with (mock.patch.dict(os.environ, {"HSV_THREADS": "1"}),
              contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO())):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        doc_path = Path(tmp) / ("report.json" if argv[0] == "render" else "spec.json")
        doc = json.loads(doc_path.read_text()) if doc_path.exists() else None
    if isinstance(doc, dict) and isinstance(doc.get("schema"), (bool, float)):
        assert code == 1, (argv, doc, code)
    event(f"{argv[0]} exit {code}")
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
