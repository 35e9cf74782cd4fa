import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from hotspots import analysis, cli, fem, geometry, report
from hotspots.domains import DomainSpec, save_spec
from hotspots.geometry import ConvexPolygon

DISK_SPEC = {"schema": 1, "kind": "disk", "radius": 1.0, "polygonization_n": 512}


@pytest.fixture(scope="module")
def disk_spec_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("specs") / "disk.json"
    path.write_text(json.dumps(DISK_SPEC))
    return path


@pytest.fixture(scope="module")
def verified(disk_spec_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    rep = report.run_verify(disk_spec_path, h=0.05, out_dir=out, svg=True,
                            show_nodal=True, dump_mesh_file=True)
    return rep, out


class TestRunVerify:
    def test_report_written_and_parses(self, verified):
        rep, out = verified
        doc = json.loads((out / "report.json").read_text())
        assert doc["schema"] == 13
        assert doc["theorem"]["passed"] is True
        assert doc["inequalities"]["strong_kroger_holds"] is True
        assert doc["spectrum"]["eigenvalues"][1] == pytest.approx(3.39, abs=0.02)

    def test_json_round_trip(self, verified):
        rep, out = verified
        text = (out / "report.json").read_text()
        doc = json.loads(text)
        assert json.loads(json.dumps(doc)) == doc
        assert json.dumps(doc, indent=2) + "\n" == text

    def test_timings_sidecar(self, verified):
        rep, out = verified
        timings = json.loads((out / "timings.json").read_text())
        assert "solve_neumann" in timings
        assert all(t >= 0 for t in timings.values())
        assert "timings_ms" not in json.loads((out / "report.json").read_text())

    def test_metrics_sidecar(self, verified, disk_spec_path, tmp_path):
        rep, out = verified
        text = (out / "metrics.json").read_text()
        solves = json.loads(text)["eigensolve"]
        assert solves["neumann"]["path"] == solves["dirichlet"]["path"] == "banded"
        assert solves["neumann"]["n"] == rep.mesh["vertex_count"]
        assert solves["neumann"]["converged_pairs"] == 4
        assert set(solves["dirichlet"]) == {"path", "n", "kd", "operator_solves",
                                            "converged_pairs"}
        assert "metrics" not in json.loads((out / "report.json").read_text())
        report.run_verify(disk_spec_path, h=0.05, out_dir=tmp_path)
        assert (tmp_path / "metrics.json").read_text() == text

    def test_failed_factor_is_a_solve_stage_error(self, tmp_path, monkeypatch, capsys):
        # without the shift the Neumann matrix is the singular K
        spec = tmp_path / "square.json"
        spec.write_text(json.dumps({"schema": 1, "kind": "rectangle",
                                    "length": 1.0, "width": 1.0}))
        monkeypatch.setattr(fem, "SIGMA_SHIFT_REL", 0.0)
        code = cli.main(["verify", "--spec", str(spec), "--h", "0.04",
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "stage 'solve_neumann' failed: ConvergenceFailure('Neumann matrix is" in err

    def test_mesh_dump(self, verified):
        rep, out = verified
        assert (out / "mesh.txt").read_text().startswith("HSV-MESH 1\n")

    def test_svg_valid_and_self_contained(self, verified):
        rep, out = verified
        tree = ET.parse(out / "figure.svg")
        root = tree.getroot()
        assert root.tag.endswith("svg")
        text = (out / "figure.svg").read_text()
        assert "href" not in text  # no external resources

    def test_boundary_extrema_on_boundary(self, verified):
        rep, out = verified
        doc = json.loads((out / "report.json").read_text())
        r = 1.0
        for entry in doc["boundary_extrema"]:
            for key in ("max", "min"):
                x, y = entry[key]["location"]
                assert (x * x + y * y) ** 0.5 == pytest.approx(r, abs=1e-2)

    def test_lemma_flags(self, verified):
        rep, out = verified
        doc = json.loads((out / "report.json").read_text())
        assert all(e["all_touch_boundary"] for e in doc["lemma"])

    def test_deterministic_bytes(self, disk_spec_path, tmp_path):
        report.run_verify(disk_spec_path, h=0.08, out_dir=tmp_path / "a", svg=True)
        report.run_verify(disk_spec_path, h=0.08, out_dir=tmp_path / "b", svg=True)
        assert (tmp_path / "a/report.json").read_bytes() == (
            tmp_path / "b/report.json"
        ).read_bytes()
        assert (tmp_path / "a/figure.svg").read_bytes() == (
            tmp_path / "b/figure.svg"
        ).read_bytes()


class TestSweep:
    def test_small_sweep_and_determinism(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HSV_THREADS", "2")
        s1 = report.run_sweep(2, seed=3, h_rel=0.05, out_dir=tmp_path / "s1")
        monkeypatch.setenv("HSV_THREADS", "1")
        s2 = report.run_sweep(2, seed=3, h_rel=0.05, out_dir=tmp_path / "s2")
        assert (tmp_path / "s1/summary.json").read_bytes() == (
            tmp_path / "s2/summary.json"
        ).read_bytes()
        assert s1["pass_count"] == 2
        assert s1["violation_count"] == 0
        assert not s1["failures"]

    def test_count_one_matches_single_report(self, tmp_path):
        s = report.run_sweep(1, seed=9, h_rel=0.05, out_dir=tmp_path)
        doc = json.loads((tmp_path / "domain_000" / "report.json").read_text())
        assert s["pass_count"] == int(doc["theorem"]["passed"])
        assert s["domains"][0]["strong_kroger"] == doc["inequalities"]["strong_kroger_holds"]


    def test_diagnostic_anchor_fits_a_branch_circle(self, tmp_path):
        # seed 1, domain 4: the interior vertex nearest the enclosing circle's
        # centre lies 0.072 from the boundary, where no branch circle fits;
        # the one nearest the inradius centre lies 0.46 from it
        report._sweep_one((1, 4, 0.02, str(tmp_path)))
        doc = json.loads((tmp_path / "domain_004" / "report.json").read_text())
        c = doc["comparison"][0]
        assert c["diagnostic_only"] and type(c["branch_count"]) is int
        assert math.dist(c["anchor"], doc["geometry"]["inradius_center"]) <= doc["mesh"]["h_max"]
        assert c["support_positivity"] > 0.4

    @pytest.mark.parametrize("name, stage", [("diameter", "realize"),
                                             ("min_enclosing_circle", "geometry")])
    def test_geometry_error_is_a_domain_failure(self, tmp_path, monkeypatch, name, stage):
        from hotspots.errors import DegenerateArea

        def broken(*args, **kwargs):
            raise DegenerateArea("planted")

        monkeypatch.setenv("HSV_THREADS", "1")
        monkeypatch.setattr(ConvexPolygon, name, property(broken))
        s = report.run_sweep(2, seed=3, h_rel=0.1, out_dir=tmp_path)
        assert s["failures"] == s["domains"]
        assert [f["index"] for f in s["failures"]] == [0, 1]
        for f in s["failures"]:
            assert set(f) == {"index", "error", "stage"}
            assert f["stage"] == stage
            assert "DegenerateArea('planted')" in f["error"]


def test_one_band_order_per_run(disk_spec_path, monkeypatch):
    rcm, calls = fem.reverse_cuthill_mckee, []

    def spy(*args, **kwargs):
        calls.append(args[0].shape)
        return rcm(*args, **kwargs)

    monkeypatch.setattr(fem, "reverse_cuthill_mckee", spy)
    rep = report.run_verify(disk_spec_path, h=0.05)
    solves = rep.metrics["eigensolve"]
    assert calls == [(solves["neumann"]["n"],) * 2]
    assert solves["dirichlet"]["path"] == "banded"
    assert solves["dirichlet"]["kd"] <= solves["neumann"]["kd"]


def test_one_farthest_distance_call_per_run(disk_spec_path, monkeypatch):
    # F at every vertex is computed once, into the run's admissible set
    far, calls = geometry.farthest_boundary_distance, []

    def spy(poly, points):
        calls.append(len(points))
        return far(poly, points)

    monkeypatch.setattr(geometry, "farthest_boundary_distance", spy)
    monkeypatch.setattr(analysis, "farthest_boundary_distance", spy)
    rep = report.run_verify(disk_spec_path, h=0.05)
    assert rep.spectrum["analyzed_eigenvectors"] == 3
    assert calls == [rep.mesh["vertex_count"]]


def test_repeated_stage_times_add_up(monkeypatch):
    clock = iter([0.0, 0.25, 1.0, 1.5])
    monkeypatch.setattr(report.time, "perf_counter", lambda: next(clock))
    stages = report._Stages()
    stages.run("refine", lambda: None)
    stages.run("refine", lambda: None)
    assert stages.timings == {"refine": 750.0}


class TestCliExitCodes:
    def test_valid_run_exit_zero(self, disk_spec_path, tmp_path, capsys):
        code = cli.main([
            "verify", "--spec", str(disk_spec_path), "--h", "0.1",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_summary_mu2_is_scale_free(self, tmp_path, capsys):
        # mu2 of a radius-1e4 disk is about 3.4e-8: the summary keeps 7
        # significant digits of the report's value
        spec = tmp_path / "big.json"
        spec.write_text(json.dumps({"schema": 1, "kind": "disk", "radius": 1e4,
                                    "polygonization_n": 128}))
        assert cli.main(["verify", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
        printed = capsys.readouterr().out.split()[2]
        mu2 = json.loads((tmp_path / "out" / "report.json").read_text())["spectrum"]["eigenvalues"][1]
        assert printed == f"{mu2:.7g}"
        assert float(printed) == pytest.approx(mu2, rel=5e-7)
        assert 3e-8 < float(printed) < 4e-8

    def test_malformed_spec_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1, "kind": "pentagon"}')
        code = cli.main(["verify", "--spec", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["region", "verify"])
    @pytest.mark.parametrize("field, value", [
        ("radius", "1"), ("radius", True), ("k", 3.5), ("polygonization_n", 64.5),
    ])
    def test_mistyped_field_exit_one(self, tmp_path, capsys, command, field, value):
        doc = ({"schema": 1, "kind": "regular_polygon", "k": 5, "circumradius": 1.0}
               if field == "k" else dict(DISK_SPEC))
        doc[field] = value
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        code = cli.main([command, "--spec", str(spec), "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"field '{field}'" in capsys.readouterr().err

    def test_missing_file_exit_one(self, tmp_path):
        code = cli.main([
            "verify", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path)
        ])
        assert code == 1

    def test_planted_violation_exit_three(self, disk_spec_path, tmp_path, monkeypatch):
        real = report.run_verify

        def sabotaged(*args, **kwargs):
            rep = real(*args, **kwargs)
            rep.theorem["passed"] = False
            return rep

        monkeypatch.setattr(cli, "run_verify", sabotaged)
        code = cli.main([
            "verify", "--spec", str(disk_spec_path), "--h", "0.1",
            "--out", str(tmp_path),
        ])
        assert code == 3

    def test_solver_error_exit_two(self, tmp_path, monkeypatch, disk_spec_path):
        from hotspots.errors import ConvergenceFailure, StageError

        def broken(*args, **kwargs):
            raise StageError("solve_neumann", ConvergenceFailure("no"))

        monkeypatch.setattr(cli, "run_verify", broken)
        code = cli.main([
            "verify", "--spec", str(disk_spec_path), "--out", str(tmp_path)
        ])
        assert code == 2

    def test_mesh_over_cap_exit_two(self, tmp_path, monkeypatch, capsys, disk_spec_path):
        from hotspots import meshing

        monkeypatch.setattr(meshing, "MAX_MESH_SIZE", 2000)
        code = cli.main([
            "verify", "--spec", str(disk_spec_path), "--h", "0.02", "--out", str(tmp_path)
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "stage 'mesh'" in err and "InvalidH" in err and "h = 0.02" in err

    def test_hair_thin_domain_refused_by_name(self, tmp_path, capsys):
        # at h = diam/50 a 1000 x 0.001 rectangle is 40,000 inradii, where
        # split rounds would double its boundary samples for minutes; at the
        # default h of 0.866 inradius its lattice is over the mesh-size cap
        spec = tmp_path / "thin.json"
        spec.write_text(json.dumps({"schema": 1, "kind": "rectangle", "length": 1000.0,
                                    "width": 0.001}))
        for h, named in ((["--h", "20"], "inradius"), ([], "lattice points")):
            start = time.perf_counter()
            code = cli.main(["verify", "--spec", str(spec), "--out", str(tmp_path / "out"), *h])
            assert code == 2 and time.perf_counter() - start < 5.0
            err = capsys.readouterr().err
            assert "stage 'mesh'" in err and "InvalidH" in err and named in err

    @pytest.mark.parametrize("length, width", [(2.0, 0.05), (1.0, 0.01)])
    def test_thin_rectangle_passes_at_default_h(self, tmp_path, length, width):
        # at h = diam/50 neither had an interior vertex (NoInteriorVertices)
        spec = tmp_path / "thin.json"
        spec.write_text(json.dumps({"schema": 1, "kind": "rectangle", "length": length,
                                    "width": width}))
        assert cli.main(["verify", "--spec", str(spec), "--out", str(tmp_path / "out")]) == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["mesh"]["h_target"] == pytest.approx(math.sqrt(3.0) / 4.0 * width, rel=1e-15)


def test_run_path_imports_no_scipy_optimize(tmp_path, disk_spec_path):
    """A verify and a one-domain sweep load no scipy.optimize module.  In a
    fresh interpreter: this test session imports it."""
    script = "\n".join([
        "import sys",
        "from hotspots import cli, report",
        f"assert cli.main(['verify', '--spec', {str(disk_spec_path)!r}, '--h', '0.25', "
        f"'--svg', '--out', {str(tmp_path / 'verify')!r}]) == 0",
        f"report.run_sweep(1, seed=1, h_rel=0.1, out_dir={str(tmp_path / 'sweep')!r})",
        "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))",
    ])
    src = Path(report.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "HSV_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert run.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv, env, named", [
    (["sweep", "--count", "0"], {}, "--count"),
    (["sweep", "--count", "x"], {}, "--count"),
    (["sweep", "--count", "1", "--h-rel", "0"], {}, "--h-rel"),
    (["sweep", "--count", "1"], {"HSV_THREADS": "abc"}, "HSV_THREADS"),
    (["sweep", "--count", "1"], {"HSV_THREADS": "-2"}, "HSV_THREADS"),
    (["verify", "--spec", "{spec}", "--h", "-1"], {}, "--h"),
    (["verify", "--spec", "{spec}", "--h", "nan"], {}, "--h"),
    (["verify", "--spec", "{spec}", "--refine", "-1"], {}, "--refine"),
    (["verify", "--spec", "{spec}", "--seed", "-1"], {}, "--seed"),
], ids=["count-0", "count-x", "h-rel-0", "threads-abc", "threads-neg", "h-neg", "h-nan",
        "refine-neg", "seed-neg"])
def test_bad_flag_exit_one(tmp_path, capsys, monkeypatch, disk_spec_path, argv, env, named):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = [a.format(spec=disk_spec_path) for a in argv] + ["--out", str(tmp_path / "out")]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    err = capsys.readouterr().err
    assert code == 1
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, named", [
    (["render", "--report", "{list}", "--out", "{tmp}/f.svg"], "not a JSON object"),
    (["render", "--report", "{bare}", "--out", "{tmp}/f.svg"], "'interior_critical_points'"),
    (["render", "--report", "{tmp}", "--out", "{tmp}/f.svg"], "{tmp}"),
    (["verify", "--spec", "{spec}", "--out", "{file}"], "{file}"),
    (["region", "--spec", "{spec}", "--out", "{file}"], "{file}"),
    (["sweep", "--count", "1", "--out", "{file}"], "{file}"),
], ids=["render-list", "render-schema-only", "render-directory", "verify-out-file",
        "region-out-file", "sweep-out-file"])
def test_input_fault_exit_one(tmp_path, capsys, disk_spec_path, argv, named):
    """A report that is not one, or a path of the wrong kind, exits 1 with a
    message naming the field or path; `verify` fails before its first stage."""
    paths = {"tmp": tmp_path, "spec": disk_spec_path, "list": tmp_path / "list.json",
             "bare": tmp_path / "bare.json", "file": tmp_path / "taken"}
    paths["list"].write_text("[]")
    paths["bare"].write_text('{"schema": 9}')
    paths["file"].write_text("")
    start = time.perf_counter()
    code = cli.main([a.format(**paths) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert named.format(**paths) in err
    assert "Traceback" not in err
    if argv[0] == "verify":
        assert "stage" not in err and time.perf_counter() - start < 1.0


class TestRegionAndRender:
    def test_region_subcommand(self, disk_spec_path, tmp_path):
        code = cli.main([
            "region", "--spec", str(disk_spec_path), "--out", str(tmp_path), "--svg",
        ])
        assert code == 0
        doc = json.loads((tmp_path / "region.json").read_text())
        assert doc["threshold"] == pytest.approx(1.59334, abs=1e-4)
        ET.parse(tmp_path / "region.svg")

    def test_render_from_report(self, verified, tmp_path):
        rep, out = verified
        target = tmp_path / "fig.svg"
        code = cli.main([
            "render", "--report", str(out / "report.json"),
            "--out", str(target), "--show-nodal",
        ])
        assert code == 0
        ET.parse(target)

    @staticmethod
    def _render_as(verified, tmp_path, schema) -> int:
        rep, out = verified
        doc = json.loads((out / "report.json").read_text())
        doc["schema"] = schema
        path = tmp_path / f"report{schema}.json"
        path.write_text(json.dumps(doc))
        return cli.main(["render", "--report", str(path), "--out", str(tmp_path / "f.svg")])

    @pytest.mark.parametrize("schema", range(1, report.REPORT_SCHEMA))
    def test_render_accepts_every_earlier_schema(self, verified, tmp_path, schema):
        assert self._render_as(verified, tmp_path, schema) == 0

    def test_render_accepts_current_schema_but_not_next(self, verified, tmp_path):
        assert self._render_as(verified, tmp_path, report.REPORT_SCHEMA) == 0
        assert self._render_as(verified, tmp_path, report.REPORT_SCHEMA + 1) == 1

    @pytest.mark.parametrize("schema", [True, 1.0, 12.0, float(report.REPORT_SCHEMA)])
    def test_render_rejects_a_schema_that_is_not_an_integer(self, verified, tmp_path, capsys,
                                                            schema):
        assert self._render_as(verified, tmp_path, schema) == 1
        assert "field 'schema': expected an integer" in capsys.readouterr().err

    def test_render_determinism(self, verified, tmp_path):
        rep, out = verified
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        cli.main(["render", "--report", str(out / "report.json"), "--out", str(a)])
        cli.main(["render", "--report", str(out / "report.json"), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_disk_svg_gray_annulus_geometry(self, verified):
        # white exclusion polygon radius ~0.5933 of disk radius 1
        rep, out = verified
        doc = json.loads((out / "report.json").read_text())
        import numpy as np

        boundary = np.array(doc["render"]["region_boundary"])
        radii = np.hypot(boundary[:, 0], boundary[:, 1])
        assert radii.min() > 0.5933 - 0.005
        assert radii.max() < 0.5933 + 0.005


def test_spec_save_helper_round_trip(tmp_path):
    spec = DomainSpec(kind="rectangle", length=2.0, width=1.0)
    save_spec(spec, tmp_path / "r.json")
    doc = json.loads((tmp_path / "r.json").read_text())
    assert doc == {"schema": 1, "kind": "rectangle", "length": 2.0, "width": 1.0}
