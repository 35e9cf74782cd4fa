"""One benchmark process: set-up, then the timed calls of one workload.

    python3 perfbench/worker.py <setup|run|trace> <workload-json> <seed> <seconds> <out-dir>

``run.py`` starts this with ``PYTHONPATH`` at the checkout's ``src/`` and every
thread count pinned to 1. The last line on stdout is one JSON object.

- ``setup``: ``import hotspots``, ``find_constants()`` and one warm-up call of
  the workload's entry point at reduced size; reports their wall time.
- ``run``: set-up, then untraced timed calls for about ``seconds`` seconds.
  Reports the end-to-end numbers and the correctness-gate failures.
- ``trace``: set-up, then pairs of an untraced and a traced call on the same
  inputs. Reports the per-layer numbers and writes the spans to a file.
"""

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import REF_TOL

# Seed step between the timed calls of a sweep run.
SWEEP_SEED_STRIDE = 1_000_003

STAGES = ("input", "realize", "mesh", "refine", "assemble", "assemble_mass",
          "solve_neumann", "solve_dirichlet", "geometry", "exclusion_region",
          "analysis", "comparison", "inequalities")

# Inclusive call time of these functions, summed per metric.
CALL_TIMES = {
    "geometry.exclusion_region.s": ("geometry.exclusion_region",),
    "meshing.generate.s": ("meshing.generate",),
    "meshing.refine.s": ("meshing.refine",),
    "meshing.boundary_distances.s": ("meshing.boundary_distances",),
    "fem.assemble.s": ("fem.assemble_stiffness", "fem.assemble_mass"),
    "fem.solve.s": ("fem.solve_neumann", "fem.solve_dirichlet"),
    "analysis.find_critical_points.s": ("analysis.find_critical_points",),
    "analysis.nodal_decomposition.s": ("analysis.nodal_decomposition",),
    "analysis.build_comparison.s": ("analysis.build_comparison",),
    "bessel.j0_eval.s": ("bessel.j0_eval",),
}

CALL_COUNTS = ("geometry.diameter", "geometry.farthest_boundary_distance",
               "meshing.boundary_distances", "analysis.nodal_decomposition",
               "bessel.j0_eval", "bessel.j1_eval")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


class Workload:
    """Runs one workload's entry point and checks what it wrote."""

    def __init__(self, wl: dict, seed: int, out_dir: Path):
        self.wl = wl
        self.seed = seed
        self.out_dir = out_dir
        self.sweep = wl["entry"] == "run_sweep"
        if not self.sweep:
            self.spec_path = out_dir / "spec.json"
            self.spec_path.write_text(json.dumps(wl["spec"], indent=2) + "\n", encoding="utf-8")

    def call(self, out: Path, args: dict, seed: int, verify_s: list | None = None):
        """Call the entry point. With `verify_s` given, a sweep appends the wall
        time of each run_verify call it completes, timed at that entry point."""
        from hotspots import report

        if not self.sweep:
            return report.run_verify(self.spec_path, seed=seed, out_dir=out, **args)
        if verify_s is None:
            return report.run_sweep(seed=seed, out_dir=out, **args)
        inner = report.run_verify

        def timed_verify(*a, **kw):
            start = time.perf_counter()
            rep = inner(*a, **kw)
            verify_s.append(time.perf_counter() - start)
            return rep

        report.run_verify = timed_verify
        try:
            return report.run_sweep(seed=seed, out_dir=out, **args)
        finally:
            report.run_verify = inner

    def call_seed(self, i: int) -> int:
        """Seed of the i-th timed call. Sweep calls after the first verify
        other domains, so that one run averages over more domain shapes."""
        return self.seed + i * SWEEP_SEED_STRIDE if self.sweep else self.seed

    def warmup(self) -> None:
        self.call(self.out_dir / "warmup", self.wl["warmup"], self.seed)

    def timed(self, name: str, seed: int, tracer: Tracer | None = None, trace_id: int = 0) -> dict:
        """One timed call and the check of what it wrote.

        Returns the wall time, the domains attempted and completed, `failed`
        (domains that raised or failed a gate), `errors` (per-domain errors a
        sweep recorded) and `wrong` (failed gates: outputs that are wrong or
        missing). An error escaping the entry point leaves no output to
        check, so it is `wrong` as well as failed."""
        from hotspots.errors import HotspotsError

        out = self.out_dir / name
        args = self.wl["call"]
        domains = args["count"] if self.sweep else 1
        verify_s = []
        start = time.perf_counter()
        try:
            if tracer is None:
                self.call(out, args, seed, verify_s)
            else:
                tracer.run(trace_id, self.call, out, args, seed)
        except HotspotsError as exc:
            msg = f"{type(exc).__name__}: {exc}"
            return {"wall_s": time.perf_counter() - start, "domains": domains, "completed": 0,
                    "failed": domains, "errors": [msg], "wrong": [msg]}
        wall = time.perf_counter() - start
        result = {"wall_s": wall, "domains": domains, "verify_s": verify_s if self.sweep else [wall]}
        result.update(self.check_sweep(out) if self.sweep else self.check_verify(out))
        return result

    def check_verify(self, out: Path) -> dict:
        doc = _read_json(out / "report.json")
        mu2 = float(doc["spectrum"]["eigenvalues"][1])
        wrong = []
        mu2_rel_err = abs(mu2 - self.wl["mu2"]) / self.wl["mu2"]
        if mu2_rel_err > REF_TOL:
            wrong.append(f"mu2 {mu2!r} not within {REF_TOL:.0%} of {self.wl['mu2']!r}")
        if "lambda1" in self.wl:
            lam = float(doc["spectrum"]["lambda1"])
            if abs(lam - self.wl["lambda1"]) > REF_TOL * self.wl["lambda1"]:
                wrong.append(f"lambda1 {lam!r} not within {REF_TOL:.0%} of {self.wl['lambda1']!r}")
        if doc["theorem"]["passed"] is not True:
            wrong.append("theorem.passed is not true")
        return {
            "completed": 1,
            "failed": 1 if wrong else 0,
            "errors": [],
            "wrong": wrong,
            "sha256": _sha256(out / "report.json"),
            "mu2_rel_err": mu2_rel_err,
            "stages_s": {k: v / 1000.0 for k, v in _read_json(out / "timings.json").items()},
            "sizes": self._sizes([doc]),
        }

    def check_sweep(self, out: Path) -> dict:
        summary = _read_json(out / "summary.json")
        errors = [f"domain {f['index']}: {f['error']}" for f in summary["failures"]]
        wrong = []
        bad = {f["index"] for f in summary["failures"]}
        for d in summary["domains"]:
            if "error" not in d and (not d["passed"] or d["violations"]):
                wrong.append(f"domain {d['index']}: {d['violations']} theorem violations")
                bad.add(d["index"])
        stages: dict[str, float] = {}
        docs = []
        for d in summary["domains"]:
            if "error" in d:
                continue
            dom = out / f"domain_{d['index']:03d}"
            docs.append(_read_json(dom / "report.json"))
            for k, v in _read_json(dom / "timings.json").items():
                stages[k] = stages.get(k, 0.0) + v / 1000.0
        return {
            "completed": len(docs),
            "failed": len(bad),
            "errors": errors,
            "wrong": wrong,
            "sha256": _sha256(out / "summary.json"),
            "stages_s": stages,
            "sizes": self._sizes(docs),
        }

    @staticmethod
    def _sizes(docs: list) -> dict:
        return {
            "mesh.vertices": sum(d["mesh"]["vertex_count"] for d in docs),
            "fem.eigenvectors_analyzed": sum(d["spectrum"]["analyzed_eigenvectors"] for d in docs),
            "analysis.critical_points": sum(
                len(e["points"]) for d in docs for e in d["interior_critical_points"]
            ),
        }


def _setup(wl: dict, seed: int, out_dir: Path) -> tuple[Workload, float]:
    """Fresh-process set-up: import, Bessel zeros, one reduced warm-up call."""
    start = time.perf_counter()
    import hotspots

    src = Path(__file__).resolve().parent.parent / "src"
    if Path(hotspots.__file__).resolve().parent.parent != src:
        raise SystemExit(f"imported hotspots from {hotspots.__file__}, not from {src}")
    hotspots.find_constants()
    work = Workload(wl, seed, out_dir)
    work.warmup()
    return work, time.perf_counter() - start


def _timed_loop(seconds: float, step) -> list:
    """Call step(i) until another step, as long as the last, would end past
    `seconds`; always at least once."""
    results = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(step(len(results)))
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            return results


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_run(work: Workload, seconds: float) -> dict:
    calls = _timed_loop(seconds, lambda i: work.timed(f"call{i}", work.call_seed(i)))
    total_s = sum(c["wall_s"] for c in calls)
    completed = sum(c["completed"] for c in calls)
    rel = [c["mu2_rel_err"] for c in calls if "mu2_rel_err" in c]
    verify_s = [t for c in calls for t in c.get("verify_s", ())]
    if not verify_s:
        raise SystemExit("no run_verify call completed; nothing to time")
    result = _tally(calls)
    result.update({
        "verify_s": statistics.median(verify_s),
        "verify_calls": len(verify_s),
        "domains_per_s": completed / total_s,
        "completed": completed,
        "total_s": total_s,
        "mu2_rel_err": statistics.median(rel) if rel else None,
        "peak_rss_mb": _peak_rss_mb(),
    })
    return result


def _tally(calls: list) -> dict:
    return {
        "calls": len(calls),
        "attempted": sum(c["domains"] for c in calls),
        "failed": sum(c["failed"] for c in calls),
        "errors": [e for c in calls for e in c["errors"]],
        "wrong": [e for c in calls for e in c["wrong"]],
        "sha256": calls[0].get("sha256"),
    }


def measure_trace(work: Workload, seconds: float, trace_path: Path) -> dict:
    tracer = Tracer()

    def pair(i):
        plain = work.timed(f"plain{i}", work.seed)
        traced = work.timed(f"traced{i}", work.seed, tracer, trace_id=i)
        if plain.get("sha256") != traced.get("sha256"):
            traced["failed"] = traced["domains"]
            traced["wrong"] = traced["wrong"] + ["traced output differs from untraced output"]
        return plain, traced

    pairs = _timed_loop(seconds, pair)
    tracer.write(trace_path)
    calls = [c for p in pairs for c in p]
    summaries = [tracer.summary(i) for i in range(len(pairs))]
    plain = [p[0] for p in pairs]

    def med(values):
        return statistics.median(list(values))

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (med(s["self_s"][layer] for s in summaries), "s")
    for name, fns in CALL_TIMES.items():
        metrics[name] = (med(sum(s["total_s"].get(f, 0.0) for f in fns) for s in summaries), "s")
    for fn in CALL_COUNTS:
        counts = [s["calls"].get(fn, 0) for s in summaries]
        metrics[f"{fn}.calls"] = (statistics.median_low(counts), "count")
    for name in ("mesh.vertices", "fem.eigenvectors_analyzed", "analysis.critical_points"):
        metrics[name] = (plain[0].get("sizes", {}).get(name, 0), "count")
    for stage in STAGES:
        metrics[f"stage.{stage}_s"] = (med(c.get("stages_s", {}).get(stage, 0.0) for c in plain), "s")
    overhead = med(p[1]["wall_s"] for p in pairs) / med(c["wall_s"] for c in plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    result = _tally(calls)
    result.update({
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": len(tracer.names),
    })
    return result


def main(argv: list[str]) -> int:
    mode, wl_json, seed, seconds, out_dir = argv
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    work, setup_s = _setup(json.loads(wl_json), int(seed), out)
    result = {"setup_s": setup_s}
    if mode == "run":
        result.update(measure_run(work, float(seconds)))
    elif mode == "trace":
        result.update(measure_trace(work, float(seconds), out / "trace.jsonl"))
    if mode != "setup":
        import numpy
        import scipy

        result["versions"] = {"python": sys.version.split()[0],
                              "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
