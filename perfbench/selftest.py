"""Self-test of the benchmark on a smoke configuration, about 40 s:

    python3 perfbench/selftest.py

The smoke configuration is a coarse-h disk verify and a one-domain sweep.
It checks that

1. ``run.py`` emits every metric ``BENCHMARK.json`` names, with its unit, in
   both the untraced and the traced run of each smoke workload;
2. the per-layer self times of a traced ``run_verify`` sum to its root span's
   duration within the clock resolution, and every aggregated function is a
   leaf, so no call is counted twice;
3. the correctness gate trips, and the exit code is non-zero, when the
   analytic reference is deliberately wrong.

Exits 0 when all checks pass.
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import run
from workloads import DISK_MU2, WORKLOADS

os.environ.update(dict.fromkeys(run.PINNED, "1"))
sys.path.insert(0, str(run.ROOT / "src"))

SMOKE_VERIFY = dict(WORKLOADS["disk"], call={"h": 0.1, "svg": True, "show_nodal": True},
                    warmup={"h": 0.2, "svg": True, "show_nodal": True})
SMOKE = {
    "smoke_verify": SMOKE_VERIFY,
    "smoke_sweep": dict(WORKLOADS["sweep"], call={"count": 1, "h_rel": 0.05}),
    "smoke_wrong_ref": dict(SMOKE_VERIFY, mu2=1.05 * DISK_MU2),
}


def check_metrics() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in ("smoke_verify", "smoke_sweep"):
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = run.run(name, 1, 1.0, trace, SMOKE)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{name} {key}: emitted {got}, BENCHMARK.json names {want}")
            if not result["correct"]:
                problems.append(f"{name} trace={trace}: correctness gate failed")
    return problems


def check_self_times() -> list[str]:
    from hotspots import report
    from tracer import Tracer

    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_build") as tmp:
        spec = Path(tmp) / "spec.json"
        spec.write_text(json.dumps(SMOKE_VERIFY["spec"]), encoding="utf-8")
        tracer.run(0, lambda: report.run_verify(spec, out_dir=Path(tmp) / "out",
                                                 **SMOKE_VERIFY["call"]))
    s = tracer.summary(0)
    resolution = time.get_clock_info("perf_counter").resolution
    gap = abs(sum(s["self_s"].values()) - s["root_s"])
    roots = [n for n, p in zip(tracer.names, tracer.parents) if p == -1]
    problems = []
    if roots != ["report.run_verify"]:
        problems.append(f"expected one report.run_verify root span, got {roots}")
    if gap > resolution:
        problems.append(f"self times miss the root span by {gap:.3g} s > {resolution:g} s")
    if tracer.nonleaf:
        problems.append(f"aggregated functions that call wrapped ones: {sorted(tracer.nonleaf)}")
    if not all(s["calls"].get(name) for name in ("bessel.j0_eval", "meshing.generate",
                                                 "analysis.find_critical_points")):
        problems.append(f"expected layer calls missing from {sorted(s['calls'])}")
    return problems


def check_gate_trips() -> list[str]:
    argv = ["--workload", "smoke_wrong_ref", "--seed", "1", "--seconds", "1"]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run.main(argv, SMOKE)
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    if code == 0 or result["correct"] or result["failed"] != result["attempted"]:
        return [f"wrong mu2 reference not caught: exit {code}, {result}"]
    return []


def main() -> int:
    (run.ROOT / ".bench_build").mkdir(exist_ok=True)
    failed = False
    for check in (check_metrics, check_self_times, check_gate_trips):
        problems = check()
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {check.__name__}")
        for p in problems:
            print(f"     {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
