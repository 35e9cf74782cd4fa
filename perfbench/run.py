"""hsv benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload disk --seed 1 --seconds 36 --trace 0

Every measurement runs in a fresh worker process (``worker.py``) against the
package under ``src/``, with ``HSV_THREADS`` and the BLAS thread counts pinned
to 1: the single-threaded baseline.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
several fresh processes), ``verify_s``, ``domains_per_s`` and
``peak_rss_mb``. ``--trace 1`` prints the per-layer metrics of a separate
run that alternates untraced and traced calls. Either way the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are for people. The exit code is 0 only
when every correctness gate passed.

Outputs go to ``.bench_build/hsv/`` under the repository root; the trace
of a ``--trace 1`` run stays there as ``trace-<workload>-seed<seed>.jsonl``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"

# Extra fresh processes that only set up; with the measuring worker's own
# set-up they give the sample setup_s is the median of.
SETUP_PROBES = 3
# Every process this command starts ends within this many seconds of its start.
DEADLINE_S = 170.0
PINNED = ("HSV_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(dict.fromkeys(PINNED, "1"))
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


def _spawn(mode: str, wl: dict, seed: int, seconds: float, out: Path, deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} process")
    cmd = [sys.executable, str(WORKER), mode, json.dumps(wl), str(seed), str(seconds), str(out)]
    try:
        proc = subprocess.run(cmd, env=_worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process killed after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run(workload: str, seed: int, seconds: float, trace: bool,
        workloads: dict = WORKLOADS) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and report lines."""
    wl = workloads[workload]
    deadline = time.monotonic() + DEADLINE_S
    base = ROOT / ".bench_build" / "hsv"
    out = base / f"{workload}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        if trace:
            res = _spawn("trace", wl, seed, seconds, out, deadline)
            trace_file = base / f"trace-{workload}-seed{seed}.jsonl"
            shutil.move(str(out / "trace.jsonl"), trace_file)
        else:
            setups = [_spawn("setup", wl, seed, seconds, out / f"probe{i}", deadline)["setup_s"]
                      for i in range(SETUP_PROBES)]
            res = _spawn("run", wl, seed, seconds, out, deadline)
    finally:
        shutil.rmtree(out, ignore_errors=True)

    v = res["versions"]
    lines = [
        f"hsv benchmark: workload {workload}, seed {seed}, {seconds:g} s, "
        f"{'traced' if trace else 'untraced'}",
        f"machine: nproc {os.cpu_count()}, Python {v['python']}, numpy {v['numpy']}, "
        f"scipy {v['scipy']}, threads pinned to 1 ({', '.join(PINNED)})",
    ]
    if trace:
        metrics = res["metrics"]
        lines += [f"  {k:<36} {_fmt(m['value']):>12} {m['unit']}" for k, m in metrics.items()]
        lines.append(f"  {res['calls'] // 2} untraced + {res['calls'] // 2} traced calls, "
                     f"{res['spans']} spans in {trace_file.relative_to(ROOT)}")
    else:
        setups.append(res["setup_s"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "verify_s": {"value": res["verify_s"], "unit": "s"},
            "domains_per_s": {"value": res["domains_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes",
            "verify_s": f"median of {res['verify_calls']} run_verify calls",
            "domains_per_s": f"{res['completed']} domains completed in {res['total_s']:.2f} s",
        }
        for k, m in metrics.items():
            lines.append(f"  {k:<14} {_fmt(m['value']):>12} {m['unit']:<6} {notes.get(k, '')}")
        lines.append(f"  {'failed_frac':<14} {_fmt(res['failed'] / res['attempted']):>12} ratio  "
                     f"{res['failed']} of {res['attempted']} domains")
        if res["mu2_rel_err"] is not None:
            lines.append(f"  {'mu2_rel_err':<14} {_fmt(res['mu2_rel_err']):>12} ratio  "
                         f"|mu2 - analytic| / analytic")
    output = "summary.json" if wl["entry"] == "run_sweep" else "report.json"
    lines.append(f"  {output} sha256 {res['sha256']} (first call)")
    lines += [f"  FAILED: {e}" for e in res["errors"]]
    lines += [f"  WRONG: {e}" for e in res["wrong"]]
    result = {
        "correct": not res["wrong"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    return result, lines


def main(argv=None, workloads: dict = WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("need --seed >= 0 and 0 < --seconds <= 60")
    if not (ROOT / "src" / "hotspots" / "__init__.py").is_file():
        print(f"perfbench: no hotspots package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), workloads)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
