"""Run-to-run spread of the end-to-end metrics, one run per seed:

    python3 perfbench/spread.py --workload sweep --seeds 1 2 3 4 5

For each metric of ``BENCHMARK.json``'s ``end_to_end`` list it prints the
median of the runs, the quartiles (``statistics.quantiles(n=4)``), the
spread (q3 - q1) / median and the metric's bound. Raw results are appended
to ``.bench_build/spread.jsonl``. Exits non-zero if any run fails.
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    log = ROOT / ".bench_build" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)

    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        print(f"{m['name']:<14} median {med:.6g} {m['unit']:<4} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {(q3 - q1) / med:.4f} bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
