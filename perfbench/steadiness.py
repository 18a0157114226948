#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's steadiness.

    python3 perfbench/steadiness.py [--workloads jacobi,tealeaf,corpus,dpor]
        [--seeds 1-10] [--out FILE.json]

Run from the repository root. For every workload it runs perfbench/run.py
once per seed with BENCHMARK.json's run_seconds (untraced), then prints per
end-to-end metric the median of the runs and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median, next
to a third of the metric's bound. Any failed run makes the exit code 1.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="jacobi,tealeaf,corpus,dpor")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write the per-run values and the summary as JSON")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "metrics": values})
            print(f"{workload} seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
                  flush=True)
        summary = {}
        print(f"== {workload} ({len(runs)} runs)")
        for name in bounds:
            values = [r["metrics"][name] for r in runs]
            if len(values) < 2:
                continue
            mid = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / mid if mid else 0.0
            summary[name] = {"median": mid, "q1": q1, "q3": q3, "spread": spread}
            bound = bounds[name]
            flag = "" if spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:28s} median {mid:14.6g}  spread {spread:.4f}  bound/3 {bound / 3:.4f}{flag}")
        report["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
