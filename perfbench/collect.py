#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise the spread of each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workload NAME ...] [--trace 0|1]
        [--seconds S] [--out perfbench/baseline/BENCH_<date>.json]

For each workload it runs perfbench/run.py once per seed, one run at a time,
and reports for every metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (Q3 - Q1) / median, next to the metric's bound from
BENCHMARK.json. With --out it writes all per-run values, the summary and the
host, nproc and library versions as JSON.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def host_info() -> dict:
    import numpy
    import scipy

    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "UMP_THREADS": "1",
    }


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {
        "date": datetime.date.today().isoformat(),
        "seconds": seconds,
        "trace": args.trace,
        "seeds": seeds,
        "env": host_info(),
        "workloads": {},
    }
    for name in args.workload or list(WORKLOADS):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            if proc.returncode != 0 or not last.startswith("{"):
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(last)
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if args.trace == 0 or k.startswith("trace.")), flush=True)
        summary = {}
        for metric in runs[0]["metrics"]:
            vals = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = summarise(vals) if len(vals) >= 2 else {"median": vals[0]}
            summary[metric]["unit"] = runs[0]["metrics"][metric]["unit"]
            if args.trace == 0:
                s = summary[metric]
                b = bounds.get(metric)
                print(f"  {metric}: median {s['median']:.6g} {s['unit']}, "
                      f"q1 {s.get('q1', float('nan')):.6g}, q3 {s.get('q3', float('nan')):.6g}, "
                      f"spread {s.get('spread') or 0:.4f} (bound {b}, a third {b / 3 if b else 0:.4f})")
        report["workloads"][name] = {"runs": runs, "summary": summary}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
