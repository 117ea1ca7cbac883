#!/usr/bin/env python3
"""umpbounds benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload bound-bsc --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Each measured run is a fresh child process
(perfbench/child.py) that imports umpbounds from the checkout's `src/`, with
UMP_THREADS=1 and one BLAS thread; runs go one at a time.

--trace 0: after one untimed warm-up import, run the workload back to back
  until the next run would overrun --seconds (at least one run), then add
  set-up-only children until there are SETUP_SAMPLES set-up timings. Prints
  the median of each end-to-end metric. Run-phase times are reported at a
  reference host speed (ref_wall_s, ref_cpu_s; see speed.py), and the raw
  times are printed beside them.
--trace 1: one untraced run, one run with the span tracer installed, and the
  layer probes. Prints every per-layer metric.

Every run's CSV is checked (check.py). Prints each metric as
`name = value unit`, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. Exits 1 when a check fails or a run
fails, 2 when the checkout holds no umpbounds sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import check_output, dt_violations  # noqa: E402
from spans import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
SETUP_SAMPLES = 5
MAX_RUNS = 200
# The whole invocation must end within 180 s; children share what is left.
DEADLINE_S = 170.0
OK_EXIT_CODES = (0, 4)  # 4: simulate acceptance failure, counted in dt_violations

END_TO_END_UNITS = {
    "ref_wall_s": "s",
    "ref_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
}

# traced function -> the per-call fields reported for it
FUNCTION_METRICS = [
    ("achievability.max_log2M_header_ach_best", ("calls", "incl_s")),
    ("achievability.max_log2M_dt", ("calls", "incl_s")),
    ("achievability.dt_class_bound", ("calls",)),
    ("converse.header_conv_max_log2M_bsc_best", ("calls", "incl_s")),
    ("converse.header_conv_max_log2M_bec_best", ("calls", "incl_s")),
    ("converse.np_beta_bsc", ("calls", "incl_s", "p50_us")),
    ("converse.converse_max_log2M_bsc", ("incl_s",)),
    ("converse.converse_max_log2M_bec", ("incl_s",)),
    ("cosets.monte_carlo_error", ("calls", "incl_s")),
    ("cosets.build_coset_code", ("incl_s",)),
    ("asymptotics.normal_approx_log2M", ("calls", "incl_s")),
    ("asymptotics.kl_divergence_bits", ("calls", "incl_s")),
    ("numerics.gaussian_Q_inv", ("calls", "incl_s")),
    ("cli.tradeoff_rows", ("self_s",)),
    ("cli.write_csv", ("incl_s",)),
    ("cli.build_config", ("incl_s",)),
]
FIELD_UNITS = {"calls": "count", "incl_s": "s", "self_s": "s", "p50_us": "us"}
DERIVED_METRICS = [
    ("bound.class_cache_hit_ratio", "ratio"),
    ("bound.header_scan_unique_ratio", "ratio"),
    ("cosets.trials_per_s", "1/s"),
    ("cosets.decode_temp_bytes_computed", "bytes"),
]
PROBES = [
    "dt_tail_sum_us",
    "bec_conv_sum_us",
    "np_beta_us",
    "rate_search_ms",
    "header_scan_s",
    "mc_chunk_ms",
]


def per_layer_names():
    """Every per-layer metric name with its unit, in print order."""
    out = []
    for fn, fields in FUNCTION_METRICS:
        out += [(f"{fn}.{f}", FIELD_UNITS[f]) for f in fields]
    out += DERIVED_METRICS
    out += [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
    for probe in PROBES:
        unit = probe.rsplit("_", 1)[1]
        out += [(f"probe.{probe}.p50", unit), (f"probe.{probe}.p90", unit)]
    out += [
        ("dt_violations", "count"),
        ("run.wall_s", "s"),
        ("run.slowdown", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.top_span_coverage", "ratio"),
    ]
    return out


class Runner:
    """Starts child processes one at a time and checks what they write."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.checked = {}  # CSV digest -> problems, so identical outputs are checked once
        self.violations = []
        self.env = dict(os.environ)
        self.env.update(
            UMP_THREADS="1",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PYTHONHASHSEED="0",
            # no run leaves bytecode in the checkout for a later set-up to find
            PYTHONDONTWRITEBYTECODE="1",
        )

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, *args):
        """Run child.py with args; returns (parsed JSON or None, error text)."""
        timeout = self.remaining()
        if timeout <= 1.0:
            return None, "no time left before the run deadline"
        cmd = [sys.executable, os.path.join(HERE, "child.py"), *args]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        if proc.returncode != 0:
            return None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1]), ""
        except (IndexError, json.JSONDecodeError):
            return None, f"unreadable child output: {proc.stdout[-500:]!r}"

    def run_workload(self, tag: str, traced: bool = False):
        """One measured run of the workload; None when it failed."""
        self.attempted += 1
        name = f"{self.workload}-traced" if traced else self.workload
        out_csv = os.path.join(RUNS_DIR, f"{name}.csv")
        args = ["run", self.workload, str(self.seed), out_csv]
        if traced:
            args.append(os.path.join(RUNS_DIR, f"{name}-spans.jsonl"))
        if os.path.exists(out_csv):
            os.remove(out_csv)  # never check a previous run's output
        result, err = self.child(*args)
        if result is None:
            return self._fail(f"{tag}: {err}")
        if result["exit_code"] not in OK_EXIT_CODES:
            return self._fail(f"{tag}: program exit code {result['exit_code']}")
        try:
            with open(out_csv) as fh:
                text = fh.read()
        except OSError as exc:
            return self._fail(f"{tag}: no output: {exc}")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest not in self.checked:
            self.checked[digest] = check_output(
                self.workload, text, self.seed, result["exit_code"]
            )
        problems = self.checked[digest]
        if problems:
            return self._fail(f"{tag}: output check: " + "; ".join(problems[:10]))
        self.violations.append(dt_violations(text))
        return result

    def _fail(self, message: str):
        self.failed += 1
        self.problems.append(message)
        print(f"FAILED {message}", file=sys.stderr)
        return None


def measure(runner: Runner, seconds: float) -> dict:
    runner.child("setup", runner.workload, str(runner.seed))  # warm-up, untimed
    results, durations = [], []
    window_start = time.monotonic()
    while runner.attempted < MAX_RUNS:
        t0 = time.monotonic()
        res = runner.run_workload(f"run{runner.attempted}")
        durations.append(time.monotonic() - t0)
        if res is None:
            break
        results.append(res)
        elapsed = time.monotonic() - window_start
        if elapsed + statistics.median(durations) > seconds:
            break
    if not results:
        return {}
    setups = [r["setup_s"] for r in results]
    setups_raw = [r["setup_raw_s"] for r in results]
    while len(setups) < SETUP_SAMPLES:
        res, err = runner.child("setup", runner.workload, str(runner.seed))
        if res is None:
            runner.attempted += 1
            runner._fail(f"setup: {err}")
            break
        setups.append(res["setup_s"])
        setups_raw.append(res["setup_raw_s"])
    ref_wall = statistics.median(r["ref_wall_s"] for r in results)
    return {
        "ref_wall_s": ref_wall,
        "ref_cpu_s": statistics.median(r["ref_cpu_s"] for r in results),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "work_per_s": WORKLOADS[runner.workload].units / ref_wall,
        "_wall_s": statistics.median(r["wall_s"] for r in results),
        "_cpu_s": statistics.median(r["cpu_s"] for r in results),
        "_slowdown": statistics.median(r["slowdown"] for r in results),
        "_setup_raw_s": statistics.median(setups_raw),
        "_runs": len(results),
        "_setup_samples": len(setups),
    }


def per_layer_values(trace: dict, probes: dict) -> dict:
    """Per-layer metrics from a traced child's summary and the probe results.

    A traced function or probe the program no longer has is listed under
    "_absent" and reported as 0; a derived metric that does not apply to
    the workload's command is listed under "_not_applicable".
    """
    values, absent, not_applicable = {}, list(trace["absent"]), []
    for fn, fields in FUNCTION_METRICS:
        info = trace["functions"].get(fn)
        if info is None:
            absent.append(fn)
        for f in fields:
            values[f"{fn}.{f}"] = info[f] if info else 0.0
    for name, _ in DERIVED_METRICS:
        v = trace["derived"][name]
        if v is None and name not in absent:
            not_applicable.append(name)
        values[name] = v if v is not None else 0.0
    for layer, v in trace["layers"].items():
        values[f"layer.{layer}.self_s"] = v
    for probe in PROBES:
        info = probes[probe]
        if info.get("absent"):
            absent.append(f"probe.{probe}")
        values[f"probe.{probe}.p50"] = info.get("p50", 0.0)
        values[f"probe.{probe}.p90"] = info.get("p90", 0.0)
    values["_absent"] = absent
    values["_not_applicable"] = not_applicable
    return values


def measure_traced(runner: Runner) -> dict:
    runner.child("setup", runner.workload, str(runner.seed))  # warm-up, untimed
    plain = runner.run_workload("untraced")
    traced = runner.run_workload("traced", traced=True)
    probes, err = runner.child("probes")
    if probes is None:
        runner._fail(f"probes: {err}")
    if plain is None or traced is None or probes is None:
        return {}
    values = per_layer_values(traced["trace"], probes["probes"])
    values["dt_violations"] = statistics.median(runner.violations)
    values["run.wall_s"] = plain["wall_s"]
    values["run.slowdown"] = plain["slowdown"]
    values["trace.wall_s"] = traced["wall_s"]
    values["trace.overhead_s"] = traced["ref_wall_s"] - plain["ref_wall_s"]
    top = values["_top"] = traced["trace"]["top"]
    values["trace.top_span_coverage"] = (
        (top["self_s"] + top["children_s"]) / traced["wall_s"] if top else 0.0
    )
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "umpbounds", "cli.py")):
        print(f"no umpbounds sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(RUNS_DIR, exist_ok=True)
    runner = Runner(args.workload, args.seed)
    if args.trace:
        values = measure_traced(runner)
        units = dict(per_layer_names())
    else:
        values = measure(runner, args.seconds)
        units = END_TO_END_UNITS
    if not values:
        print(f"no successful run of {args.workload}: {runner.problems}", file=sys.stderr)
        return 1

    w = WORKLOADS[args.workload]
    print(f"workload {w.name}: {w.why}")
    print(f"seed {args.seed}, runs attempted {runner.attempted}, failed {runner.failed}")
    if not args.trace:
        print(
            f"medians over {values['_runs']} run(s), setup_s over {values['_setup_samples']} "
            f"set-ups; work unit: {w.unit_name} ({w.units} per run)"
        )
        print(
            f"raw wall_s = {values['_wall_s']:.6g} s, raw cpu_s = {values['_cpu_s']:.6g} s, "
            f"raw setup_s = {values['_setup_raw_s']:.6g} s, host slowdown = "
            f"{values['_slowdown']:.4g} (reported times = raw / slowdown, see speed.py)"
        )
    absent = values.get("_absent", [])
    not_applicable = values.get("_not_applicable", [])
    for name, unit in units.items():
        tag = ""
        if any(name == a or name.startswith(a + ".") for a in absent):
            tag = "  (absent: function not in the program; reported as 0)"
        elif name in not_applicable:
            tag = "  (not applicable to this workload; reported as 0)"
        print(f"{name} = {values[name]:.6g} {unit}{tag}")
    print(f"fail_frac = {runner.failed / runner.attempted:.6g} ratio")
    if not args.trace:
        print(f"dt_violations = {statistics.median(runner.violations):.6g} count")
    else:
        top = values["_top"]
        print(f"top span {top['name']}: self {top['self_s']:.6g} s + children "
              f"{top['children_s']:.6g} s vs traced wall {values['trace.wall_s']:.6g} s")
    correct = runner.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
