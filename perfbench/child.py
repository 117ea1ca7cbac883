"""Body of one benchmark child process; prints one JSON line on stdout.

    python3 perfbench/child.py run WORKLOAD SEED OUT_CSV [SPANS_FILE]
    python3 perfbench/child.py setup WORKLOAD SEED
    python3 perfbench/child.py probes

`run` times set-up (importing umpbounds.cli and building the config) and the
run phase (cli.run, from built config to written CSV) separately, with the
speed probe (speed.py) sampling the host's speed beside the run phase. With a
SPANS_FILE it installs the span tracer first and writes the spans there.
umpbounds is imported from the checkout's own `src/`, never from elsewhere.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _import_package():
    sys.path.insert(0, SRC)
    import umpbounds
    import umpbounds.cli

    origin = os.path.abspath(umpbounds.__file__)
    if not origin.startswith(SRC + os.sep):
        raise SystemExit(f"umpbounds imported from {origin}, not from {SRC}")
    return umpbounds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cmd_setup(workload: str, seed: int) -> dict:
    from speed import SpeedProbe
    from workloads import workload_argv

    with SpeedProbe() as probe:
        t0 = time.perf_counter()
        ub = _import_package()
        ub.cli.build_config(workload_argv(workload, seed, os.devnull))
        raw = time.perf_counter() - t0
    return {"setup_raw_s": raw, "setup_s": raw / probe.slowdown()}


def _trace_metrics(ub, summary, cfg, rows_written: int) -> dict:
    from spans import HEADER_SCANS, LAYERS

    functions = {
        n: {
            "calls": summary.calls.get(n, 0),
            "incl_s": summary.incl_s(n),
            "self_s": summary.self_s(n),
            "p50_us": summary.p50_us(n),
        }
        for n in sorted(summary.wrapped)
    }
    # None marks a metric that does not apply to this command
    derived = dict.fromkeys(
        [
            "bound.class_cache_hit_ratio",
            "bound.header_scan_unique_ratio",
            "cosets.trials_per_s",
            "cosets.decode_temp_bytes_computed",
        ]
    )
    absent = []
    if cfg.command == "bound":
        searches = summary.calls_under.get(("achievability.max_log2M_dt", "cli.bound_rows"), 0)
        derived["bound.class_cache_hit_ratio"] = 1.0 - searches / rows_written
        derived["bound.header_scan_unique_ratio"] = summary.unique_ratio(HEADER_SCANS)
    if cfg.command == "simulate":
        trials = cfg.trials * cfg.codebooks * len(cfg.classes)
        mc_s = summary.incl_s("cosets.monte_carlo_error")
        derived["cosets.trials_per_s"] = trials / mc_s if mc_s > 0 else None
        chunk = getattr(ub.cosets, "MC_CHUNK", None)
        if chunk is None:
            absent.append("cosets.decode_temp_bytes_computed")
        else:
            k_max = max(c.k for c in cfg.classes)
            words = -(-max(cfg.n_list) // 64)
            derived["cosets.decode_temp_bytes_computed"] = chunk * (1 << k_max) * words * 8
    top = summary.top
    return {
        "functions": functions,
        "layers": {layer: summary.layer_self_s(layer) for layer in LAYERS},
        "derived": derived,
        "absent": absent,
        "top": (
            {"name": top[0], "incl_s": top[1] / 1e9, "self_s": top[2] / 1e9, "children_s": top[3] / 1e9}
            if top
            else None
        ),
    }


def cmd_run(workload: str, seed: int, out_csv: str, spans_file: str = "") -> dict:
    from speed import SpeedProbe
    from workloads import workload_argv

    with SpeedProbe() as setup_probe:
        t0 = time.perf_counter()
        ub = _import_package()
        tracer = None
        if spans_file:
            from spans import LAYERS, Tracer

            modules = {layer: importlib.import_module(f"umpbounds.{layer}") for layer in LAYERS}
            package = [m for k, m in sys.modules.items() if k == "umpbounds" or k.startswith("umpbounds.")]
            tracer = Tracer(run_id=f"{workload}-seed{seed}")
            tracer.install(modules, package)
        cfg = ub.cli.build_config(workload_argv(workload, seed, out_csv))
        setup = time.perf_counter() - t0
    with SpeedProbe() as probe:
        t1 = time.perf_counter()
        c1 = time.process_time()
        code = ub.cli.run(cfg)
        c2 = time.process_time()
        t2 = time.perf_counter()
    wall, cpu = t2 - t1, c2 - c1 - probe.thread_cpu_s
    slowdown = probe.slowdown()
    result = {
        "exit_code": code,
        "setup_raw_s": setup,
        "setup_s": setup / setup_probe.slowdown(),
        "wall_s": wall,
        "cpu_s": cpu,
        "slowdown": slowdown,
        "ref_wall_s": wall / slowdown,
        "ref_cpu_s": cpu / slowdown,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        tracer.write(spans_file)
        with open(out_csv) as fh:
            rows = sum(1 for ln in fh if ln and not ln.startswith("#")) - 1
        result["trace"] = _trace_metrics(ub, tracer.summary(), cfg, rows)
    return result


def cmd_probes() -> dict:
    from probes import run_probes

    ub = _import_package()
    importlib.import_module("umpbounds.cosets")
    return {"probes": run_probes(ub)}


def main(argv) -> int:
    sys.path.insert(0, HERE)
    from speed import pin_to_one_cpu

    pin_to_one_cpu()
    mode = argv[0]
    if mode == "setup":
        result = cmd_setup(argv[1], int(argv[2]))
    elif mode == "run":
        result = cmd_run(argv[1], int(argv[2]), argv[3], argv[4] if len(argv) > 4 else "")
    elif mode == "probes":
        result = cmd_probes()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result, allow_nan=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
