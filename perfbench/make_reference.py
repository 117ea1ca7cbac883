#!/usr/bin/env python3
"""Rewrite the reference outputs in perfbench/reference/ from the program.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once at workloads.DEFAULT_SEED through the same child
process the benchmark uses and stores its CSV (tradeoff: a row sample, see
check.sample_tradeoff_rows). Refuses inputs where the program is known to be
wrong (class eps <= check.KNOWN_WRONG_EPS). Only rewrite references when a
change is meant to move the outputs, and say so with the change.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import REFERENCE_DIR, reference_eps_ok, reference_path, sample_tradeoff_rows  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def main(names) -> int:
    names = names or list(WORKLOADS)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    env = dict(os.environ, UMP_THREADS="1", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    runs_dir = os.path.join(os.path.dirname(HERE), ".perfbench_runs")
    os.makedirs(runs_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=runs_dir, prefix="reference-")
    try:
        for name in names:
            w = WORKLOADS[name]
            if not reference_eps_ok(w.argv):
                print(f"{name}: eps in the known-wrong range, no reference written", file=sys.stderr)
                return 1
            out = os.path.join(tmp, f"{name}.csv")
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "run", name, str(DEFAULT_SEED), out]
            subprocess.run(cmd, check=True, env=env, stdout=subprocess.DEVNULL)
            with open(out) as fh:
                text = fh.read()
            if w.argv[0] == "tradeoff":
                text = sample_tradeoff_rows(text)
            with open(reference_path(name), "w") as fh:
                fh.write(text)
            print(f"wrote {reference_path(name)}")
    finally:
        shutil.rmtree(tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
