"""The five benchmark workloads: CLI argument lists at the paper's operating points.

Only the two `simulate` workloads draw randomness; they take the benchmark
seed as the program's `--seed`. The `bound` and `tradeoff` workloads are the
same at every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

# Seed at which the committed reference outputs were made.
DEFAULT_SEED = 1

THIRD = repr(1 / 3)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Tuple[str, ...]  # CLI arguments without --seed and --out
    seeded: bool  # passes the benchmark seed as --seed
    units: int  # output units per run, for work_per_s
    unit_name: str


def _classes(*specs: str) -> Tuple[str, ...]:
    out: List[str] = []
    for spec in specs:
        out += ["--class", spec]
    return tuple(out)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bound-bsc",
            "bound BSC(0.11) n=500,1000 m=3 eps=1e-3: achievability header-split scan "
            "and BSC Neyman-Pearson header converse",
            ("bound", "--channel", "bsc", "--p", "0.11", "--n", "500,1000")
            + _classes(*[f"eps=1e-3,lambda={THIRD}"] * 3),
            seeded=False,
            units=30,
            unit_name="rate cells",
        ),
        Workload(
            "bound-bec-ump",
            "bound BEC(0.5) n=500 lambda=(1/2,1/4,1/4): erasure converse sums; "
            "header scans repeat once per distinct lambda",
            ("bound", "--channel", "bec", "--p", "0.5", "--n", "500")
            + _classes("eps=1e-3,lambda=0.5", "eps=1e-3,lambda=0.25", "eps=1e-3,lambda=0.25"),
            seeded=False,
            units=15,
            unit_name="rate cells",
        ),
        Workload(
            "simulate-bec",
            "simulate BEC(0.5) n=64 k=(8,4), 100000 trials x 10 codebooks: chunk RNG, "
            "bit packing and the BEC decode path",
            ("simulate", "--channel", "bec", "--p", "0.5", "--n", "64")
            + _classes("k=8,lambda=0.5", "k=4,lambda=0.5")
            + ("--trials", "100000", "--codebooks", "10"),
            seeded=True,
            units=2_000_000,
            unit_name="decoded trials",
        ),
        Workload(
            "simulate-bsc-wide",
            "simulate BSC(0.11) n=64 k=(12,6), 16384 trials x 3 codebooks: 4096-codeword "
            "table, memory-bound BSC decoding",
            ("simulate", "--channel", "bsc", "--p", "0.11", "--n", "64")
            + _classes("k=12,lambda=0.5", "k=6,lambda=0.5")
            + ("--trials", "16384", "--codebooks", "3"),
            seeded=True,
            units=98_304,
            unit_name="decoded trials",
        ),
        Workload(
            "tradeoff-sweep",
            "tradeoff BSC(0.11) n=100:2000:100 grid 0.01: pure-Python simplex loop "
            "and CSV formatting, no tail sums",
            ("tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "100:2000:100")
            + _classes(*[f"eps=1e-3,lambda={THIRD}"] * 3)
            + ("--mu", "0.5,0.25,0.25", "--grid", "0.01"),
            seeded=False,
            units=103_020,
            unit_name="simplex rows",
        ),
    )
}


def program_seed(seed: int) -> int:
    """Map any benchmark seed onto the program's nonnegative seed range."""
    return seed % (1 << 32)


def workload_argv(name: str, seed: int, out_path: str) -> List[str]:
    """CLI arguments for one run of the workload; the same seed gives the same list."""
    w = WORKLOADS[name]
    argv = list(w.argv)
    if w.seeded:
        argv += ["--seed", str(program_seed(seed))]
    return argv + ["--out", out_path]
