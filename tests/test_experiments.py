"""Each experiments/*.conf runs as its first line says, through cli.main.

Every file opens with `# umpbounds <command> --config experiments/<file> --out
results/<csv>`. The run here appends small overrides to that command, and its
CSV must equal, byte for byte, the same run spelled out in flags.
"""

import shlex
from pathlib import Path

import pytest

from umpbounds import cli

ROOT = Path(__file__).resolve().parents[1]
EXPERIMENTS = ROOT / "experiments"

THREE_CLASSES = [arg for _ in range(3) for arg in ("--class", f"eps=1e-3,lambda={1 / 3!r}")]

# file: (overrides, the same run in flags, data rows)
CASES = {
    # 2 n x 3 classes
    "rate_comparison_bsc.conf": (
        ["--n", "100,200"],
        ["bound", "--channel", "bsc", "--p", "0.11", "--n", "100,200", *THREE_CLASSES],
        6,
    ),
    "rate_comparison_bec.conf": (
        ["--n", "100,200"],
        ["bound", "--channel", "bec", "--p", "0.5", "--n", "100,200", *THREE_CLASSES],
        6,
    ),
    # C(4 + 2, 2) points of a 3-class simplex at grid 1/4
    "betting_tradeoff.conf": (
        ["--grid", "0.25"],
        ["tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "1000", *THREE_CLASSES,
         "--mu", "0.5,0.25,0.25", "--grid", "0.25"],
        15,
    ),
    # one row per class
    "coset_validation.conf": (
        ["--trials", "200", "--codebooks", "1"],
        ["simulate", "--channel", "bec", "--p", "0.5", "--n", "64",
         "--class", "k=8,lambda=0.5", "--class", "k=4,lambda=0.5",
         "--trials", "200", "--codebooks", "1", "--seed", "20260811"],
        2,
    ),
}


def test_every_experiment_has_a_case():
    assert sorted(path.name for path in EXPERIMENTS.glob("*.conf")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_experiment_matches_its_flags(name, tmp_path, monkeypatch):
    overrides, flags, rows = CASES[name]
    first = (EXPERIMENTS / name).read_text().splitlines()[0]
    prog, *argv = shlex.split(first.removeprefix("#"))
    assert prog == "umpbounds" and argv[argv.index("--config") + 1] == f"experiments/{name}"
    # the command's paths are relative to the repository root, with results/ made first
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiments").symlink_to(EXPERIMENTS)
    (tmp_path / "results").mkdir()
    assert cli.main(argv + overrides) == 0
    got = Path(argv[argv.index("--out") + 1]).read_bytes()
    assert cli.main(flags + ["--out", "flags.csv"]) == 0
    assert got == Path("flags.csv").read_bytes()
    lines = got.decode().splitlines()
    assert lines[0].startswith("# umpbounds ")
    assert len([line for line in lines if not line.startswith("#")]) == 1 + rows
