import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, outputs, rows",
    [
        # 2 n x 3 classes per channel
        (
            "rate_comparison.py",
            ["--n", "100,200"],
            ["rate_comparison_bsc_0.11.csv", "rate_comparison_bec_0.5.csv"],
            6,
        ),
        # C(4 + 2, 2) points of a 3-class simplex at grid 1/4
        ("betting_tradeoff.py", ["--grid", "0.25"], ["betting_tradeoff.csv"], 15),
        (
            "coset_validation.py",
            ["--trials", "200", "--codebooks", "1"],
            ["coset_validation.csv"],
            2,
        ),
    ],
)
def test_script_writes_its_csv(script, args, outputs, rows, tmp_path):
    # each script calls cli.main and writes under results/ in its working directory
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in outputs:
        lines = (tmp_path / "results" / name).read_text().splitlines()
        assert lines[0].startswith("# umpbounds ")
        assert len([line for line in lines if not line.startswith("#")]) == 1 + rows
