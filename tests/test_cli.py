import collections
import concurrent.futures
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import umpbounds
from umpbounds import cli, converse, cosets
from umpbounds.achievability import (
    HeaderSplit,
    SimplexWeights,
    dt_class_bound,
    max_log2M_dt,
    max_log2M_header_ach,
)
from umpbounds.asymptotics import ModDevPoint, expected_rate, kl_divergence_bits
from umpbounds.channel import (
    ChannelKind, ChannelSpec, ChannelStats, InfoDensitySpectrum, info_density_spectrum,
)
from umpbounds.converse import NPBetaResult, converse_eps_bec
from umpbounds.numerics import LogValue


def _cfg(*argv):
    return cli.build_config(list(argv))


class TestConfig:
    def test_flag_parsing(self):
        cfg = _cfg(
            "bound", "--channel", "bsc", "--p", "0.11", "--n", "100,200",
            "--class", "eps=1e-3,lambda=0.5", "--class", "eps=1e-2,lambda=0.5",
        )
        assert cfg.channel is ChannelKind.BSC
        assert cfg.n_list == [100, 200]
        assert cfg.classes[0].eps == 1e-3 and cfg.classes[0].lam == 0.5

    def test_n_range_syntax(self):
        cfg = _cfg(
            "bound", "--channel", "bec", "--p", "0.5", "--n", "100:400:100",
            "--class", "eps=0.1,lambda=1",
        )
        assert cfg.n_list == [100, 200, 300, 400]

    def test_config_file_and_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "channel = bsc\np = 0.11\nn = 64\nseed = 7\n"
            "class = eps=1e-3,lambda=0.5\nclass = eps=1e-3,lambda=0.5\n"
        )
        cfg = _cfg("bound", "--config", str(conf), "--p", "0.25")
        assert cfg.p == 0.25  # flag wins
        assert cfg.seed == 7  # file fills the rest
        assert len(cfg.classes) == 2

    @pytest.mark.parametrize("line", ["eps0_grid = 5", "eps0-grid = 5"])
    def test_file_keys_are_flag_names(self, line, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# a comment\nchannel = bec\np = 0.5\nn = 100:300:100\n"
            "class = eps=1e-3,lambda=0.5\nclass = eps=1e-2,lambda=0.5\n"
            f"{line}\nmu = 0.5,0.5\n"
        )
        cfg = _cfg("tradeoff", "--config", str(conf), "--class", "eps=0.1,lambda=1", "--mu", "1")
        assert cfg.channel is ChannelKind.BEC and cfg.n_list == [100, 200, 300]
        assert cfg.eps0_grid == 5
        assert [(c.eps, c.lam) for c in cfg.classes] == [(0.1, 1.0)]  # --class replaces the file's
        assert cfg.mu == [1.0]

    @pytest.mark.parametrize(
        "key", ["trails", "seeed", "tri", "eps0", "classes", "config", "help", "codebook-out"]
    )
    def test_unknown_config_key_exits_2(self, key, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(f"channel = bsc\np = 0.11\nn = 64\nclass = eps=0.1,lambda=1\n{key} = 5\n")
        assert cli.main(["bound", "--config", str(conf)]) == cli.EXIT_CONFIG
        assert f"config error: {conf}: unknown key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line, flag",
        [
            ("seed = abc", "--seed"),
            ("channel = bsx", "--channel"),
            ("n = 0,64", "--n"),
            ("class = eps=2,lambda=1", "--class"),
            ("grid = 0.3", "--grid"),
            ("p = 2", "--p"),
            ("seed = -1", "--seed"),
            ("eps0_grid = 0", "--eps0-grid"),
            ("n0 = x", "--n0"),
        ],
        ids=["seed", "channel", "n", "class", "grid", "p", "seed-range", "eps0-grid", "n0"],
    )
    def test_bad_config_value_names_key_and_file(self, line, flag, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text(f"channel = bsc\np = 0.11\nn = 64\nclass = eps=0.1,lambda=1\n{line}\n")
        assert cli.main(["bound", "--config", str(conf)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"config error: {conf}: " in err and flag in err

    def test_missing_channel_rejected(self):
        with pytest.raises(cli.ConfigError):
            _cfg("bound", "--p", "0.11", "--n", "64", "--class", "eps=0.1,lambda=1")

    def test_lambda_simplex_enforced(self):
        with pytest.raises(cli.ConfigError):
            _cfg(
                "bound", "--channel", "bsc", "--p", "0.11", "--n", "64",
                "--class", "eps=0.1,lambda=0.5", "--class", "eps=0.1,lambda=0.2",
            )

    def test_simulate_needs_k(self):
        with pytest.raises(cli.ConfigError):
            _cfg(
                "simulate", "--channel", "bec", "--p", "0.5", "--n", "64",
                "--class", "eps=0.1,lambda=1",
            )

    def test_tradeoff_needs_matching_mu(self):
        with pytest.raises(cli.ConfigError):
            _cfg(
                "tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "64",
                "--class", "eps=0.1,lambda=0.5", "--class", "eps=0.1,lambda=0.5",
                "--mu", "0.5,0.25,0.25",
            )

    def test_flags_may_precede_the_command(self):
        flags = ["--channel", "bsc", "--p", "0.11", "--n", "64", "--class", "eps=0.1,lambda=1"]
        assert _cfg(*flags, "bound") == _cfg("bound", *flags)

    def test_class_requires_one_size_key(self):
        with pytest.raises(cli.ConfigError):
            _cfg(
                "bound", "--channel", "bsc", "--p", "0.11", "--n", "64",
                "--class", "eps=0.1,k=3,lambda=1",
            )


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert cli.main(["bound", "--channel", "bsc"]) == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    SIMULATE = ["--channel", "bec", "--p", "0.5", "--n", "16", "--class", "k=4,lambda=1",
                "--trials", "100"]

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["simulate", *SIMULATE, "--codebook-out", "x"], "codebook-out = x"),
            (["simulat", *SIMULATE], None),
            (SIMULATE, None),
            (["simulate", *SIMULATE, "--seed"], "seed ="),
            (["simulate", *SIMULATE, "--channel", "bsx"], "channel = bsx"),
            (["simulate", *SIMULATE, "--trials", "many"], "trials = many"),
        ],
        ids=["unknown-flag", "unknown-command", "missing-command", "flag-without-value",
             "bad-channel", "unparsable-trials"],
    )
    def test_bad_command_line_is_2(self, argv, line, tmp_path, capsys):
        # argparse's refusals return 2 from cli.main, as every other config error does
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")
        if line is not None:  # the same mistake as a config-file line
            conf = tmp_path / "run.conf"
            conf.write_text(f"channel = bec\np = 0.5\nn = 16\nclass = k=4,lambda=1\n{line}\n")
            assert cli.main(["simulate", "--config", str(conf)]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err.startswith(f"config error: {conf}: ")

    # k = 25 passes no class budget; at n = 100000 the 2^20-codeword table
    # would take 13 GB, refused before any bit is drawn
    @pytest.mark.parametrize("n, k", [(64, 25), (100_000, 20)], ids=["k-25", "n-100000-k-20"])
    def test_budget_error_is_3(self, n, k, capsys, tmp_path, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulate ran past the budget")

        monkeypatch.setattr(cosets, "monte_carlo_error", no_simulation)
        code = cli.main(
            [
                "simulate", "--channel", "bec", "--p", "0.5", "--n", str(n),
                "--class", f"k={k},lambda=1", "--trials", "200",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == cli.EXIT_BUDGET
        assert "budget" in capsys.readouterr().err

    def test_chunk_budget_is_3(self, capsys, tmp_path, monkeypatch):
        # 10^12 trials a class are 122,070,313 chunks: refused before a chunk
        # runs or a list of them is built
        def no_chunk(*args, **kwargs):
            raise AssertionError("a chunk ran past the budget")

        monkeypatch.setattr(cosets, "_mc_chunk_errors", no_chunk)
        out = tmp_path / "x.csv"
        argv = ["simulate", "--channel", "bsc", "--p", "0.11", "--n", "16",
                "--class", "k=2,lambda=0.5", "--class", "k=1,lambda=0.5",
                "--trials", "1000000000000", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_BUDGET
        assert capsys.readouterr().err.startswith("resource budget exceeded: 2 classes of ")
        assert not out.exists()

    def test_bound_spectrum_cache_budget_is_3(self, capsys, tmp_path, monkeypatch):
        # 256 cached spectra of three float64 arrays of n + 1 weights pass
        # 2^30 bytes past n = 174,761: refused before any search or file
        class Searched(Exception):
            pass

        def searched(*args):
            raise Searched

        monkeypatch.setattr(cli, "max_log2M_dt", searched)
        out = tmp_path / "x.csv"
        argv = ["bound", "--channel", "bsc", "--p", "0.11", "--class", "eps=1e-3,lambda=1",
                "--out", str(out)]
        assert cli.main(argv + ["--n", "100,174762"]) == cli.EXIT_BUDGET
        assert "budget" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(Searched):
            cli.main(argv + ["--n", "174761"])

    OUT_COMMANDS = {
        "bound": ["bound", "--channel", "bsc", "--p", "0.11", "--n", "100",
                  "--class", "eps=1e-3,lambda=1"],
        "simulate": ["simulate", *SIMULATE],
        "tradeoff": ["tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "100",
                     "--class", "eps=1e-3,lambda=0.5", "--class", "eps=0.1,lambda=0.5",
                     "--mu", "0.5,0.5", "--grid", "0.1"],
    }

    @pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["missing-directory", "directory"])
    @pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
    def test_unwritable_out_is_2_before_any_work(self, command, out, tmp_path, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was checked")

        for name in ("bound_rows", "simulate_rows", "tradeoff_text"):
            monkeypatch.setattr(cli, name, no_work)
        argv = self.OUT_COMMANDS[command] + ["--out", str(tmp_path / out)]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --out ")
        assert list(tmp_path.iterdir()) == []

    def test_out_open_error_is_2(self, tmp_path, monkeypatch, capsys):
        # a name past the file system's limit passes the directory checks and
        # fails to open: refused before the sweep
        def no_work(*args, **kwargs):
            raise AssertionError("the sweep ran before --out was opened")

        monkeypatch.setattr(cli, "bound_rows", no_work)
        out = tmp_path / ("x" * 300 + ".csv")
        assert cli.main(self.OUT_COMMANDS["bound"] + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: cannot write --out: ")
        assert list(tmp_path.iterdir()) == []

    # the float spectrum's mass falls 3.5e-13 short of 1 at n = 1000 and 1.1e-11
    # at n = 10^4, and a search whose target reaches it has no largest rate
    EPS_PAST_SPECTRUM = {
        "bsc-eps-1-1e-15": ["--channel", "bsc", "--p", "0.11", "--n", "1000,10000",
                            "--class", "eps=0.999999999999999,lambda=1"],
        "bec-eps-1-1e-15": ["--channel", "bec", "--p", "0.5", "--n", "1000",
                            "--class", "eps=0.999999999999999,lambda=1"],
        "bsc-one-class-of-two": ["--channel", "bsc", "--p", "0.11", "--n", "10000",
                                 "--class", "eps=0.99999999999,lambda=0.5",
                                 "--class", "eps=0.1,lambda=0.5"],
    }

    @pytest.mark.parametrize("name", sorted(EPS_PAST_SPECTRUM))
    def test_eps_past_the_spectrum_mass_is_3(self, name, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["bound", *self.EPS_PAST_SPECTRUM[name], "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_BUDGET
        err = capsys.readouterr().err
        assert err.startswith("resource budget exceeded: eps = 0.99999")
        assert "short of 1" in err and "Traceback" not in err
        assert not out.exists()

    def test_refused_run_keeps_an_existing_out(self, tmp_path):
        out = tmp_path / "x.csv"
        out.write_bytes(b"earlier bytes\n")
        argv = ["bound", *self.EPS_PAST_SPECTRUM["bec-eps-1-1e-15"], "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_BUDGET
        assert out.read_bytes() == b"earlier bytes\n"

    def test_eps_near_one_within_the_spectrum_mass_runs(self, capsys):
        argv = ["bound", "--channel", "bsc", "--p", "0.11", "--n", "2000",
                *["--class", "eps=0.9999999,lambda=0.5"] * 2]
        assert cli.main(argv) == cli.EXIT_OK
        rows = _csv_cells(capsys.readouterr().out)
        assert [cells["log2M_dt"] for cells in rows] == ["1206.71294222"] * 2

    def test_acceptance_failure_is_4(self, tmp_path, monkeypatch):
        # force the pass criterion to fail by zeroing the analytic bound
        monkeypatch.setattr(cli, "dt_class_bound", lambda *a, **k: 0.0)
        code = cli.main(
            [
                "simulate", "--channel", "bec", "--p", "0.9", "--n", "16",
                "--class", "k=2,lambda=1", "--trials", "500",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == cli.EXIT_ACCEPTANCE


class TestInputChecks:
    BOUND = ["bound", "--channel", "bsc", "--p", "0.11", "--n", "64", "--class", "eps=0.1,lambda=1"]
    TRADEOFF = [
        "tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "100,200",
        "--class", "eps=0.1,lambda=0.5", "--class", "eps=0.1,lambda=0.25",
        "--class", "eps=0.1,lambda=0.25", "--mu", "0.5,0.25,0.25",
    ]

    @pytest.mark.parametrize("grid", ["0", "2", "-0.1", "nan", "0.3"])
    def test_grid_outside_unit_interval(self, grid, capsys):
        assert cli.main(self.TRADEOFF + ["--grid", grid]) == cli.EXIT_CONFIG
        assert "--grid" in capsys.readouterr().err

    def test_nan_mu_rejected(self, capsys):
        argv = self.TRADEOFF[:-1] + ["nan,0.5,0.5"]
        assert cli.main(argv + ["--grid", "0.5"]) == cli.EXIT_CONFIG
        assert "mu" in capsys.readouterr().err

    def test_nan_lambda_rejected_before_simulating(self, monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulate ran on a NaN lambda")

        monkeypatch.setattr(cosets, "monte_carlo_error", no_simulation)
        argv = [
            "simulate", "--channel", "bec", "--p", "0.5", "--n", "16",
            "--class", "k=2,lambda=nan", "--class", "k=1,lambda=0.5", "--trials", "100",
        ]
        assert cli.main(argv) == cli.EXIT_CONFIG
        argv = [
            "tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "100", "--mu", "0.5,0.5",
            "--class", "eps=0.1,lambda=0.5", "--class", "eps=0.1,lambda=nan", "--grid", "0.5",
        ]
        assert cli.main(argv) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("n", [",", " , ", ""])
    def test_empty_n_list_refused(self, n, capsys):
        argv = ["bound", "--channel", "bsc", "--p", "0.11", "--n", n, "--class", "eps=0.1,lambda=1"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--n needs at least one blocklength" in err and ">= 1" not in err

    def test_eps0_grid_needs_a_point(self, capsys):
        assert cli.main(self.BOUND + ["--eps0-grid", "0"]) == cli.EXIT_CONFIG
        assert "--eps0-grid" in capsys.readouterr().err

    def test_negative_split_rejected(self):
        assert cli.main(self.BOUND + ["--n0", "-1"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, args, flag",
        [
            ("bound", ["--class", "eps=2,lambda=1"], "--class"),
            ("bound", ["--class", "eps=0,lambda=1"], "--class"),
            ("bound", ["--class", "eps=nan,lambda=1"], "--class"),
            ("bound", ["--class", "eps=abc,lambda=1"], "--class"),
            ("bound", ["--class", "eps=0.1,lambda=0", "--class", "eps=0.1,lambda=1"], "--class"),
            ("simulate", ["--class", "k=2,lambda=0", "--class", "k=1,lambda=1"], "--class"),
            ("simulate", ["--class", "k=-1,lambda=1"], "--class"),
            ("bound", ["--n", "0:10:5", "--class", "eps=0.1,lambda=1"], "--n"),
            ("bound", ["--n", "1:10:0", "--class", "eps=0.1,lambda=1"], "--n range"),
            ("bound", ["--n", "10:1:1", "--class", "eps=0.1,lambda=1"], "--n range"),
            ("simulate", ["--class", "k=2,lambda=1", "--seed", "-1"], "--seed"),
            ("tradeoff", ["--p", "0.5", "--class", "eps=0.1,lambda=1", "--mu", "1"], "--p"),
            ("bound", ["--class", "eps=0.1,lambda=1", "--seed", "abc"], "--seed"),
            ("bound", ["--class", "eps=0.1,lambda=1", "--p", "x"], "--p"),
            ("bound", ["--class", "eps=0.1,lambda=1", "--channel", "bsx"], "--channel"),
            ("bound", ["--class", "eps=0.1,lambda=1", "--eps0-grid", "1.5"], "--eps0-grid"),
        ],
    )
    def test_bad_input_names_its_flag(self, command, args, flag, capsys):
        argv = [command, "--channel", "bsc", "--p", "0.11", "--n", "64", "--trials", "100"]
        assert cli.main(argv + args) == cli.EXIT_CONFIG
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, env, named",
        [
            ("bound --n 1,x --class eps=0.1,lambda=1", {}, "--n"),
            ("bound --n 64 --class eps=0.1,lambda", {}, "--class"),
            ("bound --n 64 --class eps=0.1,mu=1", {}, "--class"),
            ("bound --n 64 --class eps=0.1", {}, "--class"),
            ("bound --config {conf}", {}, "{conf}"),
            ("bound --config {missing}", {}, "{missing}"),
            ("bound --n 64 --class eps=0.1,lambda=1", {"UMP_THREADS": "abc"}, "UMP_THREADS"),
            ("bound --n 64 --class k=3,lambda=1", {}, "--class"),
            ("simulate --n 64 --class k=3,lambda=1 --trials 99", {}, "--trials"),
            ("simulate --n 64 --class k=3,lambda=1 --codebooks 0", {}, "--codebooks"),
            ("simulate --n 64,128 --class k=3,lambda=1", {}, "--n"),
            ("tradeoff --n 64 --class eps=0.1,lambda=1", {}, "--mu"),
        ],
        ids=[
            "n-not-a-number", "class-entry-without-equals", "class-unknown-key",
            "class-without-lambda", "config-line-without-equals", "config-unreadable",
            "threads-not-a-number", "bound-k-class", "simulate-99-trials", "simulate-0-codebooks",
            "simulate-two-n", "tradeoff-without-mu",
        ],
    )
    def test_refusal_names_its_flag_or_file(self, argv, env, named, tmp_path, monkeypatch, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("n = 64\nclass = eps=0.1,lambda=1\nseed 5\n")
        paths = {"conf": conf, "missing": tmp_path / "missing.conf"}
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        argv = [arg.format(**paths) for arg in argv.split()] + ["--channel", "bsc", "--p", "0.11"]
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named.format(**paths) in err

    @staticmethod
    def _no_enumeration(*args):
        raise AssertionError("the simplex grid was enumerated")

    def test_tradeoff_cell_budget(self, capsys, monkeypatch):
        # C(10002, 2) ~ 5e7 points per n: refused before any point is built
        monkeypatch.setattr(cli, "_compositions", self._no_enumeration)
        assert cli.main(self.TRADEOFF + ["--grid", "1e-4"]) == cli.EXIT_BUDGET
        assert "budget" in capsys.readouterr().err

    def test_tradeoff_at_cell_budget_runs(self, monkeypatch, tmp_path):
        # 2 n values x C(12, 2) = 132 rows of 7 cells: at a budget of 924 cells it runs
        cells = 132 * len(cli.tradeoff_columns(3))
        monkeypatch.setattr(cli, "MAX_TRADEOFF_CELLS", cells)
        out = tmp_path / "t.csv"
        assert cli.main(self.TRADEOFF + ["--grid", "0.1", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 1 + 132
        monkeypatch.setattr(cli, "MAX_TRADEOFF_CELLS", cells - 1)
        assert cli.main(self.TRADEOFF + ["--grid", "0.1", "--out", str(out)]) == cli.EXIT_BUDGET

    @pytest.mark.parametrize("grid", ["1e-20", "1e-7"])
    def test_one_class_fine_grid_is_refused(self, grid, tmp_path, capsys):
        # one point, but a table entry per grid weight: 10^20 entries cannot be
        # allocated, and 10^7 took 1.56 GB to write one row
        out = tmp_path / "t.csv"
        argv = [
            "tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "100",
            "--class", "eps=1e-3,lambda=1", "--mu", "1", "--grid", grid, "--out", str(out),
        ]
        assert cli.main(argv) == cli.EXIT_BUDGET
        assert capsys.readouterr().err.startswith("resource budget exceeded: ")
        assert not out.exists()

    def test_wide_sweep_is_refused(self, monkeypatch, tmp_path, capsys):
        # 300 classes on a 1/2 grid: C(301, 2) = 45,150 points, each a row of 304 cells
        monkeypatch.setattr(cli, "_compositions", self._no_enumeration)
        out = tmp_path / "t.csv"
        argv = ["tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "100", "--grid", "0.5"]
        argv += ["--class", "eps=1e-3,lambda=1"] + ["--class", "eps=1e-3,lambda=0"] * 299
        argv += ["--mu", ",".join(["1"] + ["0"] * 299), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_BUDGET
        assert capsys.readouterr().err.startswith("resource budget exceeded: 13725600 tradeoff cells")
        assert not out.exists()


class TestBoundCommand:
    def test_homogeneous_reduction_columns(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = cli.main(
            [
                "bound", "--channel", "bsc", "--p", "0.11", "--n", "128",
                "--class", "eps=1e-2,lambda=1", "--n0", "0", "--out", str(out),
            ]
        )
        assert code == 0
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
        cells = dict(zip(cli.BOUND_COLUMNS, row.split(",")))
        spec = ChannelSpec(ChannelKind.BSC, 0.11, 128)
        assert float(cells["log2M_dt"]) == pytest.approx(
            max_log2M_dt(spec, 1e-2, 1.0), abs=1e-9
        )
        assert float(cells["log2M_header_ach"]) == pytest.approx(
            max_log2M_header_ach(spec, 1e-2, 1, 0, [1e-2]), abs=1e-9
        )

    def test_infeasible_cells_print_na(self, tmp_path):
        out = tmp_path / "na.csv"
        cli.main(
            [
                "bound", "--channel", "bsc", "--p", "0.11", "--n", "4",
                "--class", "eps=1e-6,lambda=1", "--out", str(out),
            ]
        )
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
        cells = dict(zip(cli.BOUND_COLUMNS, row.split(",")))
        assert cells["log2M_dt"] == "NA"

    @pytest.mark.parametrize("p, n_bits", [("0", 64), ("0.5", 0), ("1", 64)])
    def test_bsc_converses_at_degenerate_p(self, tmp_path, p, n_bits):
        # the channel carries n bits at p in {0, 1} and none at p = 1/2, so at
        # m = 1 both converse cells are n_bits - log2(1 - eps) for every split
        out = tmp_path / "degenerate.csv"
        argv = ["bound", "--channel", "bsc", "--p", p, "--n", "64", "--class", "eps=0.1,lambda=1"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
        cells = dict(zip(cli.BOUND_COLUMNS, row.split(",")))
        for column in ("log2M_converse", "log2M_header_conv"):
            assert float(cells[column]) == pytest.approx(n_bits - math.log2(0.9), rel=1e-11)

    @pytest.mark.parametrize(
        "argv, column, one_codeword",
        [
            # the searched BEC(1) rate sits one ulp below -log2 0.9, the crossing
            (
                "--channel bec --p 1 --n 10 --class eps=0.1,lambda=0.9 --class eps=0.1,lambda=0.1",
                "log2M_converse",
                lambda spec: converse_eps_bec(spec, 0.0, 0.9),
            ),
            (
                "--channel bsc --p 0 --n 3 --class eps=0.5,lambda=0.25 --class eps=0.5,lambda=0.75",
                "log2M_dt",
                lambda spec: dt_class_bound(spec, 0.0, 0.25),
            ),
        ],
        ids=["bec-converse", "bsc-dt"],
    )
    def test_exact_tie_at_one_codeword_prints_zero(self, tmp_path, argv, column, one_codeword):
        # class 0's bound at log2M = 0 meets eps (a tie up to rounding), so one codeword fits
        out = tmp_path / "tie.csv"
        assert cli.main(["bound", *argv.split(), "--out", str(out)]) == 0
        cfg = cli.build_config(["bound", *argv.split()])
        assert one_codeword(ChannelSpec(cfg.channel, cfg.p, cfg.n_list[0])) <= cfg.classes[0].eps
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
        assert dict(zip(cli.BOUND_COLUMNS, row.split(",")))[column] == "0"

    def test_dt_never_exceeds_converse(self, tmp_path):
        out = tmp_path / "sw.csv"
        cli.main(
            [
                "bound", "--channel", "bec", "--p", "0.5", "--n", "32,64,96",
                "--class", "eps=1e-3,lambda=0.5", "--class", "eps=1e-2,lambda=0.5",
                "--out", str(out),
            ]
        )
        for line in out.read_text().splitlines():
            if line.startswith("#") or line.startswith("n,"):
                continue
            cells = dict(zip(cli.BOUND_COLUMNS, line.split(",")))
            if "NA" in (cells["log2M_dt"], cells["log2M_converse"]):
                continue
            assert float(cells["log2M_dt"]) <= float(cells["log2M_converse"])

    @pytest.mark.parametrize("n0", ["6", "8"])
    def test_fixed_split_needs_every_class_target(self, tmp_path, n0):
        # the split's header term exceeds class 0's eps, so no header code
        # exists for either class, just as --n0 auto would skip the split
        out = tmp_path / "fixed.csv"
        cli.main(
            [
                "bound", "--channel", "bec", "--p", "0.5", "--n", "60",
                "--class", "eps=1e-3,lambda=0.5", "--class", "eps=0.2,lambda=0.5",
                "--n0", n0, "--out", str(out),
            ]
        )
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        for row in rows:
            cells = dict(zip(cli.BOUND_COLUMNS, row.split(",")))
            assert cells["log2M_header_ach"] == "NA"
            assert cells["log2M_header_conv"] == "NA"

    def test_small_eps_converse_is_a_number(self, tmp_path):
        # at eps = 1e-14, 1 - eps lies within the rounding of the summed shell
        # masses; the converse must not collapse to NA (60-digit reference)
        out = tmp_path / "small.csv"
        cli.main(
            [
                "bound", "--channel", "bsc", "--p", "0.11", "--n", "200",
                "--class", "eps=1e-14,lambda=1", "--out", str(out),
            ]
        )
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
        cells = dict(zip(cli.BOUND_COLUMNS, row.split(",")))
        assert float(cells["log2M_converse"]) == pytest.approx(24.8917998418516, abs=1e-8)

    @pytest.mark.parametrize(
        "channel, classes",
        [
            ("bsc", ["eps=1e-16,lambda=1"]),
            ("bec", ["eps=1e-16,lambda=1"]),
            ("bec", ["eps=1e-16,lambda=0.5", "eps=1e-16,lambda=0.5"]),
        ],
    )
    def test_eps_below_float_spacing_runs(self, tmp_path, channel, classes):
        # the payload size guess falls below 8e-17 bits here, where 2^-x rounds to 1
        out = tmp_path / "tiny.csv"
        argv = ["bound", "--channel", channel, "--p", "0.11", "--n", "200", "--out", str(out)]
        for cls in classes:
            argv += ["--class", cls]
        assert cli.main(argv) == cli.EXIT_OK

    @pytest.mark.parametrize("n0", ["auto", "5"])
    @pytest.mark.parametrize(
        "classes",
        [
            [(1e-3, 0.25), (1e-3, 0.25), (1e-2, 0.5)],
            [(1e-3, 0.25), (1e-3, 0.25), (1e-2, 0.375), (1e-2, 0.125)],
        ],
        ids=["repeated-class", "eps-shared-across-lambdas"],
    )
    def test_each_class_and_header_scan_runs_once_per_n(self, monkeypatch, n0, classes):
        calls = collections.Counter()
        rates = ["max_log2M_dt", "converse_max_log2M", "normal_approx_log2M"]
        for name in rates + ["best_over_splits"]:
            module = converse if name == "converse_max_log2M" else cli

            def counted(*args, _name=name, _fn=getattr(module, name)):
                if _name in rates:  # (spec, eps, lam)
                    calls[(_name, args[0].n, args[1], args[2])] += 1
                else:  # (rate, spec, eps, m, all_eps, n0)
                    calls[(_name, args[1].n, args[2])] += 1
                return _fn(*args)

            monkeypatch.setattr(module, name, counted)
        argv = ["bound", "--channel", "bsc", "--p", "0.11", "--n", "200,100,200", "--n0", n0]
        for eps, lam in classes:
            argv += ["--class", f"eps={eps},lambda={lam}"]
        assert len(cli.bound_rows(_cfg(*argv))) == 3 * len(classes)
        # every search runs at lambda = 1, once per distinct (n, eps)
        expected = collections.Counter()
        for n in (200, 100):
            for eps in {eps for eps, _ in classes}:
                expected.update((name, n, eps, 1.0) for name in rates)
                expected[("best_over_splits", n, eps)] = 2
        assert calls == expected

    def test_one_class_header_scan_is_one_rate_search(self, monkeypatch):
        # at BSC(1/2) every split rates the same: a scan of all 10^4 + 1 of them took 13 s
        calls = collections.Counter()

        def counting_scan(rate, *args, _scan=cli.best_over_splits):
            def counted(*rate_args, **kwargs):
                calls[rate] += 1
                return rate(*rate_args, **kwargs)

            return _scan(counted, *args)

        monkeypatch.setattr(cli, "best_over_splits", counting_scan)
        cfg = _cfg("bound", "--channel", "bsc", "--p", "0.5", "--n", "10000",
                   "--class", "eps=1e-3,lambda=1")
        (row,) = cli.bound_rows(cfg)
        assert len(calls) == 2 and max(calls.values()) <= 3
        assert cli.NA not in row[6:8]  # both header columns

    def test_repeated_n_rows_ordered_by_n_then_class(self):
        cfg = _cfg(
            "bound", "--channel", "bec", "--p", "0.5", "--n", "200,100,100",
            "--class", "eps=1e-3,lambda=0.5", "--class", "eps=1e-2,lambda=0.5",
        )
        rows = cli.bound_rows(cfg)
        assert [(r[0], r[1]) for r in rows] == [
            ("100", "0"), ("100", "0"), ("100", "1"), ("100", "1"), ("200", "0"), ("200", "1"),
        ]
        assert rows[0] == rows[1] and rows[2] == rows[3]

    @pytest.mark.parametrize("channel, p", [("bsc", "0.11"), ("bec", "0.5")], ids=["bsc", "bec"])
    def test_thread_env_does_not_change_output(self, tmp_path, monkeypatch, channel, p):
        # bound runs in the calling thread: UMP_THREADS sizes only simulate's pool
        def no_pool(*args, **kwargs):
            raise AssertionError("bound started a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        # unsorted and repeated n; classes 0 and 1 share eps, so one header scan
        args = [
            "bound", "--channel", channel, "--p", p, "--n", "200,100,200",
            "--class", "eps=1e-3,lambda=0.5", "--class", "eps=1e-3,lambda=0.25",
            "--class", "eps=1e-2,lambda=0.25",
        ]
        outputs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("UMP_THREADS", threads)
            out = tmp_path / f"t{threads}.csv"
            assert cli.main(args + ["--out", str(out)]) == cli.EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_twelve_significant_digits(self):
        assert cli._fmt(1 / 3) == "0.333333333333"
        assert cli._fmt(1234567.0) == "1234567"


# data rows of both bound benchmark workloads and of two capacity-0 channels,
# where every header split rates the same, as the header scans print them;
# a change that moves one of these cells must re-pin it and say why
PINNED_BOUND_ROWS = {
    "bound-bsc": (
        ("--channel", "bsc", "--p", "0.11", "--n", "500,1000",
         *["--class", f"eps=1e-3,lambda={1 / 3!r}"] * 3),
        [
            "500,0,0.333333333333,0.001,178.479696054,191.693530728,152.084003831,184.832955299,183.242843322",
            "500,1,0.333333333333,0.001,178.479696054,191.693530728,152.084003831,184.832955299,183.242843322",
            "500,2,0.333333333333,0.001,178.479696054,191.693530728,152.084003831,184.832955299,183.242843322",
            "1000,0,0.333333333333,0.001,401.471688012,415.250871083,372.630722712,408.050982039,406.272251888",
            "1000,1,0.333333333333,0.001,401.471688012,415.250871083,372.630722712,408.050982039,406.272251888",
            "1000,2,0.333333333333,0.001,401.471688012,415.250871083,372.630722712,408.050982039,406.272251888",
        ],
    ),
    "bound-bec-ump": (
        ("--channel", "bec", "--p", "0.5", "--n", "500",
         "--class", "eps=1e-3,lambda=0.5", *["--class", "eps=1e-3,lambda=0.25"] * 2),
        [
            "500,0,0.5,0.001,212.682967954,215.682309631,200.428294975,209.121624594,214.450152486",
            "500,1,0.25,0.001,211.682967954,214.682309631,200.428294975,209.121624594,213.450152486",
            "500,2,0.25,0.001,211.682967954,214.682309631,200.428294975,209.121624594,213.450152486",
        ],
    ),
    "bsc-capacity-0": (
        ("--channel", "bsc", "--p", "0.5", "--n", "2000",
         "--class", "eps=0.999,lambda=0.5", "--class", "eps=0.999999,lambda=0.5"),
        [
            "2000,0,0.5,0.999,NA,8.96578428466,0.998556583132,0.997117491467,NA",
            "2000,1,0.5,0.999999,NA,18.9315685693,0.999998557306,0.999997114613,NA",
        ],
    ),
    "bec-capacity-0": (
        ("--channel", "bec", "--p", "1", "--n", "300",
         *[arg for e in ("0.8", "0.9", "0.99", "0.999999")
           for arg in ("--class", f"eps={e},lambda=0.25")]),
        [
            "300,0,0.25,0.8,NA,0.321928094887,NA,0.0740005814438,NA",
            "300,1,0.25,0.9,NA,1.32192809489,NA,0.234465253637,NA",
            "300,2,0.25,0.99,NA,4.64385618977,NA,0.395928676331,NA",
            "300,3,0.25,0.999999,NA,17.9315685693,NA,0.415035575687,NA",
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_BOUND_ROWS))
def test_bound_prints_pinned_rows(name, tmp_path):
    argv, want = PINNED_BOUND_ROWS[name]
    out = tmp_path / "bound.csv"
    assert cli.main(["bound", *argv, "--out", str(out)]) == cli.EXIT_OK
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert lines[1:] == want


SWEEP_P = [0.0, 1e-300, 1e-9, 0.11, 0.5 - 1e-7, 0.5, 0.5 + 1e-7, 0.89, 1.0]
BOUND_RATES = cli.BOUND_COLUMNS[4:]


@st.composite
def bound_argv(draw):
    """`bound` arguments over the accepted range: both channels, n <= 1e4,
    m <= 4, eps in [1e-300, 1 - 1e-6], lambda down to 1e-300, every --n0 kind.
    About one draw in fifty takes n above 300, so the sweep stays short."""
    if draw(st.integers(0, 49)) == 25:
        n = draw(st.sampled_from([1000, 2000, 5000, 10_000]))
    else:
        n = draw(st.integers(1, 300))
    m = draw(st.integers(1, 4))
    eps = st.one_of(
        st.sampled_from([1e-300, 1e-16, 1e-3, 0.5, 1 - 1e-6]),
        st.floats(1e-300, 1 - 1e-6),
    )
    lams = [
        draw(st.one_of(st.just(1e-300), st.floats(1e-300, 1 / m))) for _ in range(m - 1)
    ]
    lams.append(1.0 - sum(lams))
    argv = [
        "bound", "--channel", draw(st.sampled_from(["bsc", "bec"])),
        "--p", repr(draw(st.sampled_from(SWEEP_P))), "--n", str(n),
        "--n0", draw(st.sampled_from(["auto", "0", "1", str(n), str(n + 1)])),
    ]
    for lam in lams:
        argv += ["--class", f"eps={draw(eps)!r},lambda={lam!r}"]
    return argv


def _csv_cells(csv_text):
    """One {column: cell} dict per CSV row."""
    lines = [l for l in csv_text.splitlines() if not l.startswith("#")]
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


class TestBoundSweep:
    @settings(
        max_examples=300, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=bound_argv())
    # the random draws of a large n fall on degenerate p, so two fixed inputs
    # at n = 1e4 and m = 4 put the header scans on spectra past 2^13 entries
    @example(argv=[
        "bound", "--channel", "bsc", "--p", "0.11", "--n", "10000", "--n0", "auto",
        *["--class", "eps=1e-3,lambda=0.25"] * 4,
    ])
    @example(argv=[
        "bound", "--channel", "bec", "--p", "0.5", "--n", "10000", "--n0", "auto",
        "--class", "eps=1e-15,lambda=0.4", "--class", "eps=1e-9,lambda=0.3",
        "--class", "eps=1e-3,lambda=0.2", "--class", "eps=0.1,lambda=0.1",
    ])
    # float shell sums put beta above 1: -log2(beta) read -6.56e-13 in log2M_header_conv
    @example(argv=[
        "bound", "--channel", "bsc", "--p", "0.49", "--n", "2000", "--n0", "700",
        "--class", "eps=1e-15,lambda=1",
    ])
    # a converse tie at one codeword: beta(1/2) = 1/2 = lambda
    @example(argv=[
        "bound", "--channel", "bsc", "--p", "0.5", "--n", "1000",
        "--class", "eps=0.5,lambda=0.5", "--class", "eps=0.5,lambda=0.5",
    ])
    # class 0's header takes all of its eps, leaving a noiseless payload of miss 0
    @example(argv=[
        "bound", "--channel", "bsc", "--p", "0", "--n", "10", "--n0", "0",
        "--class", "eps=0.5,lambda=0.5", "--class", "eps=0.6,lambda=0.5",
    ])
    def test_every_accepted_input_gives_a_bound_or_a_refusal(self, argv, capsys):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        if code != cli.EXIT_OK:
            assert err.startswith(
                {cli.EXIT_CONFIG: "config error: ", cli.EXIT_BUDGET: "resource budget exceeded: "}[code]
            )
            return
        bsc = argv[argv.index("--channel") + 1] == "bsc"
        for cells in _csv_cells(out):
            rates = {c: None if cells[c] == "NA" else float(cells[c]) for c in BOUND_RATES}
            assert all(r is None or math.isfinite(r) for r in rates.values())
            if bsc:  # beta <= 1: no negative converse rate, and no -0
                for column in ("log2M_converse", "log2M_header_conv"):
                    assert not cells[column].startswith("-")
            dt, conv = rates["log2M_dt"], rates["log2M_converse"]
            if dt is not None and conv is not None:
                assert dt <= conv + 1e-9
            ach, conv = rates["log2M_header_ach"], rates["log2M_header_conv"]
            if ach is not None and conv is not None:
                # integer code sizes nest, both cells taken to 1e-9 bits; from 52
                # bits the floor is below float resolution
                if ach < 52:
                    assert math.floor(2.0 ** (ach - 1e-9)) <= 2.0 ** (conv + 1e-9)
                else:
                    assert ach <= conv + 1e-9

    @pytest.mark.parametrize(
        "p, n, n0, eps, column, want",
        [
            ("0.5", "1000", "auto", "0.5", "log2M_converse", ["0", "0"]),
            ("0", "10", "0", "0.6", "log2M_header_conv", ["10", "10.1520030934"]),
            ("1", "10", "0", "0.6", "log2M_header_conv", ["10", "10.1520030934"]),
        ],
        ids=["tie-at-half", "noiseless-payload-p0", "noiseless-payload-p1"],
    )
    def test_degenerate_converse_cells(self, p, n, n0, eps, column, want, capsys):
        argv = [
            "bound", "--channel", "bsc", "--p", p, "--n", n, "--n0", n0,
            "--class", "eps=0.5,lambda=0.5", "--class", f"eps={eps},lambda=0.5",
        ]
        assert cli.main(argv) == cli.EXIT_OK
        assert [cells[column] for cells in _csv_cells(capsys.readouterr().out)] == want

    def test_header_cells_below_one_bit_can_cross(self, capsys):
        # both cells mean one codeword: ach is log2(1 + 2 eps), the DT bound's
        # (M - 1)/2 on an empty payload, and conv is -log2(1 - eps)
        argv = [
            "bound", "--channel", "bsc", "--p", "0.11", "--n", "1", "--n0", "1",
            "--class", "eps=1e-3,lambda=1",
        ]
        assert cli.main(argv) == cli.EXIT_OK
        (cells,) = _csv_cells(capsys.readouterr().out)
        assert cells["log2M_header_ach"] == "0.00288250853312"
        assert cells["log2M_header_conv"] == "0.00144341686967"
        assert float(cells["log2M_header_ach"]) == pytest.approx(math.log2(1 + 2e-3), rel=1e-11)
        assert float(cells["log2M_header_conv"]) == pytest.approx(-math.log2(1 - 1e-3), rel=1e-11)


@st.composite
def simulate_argv(draw):
    """`simulate` arguments: both channels, n <= 70 so that words take one or
    two 64-bit lanes, m <= 3, k_i <= 8, lambda down to 1e-300, 1-2 codebooks."""
    m = draw(st.integers(1, 3))
    lams = [
        draw(st.one_of(st.just(1e-300), st.floats(1e-300, 1 / m))) for _ in range(m - 1)
    ]
    lams.append(1.0 - sum(lams))
    argv = [
        "simulate", "--channel", draw(st.sampled_from(["bsc", "bec"])),
        "--p", repr(draw(st.sampled_from([0.0, 0.11, 0.5, 0.89, 1.0]))),
        "--n", str(draw(st.integers(1, 70))), "--trials", str(draw(st.integers(100, 300))),
        "--codebooks", str(draw(st.integers(1, 2))), "--seed", str(draw(st.integers(0, 1000))),
    ]
    for lam in lams:
        argv += ["--class", f"k={draw(st.integers(0, 8))},lambda={lam!r}"]
    return argv


class TestSimulateSweep:
    @settings(
        max_examples=200, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=simulate_argv())
    def test_every_accepted_input_gives_counts_or_a_refusal(self, argv, capsys):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        if code in (cli.EXIT_CONFIG, cli.EXIT_BUDGET):
            assert err.startswith(
                {cli.EXIT_CONFIG: "config error: ", cli.EXIT_BUDGET: "resource budget exceeded: "}[code]
            )
            return
        assert code in (cli.EXIT_OK, cli.EXIT_ACCEPTANCE) and err == ""
        rows = _csv_cells(out)
        for cells in rows:
            errors, trials = int(cells["errors"]), int(cells["trials"])
            assert 0 <= errors <= trials
            rate = errors / trials
            se = math.sqrt(rate * (1.0 - rate) / trials)
            limit = float(cells["dt_bound"]) + 3.0 * se + cli.DT_BOUND_SLACK
            assert (cells["pass"] == "1") == (rate <= limit)
        assert (code == cli.EXIT_ACCEPTANCE) == any(cells["pass"] == "0" for cells in rows)


class TestSimulateCommand:
    def test_deterministic_bytes(self, tmp_path):
        args = [
            "simulate", "--channel", "bec", "--p", "0.5", "--n", "64",
            "--class", "k=4,lambda=0.5", "--class", "k=2,lambda=0.5",
            "--trials", "2000", "--seed", "11",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(a)]) == 0
        assert cli.main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("channel, p", [("bec", "0.5"), ("bsc", "0.11")], ids=["bec", "bsc"])
    def test_thread_env_does_not_change_output(self, tmp_path, monkeypatch, channel, p):
        args = [
            "simulate", "--channel", channel, "--p", p, "--n", "64",
            "--class", "k=4,lambda=0.5", "--class", "k=6,lambda=0.5",
            "--trials", "3000", "--seed", "5",
        ]
        monkeypatch.setenv("UMP_THREADS", "1")
        a = tmp_path / "t1.csv"
        cli.main(args + ["--out", str(a)])
        monkeypatch.setenv("UMP_THREADS", "4")
        b = tmp_path / "t4.csv"
        cli.main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_noiseless_single_codeword_passes(self, tmp_path):
        out = tmp_path / "clean.csv"
        code = cli.main(
            [
                "simulate", "--channel", "bsc", "--p", "0", "--n", "16",
                "--class", "k=0,lambda=1", "--trials", "500", "--out", str(out),
            ]
        )
        assert code == 0
        row = [l for l in out.read_text().splitlines() if not l.startswith("#")][1]
        cells = dict(zip(cli.SIMULATE_COLUMNS, row.split(",")))
        assert cells["errors"] == "0" and cells["pass"] == "1"

    def test_useless_channel_meets_a_unit_bound(self, tmp_path):
        # BSC(1/2) errs on every trial and the DT bound is exactly 1, which
        # evaluates to 1 - 1e-14; the check's rounding slack lets it pass
        out = tmp_path / "useless.csv"
        code = cli.main(
            [
                "simulate", "--channel", "bsc", "--p", "0.5", "--n", "32",
                "--class", "k=5,lambda=0.5", "--class", "k=2,lambda=0.5",
                "--trials", "3000", "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert [dict(zip(cli.SIMULATE_COLUMNS, r.split(",")))["pass"] for r in rows] == ["1", "1"]

    def test_crossover_next_to_half_runs(self, tmp_path):
        # the expanded BSC density len + t log2 p + (len - t) log2(1-p) rose
        # inside its falling run at this p, and the decoder refused it (exit 2)
        out = tmp_path / "half.csv"
        argv = [
            "simulate", "--channel", "bsc", "--p", "0.4999999999999992", "--n", "63",
            "--class", "k=0,lambda=1", "--trials", "200", "--out", str(out),
        ]
        assert cli.main(argv) == cli.EXIT_OK

    def test_codebooks_rebuild_from_seed_and_index(self, tmp_path):
        # codebook s is drawn from SeedSequence([seed, s, 0]) and its Monte
        # Carlo trials from a seed that SeedSequence([seed, s, 1]) gives, so
        # the run's flags reproduce every count
        out = tmp_path / "o.csv"
        argv = [
            "simulate", "--channel", "bec", "--p", "0.8", "--n", "32",
            "--class", "k=3,lambda=0.5", "--class", "k=2,lambda=0.5", "--trials", "200",
            "--codebooks", "2", "--seed", "7", "--out", str(out),
        ]
        assert cli.main(argv) == cli.EXIT_OK
        spec = ChannelSpec(ChannelKind.BEC, 0.8, 32)
        errors = np.zeros(2, dtype=np.int64)
        for s in range(2):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([7, s, 0])))
            code = cosets.build_coset_code(spec, [3, 2], SimplexWeights([0.5, 0.5]), rng)
            seed = int(np.random.SeedSequence([7, s, 1]).generate_state(1, dtype=np.uint64)[0])
            errors += cosets.monte_carlo_error(code, spec, 200, seed)
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        column = rows[0].index("errors")
        assert [int(r[column]) for r in rows[1:]] == errors.tolist()


class TestTradeoffCommand:
    def _rows(self, out_path):
        lines = [
            l for l in out_path.read_text().splitlines()
            if not l.startswith("#")
        ]
        header = lines[0].split(",")
        return [dict(zip(header, l.split(","))) for l in lines[1:]]

    def test_uniform_prior_argmax_uniform(self, tmp_path):
        out = tmp_path / "t.csv"
        cli.main(
            [
                "tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "500",
                "--class", "eps=1e-3,lambda=0.5", "--class", "eps=1e-3,lambda=0.5",
                "--mu", "0.5,0.5", "--grid", "0.05", "--out", str(out),
            ]
        )
        best = [r for r in self._rows(out) if r["is_argmax"] == "1"]
        assert len(best) == 1
        assert float(best[0]["lambda_1"]) == pytest.approx(0.5)
        assert float(best[0]["kl_loss"]) == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_prior_argmax_corner(self, tmp_path):
        out = tmp_path / "t2.csv"
        cli.main(
            [
                "tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "500",
                "--class", "eps=1e-3,lambda=0.5", "--class", "eps=1e-3,lambda=0.5",
                "--mu", "1,0", "--grid", "0.25", "--out", str(out),
            ]
        )
        best = [r for r in self._rows(out) if r["is_argmax"] == "1"]
        assert float(best[0]["lambda_1"]) == 1.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_simplex_grid_order(self, m, monkeypatch):
        # every composition of steps into m parts, in lexicographic order, in
        # blocks of at most TRADEOFF_SLICE_ROWS rows, a block boundary anywhere
        for size in (1, 3, 7, cli.TRADEOFF_SLICE_ROWS):
            monkeypatch.setattr(cli, "TRADEOFF_SLICE_ROWS", size)
            for steps in range(1, 9):
                want = [
                    list(comp)
                    for comp in itertools.product(range(steps + 1), repeat=m)
                    if sum(comp) == steps
                ]
                blocks = list(cli._compositions(m, steps))
                assert all(0 < len(block) <= size for block in blocks)
                assert [row for block in blocks for row in block.tolist()] == want

    @pytest.mark.parametrize(
        "mu, steps",
        [
            ((1.0,), 7),
            ((0.3, 0.7), 40),
            ((1.0, 0.0), 9),
            ((0.0, 1.0), 9),
            ((0.5, 0.25, 0.25), 30),
            ((0.5, 0.0, 0.5), 25),
            ((0.15, 0.35, 0.5), 60),
            ((0.1, 0.2, 0.3, 0.4), 16),
            ((0.0, 0.3, 0.0, 0.7), 12),
            ((0.5, 0.25, 0.25), 1412),
        ],
    )
    def test_losses_are_kl_divergence_bit_for_bit(self, mu, steps):
        # each point's table sum against kl_divergence_bits, compared as float.hex so
        # that one ulp, the sign of a zero and inf all count; an ulp can move which of
        # two tied points is the first argmax. Every grid has points with lambda_i = 0.
        got, want = [], []
        for counts, losses in cli._simplex_points(mu, steps):
            got += map(float.hex, losses.tolist())
            want += (kl_divergence_bits(mu, [c / steps for c in point]).hex() for point in counts.tolist())
        assert len(got) == math.comb(steps + len(mu) - 1, len(mu) - 1)
        assert got == want

    def test_sweep_memory_per_point(self, monkeypatch):
        # one n of m = 3 on a 445-step grid, every piece dropped as it comes: the peak
        # traced allocation stays within 1.2 x 145 bytes a point, the peak of the
        # row-at-a-time loop this build replaced, measured the same way. Building the
        # whole counts array and the whole lambda-prefix %-format at once takes 210.
        # 2^10-row slices keep the per-slice text small next to what each point keeps.
        monkeypatch.setattr(cli, "TRADEOFF_SLICE_ROWS", 1 << 10)
        cfg = cli.build_config(
            ["tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "1000",
             "--class", "eps=1e-3,lambda=0.5", "--class", "eps=1e-2,lambda=0.25",
             "--class", "eps=1e-1,lambda=0.25", "--mu", "0.5,0.25,0.25", "--grid", repr(1 / 445)]
        )
        tracemalloc.start()
        try:
            collections.deque(cli.tradeoff_text(cfg), maxlen=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 145 * math.comb(447, 2)

    def test_grid_point_count(self, tmp_path):
        out = tmp_path / "t3.csv"
        cli.main(
            [
                "tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "200",
                "--class", "eps=0.1,lambda=0.5", "--class", "eps=0.1,lambda=0.5",
                "--mu", "0.5,0.5", "--grid", "0.1", "--out", str(out),
            ]
        )
        assert len(self._rows(out)) == 11

    SWEEP = [
        "tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "150,400",
        "--class", "eps=1e-3,lambda=0.5", "--class", "eps=0.1,lambda=0.5", "--mu", "0.5,0.5",
    ]

    def test_over_budget_leaves_no_file(self, tmp_path):
        out = tmp_path / "t.csv"
        # 2 n values x (10^6 + 1) points: over the 10^6-row budget
        assert cli.main(self.SWEEP + ["--grid", "1e-6", "--out", str(out)]) == cli.EXIT_BUDGET
        assert not out.exists()

    def test_failing_rate_leaves_no_file(self, tmp_path, monkeypatch):
        # every rate is computed before the output opens: a failure at the last n writes nothing;
        # an internal fault is not a config error, so it surfaces
        def fail_at_last_n(spec, *args):
            if spec.n == 400:
                raise ValueError("expected_rate failed")
            return expected_rate(spec, *args)

        monkeypatch.setattr(cli, "expected_rate", fail_at_last_n)
        out = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="expected_rate failed"):
            cli.main(self.SWEEP + ["--grid", "0.1", "--out", str(out)])
        assert not out.exists()

    @pytest.mark.parametrize(
        "mu, eps, grid",
        [
            ((1.0,), (1e-3,), 0.1),
            ((0.3, 0.7), (1e-3, 0.1), 0.05),
            ((1.0, 0.0), (1e-3, 0.1), 0.25),
            ((0.5, 0.25, 0.25), (1e-3, 1e-2, 0.1), 0.1),
            ((0.5, 0.0, 0.5), (1e-3, 1e-2, 0.1), 0.2),
            ((0.5, 0.5), (1e-3, 1e-3), 1.0),  # no finite point: no argmax
        ],
    )
    def test_cells_match_oracle(self, tmp_path, mu, eps, grid):
        # every streamed cell against one built here from the library formulas
        m, steps, n_list = len(mu), round(1 / grid), [150, 400]
        argv = ["tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "150,400"]
        for e in eps:
            argv += ["--class", f"eps={e},lambda={1 / m!r}"]
        out = tmp_path / "t.csv"
        argv += ["--mu", ",".join(map(str, mu)), "--grid", str(grid), "--out", str(out)]
        assert cli.main(argv) == 0
        lams = [
            tuple(c / steps for c in comp)
            for comp in itertools.product(range(steps + 1), repeat=m)
            if sum(comp) == steps
        ]
        want = []
        for n in n_list:
            spec = ChannelSpec(ChannelKind.BSC, 0.11, n)
            losses = [kl_divergence_bits(mu, lam) for lam in lams]
            rates = [expected_rate(spec, eps, mu, [loss])[0] for loss in losses]
            best = rates.index(max(rates)) if max(rates) > -math.inf else None
            for i, (lam, rate, loss) in enumerate(zip(lams, rates, losses)):
                want.append(
                    [str(n), *(f"{v:.12g}" for v in lam), f"{rate:.12g}", f"{loss / n:.12g}"]
                    + ["1" if i == best else "0"]
                )
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].split(",") == cli.tradeoff_columns(m)
        assert [l.split(",") for l in lines[1:]] == want
        flags = [row[-1] for row in want]
        assert flags.count("1") == (0 if grid == 1.0 else len(n_list))
        if m > 1:
            assert ["-inf", "inf"] in [row[-3:-1] for row in want]

    def test_one_n_rows_span_slices(self, tmp_path):
        # 40001 rows at one n are formatted in three slices of at most 2^14
        # rows; the argmax, at lambda = mu (row 20000), lies in the second
        steps, n = 40000, 300
        eps, mu = (1e-3, 0.1), (0.5, 0.5)
        out = tmp_path / "t.csv"
        argv = ["tradeoff", "--channel", "bsc", "--p", "0.11", "--n", str(n)]
        argv += ["--class", "eps=1e-3,lambda=0.5", "--class", "eps=0.1,lambda=0.5"]
        assert cli.main(argv + ["--mu", "0.5,0.5", "--grid", "2.5e-05", "--out", str(out)]) == 0
        lams = [(c / steps, (steps - c) / steps) for c in range(steps + 1)]
        losses = [kl_divergence_bits(mu, lam) for lam in lams]
        rates = expected_rate(ChannelSpec(ChannelKind.BSC, 0.11, n), eps, mu, losses)
        want = "".join(
            ",".join(
                [str(n), *(f"{v:.12g}" for v in lam), f"{rate:.12g}", f"{loss / n:.12g}"]
                + ["1" if i == steps // 2 else "0"]
            )
            + "\n"
            for i, (lam, rate, loss) in enumerate(zip(lams, rates, losses))
        )
        body = out.read_text().split("is_argmax\n", 1)[1]
        assert rates.tolist().index(max(rates)) == steps // 2
        assert body == want


@st.composite
def tradeoff_sweeps(draw):
    """`tradeoff` arguments on both channels at positive dispersion: m = 1..4,
    mu with zero entries, 1-3 blocklengths; with where the argmax row of the
    first n should fall in its slice ("first", "last" or a drawn slice size)."""
    m = draw(st.integers(1, 4))
    steps = draw(st.sampled_from([1, 2, 3, 5, 10, 20, 50][: 8 - m]))
    shares = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
    channel = draw(st.sampled_from(["bsc", "bec"]))
    p = draw(st.sampled_from([0.02, 0.11, 0.3, 0.89] if channel == "bsc" else [0.1, 0.5, 0.9]))
    n_list = draw(st.lists(st.integers(1, 5000), min_size=1, max_size=3))
    argv = ["tradeoff", "--channel", channel, "--p", repr(p), "--n", ",".join(map(str, n_list))]
    for _ in range(m):
        argv += ["--class", f"eps={draw(st.sampled_from([1e-6, 1e-3, 0.1, 0.5]))!r},lambda={1 / m!r}"]
    argv += ["--mu", ",".join(repr(s / sum(shares)) for s in shares), "--grid", repr(1 / steps)]
    return argv, draw(st.one_of(st.sampled_from(["first", "last"]), st.integers(1, 40)))


def _tradeoff_oracle(cfg):
    """The CSV of `cfg` built row by row from the library formulas, and the
    argmax index of each n (None when every rate is -inf)."""
    m, steps = len(cfg.mu), round(1 / cfg.grid)
    lams = [
        tuple(c / steps for c in (*head, steps - sum(head)))
        for head in itertools.product(range(steps + 1), repeat=m - 1)
        if sum(head) <= steps
    ]
    eps = [c.eps for c in cfg.classes]
    text = [f"# umpbounds {umpbounds.__version__}\n"]
    text += [f"# {key} = {value}\n" for key, value in cfg.echo_items()]
    text.append(",".join(["n", *(f"lambda_{i + 1}" for i in range(m))]) + ",expected_rate,kl_loss,is_argmax\n")
    bests = []
    for n in cfg.n_list:
        spec = ChannelSpec(cfg.channel, cfg.p, n)
        losses = [kl_divergence_bits(cfg.mu, lam) for lam in lams]
        rates = [expected_rate(spec, eps, cfg.mu, [loss])[0] for loss in losses]
        best = rates.index(max(rates)) if max(rates) > -math.inf else None
        bests.append(best)
        for i, (lam, rate, loss) in enumerate(zip(lams, rates, losses)):
            cells = [str(n), *(f"{v:.12g}" for v in lam), f"{rate:.12g}", f"{loss / n:.12g}"]
            text.append(",".join(cells + ["1" if i == best else "0"]) + "\n")
    return "".join(text), bests


class TestTradeoffSweep:
    @settings(
        max_examples=60, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(sweep=tradeoff_sweeps())
    @example(  # every point has a zero lambda_i at some mu_i > 0: no argmax
        sweep=(["tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "150,400",
                "--class", "eps=0.001,lambda=0.5", "--class", "eps=0.1,lambda=0.5",
                "--mu", "0.5,0.5", "--grid", "1.0"], "first"),
    )
    def test_csv_bytes_match_oracle(self, sweep, tmp_path):
        argv, where = sweep
        want, bests = _tradeoff_oracle(cli.build_config(argv))
        # a slice size that puts the first n's argmax row first or last in its slice
        size = {"first": bests[0] or 1, "last": (bests[0] or 0) + 1}.get(where, where)
        out = tmp_path / "t.csv"
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "TRADEOFF_SLICE_ROWS", size)
            assert cli.main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == want


def test_import_loads_no_scipy():
    # the package needs only numpy at run time; scipy is a test-only reference
    src = str(Path(umpbounds.__file__).resolve().parents[1])
    code = (
        "import sys, umpbounds.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_single_thread_run_loads_no_thread_pool(tmp_path):
    # the pools import concurrent.futures (and with it logging and queue) only when used
    src = str(Path(umpbounds.__file__).resolve().parents[1])
    bound = ["bound", "--channel", "bsc", "--p", "0.11", "--n", "100,200",
             "--class", "eps=1e-3,lambda=1", "--out", str(tmp_path / "b.csv")]
    simulate = ["simulate", "--channel", "bec", "--p", "0.5", "--n", "16",
                "--class", "k=4,lambda=1", "--trials", "100", "--out", str(tmp_path / "s.csv")]
    code = (
        "import sys, umpbounds.cli as cli; "
        f"print(cli.main({bound!r}), cli.main({simulate!r}), 'concurrent.futures' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src, "UMP_THREADS": "1"},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "0 0 False"


def test_package_names_resolve_on_first_access():
    # in a fresh interpreter: the bare import loads no layer, then every layer resolves
    src = str(Path(umpbounds.__file__).resolve().parents[1])
    layers = ["achievability", "asymptotics", "channel", "cli", "converse", "cosets", "numerics"]
    code = (
        "import sys, umpbounds as ub; "
        "print(sorted(m for m in sys.modules if m.startswith('umpbounds.'))); "
        f"print([getattr(ub, layer).__name__ for layer in {layers!r}])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.splitlines() == ["[]", repr([f"umpbounds.{layer}" for layer in layers])]


def test_package_names_are_their_layers_objects():
    for name in umpbounds.__all__:
        value = getattr(umpbounds, name)
        if name != "__version__":
            assert getattr(sys.modules[value.__module__], name) is value, name
    assert cosets.ResourceBudgetError is umpbounds.ResourceBudgetError
    assert set(umpbounds.__all__) | {"cli", "converse", "cosets"} <= set(dir(umpbounds))
    namespace = {}
    exec("from umpbounds import *", namespace)
    assert {name: namespace[name] for name in umpbounds.__all__} == {
        name: getattr(umpbounds, name) for name in umpbounds.__all__
    }


SMALL_RUNS = {
    "bound": ["bound", "--channel", "bsc", "--p", "0.11", "--n", "100",
              "--class", "eps=1e-3,lambda=1"],
    "tradeoff": ["tradeoff", "--channel", "bsc", "--p", "0.11", "--n", "100",
                 "--class", "eps=1e-3,lambda=1", "--mu", "1"],
    "simulate": ["simulate", "--channel", "bec", "--p", "0.5", "--n", "16",
                 "--class", "k=4,lambda=1", "--trials", "100"],
}


@pytest.mark.parametrize(
    "command, loaded",
    [("bound", ["converse"]), ("tradeoff", []), ("simulate", ["cosets"])],
    ids=["bound", "tradeoff", "simulate"],
)
def test_each_command_loads_only_its_own_layers(tmp_path, command, loaded):
    # set-up loads the command's layers; the run loads no further umpbounds module
    src = str(Path(umpbounds.__file__).resolve().parents[1])
    argv = SMALL_RUNS[command] + ["--out", str(tmp_path / "out.csv")]
    code = (
        "import sys, umpbounds.cli as cli\n"
        "layers = lambda: sorted(m for m in sys.modules if m.startswith('umpbounds.'))\n"
        f"cfg = cli.build_config({argv!r})\n"
        "print(layers())\n"
        "cli.run(cfg)\n"
        "print(layers())"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    )
    want = sorted(f"umpbounds.{layer}" for layer in
                  ["achievability", "asymptotics", "channel", "cli", "numerics", *loaded])
    assert out.stdout.splitlines() == [repr(want)] * 2


@pytest.mark.parametrize("command", ["bound", "tradeoff", "simulate"])
def test_set_up_imports_no_statistics_or_dataclasses(tmp_path, command):
    # statistics loads fractions and decimal; a dataclass compiles its methods
    # at every import
    src = str(Path(umpbounds.__file__).resolve().parents[1])
    argv = SMALL_RUNS[command] + ["--out", str(tmp_path / "out.csv")]
    code = (
        "import sys, umpbounds.cli as cli\n"
        f"cli.build_config({argv!r})\n"
        "print(sorted({'statistics', 'fractions', 'decimal', 'dataclasses'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


_BSC = ChannelKind.BSC

# each record with every field given, in order, by keyword
RECORDS = [
    (LogValue, dict(log_magnitude=-1.5)),
    (NPBetaResult, dict(log_beta=LogValue(-2.0), threshold_weight_L=3, randomization_rho=0.25)),
    (ModDevPoint, dict(exponent=0.5, speed=2.0, predicted_log2_error=None,
                       error_bounded_away=True)),
    (ChannelStats, dict(capacity=0.5, dispersion=0.25)),
    (ChannelSpec, dict(kind=_BSC, p=0.11, n=100)),
    (HeaderSplit, dict(n0=3)),
    (SimplexWeights, dict(weights=(0.5, 0.5))),
    (cli.ClassSpec, dict(eps=1e-3, k=None, lam=0.5)),
    (cli.SweepConfig, dict(
        command="bound", channel=_BSC, p=0.11, n_list=[100, 200],
        classes=[cli.ClassSpec(eps=1e-3, lam=1.0)], mu=None, n0="auto", seed=0,
        trials=10000, codebooks=1, grid=0.01, eps0_grid=1000, out=None, threads=1,
    )),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_immutable_values(cls, fields):
    record = cls(**fields)
    assert record == cls(**{k: list(v) if isinstance(v, list) else v for k, v in fields.items()})
    assert [getattr(record, k) for k in fields] == list(fields.values())
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)


def test_record_defaults():
    assert cli.ClassSpec() == cli.ClassSpec(eps=None, k=None, lam=None)
    cfg = cli.SweepConfig("bound", _BSC, 0.11, [100], [])
    assert (cfg.mu, cfg.n0, cfg.seed, cfg.trials, cfg.codebooks, cfg.grid, cfg.eps0_grid,
            cfg.out, cfg.threads) == (None, "auto", 0, 10000, 1, 0.01, 1000, None, 1)


def test_spectrum_log_q_is_built_once_and_read_only():
    shared = info_density_spectrum(_BSC, 12, 0.11)
    spectrum = InfoDensitySpectrum(_BSC, shared.log_mass, shared.density)
    assert "log_q" not in vars(spectrum)
    log_q = spectrum.log_q
    assert spectrum.log_q is log_q and vars(spectrum) == {"log_q": log_q}
    with pytest.raises(ValueError):
        log_q[0] = 0.0
    with pytest.raises(AttributeError):
        spectrum.density = log_q
