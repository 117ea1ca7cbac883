import collections
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import umpbounds
from umpbounds import cli
from umpbounds.achievability import max_log2M_dt, max_log2M_header_ach
from umpbounds.asymptotics import expected_rate, kl_divergence_bits
from umpbounds.channel import ChannelKind, ChannelSpec


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

    def test_file_keys_are_flag_names(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text(
            "# a comment\nchannel = bec\np = 0.5\nn = 100:300:100\n"
            "class = eps=1e-3,lambda=0.5\nclass = eps=1e-2,lambda=0.5\n"
            "eps0_grid = 5\ncodebook-out = cb\nmu = 0.5,0.5\n"
        )
        cfg = _cfg("tradeoff", "--config", str(conf), "--class", "eps=0.1,lambda=1", "--mu", "1")
        assert cfg.channel is ChannelKind.BEC and cfg.n_list == [100, 200, 300]
        assert cfg.eps0_grid == 5 and cfg.codebook_out == "cb"
        assert [(c.eps, c.lam) for c in cfg.classes] == [(0.1, 1.0)]  # --class replaces the file's
        assert cfg.mu == [1.0]

    @pytest.mark.parametrize("key", ["trails", "seeed", "tri", "eps0", "classes", "config", "help"])
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

    def test_budget_error_is_3(self, capsys, tmp_path):
        code = cli.main(
            [
                "simulate", "--channel", "bec", "--p", "0.5", "--n", "64",
                "--class", "k=25,lambda=1", "--trials", "200",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == cli.EXIT_BUDGET
        assert "budget" in capsys.readouterr().err

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

        monkeypatch.setattr(cli, "monte_carlo_error", no_simulation)
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

    def test_tradeoff_row_budget(self, capsys, monkeypatch):
        # C(10002, 2) ~ 5e7 points per n: refused before any point is built
        def no_enumeration(*args):
            raise AssertionError("the simplex grid was enumerated")

        monkeypatch.setattr(cli, "_simplex_grid", no_enumeration)
        assert cli.main(self.TRADEOFF + ["--grid", "1e-4"]) == cli.EXIT_BUDGET
        assert "budget" in capsys.readouterr().err

    def test_tradeoff_at_row_budget_runs(self, monkeypatch, tmp_path):
        # 2 n values x C(12, 2) = 132 rows: at a budget of 132 it runs
        monkeypatch.setattr(cli, "MAX_TRADEOFF_ROWS", 132)
        out = tmp_path / "t.csv"
        assert cli.main(self.TRADEOFF + ["--grid", "0.1", "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 1 + 132
        monkeypatch.setattr(cli, "MAX_TRADEOFF_ROWS", 131)
        assert cli.main(self.TRADEOFF + ["--grid", "0.1", "--out", str(out)]) == cli.EXIT_BUDGET


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
            def counted(*args, _name=name, _fn=getattr(cli, name)):
                if _name in rates:  # (spec, eps, lam)
                    calls[(_name, args[0].n, args[1], args[2])] += 1
                else:  # (rate, spec, eps, m, all_eps, n0)
                    calls[(_name, args[1].n, args[2])] += 1
                return _fn(*args)

            monkeypatch.setattr(cli, name, counted)
        argv = ["bound", "--channel", "bsc", "--p", "0.11", "--n", "200,100", "--n0", n0]
        for eps, lam in classes:
            argv += ["--class", f"eps={eps},lambda={lam}"]
        assert len(cli.bound_rows(_cfg(*argv))) == 2 * len(classes)
        expected = collections.Counter()
        for n in (200, 100):
            for eps, lam in set(classes):
                expected.update((name, n, eps, lam) for name in rates)
            for eps in {eps for eps, _ in classes}:
                expected[("best_over_splits", n, eps)] = 2
        assert calls == expected

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

    def test_twelve_significant_digits(self):
        assert cli._fmt(1 / 3) == "0.333333333333"
        assert cli._fmt(1234567.0) == "1234567"


SWEEP_P = [0.0, 1e-300, 1e-9, 0.11, 0.5 - 1e-7, 0.5, 0.5 + 1e-7, 0.89, 1.0]
BOUND_RATES = cli.BOUND_COLUMNS[4:]


@st.composite
def bound_argv(draw):
    """`bound` arguments over the accepted range: both channels, n <= 300,
    m <= 3, eps in [1e-300, 1 - 1e-6], lambda down to 1e-300, every --n0 kind."""
    n = draw(st.integers(1, 300))
    m = draw(st.integers(1, 3))
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


def _bound_cells(csv_text):
    """One {column: cell} dict per CSV row."""
    lines = [l for l in csv_text.splitlines() if not l.startswith("#")]
    return [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]


class TestBoundSweep:
    @settings(
        max_examples=300, derandomize=True, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(argv=bound_argv())
    def test_every_accepted_input_gives_a_bound_or_a_refusal(self, argv, capsys):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        if code != cli.EXIT_OK:
            assert err.startswith(
                {cli.EXIT_CONFIG: "config error: ", cli.EXIT_BUDGET: "resource budget exceeded: "}[code]
            )
            return
        for cells in _bound_cells(out):
            rates = {c: None if cells[c] == "NA" else float(cells[c]) for c in BOUND_RATES}
            assert all(r is None or math.isfinite(r) for r in rates.values())
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

    def test_header_cells_below_one_bit_can_cross(self, capsys):
        # both cells mean one codeword: ach is log2(1 + 2 eps), the DT bound's
        # (M - 1)/2 on an empty payload, and conv is -log2(1 - eps)
        argv = [
            "bound", "--channel", "bsc", "--p", "0.11", "--n", "1", "--n0", "1",
            "--class", "eps=1e-3,lambda=1",
        ]
        assert cli.main(argv) == cli.EXIT_OK
        (cells,) = _bound_cells(capsys.readouterr().out)
        assert cells["log2M_header_ach"] == "0.00288250853312"
        assert cells["log2M_header_conv"] == "0.00144341686967"
        assert float(cells["log2M_header_ach"]) == pytest.approx(math.log2(1 + 2e-3), rel=1e-11)
        assert float(cells["log2M_header_conv"]) == pytest.approx(-math.log2(1 - 1e-3), rel=1e-11)


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

    def test_codebook_persistence(self, tmp_path):
        prefix = tmp_path / "book"
        cli.main(
            [
                "simulate", "--channel", "bec", "--p", "0.5", "--n", "32",
                "--class", "k=3,lambda=1", "--trials", "200",
                "--codebooks", "2", "--codebook-out", str(prefix),
                "--out", str(tmp_path / "o.csv"),
            ]
        )
        from umpbounds.cosets import load_codebook

        for s in range(2):
            code, spec = load_codebook(f"{prefix}_{s}")
            assert spec.n == 32 and code.k == (3,)


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
    def test_simplex_grid_order(self, m):
        # every composition of steps into m parts, in lexicographic order
        for steps in range(1, 9):
            want = [
                tuple(c / steps for c in comp)
                for comp in itertools.product(range(steps + 1), repeat=m)
                if sum(comp) == steps
            ]
            assert list(cli._simplex_grid(m, steps)) == want

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
