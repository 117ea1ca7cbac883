"""Acceptance suite: one test per exit criterion, at the stated tolerances.

Each test prints one `ACCEPTANCE <k> (<name>): PASS/FAIL` line (visible with
pytest -s). Runtime budgets from the criteria are asserted where stated.
"""

import contextlib
import math
import time
from fractions import Fraction

import pytest

import conftest
import oracles
from umpbounds import cli
from umpbounds.achievability import (
    best_over_splits,
    dt_class_bound,
    header_ach_bound,
    HeaderSplit,
    max_log2M_dt,
    max_log2M_header_ach_best,
)
from umpbounds.channel import ChannelKind, ChannelSpec
from umpbounds.converse import (
    converse_eps_bec,
    converse_max_log2M_bsc,
    header_conv_eps_bec,
    header_conv_max_log2M,
    header_conv_max_log2M_bsc,
    np_beta_bsc,
)
from umpbounds.asymptotics import normal_approx_log2M

BSC, BEC = ChannelKind.BSC, ChannelKind.BEC

P_GRID = [(0.11, Fraction(11, 100)), (0.25, Fraction(1, 4)), (0.5, Fraction(1, 2))]
LAM_GRID = [(1.0, Fraction(1)), (0.5, Fraction(1, 2)), (1 / 3, Fraction(1, 3))]
N_MAX = 64
REL = 1e-10


def _announce(line):
    # immediate print for -s runs, plus the terminal-summary echo so the
    # verdicts survive output capture
    print(f"\n{line}")
    conftest.ACCEPTANCE_LINES.append(line)


@contextlib.contextmanager
def criterion(num, name, budget_s=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s budget"
    _announce(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.1f}s]")


def _rel_match(got: float, want: Fraction) -> bool:
    w = float(want)
    if w == 0.0:
        return got == 0.0
    return abs(got - w) <= REL * w


class _OracleCache:
    def __init__(self):
        self.dt = {}
        self.conv = {}

    def dt_oracle(self, kind, length, pf):
        key = (kind, length, pf)
        if key not in self.dt:
            build = oracles.bsc_dt_oracle if kind is BSC else oracles.bec_dt_oracle
            self.dt[key] = build(length, pf)
        return self.dt[key]

    def conv_oracle(self, length, pf):
        key = (length, pf)
        if key not in self.conv:
            self.conv[key] = oracles.BecConvOracle(length, pf)
        return self.conv[key]


def test_criterion_1_oracle_equivalence_bounds():
    cache = _OracleCache()
    with criterion(1, "oracle equivalence, bounds", budget_s=120):
        for kind in (BSC, BEC):
            for p, pf in P_GRID:
                for n in range(1, N_MAX + 1):
                    spec = ChannelSpec(kind, p, n)
                    dt_oracle = cache.dt_oracle(kind, n, pf)
                    splits = [(max(1, n // 2), 3)]
                    if n >= 3:
                        splits.append((max(1, n // 3), 3))
                    split_oracles = [
                        (
                            n0,
                            m,
                            cache.dt_oracle(kind, n0, pf),
                            cache.dt_oracle(kind, n - n0, pf),
                        )
                        for n0, m in splits
                    ]
                    for log2M in range(n + 1):
                        M = 2**log2M
                        for lam, lamf in LAM_GRID:
                            got = dt_class_bound(spec, float(log2M), lam)
                            want = min(Fraction(1), dt_oracle.eval(M / lamf))
                            assert _rel_match(got, want), (
                                "dt", kind, n, p, log2M, lam, got, float(want))
                        for n0, m, head, payload in split_oracles:
                            got = header_ach_bound(spec, HeaderSplit(n0), m, float(log2M))
                            want = min(
                                Fraction(1),
                                head.eval(Fraction(m - 1, 2))
                                + payload.eval(Fraction(M - 1, 2)),
                            )
                            assert _rel_match(got, want), (
                                "header", kind, n, p, n0, m, log2M, got, float(want))
                        if kind is BEC:
                            conv_oracle = cache.conv_oracle(n, pf)
                            for lam, lamf in LAM_GRID:
                                got = converse_eps_bec(spec, float(log2M), lam)
                                want = conv_oracle.eval(lamf / M)
                                assert _rel_match(got, want), (
                                    "conv", n, p, log2M, lam, got, float(want))
                            n0 = max(1, n // 2)
                            got = header_conv_eps_bec(spec, n0, 3, float(log2M))
                            want = min(
                                Fraction(1),
                                cache.conv_oracle(n0, pf).eval(Fraction(1, 3))
                                + cache.conv_oracle(n - n0, pf).eval(Fraction(1, M)),
                            )
                            assert _rel_match(got, want), (
                                "header_conv", n, p, log2M, got, float(want))

        # BSC header converse: its atomic quantity is the NP beta of both
        # block halves; check it against exact rational shells, then the
        # composed grid-search output at sampled points
        for p, pf in P_GRID[:2]:
            for n in range(0, N_MAX + 1, 4):
                for alpha, af in [
                    (0.001, Fraction(1, 1000)),
                    (0.1, Fraction(1, 10)),
                    (0.9, Fraction(9, 10)),
                    (0.999, Fraction(999, 1000)),
                ]:
                    if n == 0:
                        continue
                    got = np_beta_bsc(n, p, alpha).log_beta.to_linear()
                    want = oracles.np_beta_exact_shells(n, pf, af)
                    assert _rel_match(got, want), ("beta", n, p, alpha)
        for n, n0 in [(32, 8), (64, 16), (64, 32)]:
            spec = ChannelSpec(BSC, 0.11, n)
            eps = 0.05
            got = header_conv_max_log2M_bsc(spec, eps, 3, n0, [eps], eps0_points=50)
            # oracle-side composition: smallest feasible grid eps0, then the
            # exact payload beta at that eps0
            grid = [eps * i / 49 for i in range(50)]
            pf = Fraction(11, 100)
            best = None
            for eps0 in grid:
                beta_h = oracles.np_beta_exact_shells(n0, pf, 1 - Fraction(eps0))
                if Fraction(3) <= 1 / beta_h:
                    best = eps0
                    break
            assert best is not None
            beta_p = oracles.np_beta_exact_shells(
                n - n0, pf, 1 - (Fraction(eps) - Fraction(best))
            )
            want = -(
                math.log(beta_p.numerator) - math.log(beta_p.denominator)
            ) / math.log(2)
            assert got == pytest.approx(want, abs=1e-6), (n, n0, got, want)


def test_criterion_2_oracle_equivalence_np_beta():
    with criterion(2, "oracle equivalence, Neyman-Pearson", budget_s=60):
        for p, pf in [(0.11, Fraction(11, 100)), (0.25, Fraction(1, 4))]:
            for n in range(1, 9):
                for alpha, af in [
                    (0.1, Fraction(1, 10)),
                    (0.5, Fraction(1, 2)),
                    (0.9, Fraction(9, 10)),
                    (0.99, Fraction(99, 100)),
                ]:
                    got = np_beta_bsc(n, p, alpha).log_beta.to_linear()
                    want = oracles.np_beta_exact_outputs(n, pf, af)
                    w = float(want)
                    assert abs(got - w) <= 1e-12 * w, (n, p, alpha, got, w)


def test_criterion_3_homogeneous_reduction():
    with criterion(3, "homogeneous reduction of the header path"):
        for kind, p, pf in [
            (BSC, 0.11, Fraction(11, 100)),
            (BSC, 0.5, Fraction(1, 2)),
            (BEC, 0.25, Fraction(1, 4)),
            (BEC, 0.5, Fraction(1, 2)),
        ]:
            for n in (8, 24, 48, 64):
                spec = ChannelSpec(kind, p, n)
                oracle = (
                    oracles.bsc_dt_oracle(n, pf)
                    if kind is BSC
                    else oracles.bec_dt_oracle(n, pf)
                )
                for log2M in range(n + 1):
                    got = header_ach_bound(spec, HeaderSplit(0), 1, float(log2M))
                    want = min(Fraction(1), oracle.eval(Fraction(2**log2M - 1, 2)))
                    assert _rel_match(got, want), (kind, n, log2M, got, float(want))


DOMINANCE_NS = (500, 1000, 2000)
EPS_FIG = 1e-3
LAM_FIG = 1 / 3


def _dominance_rates(kind, p):
    out = {}
    for n in DOMINANCE_NS:
        spec = ChannelSpec(kind, p, n)
        ump = max_log2M_dt(spec, EPS_FIG, LAM_FIG)
        header = max_log2M_header_ach_best(spec, EPS_FIG, 3, [EPS_FIG] * 3)
        out[n] = (ump, header)
    return out


def test_criterion_4_header_dominance():
    with criterion(4, "UMP rate strictly beats best header rate", budget_s=300):
        for kind, p in [(BSC, 0.11), (BEC, 0.5)]:
            rates = _dominance_rates(kind, p)
            for n, (ump, header) in rates.items():
                assert ump is not None and header is not None, (kind, n)
                assert ump > header, (kind, n, ump, header)


def test_bec_ump_rate_beats_every_header_code():
    # the UMP DT rate exceeds the best header *converse* by 2.976, 3.528 and
    # 3.823 bits at n = 500, 1000 and 2000: no header code reaches it
    for n in DOMINANCE_NS:
        spec = ChannelSpec(BEC, 0.5, n)
        ump = max_log2M_dt(spec, EPS_FIG, LAM_FIG)
        header = best_over_splits(header_conv_max_log2M, spec, EPS_FIG, 3, [EPS_FIG] * 3)
        assert ump is not None and header is not None, n
        assert ump - header > 2.9, (n, ump, header)


def _fig_cfg(channel, p):
    return cli.SweepConfig(
        command="bound",
        channel=channel,
        p=p,
        n_list=list(DOMINANCE_NS),
        classes=[cli.ClassSpec(eps=EPS_FIG, lam=LAM_FIG) for _ in range(3)],
        threads=1,
    )


def test_criterion_5_achievability_converse_sandwich():
    with criterion(5, "achievability never exceeds converse"):
        for channel, p in [(BSC, 0.11), (BEC, 0.5)]:
            rows = cli.bound_rows(_fig_cfg(channel, p))
            assert rows, "sweep produced no rows"
            for row in rows:
                cells = dict(zip(cli.BOUND_COLUMNS, row))
                if "NA" in (cells["log2M_dt"], cells["log2M_converse"]):
                    continue
                assert float(cells["log2M_dt"]) <= float(cells["log2M_converse"]), cells
        # BEC epsilon-form: the converse floor never exceeds the DT ceiling
        for n in (64, 256, 1000):
            spec = ChannelSpec(BEC, 0.5, n)
            for log2M in range(0, n + 1, max(1, n // 16)):
                for lam, _ in LAM_GRID:
                    floor = converse_eps_bec(spec, float(log2M), lam)
                    ceiling = dt_class_bound(spec, float(log2M), lam)
                    assert floor <= ceiling, (n, log2M, lam, floor, ceiling)


def test_criterion_6_normal_approximation_remainder():
    with criterion(6, "normal-approximation remainder within log2(n)+10"):
        eps, lam = 0.1, 1 / 3
        for n in (100, 200, 500, 1000, 2000, 5000):
            spec = ChannelSpec(BSC, 0.11, n)
            normal = normal_approx_log2M(spec, eps, lam)
            dt = max_log2M_dt(spec, eps, lam)
            conv = converse_max_log2M_bsc(spec, eps, lam)
            budget = math.log2(n) + 10.0
            assert dt is not None
            assert abs(dt - normal) <= budget, (n, dt, normal, budget)
            assert abs(conv - normal) <= budget, (n, conv, normal, budget)


def test_criterion_7_coset_monte_carlo_validation():
    with criterion(7, "coset Monte Carlo within DT bound", budget_s=300):
        cfg = cli.SweepConfig(
            command="simulate",
            channel=BEC,
            p=0.5,
            n_list=[64],
            classes=[cli.ClassSpec(k=8, lam=0.5), cli.ClassSpec(k=4, lam=0.5)],
            seed=20260811,
            trials=100_000,
            codebooks=20,
            threads=2,
        )
        rows, all_pass = cli.simulate_rows(cfg)
        assert all_pass, rows
        for row in rows:
            cells = dict(zip(cli.SIMULATE_COLUMNS, row))
            rate = float(cells["error_rate"])
            bound = float(cells["dt_bound"])
            se = float(cells["std_error"])
            assert rate <= bound + 3.0 * se, cells


def test_criterion_8_proportional_betting_argmax():
    with criterion(8, "betting argmax within one grid step of the prior"):
        mu = (0.5, 0.25, 0.25)
        cfg = cli.SweepConfig(
            command="tradeoff",
            channel=BSC,
            p=0.11,
            n_list=[1000],
            classes=[cli.ClassSpec(eps=1e-3, lam=1 / 3) for _ in range(3)],
            mu=list(mu),
            grid=0.01,
            threads=1,
        )
        rows = cli.tradeoff_rows(cfg)
        cols = cli.tradeoff_columns(3)
        best = [dict(zip(cols, r)) for r in rows if r[-1] == "1"]
        assert len(best) == 1
        lam = [float(best[0][f"lambda_{i+1}"]) for i in range(3)]
        assert max(abs(a - b) for a, b in zip(lam, mu)) <= 0.01 + 1e-9, lam


def test_criterion_9_simulate_determinism(tmp_path, monkeypatch):
    with criterion(9, "byte-identical simulate output across runs and threads"):
        args = [
            "simulate", "--channel", "bec", "--p", "0.5", "--n", "64",
            "--class", "k=8,lambda=0.5", "--class", "k=4,lambda=0.5",
            "--trials", "20000", "--seed", "99",
        ]
        outputs = []
        for name, threads in [("a", "1"), ("b", "1"), ("c", "4")]:
            monkeypatch.setenv("UMP_THREADS", threads)
            out = tmp_path / f"{name}.csv"
            assert cli.main(args + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], "same config+seed must be byte-identical"
        assert outputs[0] == outputs[2], "thread count must not change the artifact"
