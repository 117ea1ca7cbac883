import functools
import math
from fractions import Fraction

import mpmath

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from umpbounds import achievability
from umpbounds.achievability import (
    HeaderSplit,
    SimplexWeights,
    _log2_count_minus_one,
    best_over_splits,
    dt_class_bound,
    header_ach_bound,
    max_log2M_dt,
    max_log2M_header_ach,
    max_log2M_header_ach_best,
)
from umpbounds.channel import ChannelKind, ChannelSpec, info_density_spectrum
from umpbounds.converse import header_conv_max_log2M

BSC, BEC = ChannelKind.BSC, ChannelKind.BEC


class TestSimplexWeights:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SimplexWeights([0.5, 0.6, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            SimplexWeights([0.5, 0.6])
        for weights in ([math.nan, 0.5], [math.nan, 1.0], [0.5, 0.5, math.nan], [math.inf, 0.0]):
            with pytest.raises(ValueError):
                SimplexWeights(weights)

    def test_replace_runs_the_checks(self):
        with pytest.raises(ValueError, match=r"simplex weights must be nonnegative: \(5.0, -4.0\)"):
            SimplexWeights([1.0])._replace(weights=(5.0, -4.0))
        with pytest.raises(ValueError, match="simplex weights must sum to 1"):
            SimplexWeights._make([(0.5, 0.6)])
        assert SimplexWeights([1.0])._replace(weights=[0.5, 0.5]).weights == (0.5, 0.5)


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: HeaderSplit(-1), "n0 must be >= 0", id="header-split-negative"),
        pytest.param(
            lambda: HeaderSplit(3)._replace(n0=-5), "n0 must be >= 0, got -5", id="header-split-replace-negative"
        ),
        pytest.param(lambda: _log2_count_minus_one(-0.5), "count must be >= 1", id="count-below-1"),
        pytest.param(
            lambda: header_ach_bound(ChannelSpec(BSC, 0.11, 8), HeaderSplit(2), 3, -1.0),
            "log2M must be >= 0", id="header-ach-log2M-negative",
        ),
        pytest.param(
            lambda: header_ach_bound(ChannelSpec(BSC, 0.11, 8), HeaderSplit(9), 3, 1.0),
            r"n0 must be in \[0, n\], got 9", id="header-ach-bound-n0-past-n",
        ),
        pytest.param(
            lambda: max_log2M_header_ach(ChannelSpec(BSC, 0.11, 8), 1e-3, 3, 9, [1e-3] * 3),
            r"n0 must be in \[0, n\], got 9", id="header-ach-n0-past-n",
        ),
        pytest.param(
            lambda: max_log2M_header_ach(ChannelSpec(BSC, 0.11, 8), 1e-3, 3, -1, [1e-3] * 3),
            r"n0 must be in \[0, n\], got -1", id="header-ach-n0-negative",
        ),
    ],
)
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestDtClassBound:
    def test_single_use_noiseless(self):
        # only the t=0 term survives: min(1, 2^-1) = 0.5
        assert dt_class_bound(ChannelSpec(BSC, 0.0, 1), 0.0, 1.0) == 0.5

    def test_useless_channel_saturates(self):
        # every summand's min picks 1, so the bound is the full binomial mass
        for n in (1, 7, 40):
            assert dt_class_bound(ChannelSpec(BSC, 0.5, n), 0.0, 1.0) == pytest.approx(
                1.0, rel=1e-12
            )

    def test_bec_frozen_rational_value(self):
        # exact rational tail sum over the 9 erasure counts: 4673/8192
        value = dt_class_bound(ChannelSpec(BEC, 0.5, 8), 2.0, 0.5)
        assert value == pytest.approx(4673 / 8192, rel=1e-12)

    @pytest.mark.parametrize("kind,p,pf", [
        (BSC, 0.11, Fraction(11, 100)),
        (BSC, 0.5, Fraction(1, 2)),
        (BEC, 0.5, Fraction(1, 2)),
        (BEC, 0.25, Fraction(1, 4)),
    ])
    def test_oracle_grid(self, kind, p, pf):
        name = "bsc" if kind is BSC else "bec"
        for n in (1, 2, 7, 24, 33):
            spec = ChannelSpec(kind, p, n)
            for log2M in range(0, n + 1, max(1, n // 5)):
                for lam, lamf in ((1.0, Fraction(1)), (0.5, Fraction(1, 2)),
                                  (1 / 3, Fraction(1, 3))):
                    got = dt_class_bound(spec, float(log2M), lam)
                    want = oracles.dt_class_bound_exact(name, n, pf, log2M, lamf)
                    assert got == pytest.approx(float(want), rel=1e-10, abs=1e-300)

    @given(
        st.floats(min_value=0.0, max_value=80.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_lambda_scaling_identity(self, log2M, lam):
        spec = ChannelSpec(BSC, 0.11, 64)
        assert dt_class_bound(spec, log2M, lam) == dt_class_bound(
            spec, log2M - math.log2(lam), 1.0
        )

    def test_monotone_in_size_and_lambda(self):
        spec = ChannelSpec(BEC, 0.5, 32)
        sizes = [0.0, 4.0, 8.0, 16.0, 24.0, 32.0]
        values = [dt_class_bound(spec, s, 0.5) for s in sizes]
        assert all(b >= a for a, b in zip(values, values[1:]))
        lams = [0.05, 0.2, 0.5, 1.0]
        values = [dt_class_bound(spec, 8.0, l) for l in lams]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_clamped_to_unit_interval(self):
        for log2M in (0.0, 10.0, 200.0):
            v = dt_class_bound(ChannelSpec(BSC, 0.3, 16), log2M, 0.01)
            assert 0.0 <= v <= 1.0

    def test_domain_errors(self):
        spec = ChannelSpec(BSC, 0.11, 8)
        with pytest.raises(ValueError):
            dt_class_bound(spec, 1.0, 0.0)
        with pytest.raises(ValueError):
            dt_class_bound(spec, -1.0, 0.5)


class TestHeaderAchBound:
    def test_homogeneous_reduction(self):
        # m=1, n0=0 collapses to the classical single-class bound
        spec = ChannelSpec(BSC, 0.11, 40)
        got = header_ach_bound(spec, HeaderSplit(0), 1, 20.0)
        want = oracles.header_ach_bound_exact("bsc", 40, Fraction(11, 100), 0, 1, 20)
        assert got == pytest.approx(float(want), rel=1e-10)

    def test_all_erasure_channel_saturates(self):
        spec = ChannelSpec(BEC, 1.0, 16)
        assert header_ach_bound(spec, HeaderSplit(4), 3, 1.0) == 1.0

    def test_frozen_long_block_value(self):
        # exact rational evaluation of both header and payload sums
        spec = ChannelSpec(BSC, 0.11, 500)
        got = header_ach_bound(spec, HeaderSplit(20), 3, 100.0)
        assert got == pytest.approx(0.038242930866963246, rel=1e-10)

    @pytest.mark.parametrize("kind,p,pf", [
        (BSC, 0.25, Fraction(1, 4)),
        (BEC, 0.5, Fraction(1, 2)),
    ])
    def test_oracle_grid(self, kind, p, pf):
        name = "bsc" if kind is BSC else "bec"
        for n in (8, 21, 40):
            spec = ChannelSpec(kind, p, n)
            for n0 in (1, n // 3, n // 2):
                for m in (2, 3):
                    for log2M in (0, 2, n // 2, n):
                        got = header_ach_bound(spec, HeaderSplit(n0), m, float(log2M))
                        want = oracles.header_ach_bound_exact(name, n, pf, n0, m, log2M)
                        assert got == pytest.approx(float(want), rel=1e-10, abs=1e-300)

    def test_preconditions(self):
        spec = ChannelSpec(BSC, 0.11, 8)
        with pytest.raises(ValueError):
            header_ach_bound(spec, HeaderSplit(9), 1, 0.0)
        with pytest.raises(ValueError):
            header_ach_bound(spec, HeaderSplit(0), 2, 0.0)
        with pytest.raises(ValueError):
            header_ach_bound(spec, HeaderSplit(2), 0, 0.0)


class TestRateSearch:
    def test_noiseless_closed_form(self):
        # min(1, M/2^8) = 0.5 has the unique solution log2M = 7
        rate = max_log2M_dt(ChannelSpec(BSC, 0.0, 8), 0.5, 1.0)
        assert rate == pytest.approx(7.0, abs=1e-5)

    def test_useless_channel_infeasible(self):
        assert max_log2M_dt(ChannelSpec(BSC, 0.5, 100), 0.1, 1.0) is None

    def test_bisection_brackets_target(self):
        spec = ChannelSpec(BEC, 0.5, 256)
        eps = 1e-3
        rate = max_log2M_dt(spec, eps, 1 / 3)
        assert rate is not None
        assert dt_class_bound(spec, rate, 1 / 3) <= eps
        assert dt_class_bound(spec, rate + 1e-3, 1 / 3) > eps

    def test_header_fixed_split_search(self):
        spec = ChannelSpec(BSC, 0.11, 200)
        eps = 1e-2
        rate = max_log2M_header_ach(spec, eps, 3, 60, [eps])
        assert rate is not None
        assert header_ach_bound(spec, HeaderSplit(60), 3, rate) <= eps
        assert header_ach_bound(spec, HeaderSplit(60), 3, rate + 1e-3) > eps

    def test_best_split_dominates_fixed(self):
        spec = ChannelSpec(BSC, 0.11, 200)
        eps = 1e-2
        best = max_log2M_header_ach_best(spec, eps, 3, [eps, eps, eps])
        fixed = max_log2M_header_ach(spec, eps, 3, 60, [eps])
        assert best is not None and best >= fixed - 1e-6

    def test_auto_scans_build_few_spectra(self):
        # both --n0 auto scans stop near the winning split (about 60 here), so
        # they build a few hundred spectra at most, not one per length 0..n
        n, eps = 10_000, 1e-3
        spec = ChannelSpec(BSC, 0.11, n)
        before = info_density_spectrum.cache_info().misses
        assert max_log2M_header_ach_best(spec, eps, 3, [eps] * 3) is not None
        conv_at = functools.partial(header_conv_max_log2M, eps0_points=1000)
        assert best_over_splits(conv_at, spec, eps, 3, [eps] * 3) is not None
        assert info_density_spectrum.cache_info().misses - before <= 200

    def test_header_dominance_single_point(self):
        # the general construction beats the best header split
        spec = ChannelSpec(BSC, 0.11, 500)
        eps = 1e-3
        ump = max_log2M_dt(spec, eps, 1 / 3)
        header = max_log2M_header_ach_best(spec, eps, 3, [eps] * 3)
        assert ump is not None and header is not None
        assert ump > header


@pytest.mark.parametrize("x", [1e-17, 1e-16, 1e-12, 1e-8, 1.0, 52.0, 53.0])
def test_log2_count_minus_one_matches_mpmath(x):
    # log2(2^x - 1): 2^-x rounds to 1 below x ~ 8e-17, so 1 - 2^-x must not be formed
    with mpmath.workdps(60):
        want = float(mpmath.log(mpmath.mpf(2) ** x - 1, 2))
    assert _log2_count_minus_one(x) == pytest.approx(want, rel=1e-15)


def _check_scan(rate, spec, eps, m, all_eps):
    """Check the auto scan against the exhaustive oracle and return the scan's value.

    Also checks that the feasible splits form a suffix of 0..n: the scan's
    gallop and bisection find the first feasible split only because of that.
    With one class the scan returns split 0's rate when it is feasible: the
    maximum in exact arithmetic, and within rounding of the oracle's.
    """
    seen = {}

    def recorded(spec, eps, m, n0, all_eps):
        seen[n0] = rate(spec, eps, m, n0, all_eps)
        return seen[n0]

    want = oracles.exhaustive_best_over_splits(recorded, spec, eps, m, all_eps)
    feasible = [seen[s] is not None for s in range(spec.n + 1)]
    assert feasible == sorted(feasible)
    got = best_over_splits(rate, spec, eps, m, all_eps)
    if m == 1 and seen[0] is not None:
        assert got == seen[0] and got == pytest.approx(want, rel=0.0, abs=1e-10)
    else:
        assert got == want
    return got


# header-scan inputs: both channels, degenerate and useless p included
SPLIT_SCANS = dict(
    kind=st.sampled_from([BSC, BEC]),
    p=st.sampled_from([0.0, 1e-300, 0.01, 0.11, 0.5, 0.89, 1.0]),
    n=st.sampled_from([1, 2, 17, 64, 300]),
    all_eps=st.lists(
        st.floats(-15.0, math.log10(0.9)).map(lambda e: 10.0**e), min_size=1, max_size=4
    ),
    cls=st.integers(0, 3),
    eps0_points=st.sampled_from([1, 10, 1000]),
)


class TestSplitScan:
    """The --n0 auto scan returns exactly the all-splits maximum."""

    @settings(max_examples=60, deadline=None)
    @given(**SPLIT_SCANS)
    # a one-class header read a float eps0_min above 0 and found 20 splits infeasible
    @example(kind=BSC, p=0.5, n=300, all_eps=[1e-13], cls=0, eps0_points=10)
    def test_matches_exhaustive_scan(self, kind, p, n, all_eps, cls, eps0_points):
        spec = ChannelSpec(kind, p, n)
        m, eps = len(all_eps), all_eps[cls % len(all_eps)]
        ach = _check_scan(max_log2M_header_ach, spec, eps, m, all_eps)
        assert max_log2M_header_ach_best(spec, eps, m, all_eps) == ach
        conv_at = functools.partial(header_conv_max_log2M, eps0_points=eps0_points)
        _check_scan(conv_at, spec, eps, m, all_eps)

    @settings(max_examples=60, deadline=None)
    @given(**SPLIT_SCANS)
    def test_upper_values_bound_the_rates(self, kind, p, n, all_eps, cls, eps0_points):
        # the scan prunes and stops on upper values, so at every split the
        # unconfirmed value must be at least the confirmed rate, and None or
        # inf exactly when the rate is; confirming it must give the rate
        spec = ChannelSpec(kind, p, n)
        m, eps = len(all_eps), all_eps[cls % len(all_eps)]
        conv_at = functools.partial(header_conv_max_log2M, eps0_points=eps0_points)
        for rate in (max_log2M_header_ach, conv_at):
            for n0 in range(n + 1):
                want = rate(spec, eps, m, n0, all_eps)
                got = rate(spec, eps, m, n0, all_eps, lazy=True)
                assert (got is None) == (want is None), n0
                if got is not None:
                    upper, confirm = got
                    assert upper >= want and (upper == math.inf) == (want == math.inf), n0
                    assert confirm() == want, n0

    @pytest.mark.parametrize(
        "splits, cap, want",
        [
            # split 1 has the largest upper value but steps down below split 2's rate
            ([None, (5.0, 4.0), (4.5, 4.4), (1.0, 1.0)], 10.0, 4.4),
            # split 1's upper value clears split 3's cap but its rate does not,
            # so the scan must not stop before split 3
            ([None, (5.0, 3.0), (1.0, 1.0), (3.9, 3.9), (0.5, 0.5)], 4.0, 3.9),
        ],
        ids=["confirm-past-top", "prune-on-rates"],
    )
    def test_scan_decides_on_rates_not_upper_values(self, splits, cap, want):
        # (upper value, rate) per split, None where infeasible; each cap is `cap`
        spec = ChannelSpec(BSC, 0.11, len(splits) - 1)

        def rate(s, eps, m, n0, all_eps, lazy=False):
            if s != spec:
                return (cap, lambda: cap) if lazy else cap
            if splits[n0] is None:
                return None
            upper, r = splits[n0]
            return (upper, lambda: r) if lazy else r

        assert oracles.exhaustive_best_over_splits(rate, spec, 1e-3, 2, [1e-3]) == want
        assert best_over_splits(rate, spec, 1e-3, 2, [1e-3]) == want

    @pytest.mark.parametrize("kind, p", [(BSC, 0.11), (BEC, 0.5)], ids=["bsc", "bec"])
    @pytest.mark.parametrize("n", [1000, 2000])
    @pytest.mark.parametrize("eps", [1e-3, 1e-15])
    @pytest.mark.parametrize(
        "rate", [max_log2M_header_ach, header_conv_max_log2M], ids=["ach", "conv"]
    )
    def test_long_blocks_match_exhaustive_scan(self, kind, p, n, eps, rate):
        assert _check_scan(rate, ChannelSpec(kind, p, n), eps, 3, [eps, 1e-3, 1e-2]) is not None

    @pytest.mark.parametrize(
        "n, all_eps, rate, limit",
        [
            (1000, [1e-3] * 3, max_log2M_header_ach, 40),
            (1000, [1e-3] * 3, header_conv_max_log2M, 20),
            (2000, [1e-15, 1e-9, 1e-3], max_log2M_header_ach, 50),
        ],
        ids=["ach-n1000", "conv-n1000", "ach-n2000-small-eps"],
    )
    def test_rate_calls_per_scan(self, n, all_eps, rate, limit, monkeypatch):
        # a scan's cost in rate calls, caps included, at BSC(0.11), m = 3, class 0
        calls, inversions = [], []
        invert = achievability.invert_exp2_sum
        monkeypatch.setattr(
            achievability, "invert_exp2_sum", lambda *a: inversions.append(a) or invert(*a)
        )

        def counted(*args, **kwargs):
            calls.append(args)
            before = len(inversions)
            got = rate(*args, **kwargs)
            assert len(inversions) - before <= 1
            if got is None:
                return None
            upper, confirm = got

            def confirmed():
                # a confirmation steps the split's own guess down: no split is inverted twice
                before = len(inversions)
                r = confirm()
                assert len(inversions) == before and r <= upper
                return r

            return upper, confirmed

        spec = ChannelSpec(BSC, 0.11, n)
        assert best_over_splits(counted, spec, all_eps[0], 3, all_eps) is not None
        assert len(calls) <= limit
        # caps run at shorter lengths; no split of the full block is asked twice
        splits = [n0 for s, _, _, n0, _ in calls if s == spec]
        assert len(splits) == len(set(splits))

    def test_fixed_split(self):
        spec = ChannelSpec(BEC, 0.5, 60)
        assert best_over_splits(max_log2M_header_ach, spec, 0.1, 2, [0.1], 7) == (
            max_log2M_header_ach(spec, 0.1, 2, 7, [0.1])
        )
        assert best_over_splits(max_log2M_header_ach, spec, 0.1, 2, [0.1], 61) is None
