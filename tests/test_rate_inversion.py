"""Exact rate inversion against a fine bisection of the same library evaluators.

The reference search is the bisection the package used before the closed
form, run to 1e-9 bits. Bisection returns the lower end of its bracket, so
the exact inversion may sit above it by at most that bracket plus rounding,
and never below it by more than the bracket.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umpbounds import achievability, cli, converse
from umpbounds.achievability import (
    HeaderSplit,
    class_rate,
    dt_class_bound,
    header_ach_bound,
    max_log2M_dt,
    max_log2M_header_ach,
    max_log2M_header_ach_best,
)
from umpbounds.asymptotics import normal_approx_log2M
from umpbounds.channel import ChannelKind, ChannelSpec, info_density_spectrum
from umpbounds.converse import (
    _header_eps0_index,
    converse_eps_bec,
    converse_fits_one,
    converse_max_log2M,
    converse_max_log2M_bsc,
    header_conv_eps_bec,
    header_conv_max_log2M,
    header_conv_max_log2M_bsc,
    np_beta_bsc_miss,
)
from umpbounds.numerics import invert_exp2_sum

BSC, BEC = ChannelKind.BSC, ChannelKind.BEC

REF_TOL_BITS = 1e-9
ABOVE_REF_BITS = 1e-6
NS = (1, 8, 64, 500)
EPSILONS = (1e-12, 1e-6, 1e-3, 0.1, 0.5)
CHANNELS = [(BSC, p) for p in (0.0, 0.11, 0.5, 0.89, 1.0)] + [
    (BEC, p) for p in (0.0, 0.25, 0.5, 1.0)
]


def reference_max_log2M(bound_fn, target):
    """Largest log2M >= 0 with bound_fn(log2M) <= target, by bisection."""
    if bound_fn(0.0) > target:
        return None
    lo, hi = 0.0, 8.0
    while bound_fn(hi) <= target:
        lo = hi
        hi *= 2.0
    while hi - lo > REF_TOL_BITS:
        mid = 0.5 * (lo + hi)
        if bound_fn(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


def check_against_reference(rate, bound_fn, target, label):
    want = reference_max_log2M(bound_fn, target)
    if want is None:
        assert rate is None, label
        return
    assert rate is not None, label
    assert want - REF_TOL_BITS <= rate <= want + ABOVE_REF_BITS, (label, rate, want)
    assert bound_fn(rate) <= target, label


def _label(kind, p, n, eps, *rest):
    return f"{kind.value} p={p} n={n} eps={eps} " + " ".join(str(r) for r in rest)


@pytest.mark.parametrize("kind,p", CHANNELS)
def test_dt_rate(kind, p):
    for n in NS:
        spec = ChannelSpec(kind, p, n)
        for eps in EPSILONS:
            for lam in (1.0, 1 / 3):
                check_against_reference(
                    max_log2M_dt(spec, eps, lam),
                    lambda lm: dt_class_bound(spec, lm, lam),
                    eps,
                    _label(kind, p, n, eps, f"lambda={lam}"),
                )


@pytest.mark.parametrize("kind,p", CHANNELS)
def test_header_ach_rate(kind, p):
    for n in NS:
        spec = ChannelSpec(kind, p, n)
        # n0 = 0 only admits m = 1; n0 = n leaves an empty payload
        splits = [(0, 1), (n, 1), (n, 3), (n // 2, 3)] if n > 1 else [(0, 1), (n, 1), (n, 3)]
        for eps in EPSILONS:
            for n0, m in splits:
                split = HeaderSplit(n0)
                check_against_reference(
                    max_log2M_header_ach(spec, eps, m, n0, [eps]),
                    lambda lm: header_ach_bound(spec, split, m, lm),
                    eps,
                    _label(kind, p, n, eps, f"n0={n0} m={m}"),
                )


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
def test_bec_converse_rate(p):
    for n in NS:
        spec = ChannelSpec(BEC, p, n)
        for eps in EPSILONS:
            for lam in (1.0, 1 / 3):
                check_against_reference(
                    converse_max_log2M(spec, eps, lam),
                    lambda lm: converse_eps_bec(spec, lm, lam),
                    eps,
                    _label(BEC, p, n, eps, f"lambda={lam}"),
                )


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 1.0])
def test_bec_header_converse_rate(p):
    for n in NS:
        spec = ChannelSpec(BEC, p, n)
        for eps in EPSILONS:
            for n0, m in ((0, 1), (n // 2, 3), (n, 3)):
                check_against_reference(
                    header_conv_max_log2M(spec, eps, m, n0, [eps]),
                    lambda lm: header_conv_eps_bec(spec, n0, m, lm),
                    eps,
                    _label(BEC, p, n, eps, f"n0={n0} m={m}"),
                )


def header_ok(p, n0, m, eps0):
    """Whether m header codewords pass the converse at header miss eps0."""
    return math.log2(m) <= -np_beta_bsc_miss(n0, p, eps0).log2_beta


def reference_eps0_index(p, n0, m, grid):
    """Smallest grid index passing the header test, by bisection over the grid."""
    lo, hi = 0, len(grid) - 1
    if not header_ok(p, n0, m, grid[hi]):
        return None
    if header_ok(p, n0, m, grid[lo]):
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if header_ok(p, n0, m, grid[mid]):
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("n", [64, 200])
@pytest.mark.parametrize("eps0_points", [50, 1000])
def test_bsc_header_eps0_index_matches_grid_bisection(n, eps0_points):
    p = 0.11
    spec = ChannelSpec(BSC, p, n)
    for min_eps in (1e-3, 0.1):
        grid = np.linspace(0.0, min_eps, eps0_points)
        for m in (2, 3, 8):
            for n0 in range(n + 1):
                want = reference_eps0_index(p, n0, m, grid)
                assert _header_eps0_index(p, n0, m, grid) == want, (min_eps, m, n0)
                rate = header_conv_max_log2M_bsc(spec, min_eps, m, n0, [min_eps], eps0_points)
                if want is None:
                    assert rate is None
                else:
                    miss = min_eps - float(grid[want])
                    expected = 0.0 - np_beta_bsc_miss(n - n0, p, miss).log2_beta
                    assert rate == expected


@pytest.mark.parametrize("p", [1e-300, 1e-9, 0.01, 0.11, 0.3, 0.5 - 2.0**-53])
def test_bsc_header_eps0_index_confirms_grid_points_beside_eps0_min(p, monkeypatch):
    # a grid point at the closed-form eps0_min and one ulp on each side of it
    # sit inside the margin, so the Neyman-Pearson tests decide the index.
    # Within ulps the float test need not be monotone (at p = 0.3, n0 = 13,
    # m = 8 it passes at eps0_min, fails one ulp above and passes again), so
    # the reference tests every grid point, and bisection, which assumes a
    # monotone test, is checked only where the test is monotone. Grid points
    # two margins away are placed by the closed form alone, unless a point
    # of the coarse grid happens to lie within the margin.
    tests = _counting(monkeypatch, converse, "np_beta_bsc_miss")
    for m in (2, 3, 8):
        for n0 in range(201):
            eps0_min, margin = converse._header_eps0_min(p, n0, m)
            near = [np.nextafter(eps0_min, -1.0), eps0_min, np.nextafter(eps0_min, 2.0)]
            beside = [eps0_min - 2.0 * margin, eps0_min + 2.0 * margin]
            for points in (near, beside):
                grid = np.unique(np.clip(np.concatenate((np.linspace(0.0, 1.0, 11), points)), 0.0, 1.0))
                del tests[:]
                got = _header_eps0_index(p, n0, m, grid)
                assert tests or points is beside, (m, n0)
                ok = [header_ok(p, n0, m, eps0) for eps0 in grid]
                want = ok.index(True) if True in ok else None
                assert got == want, (m, n0)
                if want is None or all(ok[want:]):
                    assert got == reference_eps0_index(p, n0, m, grid), (m, n0)


def _capped_sum(log_w, shift, c):
    return float(np.sum(np.exp(log_w) * np.minimum(1.0, np.exp2(c + shift))))


def _hinge_sum(log_w, shift, c):
    return float(np.sum(np.exp(log_w) * np.maximum(0.0, 1.0 - np.exp2(-(c + shift)))))


@pytest.mark.parametrize("hinge", [False, True])
def test_invert_exp2_sum_solves_unsorted_tied_terms(hinge):
    rng = np.random.default_rng(7)
    total = _hinge_sum if hinge else _capped_sum
    for _ in range(50):
        size = int(rng.integers(1, 12))
        w = rng.random(size)
        log_w = np.log(w / w.sum())
        shift = rng.integers(-6, 6, size).astype(float)  # repeats give tied breakpoints
        for budget in (1e-9, 1e-3, 0.3, 0.9):
            c = invert_exp2_sum(log_w, shift, budget, hinge=hinge)
            assert math.isfinite(c)
            assert total(log_w, shift, c) == pytest.approx(budget, rel=1e-9)
            assert total(log_w, shift, c + 1e-6) > budget


def test_invert_exp2_sum_edges():
    log_w, shift = np.log([0.25, 0.75]), np.array([0.0, -3.0])
    # the capped sum never exceeds its total mass of 1, so a budget of 2 never binds
    assert invert_exp2_sum(log_w, shift, 2.0) == math.inf
    assert invert_exp2_sum(log_w, shift, 0.0) == -math.inf
    # the hinge sum stays 0 until c passes the first breakpoint -max(shift) = 0
    assert invert_exp2_sum(log_w, shift, 0.0, hinge=True) == pytest.approx(0.0)


def test_invert_exp2_sum_budget_in_the_flat_tail():
    # a budget one ulp under the total mass of 1: rounding puts it past every
    # breakpoint value but the last, in the tail where the capped sum is flat,
    # so the answer is the last breakpoint -min(shift)
    log_w = np.array([-0.14121560615396966, -2.02724446566715])
    shift = np.array([-39.09471694813083, 27.160676000193533])
    budget = math.nextafter(1.0, 0.0)
    c = invert_exp2_sum(log_w, shift, budget)
    assert c == -shift.min()
    assert _capped_sum(log_w, shift, c) == pytest.approx(budget, rel=1e-9)


# each channel search at a fixed class of a 100-symbol block, as a function of eps
SEARCHES = {
    "max_log2M_dt": lambda eps: max_log2M_dt(ChannelSpec(BSC, 0.11, 100), eps, 1 / 3),
    "max_log2M_header_ach": lambda eps: max_log2M_header_ach(
        ChannelSpec(BSC, 0.11, 100), eps, 2, 10, [eps, eps]
    ),
    "converse_max_log2M_bsc": lambda eps: converse_max_log2M_bsc(
        ChannelSpec(BSC, 0.11, 100), eps, 1 / 3
    ),
    "converse_max_log2M_on_bec": lambda eps: converse_max_log2M(
        ChannelSpec(BEC, 0.5, 100), eps, 1 / 3
    ),
    "header_conv_max_log2M_bsc": lambda eps: header_conv_max_log2M_bsc(
        ChannelSpec(BSC, 0.11, 100), eps, 2, 10, [eps, eps]
    ),
    "header_conv_max_log2M_on_bec": lambda eps: header_conv_max_log2M(
        ChannelSpec(BEC, 0.5, 100), eps, 1, 0, [eps]
    ),
}


@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, math.nan])
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_every_search_refuses_eps_outside_unit_interval(name, eps):
    with pytest.raises(ValueError, match=r"eps must be in \(0,1\)"):
        SEARCHES[name](eps)


# each public function of a class weight, at a feasible class, as a function of lambda
CLASS_FUNCTIONS = {
    "class_rate": lambda lam: class_rate(10.0, lam),
    "dt_class_bound": lambda lam: dt_class_bound(ChannelSpec(BSC, 0.11, 100), 10.0, lam),
    "max_log2M_dt": lambda lam: max_log2M_dt(ChannelSpec(BSC, 0.11, 100), 1e-3, lam),
    "converse_max_log2M": lambda lam: converse_max_log2M(ChannelSpec(BSC, 0.11, 100), 1e-3, lam),
    "converse_max_log2M_bsc": lambda lam: converse_max_log2M_bsc(
        ChannelSpec(BSC, 0.11, 100), 1e-3, lam
    ),
    "converse_eps_bec": lambda lam: converse_eps_bec(ChannelSpec(BEC, 0.5, 100), 10.0, lam),
    "converse_max_log2M_on_bec": lambda lam: converse_max_log2M(
        ChannelSpec(BEC, 0.5, 100), 1e-3, lam
    ),
    "normal_approx_log2M": lambda lam: normal_approx_log2M(ChannelSpec(BSC, 0.11, 100), 1e-3, lam),
}


@pytest.mark.parametrize("lam", [0.0, -1.0, 1.5, math.nan])
@pytest.mark.parametrize("name", sorted(CLASS_FUNCTIONS))
def test_every_class_function_refuses_lambda_outside_unit_interval(name, lam):
    with pytest.raises(ValueError, match=r"lambda_i must be in \(0,1\]"):
        CLASS_FUNCTIONS[name](lam)


VALIDITY_CHANNELS = [(BSC, p) for p in (0.0, 0.11, 0.3, 0.89, 1.0)] + [
    (BEC, p) for p in (0.0, 0.2, 0.5, 1.0)
]


def _powers_of_ten(lo, hi):
    """10^e for e drawn uniformly from [lo, hi]."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def _class_bound_met(search, spec, eps, lam, rate):
    """Whether a class of weight lam and size 2^rate meets eps under the search's own bound."""
    if search == "dt":
        return dt_class_bound(spec, rate, lam) <= eps
    if spec.kind is BEC:
        return converse_eps_bec(spec, rate, lam) <= eps
    # the BSC meta-converse: log2(M / lambda) at most the homogeneous limit -log2(beta)
    return rate - math.log2(lam) <= converse_max_log2M_bsc(spec, eps, 1.0)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    search=st.sampled_from(["dt", "converse"]),
    channel=st.sampled_from(VALIDITY_CHANNELS),
    n=st.one_of(st.sampled_from([1, 2, 3, 2000]), st.integers(1, 2000)),
    eps=st.one_of(st.sampled_from([1e-15, 0.5]), _powers_of_ten(-15.0, math.log10(0.5))),
    lam=st.one_of(st.sampled_from([1e-300, 1.0]), _powers_of_ten(-300.0, 0.0)),
)
# without the step-down, rate + log2(lambda) puts this DT class 2.3e-15 (relative) above eps
@example(search="dt", channel=(BSC, 0.3), n=2000, eps=1e-6, lam=1e-10)
# exact ties at one codeword: the homogeneous rate shifts to just below 0, the bound meets eps
@example(search="converse", channel=(BEC, 1.0), n=10, eps=0.1, lam=0.9)
@example(search="dt", channel=(BSC, 0.0), n=3, eps=0.5, lam=0.25)
def test_every_class_rate_is_the_homogeneous_rate_shifted_and_valid(search, channel, n, eps, lam):
    spec = ChannelSpec(*channel, n)
    rate_at = max_log2M_dt if search == "dt" else converse_max_log2M
    rate, homogeneous = rate_at(spec, eps, lam), rate_at(spec, eps, 1.0)
    below_zero = homogeneous is not None and homogeneous + math.log2(lam) < 0.0
    one_fits = below_zero and _class_bound_met(search, spec, eps, lam, 0.0)
    assert (rate is None) == (homogeneous is None or (below_zero and not one_fits))
    assert rate != 0.0 or not below_zero or one_fits
    assert rate is None or _class_bound_met(search, spec, eps, lam, rate)
    if search == "converse" and spec.kind is BEC:
        assert converse_fits_one(spec, eps, lam) == (rate is not None)


@pytest.mark.parametrize("p", [0.0, 0.11, 0.5, 0.89, 1.0])
def test_bsc_one_codeword_test_makes_no_neyman_pearson_test(monkeypatch, p):
    # the lambda-free BSC converse rate is -log2 beta exactly, so its shift
    # alone tells whether one codeword fits: no test repeats the rate's own
    tests = _counting(monkeypatch, converse, "_np_shell_test")
    assert converse_fits_one(ChannelSpec(BSC, p, 100), 0.5, 1e-300) is False
    assert tests == []


@pytest.mark.parametrize("kind,p", [(BSC, 0.11), (BEC, 0.5)])
def test_every_search_returns_python_float(kind, p):
    spec, eps, m = ChannelSpec(kind, p, 1000), 1e-3, 3
    rates = {
        "dt": max_log2M_dt(spec, eps, 1 / 3),
        "header_ach": max_log2M_header_ach(spec, eps, m, 100, [eps] * m),
        "header_ach_best": max_log2M_header_ach_best(spec, eps, m, [eps] * m),
        "converse": converse_max_log2M(spec, eps, 1 / 3),
        "header_conv": header_conv_max_log2M(spec, eps, m, 100, [eps] * m),
        "header_conv_best": achievability.best_over_splits(
            header_conv_max_log2M, spec, eps, m, [eps] * m
        ),
    }
    assert {name: type(r) for name, r in rates.items()} == dict.fromkeys(rates, float)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def _clear_split_caches():
    """Empty the per-process memos of split-only header terms, for a cold count."""
    achievability._header_sum.cache_clear()
    converse._header_eps0.cache_clear()


def _refused(*args):
    raise AssertionError("a header search evaluated a whole header bound")


def test_header_searches_sum_the_header_once(monkeypatch):
    # each search reads its header term off the split-only memo, never off a
    # whole header bound; the DT header sum and the BEC header floor depend on
    # (channel, p, n0, m) alone, so a second blocklength reuses them
    _clear_split_caches()
    eps = 1e-3
    monkeypatch.setattr(achievability, "header_ach_bound", _refused)
    monkeypatch.setattr(converse, "header_conv_eps_bec", _refused)
    block_sums = _counting(monkeypatch, achievability, "_block_sum")
    for n in (500, 1000):
        bsc, bec = ChannelSpec(BSC, 0.11, n), ChannelSpec(BEC, 0.5, n)
        assert max_log2M_header_ach(bsc, eps, 3, 100, [eps] * 3) is not None
        assert header_conv_max_log2M(bec, eps, 3, 100, [eps] * 3) is not None
    header_sums = [args[:3] for args in block_sums if args[2] == 100]
    assert len(header_sums) == 2 and set(header_sums) == {(BSC, 0.11, 100), (BEC, 0.5, 100)}


def test_capacity_0_bec_sums_each_header_floor_once(monkeypatch, tmp_path):
    # at BEC(1) every split is admissible and rates the same, so the converse
    # scans ask all 301 splits for each of the four targets: 1204 header
    # floors when each ask summed its own, at most one per split from the memo
    _clear_split_caches()
    floors = []
    real = achievability._exp2_sum

    def counted(log_w, shift, c, hinge=False):
        if hinge and c == 2.0:  # the header floor's coefficient log2 m at m = 4
            floors.append(c)
        return real(log_w, shift, c, hinge)

    monkeypatch.setattr(achievability, "_exp2_sum", counted)
    eps = (0.8, 0.9, 0.99, 0.999999)
    classes = [arg for e in eps for arg in ("--class", f"eps={e},lambda=0.25")]
    argv = ["bound", "--channel", "bec", "--p", "1", "--n", "300", *classes]
    assert cli.main(argv + ["--out", str(tmp_path / "bound.csv")]) == 0
    assert 0 < len(floors) <= 301


def test_capacity_0_header_memo_holds_every_split():
    # the memo is sized for both header columns at the longest block bound
    # accepts; at 4096 entries the second pass over 4501 splits missed again
    achievability._header_sum.cache_clear()
    for _ in range(2):
        for n0 in range(4501):
            achievability._header_sum(BEC, 1.0, n0, 4, True)
    assert achievability._header_sum.cache_info().misses == 4501


def test_capacity_0_header_scan_keeps_no_spectrum():
    # at BSC(1/2) the scan asks all 1501 splits and keeps the lazy confirm
    # of each feasible one to the end. A confirm that held its payload
    # spectrum pinned about n^2 bytes outside the spectrum cache: a 22 MiB
    # traced peak here, 5.7 MiB once it keeps (kind, length, p) instead.
    # The bound is 10 MiB.
    _clear_split_caches()
    info_density_spectrum.cache_clear()
    tracemalloc.start()
    try:
        rate = max_log2M_header_ach_best(ChannelSpec(BSC, 0.5, 1500), 0.999, 2, [0.999, 0.999999])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rate is not None
    assert peak <= 10 * 2**20


def test_bsc_bound_confirms_eps0_only_near_a_grid_point(monkeypatch, tmp_path):
    # confirming every split's eps0 index took two Neyman-Pearson tests each:
    # 62 tests in this run, 43 of them confirmations
    _clear_split_caches()
    tests = _counting(monkeypatch, converse, "_np_shell_test")
    classes = ["--class", f"eps=1e-3,lambda={1 / 3!r}"] * 3
    argv = ["bound", "--channel", "bsc", "--p", "0.11", "--n", "500,1000", *classes]
    assert cli.main(argv + ["--out", str(tmp_path / "bound.csv")]) == 0
    assert len(tests) <= 20


@pytest.mark.parametrize(
    "eps, searches",
    [((1e-3, 1e-3, 1e-3), 13), ((1e-3, 1e-2, 1e-1), 13)],
    ids=["equal-eps", "three-eps"],
)
def test_bsc_bound_searches_eps0_grids_only_for_headers(monkeypatch, tmp_path, eps, searches):
    # the class converses and the one-class caps of the header scan take
    # eps0 = 0 with no grid, so the m = 3 header scans search one grid on [0, min eps];
    # a split's eps0 depends on (p, n0, m) and that grid alone, so it is searched
    # once for every class and both blocklengths (26 and 63 searches when it was not)
    _clear_split_caches()
    index_searches = _counting(monkeypatch, converse, "_header_eps0_index")
    classes = [arg for e in eps for arg in ("--class", f"eps={e!r},lambda={1 / 3!r}")]
    argv = ["bound", "--channel", "bsc", "--p", "0.11", "--n", "500,1000", *classes]
    assert cli.main(argv + ["--out", str(tmp_path / "bound.csv")]) == 0
    assert len(index_searches) == searches
    headers = {(n0, m) for _, n0, m, _ in index_searches}
    assert len(headers) == searches
    grid = np.linspace(0.0, min(eps), 1000)
    assert all(np.array_equal(args[3], grid) for args in index_searches)


def test_bsc_bound_sums_only_where_a_split_can_win(monkeypatch, tmp_path):
    # the header scans step a closed-form guess down to its rate only at
    # splits that can win, and each guess is inverted once: this run made
    # 129 tail sums for 52 inversions when every split asked was confirmed
    _clear_split_caches()
    sums = _counting(monkeypatch, achievability, "_exp2_sum")
    inversions = _counting(monkeypatch, achievability, "invert_exp2_sum")
    classes = ["--class", f"eps=1e-3,lambda={1 / 3!r}"] * 3
    argv = ["bound", "--channel", "bsc", "--p", "0.11", "--n", "500,1000", *classes]
    assert cli.main(argv + ["--out", str(tmp_path / "bound.csv")]) == 0
    assert len(sums) <= 45 and len(inversions) <= 52


def test_hinge_sums_with_no_positive_term_are_skipped(monkeypatch, tmp_path):
    # the BEC density falls to 0 at t = length, so at coefficient 0 every
    # hinge term is dropped: the header converse's header at m = 1 and its
    # payload at log2M = 0, which each BEC header search evaluates first
    spec = ChannelSpec(BEC, 0.5, 500)
    sums = _counting(monkeypatch, achievability, "_exp2_sum")
    assert header_conv_eps_bec(spec, 100, 1, 0.0) == 0.0
    assert converse_eps_bec(spec, 0.0, 1.0) == 0.0
    assert sums == []
    assert header_conv_eps_bec(spec, 100, 1, 1e-6) > 0.0
    assert len(sums) == 1
    # a whole BEC bound run sums no hinge whose every term is dropped
    results = []
    real = achievability._exp2_sum

    def summed(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(achievability, "_exp2_sum", summed)
    classes = ["--class", "eps=1e-3,lambda=0.5"] + ["--class", "eps=1e-3,lambda=0.25"] * 2
    argv = ["bound", "--channel", "bec", "--p", "0.5", "--n", "500", *classes]
    assert cli.main(argv + ["--out", str(tmp_path / "bound.csv")]) == 0
    assert results and 0.0 not in results


# (search, public evaluator of its bound at a rate), each at a feasible class
STEP_DOWN_CASES = {
    "dt": (
        lambda: max_log2M_dt(ChannelSpec(BSC, 0.11, 1000), 1e-3, 1 / 3),
        lambda r: dt_class_bound(ChannelSpec(BSC, 0.11, 1000), r, 1 / 3),
    ),
    "header_ach": (
        lambda: max_log2M_header_ach(ChannelSpec(BSC, 0.11, 1000), 1e-3, 3, 100, [1e-3] * 3),
        lambda r: header_ach_bound(ChannelSpec(BSC, 0.11, 1000), HeaderSplit(100), 3, r),
    ),
    "bec_converse": (
        lambda: converse_max_log2M(ChannelSpec(BEC, 0.5, 1000), 1e-3, 1 / 3),
        lambda r: converse_eps_bec(ChannelSpec(BEC, 0.5, 1000), r, 1 / 3),
    ),
    "bec_header_converse": (
        lambda: header_conv_max_log2M(ChannelSpec(BEC, 0.5, 1000), 1e-3, 3, 100, [1e-3] * 3),
        lambda r: header_conv_eps_bec(ChannelSpec(BEC, 0.5, 1000), 100, 3, r),
    ),
}


@pytest.mark.parametrize("name", sorted(STEP_DOWN_CASES))
def test_search_steps_an_overshooting_inversion_back(monkeypatch, name):
    search, bound = STEP_DOWN_CASES[name]
    eps, exact = 1e-3, search()
    real = achievability.invert_exp2_sum
    monkeypatch.setattr(
        achievability, "invert_exp2_sum", lambda *args, **kwargs: real(*args, **kwargs) + 1e-6
    )
    stepped = search()
    assert bound(stepped) <= eps
    assert abs(stepped - exact) <= 4e-6
