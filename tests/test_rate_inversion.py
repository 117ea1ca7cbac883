"""Exact rate inversion against a fine bisection of the same library evaluators.

The reference search is the bisection the package used before the closed
form, run to 1e-9 bits. Bisection returns the lower end of its bracket, so
the exact inversion may sit above it by at most that bracket plus rounding,
and never below it by more than the bracket.
"""

import math

import numpy as np
import pytest

from umpbounds import achievability, converse
from umpbounds.achievability import (
    HeaderSplit,
    dt_class_bound,
    header_ach_bound,
    max_log2M_dt,
    max_log2M_header_ach,
    max_log2M_header_ach_best,
)
from umpbounds.channel import ChannelKind, ChannelSpec
from umpbounds.converse import (
    _header_eps0_index,
    converse_eps_bec,
    converse_max_log2M,
    converse_max_log2M_bec,
    converse_max_log2M_bsc,
    header_conv_eps_bec,
    header_conv_max_log2M,
    header_conv_max_log2M_bec,
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
                    converse_max_log2M_bec(spec, eps, lam),
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
                    header_conv_max_log2M_bec(spec, eps, m, n0, [eps]),
                    lambda lm: header_conv_eps_bec(spec, n0, m, lm),
                    eps,
                    _label(BEC, p, n, eps, f"n0={n0} m={m}"),
                )


def reference_eps0_index(p, n0, m, grid):
    """Smallest grid index passing the header test, by bisection over the grid."""
    log2_m = math.log2(m)

    def header_ok(eps0):
        return log2_m <= -np_beta_bsc_miss(n0, p, eps0).log2_beta

    lo, hi = 0, len(grid) - 1
    if not header_ok(grid[hi]):
        return None
    if header_ok(grid[lo]):
        return lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if header_ok(grid[mid]):
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
        for m in (1, 2, 3, 8):
            for n0 in range(n + 1):
                want = reference_eps0_index(p, n0, m, grid)
                assert _header_eps0_index(p, n0, m, grid) == want, (min_eps, m, n0)
                rate = header_conv_max_log2M_bsc(spec, min_eps, m, n0, [min_eps], eps0_points)
                if want is None:
                    assert rate is None
                else:
                    miss = min_eps - float(grid[want])
                    expected = 0.0 if miss <= 0.0 else -np_beta_bsc_miss(n - n0, p, miss).log2_beta
                    assert rate == expected


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


# each channel search at a fixed class of a 100-symbol block, as a function of eps
SEARCHES = {
    "max_log2M_dt": lambda eps: max_log2M_dt(ChannelSpec(BSC, 0.11, 100), eps, 1 / 3),
    "max_log2M_header_ach": lambda eps: max_log2M_header_ach(
        ChannelSpec(BSC, 0.11, 100), eps, 2, 10, [eps, eps]
    ),
    "converse_max_log2M_bsc": lambda eps: converse_max_log2M_bsc(
        ChannelSpec(BSC, 0.11, 100), eps, 1 / 3
    ),
    "converse_max_log2M_bec": lambda eps: converse_max_log2M_bec(
        ChannelSpec(BEC, 0.5, 100), eps, 1 / 3
    ),
    "header_conv_max_log2M_bsc": lambda eps: header_conv_max_log2M_bsc(
        ChannelSpec(BSC, 0.11, 100), eps, 2, 10, [eps, eps]
    ),
    "header_conv_max_log2M_bec": lambda eps: header_conv_max_log2M_bec(
        ChannelSpec(BEC, 0.5, 100), eps, 1, 0, [eps]
    ),
}


@pytest.mark.parametrize("eps", [0.0, 1.0, 1.5, math.nan])
@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_every_search_refuses_eps_outside_unit_interval(name, eps):
    with pytest.raises(ValueError, match=r"eps must be in \(0,1\)"):
        SEARCHES[name](eps)


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


def test_header_searches_sum_the_header_once(monkeypatch):
    bsc, bec, eps = ChannelSpec(BSC, 0.11, 500), ChannelSpec(BEC, 0.5, 500), 1e-3
    ach_calls = _counting(monkeypatch, achievability, "header_ach_bound")
    conv_calls = _counting(monkeypatch, converse, "header_conv_eps_bec")
    assert max_log2M_header_ach(bsc, eps, 3, 100, [eps] * 3) is not None
    assert header_conv_max_log2M_bec(bec, eps, 3, 100, [eps] * 3) is not None
    assert (len(ach_calls), len(conv_calls)) == (1, 1)


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
        lambda: converse_max_log2M_bec(ChannelSpec(BEC, 0.5, 1000), 1e-3, 1 / 3),
        lambda r: converse_eps_bec(ChannelSpec(BEC, 0.5, 1000), r, 1 / 3),
    ),
    "bec_header_converse": (
        lambda: header_conv_max_log2M_bec(ChannelSpec(BEC, 0.5, 1000), 1e-3, 3, 100, [1e-3] * 3),
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
