"""Exact rate inversion against a fine bisection of the same library evaluators.

The reference search is the bisection the package used before the closed
form, run to 1e-9 bits. Bisection returns the lower end of its bracket, so
the exact inversion may sit above it by at most that bracket plus rounding,
and never below it by more than the bracket.
"""

import math

import numpy as np
import pytest

from umpbounds.achievability import (
    HeaderSplit,
    dt_class_bound,
    header_ach_bound,
    max_log2M_dt,
    max_log2M_header_ach,
)
from umpbounds.channel import ChannelKind, ChannelSpec
from umpbounds.converse import (
    _header_eps0_index,
    converse_eps_bec,
    converse_max_log2M_bec,
    header_conv_eps_bec,
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
