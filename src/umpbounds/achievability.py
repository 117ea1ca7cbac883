"""Dependence-testing achievability bounds for UMP codes and header codes.

Every bound here is a binomial tail sum of the form

    sum_t  C(len,t) p^t (1-p)^(len-t) * min[1, 2^(coeff + density shift at t)]

evaluated by `_block_sum` fully in the log domain (`numerics._exp2_sum`): the
min is taken per summand before accumulation, never by clamping an
overflowed sum. Class sizes are carried as real-valued log2(M); a concrete
integer code takes floor(2^log2M).

Every search over such a sum, the BEC converses' hinge sums in `converse`
included, is `_max_log2M`: the sum is piecewise A + B 2^coeff between the
breakpoints coeff = -shift, so one pass over the terms solves it exactly
(`numerics.invert_exp2_sum`). The search steps that rate down until the
evaluator meets the target, since the two round differently. Every rate is
a Python float.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .channel import ChannelSpec, info_density_spectrum
from .numerics import LN2, _exp2_sum, invert_exp2_sum


@dataclass(frozen=True)
class SimplexWeights:
    """Resource-split weights over the m classes: nonnegative, summing to 1."""

    weights: tuple

    def __init__(self, weights):
        w = tuple(float(v) for v in weights)
        # written so that NaN fails both checks
        if not all(v >= 0 for v in w):
            raise ValueError(f"simplex weights must be nonnegative: {w}")
        if not abs(sum(w) - 1.0) <= 1e-12:
            raise ValueError(f"simplex weights must sum to 1, got {sum(w)!r}")
        object.__setattr__(self, "weights", w)

    def __getitem__(self, i):
        return self.weights[i]


@dataclass(frozen=True)
class HeaderSplit:
    """First n0 channel uses carry the class index, the rest carry the message."""

    n0: int

    def __post_init__(self):
        if self.n0 < 0:
            raise ValueError(f"n0 must be >= 0, got {self.n0}")


def _block_sum(spec: ChannelSpec, length: int, coeff: float, hinge: bool = False) -> float:
    """min(1, S(coeff)), S the capped (or hinge) sum over the length-symbol spectrum.

    A -inf coefficient (one codeword) adds nothing: build no spectrum for it.
    """
    if coeff == -math.inf:
        return 0.0
    spectrum = info_density_spectrum(spec.kind, length, spec.p)
    return _exp2_sum(spectrum.log_mass, -spectrum.density, coeff, hinge)


def _max_log2M(
    spec: ChannelSpec, length: int, eps: float, coeff: Callable[[float], float],
    log2M: Callable[[float], float], hinge: bool = False, fixed: float = 0.0,
    all_eps: Sequence[float] = (),
) -> Optional[float]:
    """Largest log2M with min(1, fixed + block sum at coeff(log2M)) <= eps.

    `log2M` maps a coefficient back to its class size, and `fixed` is a
    header term that does not depend on log2M. Returns None when one
    codeword misses eps, or when the header term misses a class target in
    `all_eps`. The closed-form inversion and the evaluator round
    differently, so the guess can sit a few ulps past the crossing: it is
    stepped down, by doubling steps, until the bound meets eps.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")

    def bound(lm):
        return min(1.0, fixed + _block_sum(spec, length, coeff(lm), hinge))

    if fixed > min(all_eps, default=fixed) or bound(0.0) > eps:
        return None
    spectrum = info_density_spectrum(spec.kind, length, spec.p)
    guess = log2M(invert_exp2_sum(spectrum.log_mass, -spectrum.density, eps - fixed, hinge))
    if guess == math.inf:
        return math.inf
    x, step = guess, math.ulp(max(abs(guess), 1.0))
    while x > 0.0 and bound(x) > eps:
        x = guess - step
        step *= 2.0
    return float(max(x, 0.0))


def _log2_lambda(lambda_i: float) -> float:
    """log2(lambda_i), the shift of the DT class coefficient, for lambda_i in (0,1]."""
    if not 0.0 < lambda_i <= 1.0:
        raise ValueError(f"lambda_i must be in (0,1], got {lambda_i}")
    return math.log2(lambda_i)


def dt_class_bound(spec: ChannelSpec, log2M: float, lambda_i: float) -> float:
    """Upper bound on the class error of a UMP code with M/lambda threshold.

    The bound depends on M and lambda only through M/lambda, so it is exactly
    invariant under (log2M, lambda) -> (log2M - log2 lambda, 1).
    """
    log2_lambda = _log2_lambda(lambda_i)
    if log2M < 0:
        raise ValueError(f"log2M must be >= 0, got {log2M}")
    return _block_sum(spec, spec.n, log2M - log2_lambda)


def _log2_count_minus_one(log2_count: float) -> float:
    """log2(2^x - 1), the multiplier for homogeneous DT bounds; -inf at x=0."""
    if log2_count < 0:
        raise ValueError(f"count must be >= 1, got log2 count {log2_count}")
    if log2_count == 0.0:
        return -math.inf
    # 1 - 2^-x as -expm1(-x ln 2) keeps its relative accuracy as x -> 0
    return log2_count + math.log2(-math.expm1(-log2_count * LN2))


def header_ach_bound(spec: ChannelSpec, split: HeaderSplit, m: int, log2M: float) -> float:
    """Class error bound for the header construction.

    Two homogeneous dependence-testing bounds back to back: m codewords over
    the n0-symbol header, then 2^log2M codewords over the remaining n - n0
    symbols. With m = 1 and n0 = 0 this is exactly the classical homogeneous
    bound.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if split.n0 > spec.n:
        raise ValueError(f"n0={split.n0} exceeds blocklength n={spec.n}")
    if split.n0 == 0 and m != 1:
        raise ValueError("a zero-length header cannot distinguish m > 1 classes")
    if log2M < 0:
        raise ValueError(f"log2M must be >= 0, got {log2M}")
    header = _block_sum(spec, split.n0, (math.log2(m - 1) - 1.0) if m > 1 else -math.inf)
    payload = _block_sum(spec, spec.n - split.n0, _log2_count_minus_one(log2M) - 1.0)
    return min(1.0, header + payload)


def max_log2M_dt(spec: ChannelSpec, eps_target: float, lambda_i: float) -> Optional[float]:
    """Largest class size (in bits) whose DT bound meets eps_target.

    Returns None when even a single codeword exceeds the target; rate sweeps
    hit that routinely at small n, so infeasibility is a value, not an error.
    """
    log2_lambda = _log2_lambda(lambda_i)
    return _max_log2M(
        spec, spec.n, eps_target, lambda lm: lm - log2_lambda, lambda c: c + log2_lambda
    )


def max_log2M_header_ach(
    spec: ChannelSpec, eps_target: float, m: int, n0: int, all_eps: Sequence[float]
) -> Optional[float]:
    """Largest payload size meeting eps_target for a fixed header split.

    The split is admissible when it supports at least one codeword in every
    class, i.e. the bound at M=1 meets every class's target. The header term
    does not depend on the class, so that reduces to a single comparison
    against the strictest target. Returns None for an inadmissible split,
    including a zero-length header with m > 1 classes.
    """
    # at log2M = 0 the payload sum vanishes, leaving the header term; a
    # zero-length header tells m > 1 classes apart with no guarantee at all
    header_term = 1.0 if n0 == 0 and m > 1 else header_ach_bound(spec, HeaderSplit(n0), m, 0.0)
    # the payload coefficient log2(2^x - 1) - 1 inverts to x = log2(1 + 2^(coeff + 1))
    return _max_log2M(
        spec, spec.n - n0, eps_target, lambda lm: _log2_count_minus_one(lm) - 1.0,
        lambda c: float(np.logaddexp2(0.0, c + 1.0)), fixed=header_term, all_eps=all_eps,
    )


# the pruning cap is exact up to rounding; this margin keeps rounding from pruning a winner
SPLIT_PRUNE_SLACK_BITS = 1e-9


def best_over_splits(
    rate: Callable[..., Optional[float]],
    spec: ChannelSpec,
    eps: float,
    m: int,
    all_eps: Sequence[float],
    n0: Optional[int] = None,
) -> Optional[float]:
    """Largest rate(spec, eps, m, split, all_eps) over the header splits, or at n0 alone.

    Infeasible splits (None) are skipped. Returns None when no split is
    feasible, which includes a fixed n0 beyond the blocklength.

    The auto scan returns exactly the all-splits maximum, at a cost that
    grows with the winning header length rather than with n. Header terms
    are >= 0 and only shrink as the header grows, every rate is
    nondecreasing in its budget, and each payload bound only gets better as
    its block gets longer:
      - the DT sum E[min(1, 2^(c - i_L))] is nonincreasing in L (Jensen:
        E_P[2^-i_1] <= 1 and min(1, a z) is concave in z);
      - the Neyman-Pearson beta_L(alpha) is nonincreasing in L, since a test
        may ignore a symbol;
      - the BEC converse sum is nonincreasing in L, term by term.
    So the feasible splits form a suffix of 0..n, and no split s' >= s rates
    above cap(s) = rate(length n - s, eps, 1, 0, [eps]), which spends the
    whole budget on the payload. The scan runs in three steps:
      1. It gallops over splits 0, 1, 3, 7, ..., n to a feasible one, then
         bisects back to the first feasible split.
      2. It visits splits from there upward. Each rate is computed once: a
         memo made for the call keeps the gallop's probes for the visit.
      3. After a split that did not raise the best rate, it checks the cap
         of the next split s < n and stops once the best rate so far is at
         least cap(s) + SPLIT_PRUNE_SLACK_BITS, or cap(s) is None. A cap
         costs a full rate search, and cap(s) >= rate(s), so right after an
         improvement it almost never stops the scan; skipping it there
         delays the stop by at most one split.
    Split n itself is never capped: there is no length-0 ChannelSpec, and a
    length-0 payload still carries log2(1 + 2 eps) bits in the DT bound, so a
    cap of 0 there would be wrong. At a first feasible split s0 and a stop
    at split S, the scan makes about 2 log2(s0 + 1) + (S - s0) rate calls
    plus one per cap checked: 34 and 15 for the two header columns at
    BSC(0.11), eps = 1e-3, m = 3, n = 1000.
    """
    n = spec.n
    if n0 is not None:
        return rate(spec, eps, m, n0, all_eps) if n0 <= n else None
    # a fresh memo per call: nothing outlives the scan
    rate_at = functools.cache(lambda s: rate(spec, eps, m, s, all_eps))
    # after the gallop, lo is infeasible (or -1) and hi is feasible
    lo, hi = -1, 0
    while rate_at(hi) is None:
        if hi == n:
            return None
        lo, hi = hi, min(2 * hi + 1, n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if rate_at(mid) is None:
            lo = mid
        else:
            hi = mid
    best, improved = rate_at(hi), True
    for s in range(hi + 1, n + 1):
        if not improved and s < n:
            cap = rate(ChannelSpec(spec.kind, spec.p, n - s), eps, 1, 0, [eps])
            if cap is None or best >= cap + SPLIT_PRUNE_SLACK_BITS:
                break
        r = rate_at(s)
        improved = r is not None and r > best
        if improved:
            best = r
    return best


def max_log2M_header_ach_best(
    spec: ChannelSpec, eps_target: float, m: int, all_eps: Sequence[float]
) -> Optional[float]:
    """Best header-achievability rate over all admissible splits."""
    return best_over_splits(max_log2M_header_ach, spec, eps_target, m, all_eps)
