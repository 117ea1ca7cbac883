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
(`numerics.invert_exp2_sum`). The closed form and the evaluator round
differently, so a search steps that rate down until the evaluator meets the
target. A header-split scan takes the closed-form rate, which is never
below the stepped one, and steps down only the splits that can win
(`best_over_splits`). Every rate is a Python float.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import ResourceBudgetError
from .channel import (
    MAX_BOUND_LENGTH, ChannelKind, ChannelSpec, info_density_spectrum,
)
from .numerics import LN2, _exp2_sum, invert_exp2_sum, log_sum_exp


# a feasible search with lazy=True: (upper, confirm), where upper is never
# below the rate and confirm() returns the rate
LazyRate = Tuple[float, Callable[[], float]]


class _SimplexFields(NamedTuple):
    weights: tuple


class SimplexWeights(_SimplexFields):
    """Resource-split weights over the m classes: nonnegative, summing to 1."""

    __slots__ = ()

    def __new__(cls, weights):
        w = tuple(float(v) for v in weights)
        # written so that NaN fails both checks
        if not all(v >= 0 for v in w):
            raise ValueError(f"simplex weights must be nonnegative: {w}")
        if not abs(sum(w) - 1.0) <= 1e-12:
            raise ValueError(f"simplex weights must sum to 1, got {sum(w)!r}")
        return super().__new__(cls, w)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class _HeaderFields(NamedTuple):
    n0: int


class HeaderSplit(_HeaderFields):
    """First n0 channel uses carry the class index, the rest carry the message."""

    __slots__ = ()

    def __new__(cls, n0: int):
        if n0 < 0:
            raise ValueError(f"n0 must be >= 0, got {n0}")
        return super().__new__(cls, n0)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def _block_sum(kind: ChannelKind, p: float, length: int, coeff: float, hinge: bool = False) -> float:
    """min(1, S(coeff)), S the capped (or hinge) sum over the length-symbol spectrum.

    A -inf coefficient (one codeword) adds nothing: build no spectrum for it.
    A hinge term is positive only where coeff exceeds the density, which is
    monotone in t, so a hinge sum at or below both ends of it is 0: skip it.
    """
    if coeff == -math.inf:
        return 0.0
    spectrum = info_density_spectrum(kind, length, p)
    if hinge and coeff <= min(spectrum.density[0], spectrum.density[-1]):
        return 0.0
    return _exp2_sum(spectrum.log_mass, -spectrum.density, coeff, hinge)


def _max_log2M(
    spec: ChannelSpec, length: int, eps: float, coeff: Callable[[float], float] = float,
    log2M: Callable[[float], float] = float, hinge: bool = False, fixed: float = 0.0,
    all_eps: Sequence[float] = (), lazy: bool = False,
) -> Union[None, float, LazyRate]:
    """Largest log2M with min(1, fixed + block sum at coeff(log2M)) <= eps.

    `log2M` maps a coefficient back to its class size (both maps default to
    the identity), and `fixed` is a header term that does not depend on
    log2M. Returns None when one codeword misses eps, or when the header
    term misses a class target in `all_eps`. The closed-form inversion and
    the evaluator round differently, so the guess can sit a few ulps past
    the crossing: it is stepped down, by doubling steps, until the bound
    meets eps. With lazy=True the step-down is left to the caller: a
    feasible search returns (upper, confirm), where upper is the guess
    clamped at 0, never below the rate, and confirm() steps down to the rate.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")

    def bound(lm):
        return min(1.0, fixed + _block_sum(spec.kind, spec.p, length, coeff(lm), hinge))

    if fixed > min(all_eps, default=fixed) or bound(0.0) > eps:
        return None
    spectrum = info_density_spectrum(spec.kind, length, spec.p)
    guess = log2M(invert_exp2_sum(spectrum.log_mass, -spectrum.density, eps - fixed, hinge))
    # the scalars, not the spectrum: a scan keeps every asked split's confirm
    confirm = functools.partial(_step_down, bound, eps, guess, spec.kind, length, spec.p)
    return (max(guess, 0.0), confirm) if lazy else confirm()


def _step_down(
    bound: Callable[[float], float], eps: float, guess: float,
    kind: ChannelKind, length: int, p: float,
) -> float:
    """The first x of guess, guess - u, guess - 2u, guess - 4u, ... with
    bound(x) <= eps, or 0 when none above 0 does; u is an ulp of guess.

    The float spectrum's masses sum to a few ulps less than 1, and a guess of
    +inf says the target is at or above that sum: it is refused."""
    if guess == math.inf:
        shortfall = -math.expm1(log_sum_exp(info_density_spectrum(kind, length, p).log_mass))
        raise ResourceBudgetError(
            f"eps = {eps!r} at block length {length} reaches the float "
            f"spectrum's mass, which falls {shortfall:.3g} short of 1, so the rate is "
            "unbounded; take a smaller eps"
        )
    x, step = guess, math.ulp(max(abs(guess), 1.0))
    while x > 0.0 and bound(x) > eps:
        x = guess - step
        step *= 2.0
    return float(max(x, 0.0))


def _log2_lambda(lambda_i: float) -> float:
    """log2(lambda_i) for a class weight lambda_i in (0,1]; the one lambda rule."""
    if not 0.0 < lambda_i <= 1.0:
        raise ValueError(f"lambda_i must be in (0,1], got {lambda_i}")
    return math.log2(lambda_i)


def class_rate(
    rate: Optional[float], lambda_i: float, fits_one: Callable[[], bool] = lambda: False
) -> Optional[float]:
    """rate + log2(lambda_i): a class's log2M from its homogeneous (lambda = 1) rate.

    None when `rate` is None, or when that is below 0 and `fits_one()`, the
    class bound at log2M = 0 meeting eps, is false; 0 when it is true. A
    searched rate can sit a few ulps below an exact crossing, so at a tie
    only the bound itself tells whether one codeword fits. A class bound is
    monotone in log2M - log2(lambda) and depends on nothing else, so the sum
    steps down until shifting back does not exceed `rate`: then it meets eps
    exactly.
    """
    log2_lambda = _log2_lambda(lambda_i)
    if rate is None:
        return None
    shifted = rate + log2_lambda
    while shifted - log2_lambda > rate:
        shifted = math.nextafter(shifted, -math.inf)
    if shifted >= 0.0:
        return shifted
    return 0.0 if fits_one() else None


def dt_class_bound(spec: ChannelSpec, log2M: float, lambda_i: float) -> float:
    """Upper bound on the class error of a UMP code with M/lambda threshold."""
    log2_lambda = _log2_lambda(lambda_i)
    if log2M < 0:
        raise ValueError(f"log2M must be >= 0, got {log2M}")
    return _block_sum(spec.kind, spec.p, spec.n, log2M - log2_lambda)


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
        raise ValueError(f"n0 must be in [0, n], got {split.n0}")
    if split.n0 == 0 and m != 1:
        raise ValueError("a zero-length header cannot distinguish m > 1 classes")
    if log2M < 0:
        raise ValueError(f"log2M must be >= 0, got {log2M}")
    payload = _block_sum(spec.kind, spec.p, spec.n - split.n0, _log2_count_minus_one(log2M) - 1.0)
    return min(1.0, _header_sum(spec.kind, spec.p, split.n0, m, False) + payload)


# each scan reads tens of splits, and a capacity-0 channel up to n + 1 of them,
# for each of the two header columns: at the longest block `bound` accepts that
# is 2 * 174,762 entries of a float (or None) and a short key, about 220 bytes
# each, so a full memo holds about 77 MB
SPLIT_CACHE_SIZE = 2 * (MAX_BOUND_LENGTH + 1)


@functools.lru_cache(maxsize=SPLIT_CACHE_SIZE)
def _header_sum(kind: ChannelKind, p: float, n0: int, m: int, hinge: bool) -> float:
    """h(n0): the DT sum of m header codewords (0 for one class), or with
    hinge=True the BEC converse's header floor (1 - 1/m at n0 = 0).

    Either depends on the split alone, not on n or eps, so a process sums
    each header once and every target and longer block reuses it.
    """
    if hinge:
        return _block_sum(kind, p, n0, math.log2(m), hinge=True)
    return _block_sum(kind, p, n0, math.log2(m - 1) - 1.0) if m > 1 else 0.0


def max_log2M_dt(spec: ChannelSpec, eps_target: float, lambda_i: float) -> Optional[float]:
    """Largest class size (in bits) whose DT bound meets eps_target.

    Returns None when even a single codeword exceeds the target; rate sweeps
    hit that routinely at small n, so infeasibility is a value, not an error.
    """
    return class_rate(
        _max_log2M(spec, spec.n, eps_target), lambda_i,
        lambda: dt_class_bound(spec, 0.0, lambda_i) <= eps_target,
    )


def max_log2M_header_ach(
    spec: ChannelSpec, eps_target: float, m: int, n0: int, all_eps: Sequence[float],
    lazy: bool = False,
) -> Union[None, float, LazyRate]:
    """Largest payload size meeting eps_target for a fixed header split.

    The split is admissible when it supports at least one codeword in every
    class, i.e. the bound at M=1 meets every class's target. The header term
    does not depend on the class, so that reduces to a single comparison
    against the strictest target. Returns None for an inadmissible split,
    including a zero-length header with m > 1 classes. lazy=True returns
    (upper, confirm) for a feasible split (`_max_log2M`).
    """
    if not 0 <= n0 <= spec.n:
        raise ValueError(f"n0 must be in [0, n], got {n0}")
    # at log2M = 0 the payload sum vanishes, leaving the header term; a
    # zero-length header tells m > 1 classes apart with no guarantee at all
    header = 1.0 if n0 == 0 and m > 1 else _header_sum(spec.kind, spec.p, n0, m, False)
    # the payload coefficient log2(2^x - 1) - 1 inverts to x = log2(1 + 2^(coeff + 1))
    return _max_log2M(
        spec, spec.n - n0, eps_target, lambda lm: _log2_count_minus_one(lm) - 1.0,
        lambda c: float(np.logaddexp2(0.0, c + 1.0)), fixed=header, all_eps=all_eps, lazy=lazy,
    )


# the pruning cap is exact up to rounding; this margin keeps rounding from pruning a winner
SPLIT_PRUNE_SLACK_BITS = 1e-9


def best_over_splits(
    rate: Callable[..., Union[None, float, LazyRate]],
    spec: ChannelSpec,
    eps: float,
    m: int,
    all_eps: Sequence[float],
    n0: Optional[int] = None,
) -> Optional[float]:
    """Largest rate(spec, eps, m, split, all_eps) over the header splits, or at n0 alone.

    Infeasible splits (None) are skipped. Returns None when no split is
    feasible, which includes a fixed n0 beyond the blocklength. A header
    column rates split s by a payload search at budget eps - h(s), h(s) a
    split-only memo: the DT header sum (`_header_sum`) for achievability, eps0
    (`converse._header_eps0`) and the header floor (`_header_sum`, hinge=True)
    for the BSC and BEC converses.

    The auto scan returns exactly the all-splits maximum, at a cost that
    grows with the winning header length rather than with n. It asks `rate`
    for lazy values (lazy=True): at split s an upper value u(s), the
    closed-form guess, never below the rate r(s) and None exactly when r(s)
    is, and a confirm() that steps the guess down to r(s) without inverting
    again (on the BSC converse u(s) = r(s)). Header terms are >= 0 and only
    shrink as the header grows, every rate is nondecreasing in its budget,
    and each payload bound only gets better as its block gets longer:
      - the DT sum E[min(1, 2^(c - i_L))] is nonincreasing in L (Jensen:
        E_P[2^-i_1] <= 1 and min(1, a z) is concave in z);
      - the Neyman-Pearson beta_L(alpha) is nonincreasing in L, since a test
        may ignore a symbol;
      - the BEC converse sum is nonincreasing in L, term by term.
    So the feasible splits form a suffix of 0..n, and no split s' >= s rates
    above cap(s) = rate(length n - s, eps, 1, 0, [eps]), which spends the
    whole budget on the payload. The scan runs in four steps:
      1. It gallops over splits 0, 1, 3, 7, ..., n to a feasible one, then
         bisects back to the first feasible split.
      2. It visits splits from there upward, asking each split once: a memo
         made for the call keeps the gallop's probes for the visit. The top
         is the visited split of largest upper value.
      3. After a split that did not raise u(top), it checks the cap of the
         next split s < n and stops once r(top), confirmed when first
         needed, is at least u(cap(s)) + SPLIT_PRUNE_SLACK_BITS, or cap(s)
         is None. Since u(cap(s)) >= r(s), a cap right after an improvement
         almost never stops the scan; skipping it there delays the stop by
         at most one split.
      4. It confirms the splits asked in decreasing upper value until the
         next upper value is at most the best rate confirmed: no split
         rates above its upper value.
    With one class (m = 1) the header is empty and its term is 0, so split 0
    puts the whole block on the payload and is the maximum in exact
    arithmetic: when it is feasible the scan returns its rate at once. In
    float a later split can rate above it by rounding alone, by at most
    1.5e-11 bits in the cases checked (BSC(1/2), n = 10^4, where every split
    rates the same and a scan would visit all n + 1 of them).
    Split n itself is never capped: there is no length-0 ChannelSpec, and a
    length-0 payload still carries log2(1 + 2 eps) bits in the DT bound, so a
    cap of 0 there would be wrong. At a first feasible split s0 and a stop
    at split S, the scan asks about 2 log2(s0 + 1) + (S - s0) splits plus
    one cap per split that did not improve, and confirms a few of them: 34
    and 15 rate calls, caps included, and 3 and 2 confirmations for the two
    header columns at BSC(0.11), eps = 1e-3, m = 3, n = 1000.
    """
    n = spec.n
    if n0 is not None:
        return rate(spec, eps, m, n0, all_eps) if n0 <= n else None
    # fresh memos per call: nothing outlives the scan
    asked: Dict[int, Optional[LazyRate]] = {}

    def upper(s: int) -> Optional[float]:
        if s not in asked:
            asked[s] = rate(spec, eps, m, s, all_eps, lazy=True)
        return None if asked[s] is None else asked[s][0]

    confirmed = functools.cache(lambda s: asked[s][1]())
    if m == 1 and upper(0) is not None:
        return confirmed(0)
    # after the gallop, lo is infeasible (or -1) and hi is feasible
    lo, hi = -1, 0
    while upper(hi) is None:
        if hi == n:
            return None
        lo, hi = hi, min(2 * hi + 1, n)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if upper(mid) is None:
            lo = mid
        else:
            hi = mid
    top, improved = hi, True
    for s in range(hi + 1, n + 1):
        if not improved and s < n:
            cap = rate(ChannelSpec(spec.kind, spec.p, n - s), eps, 1, 0, [eps], lazy=True)
            if cap is None or confirmed(top) >= cap[0] + SPLIT_PRUNE_SLACK_BITS:
                break
        improved = upper(s) is not None and upper(s) > upper(top)
        if improved:
            top = s
    best = confirmed(top)
    for s in sorted((s for s in asked if asked[s] is not None), key=upper, reverse=True):
        if upper(s) <= best:
            break
        best = max(best, confirmed(s))
    return best


def max_log2M_header_ach_best(
    spec: ChannelSpec, eps_target: float, m: int, all_eps: Sequence[float]
) -> Optional[float]:
    """Best header-achievability rate over all admissible splits."""
    return best_over_splits(max_log2M_header_ach, spec, eps_target, m, all_eps)
