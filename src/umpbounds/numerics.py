"""Log-domain arithmetic and special functions used by every bound computation.

All user-facing rates and entropies are in bits (base-2); internal tail-sum
accumulation happens in natural logs. Probability masses like
C(n,t) p^t (1-p)^(n-t) routinely underflow doubles for n in the thousands,
so they are carried as natural-log magnitudes throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

LN2 = math.log(2.0)

_NEG_INF = float("-inf")


@dataclass(frozen=True)
class LogValue:
    """A nonnegative quantity stored as its natural-log magnitude.

    Exact zero is encoded as log_magnitude = -inf (is_zero is True); any
    finite log_magnitude represents exp(log_magnitude) > 0.
    """

    log_magnitude: float

    @property
    def is_zero(self) -> bool:
        return self.log_magnitude == _NEG_INF

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(_NEG_INF)

    def to_linear(self) -> float:
        if self.is_zero:
            return 0.0
        return math.exp(self.log_magnitude)

    def log2(self) -> float:
        """Base-2 logarithm of the represented value (-inf for zero)."""
        return self.log_magnitude / LN2


def log_sum_exp(log_terms) -> float:
    """ln sum_t exp(log_terms[t]) with the max shift; -inf for no or only zero terms."""
    a = np.asarray(log_terms, dtype=float)
    if a.size == 0:
        return _NEG_INF
    peak = float(a.max())
    if peak == _NEG_INF:
        return _NEG_INF
    return peak + math.log(float(np.exp(a - peak).sum()))


def _log_sub(a, b):
    """ln(e^a - e^b) elementwise for a >= b; -inf where the difference is zero."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(a > b, a + np.log1p(-np.exp(b - a)), _NEG_INF)


def _exp2_sum(log_w, shift, c: float, hinge: bool = False) -> float:
    """min(1, S(c)) for the sums that invert_exp2_sum inverts; 0 at c = -inf.

    Every term is formed in the log domain before accumulation: the DT min is
    taken per summand, never by clamping an overflowed sum, and the hinge
    factor 1 - 2^e, e = -(c + s) < 0, is -expm1(e ln 2), which keeps its
    relative accuracy as e -> 0.
    """
    if c == _NEG_INF:
        return 0.0
    exponent = c + shift
    if hinge:
        exponent = -exponent
        keep = exponent < 0.0
        log_terms = log_w[keep] + np.log(-np.expm1(exponent[keep] * LN2))
    else:
        log_terms = log_w + np.minimum(0.0, exponent * LN2)
    return min(1.0, math.exp(log_sum_exp(log_terms)))


def invert_exp2_sum(log_w, shift, budget: float, hinge: bool = False) -> float:
    """Largest c with S(c) <= budget, in closed form, for the monotone sums

        S(c) = sum_t w_t min(1, 2^(c + s_t))       (hinge=False, DT sums)
        S(c) = sum_t w_t (1 - 2^-(c + s_t))^+      (hinge=True, converse sums)

    where w_t = exp(log_w[t]) and the shifts s_t are in bits. Sorted by s_t
    descending, the terms with c + s_t >= 0 are a prefix; between consecutive
    breakpoints c = -s_t the sum is A + B 2^c (resp. A - B 2^-c), where A is
    that prefix's mass and B the 2^(+-s)-weighted mass of the other (resp.
    same) terms. Log-domain prefix and suffix sums give S at every breakpoint,
    one searchsorted finds the segment, and the segment's equation is solved
    exactly. Returns +inf when S never exceeds budget. The result is exact up
    to rounding; `achievability._max_log2M` confirms it against the bound,
    which _exp2_sum evaluates.
    """
    log_w = np.asarray(log_w, dtype=float)
    log_budget = math.log(budget) if budget > 0.0 else _NEG_INF
    # a term never adds more than its weight to S, so terms that together weigh
    # under 2^-60 of the budget cannot move S at the crossing: leave them out
    keep = log_w > max(log_budget - math.log(len(log_w)) - 60.0 * LN2, _NEG_INF)
    s = np.asarray(shift, dtype=float)[keep]
    order = np.argsort(-s, kind="stable")
    log_w = log_w[keep][order]
    s = s[order] * LN2  # nats, descending
    # index k: sums over the terms j < k, the active prefix left of breakpoint k
    log_mass = np.concatenate(([_NEG_INF], np.logaddexp.accumulate(log_w)))
    if hinge:
        log_b = np.concatenate(([_NEG_INF], np.logaddexp.accumulate(log_w - s)))
        log_at_break = _log_sub(log_mass[:-1], log_b[:-1] + s)
    else:
        log_b = np.concatenate((np.logaddexp.accumulate((log_w + s)[::-1])[::-1], [_NEG_INF]))
        log_at_break = np.logaddexp(log_mass[:-1], log_b[:-1] - s)
    # the last entry is S(+inf), the total mass
    log_at_break = np.maximum.accumulate(np.append(log_at_break, log_mass[-1]))
    k = int(np.searchsorted(log_at_break, log_budget, side="right"))
    if k == len(log_at_break):
        return math.inf
    lo = -s[k - 1] / LN2 if k > 0 else _NEG_INF
    hi = -s[k] / LN2 if k < len(s) else math.inf
    if hinge:  # budget = A - B 2^-c
        log_gap = float(_log_sub(log_mass[k], log_budget))
        c = (log_b[k] - log_gap) / LN2
    elif log_b[k] == _NEG_INF:  # rounding put budget in the flat tail: S(lo) <= budget
        return lo
    else:  # budget = A + B 2^c
        log_gap = float(_log_sub(log_budget, log_mass[k]))
        c = (log_gap - log_b[k]) / LN2
    return min(max(c, lo), hi)


# ln k! for k < len; grown on demand, so one table serves every length
_log_factorial_table = np.zeros(1)


def _log_factorials(size: int) -> np.ndarray:
    """ln k! = lgamma(k + 1) for k < size, a read-only prefix of the shared table.

    The table at least doubles when it grows, so building it costs fewer
    than two lgamma calls per entry of the largest size requested.
    """
    global _log_factorial_table
    # threads may grow the table at once; each reads only the table it holds
    table = _log_factorial_table
    have = len(table)
    if size > have:
        grown = max(size, 2 * have)
        more = np.fromiter(map(math.lgamma, range(have + 1, grown + 1)), float, grown - have)
        table = np.concatenate((table, more))
        table.flags.writeable = False
        _log_factorial_table = table
    return table[:size]


def log_binomial_row(n: int) -> np.ndarray:
    """ln C(n,t) for all t = 0..n from one shared table of ln k! values.

    Each entry is lgamma(n+1) - lgamma(t+1) - lgamma(n-t+1) in float64;
    absolute error below 1e-10 for n up to 1e4.
    """
    if n < 0:
        raise ValueError(f"negative n: {n}")
    lf = _log_factorials(n + 1)
    return lf[n] - lf[: n + 1] - lf[n::-1]


def gaussian_Q(x: float) -> float:
    """Upper tail of the standard normal, Q(x) = P[N(0,1) > x]."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def gaussian_Q_inv(eps: float) -> float:
    """Inverse of gaussian_Q on (0,1): -Phi^-1(eps), by Wichura's AS241.

    AS241 is accurate to about 1e-16 relative over the whole double range,
    so the tail eps near 1e-300 and the center eps near 1/2 need no polish.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"gaussian_Q_inv requires eps in (0,1), got {eps}")
    # 0.0 - x rather than -x, so that Q^-1(1/2) is +0.0
    return 0.0 - NormalDist().inv_cdf(eps)
