"""Log-domain arithmetic and special functions used by every bound computation.

All user-facing rates and entropies are in bits (base-2); internal tail-sum
accumulation happens in natural logs. Probability masses like
C(n,t) p^t (1-p)^(n-t) routinely underflow doubles for n in the thousands,
so they are carried as natural-log magnitudes throughout.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

LN2 = math.log(2.0)

_NEG_INF = float("-inf")


class LogValue(NamedTuple):
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
    """min(1, S(c)) for the sums that invert_exp2_sum inverts, at c > -inf.

    Every term is formed in the log domain before accumulation: the DT min is
    taken per summand, never by clamping an overflowed sum, and the hinge
    factor 1 - 2^e, e = -(c + s) < 0, is -expm1(e ln 2), which keeps its
    relative accuracy as e -> 0.
    """
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
    which _exp2_sum evaluates. The shifts need not be sorted: a stable sort
    orders them. The prefix and suffix sums, the breakpoint values and their
    running max are written with out= into one buffer allocated per call.
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
    # index k: sums over the terms j < k, the active prefix left of breakpoint
    # k; log_b[k] sums the B terms of segment k; the last breakpoint value is
    # S(+inf), the total mass
    log_mass, log_b, log_at_break = np.empty((3, len(s) + 1))
    log_mass[0] = _NEG_INF
    np.logaddexp.accumulate(log_w, out=log_mass[1:])
    if hinge:
        log_b[0] = _NEG_INF
        np.logaddexp.accumulate(log_w - s, out=log_b[1:])
        log_at_break[:-1] = _log_sub(log_mass[:-1], log_b[:-1] + s)
    else:
        log_b[-1] = _NEG_INF
        np.logaddexp.accumulate((log_w + s)[::-1], out=log_b[-2::-1])
        np.logaddexp(log_mass[:-1], log_b[:-1] - s, out=log_at_break[:-1])
    log_at_break[-1] = log_mass[-1]
    np.maximum.accumulate(log_at_break, out=log_at_break)
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
    The coefficients and the order of every operation are those of
    `statistics.NormalDist.inv_cdf`, whose bits this returns negated; the
    module is not imported, since it loads `fractions` and `decimal` too.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"gaussian_Q_inv requires eps in (0,1), got {eps}")
    # Wichura, M.J. (1988). "Algorithm AS241: The Percentage Points of the
    # Normal Distribution". Applied Statistics 37 (3): 477-484.
    q = eps - 0.5
    if abs(q) <= 0.425:
        r = 0.180625 - q * q
        num = (((((((2.50908_09287_30122_6727e+3 * r +
                     3.34305_75583_58812_8105e+4) * r +
                     6.72657_70927_00870_0853e+4) * r +
                     4.59219_53931_54987_1457e+4) * r +
                     1.37316_93765_50946_1125e+4) * r +
                     1.97159_09503_06551_4427e+3) * r +
                     1.33141_66789_17843_7745e+2) * r +
                     3.38713_28727_96366_6080e+0) * q
        den = (((((((5.22649_52788_52854_5610e+3 * r +
                     2.87290_85735_72194_2674e+4) * r +
                     3.93078_95800_09271_0610e+4) * r +
                     2.12137_94301_58659_5867e+4) * r +
                     5.39419_60214_24751_1077e+3) * r +
                     6.87187_00749_20579_0830e+2) * r +
                     4.23133_30701_60091_1252e+1) * r +
                     1.0)
        # 0.0 - x rather than -x, so that Q^-1(1/2) is +0.0
        return 0.0 - num / den
    r = math.sqrt(-math.log(eps if q <= 0.0 else 1.0 - eps))
    if r <= 5.0:
        r = r - 1.6
        num = (((((((7.74545_01427_83414_07640e-4 * r +
                     2.27238_44989_26918_45833e-2) * r +
                     2.41780_72517_74506_11770e-1) * r +
                     1.27045_82524_52368_38258e+0) * r +
                     3.64784_83247_63204_60504e+0) * r +
                     5.76949_72214_60691_40550e+0) * r +
                     4.63033_78461_56545_29590e+0) * r +
                     1.42343_71107_49683_57734e+0)
        den = (((((((1.05075_00716_44416_84324e-9 * r +
                     5.47593_80849_95344_94600e-4) * r +
                     1.51986_66563_61645_71966e-2) * r +
                     1.48103_97642_74800_74590e-1) * r +
                     6.89767_33498_51000_04550e-1) * r +
                     1.67638_48301_83803_84940e+0) * r +
                     2.05319_16266_37758_82187e+0) * r +
                     1.0)
    else:
        r = r - 5.0
        num = (((((((2.01033_43992_92288_13265e-7 * r +
                     2.71155_55687_43487_57815e-5) * r +
                     1.24266_09473_88078_43860e-3) * r +
                     2.65321_89526_57612_30930e-2) * r +
                     2.96560_57182_85048_91230e-1) * r +
                     1.78482_65399_17291_33580e+0) * r +
                     5.46378_49111_64114_36990e+0) * r +
                     6.65790_46435_01103_77720e+0)
        den = (((((((2.04426_31033_89939_78564e-15 * r +
                     1.42151_17583_16445_88870e-7) * r +
                     1.84631_83175_10054_68180e-5) * r +
                     7.86869_13114_56132_59100e-4) * r +
                     1.48753_61290_85061_48525e-2) * r +
                     1.36929_88092_27358_05310e-1) * r +
                     5.99832_20655_58879_37690e-1) * r +
                     1.0)
    # the tail x = num / den is positive, and Phi^-1 takes the sign of q
    x = num / den
    return x if q < 0.0 else -x
