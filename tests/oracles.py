"""Exact rational-arithmetic reference evaluators for the finite-n bounds.

Everything here works over fractions.Fraction so the only approximation in a
comparison is the float rounding of the implementation under test. The tail
sums exploit that the per-term ratio is monotone in the summation index, so
each evaluation needs O(log n) exact comparisons after an O(n) precompute.

Past the sizes where fractions stay cheap, the BSC Neyman-Pearson references
use 60-digit mpmath arithmetic instead. An all-splits header scan is the
reference for the pruned one. The file ends with the information density
of one (input, output) word pair and exhaustive reference decoders for the
union-of-coset codes, which compare a channel output against every codeword
of every class.
"""

from __future__ import annotations

import functools
import math
from enum import IntEnum
from fractions import Fraction
from typing import List, Tuple

import mpmath
import numpy as np

from umpbounds.channel import ChannelKind, ChannelSpec, info_density_spectrum
from umpbounds.numerics import log_binomial_row

HALF = Fraction(1, 2)


def direct_spectrum(kind: ChannelKind, length: int, p: float) -> Tuple[np.ndarray, np.ndarray]:
    """(log_mass, density) of a length-symbol block, every entry formed from t."""
    t = np.arange(length + 1)
    if p in (0.0, 1.0):
        log_mass = np.full(length + 1, -np.inf)
        log_mass[0 if p == 0.0 else length] = 0.0
    else:
        log_mass = log_binomial_row(length) + t * math.log(p) + (length - t) * math.log(1.0 - p)
    if kind is ChannelKind.BSC:
        log2_p = math.log2(p) if p > 0.0 else 0.0
        log2_q = math.log2(1.0 - p) if p < 1.0 else 0.0
        density = length * (1.0 + log2_q) + t * (log2_p - log2_q)
    else:
        density = (length - t).astype(float)
    density[log_mass == -np.inf] = -np.inf
    return log_mass, density


def binom_weights(n: int, p: Fraction) -> List[Fraction]:
    """Exact Binomial(n, p) masses."""
    q = 1 - p
    return [Fraction(math.comb(n, t)) * p**t * q ** (n - t) for t in range(n + 1)]


class DtTailOracle:
    """Exact sum_t w_t min(1, c * r_t) for a nondecreasing ratio sequence r."""

    def __init__(self, weights: List[Fraction], ratios: List[Fraction]):
        assert all(b >= a for a, b in zip(ratios, ratios[1:])), "ratios must be sorted"
        self.ratios = ratios
        n1 = len(weights)
        self.prefix_wr = [Fraction(0)] * (n1 + 1)  # sum_{t<k} w_t r_t
        self.suffix_w = [Fraction(0)] * (n1 + 1)  # sum_{t>=k} w_t
        for t in range(n1):
            self.prefix_wr[t + 1] = self.prefix_wr[t] + weights[t] * ratios[t]
        for t in range(n1 - 1, -1, -1):
            self.suffix_w[t] = self.suffix_w[t + 1] + weights[t]

    def eval(self, c: Fraction) -> Fraction:
        """Exact bound value for multiplier c >= 0."""
        if c == 0:
            return Fraction(0)
        lo, hi = 0, len(self.ratios)  # first index with c*r >= 1
        while lo < hi:
            mid = (lo + hi) // 2
            if c * self.ratios[mid] >= 1:
                hi = mid
            else:
                lo = mid + 1
        return c * self.prefix_wr[lo] + self.suffix_w[lo]


def bsc_dt_oracle(length: int, p: Fraction) -> DtTailOracle:
    """Ratios 2^-L p^-t (1-p)^(t-L); nondecreasing for p <= 1/2."""
    assert 0 < p <= HALF
    q = 1 - p
    ratios = [
        Fraction(1, 2**length) / (p**t * q ** (length - t)) for t in range(length + 1)
    ]
    return DtTailOracle(binom_weights(length, p), ratios)


def bec_dt_oracle(length: int, p: Fraction) -> DtTailOracle:
    """Ratios 2^(t-L) over the erasure count t."""
    ratios = [Fraction(2**t, 2**length) for t in range(length + 1)]
    return DtTailOracle(binom_weights(length, p), ratios)


def dt_class_bound_exact(kind: str, n: int, p: Fraction, log2M: int, lam: Fraction) -> Fraction:
    oracle = bsc_dt_oracle(n, p) if kind == "bsc" else bec_dt_oracle(n, p)
    return min(Fraction(1), oracle.eval(Fraction(2**log2M) / lam))


def header_ach_bound_exact(
    kind: str, n: int, p: Fraction, n0: int, m: int, log2M: int
) -> Fraction:
    """Header-part plus payload-part homogeneous sums, multiplier (count-1)/2."""
    build = bsc_dt_oracle if kind == "bsc" else bec_dt_oracle
    total = build(n0, p).eval(Fraction(m - 1, 2))
    total += build(n - n0, p).eval(Fraction(2**log2M - 1, 2))
    return min(Fraction(1), total)


class BecConvOracle:
    """Exact sum_l w_l (1 - c * 2^(L-l))^+ ; positive terms form a suffix."""

    def __init__(self, length: int, p: Fraction):
        self.length = length
        weights = binom_weights(length, p)
        n1 = length + 1
        self.pow2 = [Fraction(2 ** (length - l)) for l in range(n1)]
        self.suffix_w = [Fraction(0)] * (n1 + 1)
        self.suffix_wp = [Fraction(0)] * (n1 + 1)  # sum_{l>=k} w_l 2^(L-l)
        for l in range(n1 - 1, -1, -1):
            self.suffix_w[l] = self.suffix_w[l + 1] + weights[l]
            self.suffix_wp[l] = self.suffix_wp[l + 1] + weights[l] * self.pow2[l]

    def eval(self, c: Fraction) -> Fraction:
        """Exact floor value for c = lambda/M (or 1/count)."""
        lo, hi = 0, self.length + 1  # first l with c * 2^(L-l) < 1
        while lo < hi:
            mid = (lo + hi) // 2
            if c * self.pow2[mid] < 1:
                hi = mid
            else:
                lo = mid + 1
        return self.suffix_w[lo] - c * self.suffix_wp[lo]


def converse_eps_bec_exact(n: int, p: Fraction, log2M: int, lam: Fraction) -> Fraction:
    return BecConvOracle(n, p).eval(lam / Fraction(2**log2M))


def header_conv_eps_bec_exact(
    n: int, p: Fraction, n0: int, m: int, log2M: int
) -> Fraction:
    total = BecConvOracle(n0, p).eval(Fraction(1, m))
    total += BecConvOracle(n - n0, p).eval(Fraction(1, 2**log2M))
    return min(Fraction(1), total)


def np_beta_exact_shells(n: int, p: Fraction, alpha: Fraction) -> Fraction:
    """Exact Neyman-Pearson beta via distance shells (needs 0 < p < 1/2)."""
    assert 0 < p < HALF and 0 <= alpha <= 1
    q = 1 - p
    pmass = binom_weights(n, p)
    qmass = [Fraction(math.comb(n, j), 2**n) for j in range(n + 1)]
    det = Fraction(0)
    beta = Fraction(0)
    for j in range(n + 1):
        if det + pmass[j] < alpha:
            det += pmass[j]
            beta += qmass[j]
            continue
        rho = (alpha - det) / pmass[j]
        return beta + rho * qmass[j]
    return beta  # alpha == 1


def np_beta_exact_outputs(n: int, p: Fraction, alpha: Fraction) -> Fraction:
    """Brute-force beta: enumerate all 2^n outputs, sort by likelihood ratio,
    fill detection mass greedily and randomize on the boundary output."""
    assert 0 < p < HALF
    q = 1 - p
    outputs = sorted(range(2**n), key=lambda y: bin(y).count("1"))
    det = Fraction(0)
    beta = Fraction(0)
    qmass = Fraction(1, 2**n)
    for y in outputs:
        d = bin(y).count("1")
        pmass = p**d * q ** (n - d)
        if det + pmass < alpha:
            det += pmass
            beta += qmass
            continue
        rho = (alpha - det) / pmass
        return beta + rho * qmass
    return beta


MP_DPS = 60


@functools.lru_cache(maxsize=None)
def mp_bsc_shells(n: int, p: float):
    """60-digit distance-shell masses: channel P(t), equiprobable Q(t) and the
    miss tails S(t) = sum_{u >= t} P(u), for the float p taken exactly. P is
    the Binomial(n, p) law, so it is the BEC erasure-count law too."""
    with mpmath.workdps(MP_DPS):
        p = mpmath.mpf(p)
        odds = p / (1 - p)
        P, Q = [(1 - p) ** n], [mpmath.mpf(2) ** -n]
        for t in range(n):
            step = mpmath.mpf(n - t) / (t + 1)
            P.append(P[-1] * step * odds)
            Q.append(Q[-1] * step)
        S = [mpmath.mpf(0)] * (n + 2)
        for t in range(n, -1, -1):
            S[t] = S[t + 1] + P[t]
    return P, Q, S


def mp_log2_beta_miss(n: int, p: float, eps) -> float:
    """log2 of the Neyman-Pearson beta at detection 1 - eps (0 < eps < 1/2):
    reject the shells whose tail stays within eps, randomize on the next."""
    P, Q, S = mp_bsc_shells(n, p)
    with mpmath.workdps(MP_DPS):
        eps = mpmath.mpf(eps)
        L = max(t for t in range(n + 1) if S[t] > eps)
        beta = mpmath.fsum(Q[:L]) + (S[L] - eps) / P[L] * Q[L]
        return float(mpmath.log(beta, 2))


def _mp_density(kind: str, n: int, p, t: int):
    """Information density in bits of an output at weight t (flips or erasures)."""
    if kind == "bec":
        return mpmath.mpf(n - t)
    return n + t * mpmath.log(p, 2) + (n - t) * mpmath.log(1 - p, 2)


def mp_dt_sum(kind: str, n: int, p: float, log2_ratio: float):
    """60-digit DT bound sum_t P(t) min(1, 2^(log2(M/lambda) - density(t))),
    P the Binomial(n, p) law of the flips (BSC) or erasures (BEC)."""
    P, _, _ = mp_bsc_shells(n, p)
    with mpmath.workdps(MP_DPS):
        p, r = mpmath.mpf(p), mpmath.mpf(log2_ratio)
        return mpmath.fsum(
            w * min(1, mpmath.mpf(2) ** (r - _mp_density(kind, n, p, t)))
            for t, w in enumerate(P)
        )


def mp_bec_conv_sum(n: int, p: float, log2_ratio: float):
    """60-digit BEC converse floor sum_l P(l) (1 - 2^(n - l - log2(M/lambda)))^+."""
    P, _, _ = mp_bsc_shells(n, p)
    with mpmath.workdps(MP_DPS):
        r = mpmath.mpf(log2_ratio)
        return mpmath.fsum(
            w * max(0, 1 - mpmath.mpf(2) ** (n - l - r)) for l, w in enumerate(P)
        )


def mp_header_eps0_min(n0: int, p: float, m: int):
    """Least eps0 with beta_{n0}(1 - eps0) <= 1/m: the miss mass of the test
    whose false alarm is exactly 1/m."""
    P, Q, S = mp_bsc_shells(n0, p)
    with mpmath.workdps(MP_DPS):
        budget, accepted = mpmath.mpf(1) / m, mpmath.mpf(0)
        for L in range(n0 + 1):
            if accepted + Q[L] > budget:
                rho = (budget - accepted) / Q[L]
                return S[L + 1] + (1 - rho) * P[L]
            accepted += Q[L]
        return mpmath.mpf(0)


def mp_header_conv_max_log2M(n: int, p: float, eps: float, m: int, n0: int, grid) -> float:
    """Reference BSC header converse at split n0: the least grid eps0 that
    admits m header codewords, then the payload converse at miss eps - eps0."""
    eps0_min = mp_header_eps0_min(n0, p, m)
    eps0 = next(g for g in grid if g >= eps0_min)
    with mpmath.workdps(MP_DPS):
        return -mp_log2_beta_miss(n - n0, p, mpmath.mpf(eps) - mpmath.mpf(eps0))


def exhaustive_best_over_splits(rate, spec, eps, m, all_eps):
    """The largest rate(spec, eps, m, n0, all_eps) over every split n0 = 0..n,
    None when no split is feasible: the header scan without pruning."""
    rates = (rate(spec, eps, m, n0, all_eps) for n0 in range(spec.n + 1))
    return max((r for r in rates if r is not None), default=None)


# --------------------------------------------------------------------------
# word-level information density and exhaustive threshold decoders
# --------------------------------------------------------------------------


class Symbol(IntEnum):
    """Channel output alphabet; BEC erasures are an explicit third value."""

    ZERO = 0
    ONE = 1
    ERASED = 2


def info_density_bits(spec: ChannelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Information density in bits of (input word, channel output), -inf allowed."""
    x = np.asarray(x, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8)
    if x.shape != y.shape or x.shape != (spec.n,):
        raise ValueError(f"length mismatch: x {x.shape}, y {y.shape}, n={spec.n}")
    if spec.kind is ChannelKind.BSC:
        if np.any(y > 1):
            raise ValueError("BSC outputs are bits")
        t = int(np.count_nonzero(x != y))
    else:
        unerased = y != Symbol.ERASED
        if np.any(x[unerased] != y[unerased]):
            return -math.inf
        t = spec.n - int(np.count_nonzero(unerased))
    return float(info_density_spectrum(spec.kind, spec.n, spec.p).density[t])


def _first_qualifying(code, T, qualify_rows) -> Tuple[np.ndarray, np.ndarray]:
    """Scan classes in order; qualify_rows(class_i, idx) -> (t, 2^k) bool."""
    out_class = np.full(T, -1, dtype=np.int32)
    out_msg = np.full(T, -1, dtype=np.int64)
    undecided = np.ones(T, dtype=bool)
    for class_i in range(code.m):
        idx = np.nonzero(undecided)[0]
        qualify = qualify_rows(class_i, idx)
        has = qualify.any(axis=1)
        hit = idx[has]
        out_class[hit] = class_i
        out_msg[hit] = qualify.argmax(axis=1)[has]
        undecided[hit] = False
    return out_class, out_msg


def exhaustive_decode_bsc(code, spec, y_packed):
    """(class, message) per output row: first codeword above threshold, -1 if none.

    Builds the full (t, 2^k, words) XOR of outputs against each class table.
    """
    density = info_density_spectrum(ChannelKind.BSC, spec.n, spec.p).density

    def qualify_rows(class_i, idx):
        table = code.codewords_packed(class_i)
        diff = y_packed[idx, None, :] ^ table[None, :, :]
        dist = np.bitwise_count(diff).sum(axis=2, dtype=np.int64)
        return (density > code.log2_thresholds[class_i])[dist]

    return _first_qualifying(code, y_packed.shape[0], qualify_rows)


def exhaustive_decode_bec(code, spec, y_packed, erased_packed):
    """BEC counterpart: a codeword qualifies if it agrees with every unerased
    symbol and the unerased count is above the class threshold."""
    unerased = spec.n - np.bitwise_count(erased_packed).sum(axis=1, dtype=np.int64)

    def qualify_rows(class_i, idx):
        table = code.codewords_packed(class_i)
        mism = (y_packed[idx, None, :] ^ table[None, :, :]) & ~erased_packed[idx, None, :]
        agree = ~np.any(mism, axis=2)
        return agree & (unerased[idx] > code.log2_thresholds[class_i])[:, None]

    return _first_qualifying(code, y_packed.shape[0], qualify_rows)
