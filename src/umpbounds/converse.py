"""Exact Neyman-Pearson beta and meta-converse evaluations for BSC and BEC.

The BSC converse needs the optimal binary hypothesis test between the
channel law W(.|x) and the equiprobable output distribution 2^-n. Its
likelihood ratio is monotone in Hamming distance, so the optimal randomized
test fills whole distance shells in order and randomizes on the boundary
shell, read off `channel.info_density_spectrum`: its log_mass under the
channel and its log_q under the equiprobable law. The converses pass the miss
probability eps itself (`np_beta_bsc_miss`), which 1 - eps would round away;
beta is assembled in the log domain because shell masses under the
equiprobable law reach 2^-n.

Every class converse depends on (log2 M, lambda) only through log2 M - log2
lambda, so the searches here run at lambda = 1 and `achievability.class_rate`
shifts each rate by log2 lambda, to None when the sum is below 0 and one
codeword misses eps (`converse_fits_one`).
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .achievability import (
    SPLIT_CACHE_SIZE,
    LazyRate,
    _block_sum,
    _header_sum,
    _log2_lambda,
    _max_log2M,
    class_rate,
)
from .channel import ChannelKind, ChannelSpec, info_density_spectrum
from .numerics import LogValue, log_sum_exp


class NPBetaResult(NamedTuple):
    """Optimal test summary: accept shells below L, randomize with rho at L.

    The test accepting every output within Hamming distance L-1 of the
    reference word, plus distance-L outputs with probability rho, attains the
    requested detection probability exactly and false alarm exp(log_beta).
    """

    log_beta: LogValue
    threshold_weight_L: int
    randomization_rho: float

    @property
    def log2_beta(self) -> float:
        return self.log_beta.log2()


def _np_shell_test(n: int, p: float, alpha: float, miss: float) -> NPBetaResult:
    """The optimal test at detection alpha = 1 - miss, found from the exact end.

    One of alpha and miss was computed from the other, exactly when it lies in
    [1/2, 1], so L comes from detection prefix sums when alpha <= 1/2 and from
    miss suffix sums otherwise. Shell t weighs exp(log_mass[t]) under the
    channel and exp(log_q[t]) under the equiprobable law.
    """
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"np_beta_bsc requires 0 <= p <= 0.5, got {p}")
    if n < 0 or not 0.0 <= alpha <= 1.0:
        raise ValueError(f"need n >= 0 and detection in [0,1], got n={n}, alpha={alpha}")
    if alpha == 0.0:
        return NPBetaResult(LogValue.zero(), 0, 0.0)
    spectrum = info_density_spectrum(ChannelKind.BSC, n, p)
    if miss == 0.0:
        # the test accepts the channel's whole support: every shell, or at
        # p = 0 the reference word alone, of equiprobable mass 2^-n
        L = n if p > 0.0 else 0
        return NPBetaResult(LogValue(0.0 if L == n else float(spectrum.log_q[0])), L, 1.0)
    log_level = math.log(min(alpha, miss))
    # masses in units of e^shift: at most e^700 in all, and what underflows is far below level
    shift = max(log_level, -700.0)
    mass = np.exp(spectrum.log_mass - shift)
    level = math.exp(log_level - shift)
    if alpha <= 0.5:
        # the shells below L hold less than alpha, with L at least alpha
        cum = np.cumsum(mass)
        L = int(np.searchsorted(cum, level, side="left"))
        rho = (level - (cum[L - 1] if L else 0.0)) / mass[L]
    else:
        # the shells above L hold at most miss, with L more than miss
        tail = np.cumsum(mass[::-1])
        k = int(np.searchsorted(tail, level, side="right"))
        L = n - k
        rho = (tail[k] - level) / mass[L]
    rho = min(1.0, float(rho))
    if p == 0.5:
        # every shell ties, so beta = alpha: ln alpha from its exact end
        log_alpha = math.log(alpha) if alpha <= 0.5 else math.log1p(-miss)
        return NPBetaResult(LogValue(log_alpha), L, rho)
    log_q = spectrum.log_q[: L + 1]
    log_beta = np.logaddexp(log_sum_exp(log_q[:L]), math.log(rho) + log_q[L])
    # beta <= 1 always, where float shell sums can come out above it
    return NPBetaResult(LogValue(min(0.0, float(log_beta))), L, rho)


def np_beta_bsc(n: int, p: float, alpha: float) -> NPBetaResult:
    """Minimal false alarm vs the equiprobable law at detection alpha.

    Requires 0 <= p <= 0.5 (reduce by symmetry at the caller); the likelihood
    ordering then runs from distance 0 outward, with every shell tied at
    p = 1/2, where beta = alpha.
    """
    return _np_shell_test(n, p, alpha, 1.0 - alpha)


def np_beta_bsc_miss(n: int, p: float, eps: float) -> NPBetaResult:
    """np_beta_bsc at detection 1 - eps, taking the miss probability eps exactly."""
    return _np_shell_test(n, p, 1.0 - eps, eps)


def _reduced_bsc_p(spec: ChannelSpec) -> float:
    """min(p, 1 - p), to which the BSC converses reduce by symmetry."""
    if spec.kind is not ChannelKind.BSC:
        raise ValueError("the BSC converses require a BSC spec")
    return min(spec.p, 1.0 - spec.p)


def converse_max_log2M_bsc(spec: ChannelSpec, eps: float, lambda_i: float) -> Optional[float]:
    """converse_max_log2M on a BSC spec: log2(lambda) - log2(beta(1 - eps))."""
    _reduced_bsc_p(spec)
    return converse_max_log2M(spec, eps, lambda_i)


def converse_eps_bec(spec: ChannelSpec, log2M: float, lambda_i: float) -> float:
    """Meta-converse error floor for a BEC class at size M and split lambda:
    the header floor with one class and no header (n0 = 0, m = 1)."""
    if log2M < 0:
        raise ValueError(f"log2M must be >= 0, got {log2M}")
    return header_conv_eps_bec(spec, 0, 1, log2M - _log2_lambda(lambda_i))


def converse_fits_one(spec: ChannelSpec, eps: float, lambda_i: float) -> bool:
    """Whether one codeword of a class at lambda_i meets the meta-converse at
    eps, where its shifted rate (`class_rate`) rounds below 0.

    On the BEC that is the error floor at log2M = 0, which a searched rate can
    miss by a few ulps at a tie. On the BSC the shift alone decides: the
    lambda-free rate is exactly 0.0 - log2 beta(1 - eps), so its correctly
    rounded sum with log2 lambda_i is below 0 exactly when log2 lambda_i <
    log2 beta, and then one codeword misses eps.
    """
    return spec.kind is ChannelKind.BEC and converse_eps_bec(spec, 0.0, lambda_i) <= eps


def header_conv_eps_bec(spec: ChannelSpec, n0: int, m: int, log2M: float) -> float:
    """Error floor for BEC header codes: header-part plus payload-part sums."""
    if spec.kind is not ChannelKind.BEC:
        raise ValueError("the BEC converses require a BEC spec")
    if not 0 <= n0 <= spec.n:
        raise ValueError(f"n0 must be in [0, n], got {n0}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    payload = _block_sum(spec.kind, spec.p, spec.n - n0, log2M, hinge=True)
    return min(1.0, _header_sum(spec.kind, spec.p, n0, m, True) + payload)


# relative error budget of the two header-test evaluations; see _header_eps0_min
EPS0_REL_TOL = 1e-9


def _header_eps0_min(p: float, n0: int, m: int) -> Tuple[float, float]:
    """The least eps0 with beta_{n0}(1 - eps0) <= 1/m, and a margin around it.

    Only headers of m >= 2 classes need it: one class takes eps0 = 0.
    eps0_min is the miss mass of the test with false alarm exactly 1/m: the
    shells past the boundary shell L and the part of L it rejects. The
    Neyman-Pearson test `np_beta_bsc_miss` rounds differently, so the eps0
    at which it switches can sit beside eps0_min, but nearer than the margin.

    Near the switch beta is linear in eps0 with slope -q_L/p_L, p_L and q_L
    the boundary shell's masses under the channel and the equiprobable law.
    Both evaluations read the same spectrum, whose masses carry a relative
    error r (a few ulps of ln n0!), so beta = 1/m errs by r/m, which moves
    the switch by r p_L/(m q_L); the sums that make eps0_min err by
    r eps0_min plus that same term. A switch pushed into shell L - 1 follows
    its slope, which is flatter, since p/q falls with the weight. So the
    margin is EPS0_REL_TOL (eps0_min + p/(m q) at shell max(L - 1, 0)), plus
    the least normal float for masses that underflow. Over p from 1e-300 to
    1/2, m in {2, 3, 8} and n0 = 1..200 and up to 1e4, the switch sat at
    most 1.1e-11 of that scale from eps0_min, so the margin has 90x slack.
    """
    spectrum = info_density_spectrum(ChannelKind.BSC, n0, p)
    pmass = np.exp(spectrum.log_mass)
    q = np.exp(spectrum.log_q)
    L = int(np.searchsorted(np.cumsum(q), 1.0 / m, side="right"))
    rejected = (q[: L + 1].sum() - 1.0 / m) / q[L]
    eps0_min = float(pmass[L + 1 :].sum() + rejected * pmass[L])
    flat = max(L - 1, 0)
    scale = eps0_min + float(pmass[flat] / (m * q[flat]))
    return eps0_min, EPS0_REL_TOL * scale + sys.float_info.min


def _header_eps0_index(p: float, n0: int, m: int, grid: np.ndarray) -> Optional[int]:
    """Smallest grid index whose eps0 lets m header codewords pass the converse.

    The header constraint is beta_{n0}(1 - eps0) <= 1/m, and beta is monotone
    in its detection level, so the feasible eps0 form an upper set whose least
    element is eps0_min (`_header_eps0_min`); one searchsorted puts that on
    the grid. Only when a grid neighbour of eps0_min lies within the margin,
    where the Neyman-Pearson test may decide it the other way, do the tests
    at the predecessor and at the index confirm it, or move it to where the
    test switches. Within ulps the float test need not be monotone, so a
    passing predecessor is taken before stepping up past failing points:
    of two passing points around a failing one, the lower is returned.
    """
    eps0_min, margin = _header_eps0_min(p, n0, m)
    idx = int(np.searchsorted(grid, eps0_min, side="left"))
    if np.any(np.abs(grid[max(idx - 1, 0) : idx + 1] - eps0_min) < margin):
        log2_m = math.log2(m)

        def header_ok(eps0: float) -> bool:
            return log2_m <= -np_beta_bsc_miss(n0, p, eps0).log2_beta

        while idx > 0 and header_ok(grid[idx - 1]):
            idx -= 1
        while idx < len(grid) and not header_ok(grid[idx]):
            idx += 1
    return idx if idx < len(grid) else None


@functools.lru_cache(maxsize=SPLIT_CACHE_SIZE)
def _header_eps0(p: float, n0: int, m: int, top: float, points: int) -> Optional[float]:
    """The least eps0 of the uniform grid on [0, top] that admits m header codewords.

    None when no grid point does. It depends on the split alone, not on the
    blocklength, so a process builds and searches each (split, grid) once: a
    sweep's longer blocks reuse its shorter ones' searches.
    """
    grid = np.linspace(0.0, top, points)
    idx = _header_eps0_index(p, n0, m, grid)
    return None if idx is None else float(grid[idx])


def header_conv_max_log2M_bsc(
    spec: ChannelSpec,
    eps_i: float,
    m: int,
    n0: int,
    all_eps: Sequence[float],
    eps0_points: int = 1000,
) -> Optional[float]:
    """Largest class size a BSC header code can have at this split.

    The header error allocation eps0 is optimized over a uniform grid on
    [0, min_j eps_j]: the m-codeword header constraint relaxes as eps0 grows
    while the payload limit tightens, so the best grid point is the smallest
    feasible one. One class needs no header, so at m = 1 eps0 = 0, the
    grid's first point, with no grid built or searched. None when no grid
    point admits the header; p > 1/2 is reduced to 1 - p by symmetry.
    """
    if not 0.0 < eps_i < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps_i}")
    p = _reduced_bsc_p(spec)
    if not 0 <= n0 <= spec.n:
        raise ValueError(f"n0 must be in [0, n], got {n0}")
    eps0 = 0.0 if m == 1 else _header_eps0(p, n0, m, min(all_eps), eps0_points)
    if eps0 is None:
        return None
    # 0.0 - log2(beta): +0, not -0, at beta = 1
    return 0.0 - np_beta_bsc_miss(spec.n - n0, p, eps_i - eps0).log2_beta


def converse_max_log2M(spec: ChannelSpec, eps: float, lambda_i: float) -> Optional[float]:
    """Meta-converse class-size limit on either channel.

    A class converse is the header converse with one class and no header
    (m = 1, n0 = 0): the empty header costs nothing (eps0 = 0 on the BSC, a
    zero header term on the BEC), so the payload is the whole block at eps.
    None when not even one codeword fits (log2M < 0).
    """
    return class_rate(
        header_conv_max_log2M(spec, eps, 1, 0, [eps]), lambda_i,
        lambda: converse_fits_one(spec, eps, lambda_i),
    )


def header_conv_max_log2M(
    spec: ChannelSpec,
    eps_i: float,
    m: int,
    n0: int,
    all_eps: Sequence[float],
    eps0_points: int = 1000,
    lazy: bool = False,
) -> Union[None, float, LazyRate]:
    """Header-converse class-size limit at split n0 on either channel.

    eps0_points sets the BSC header error-allocation grid; the BEC bound has
    a closed-form header term and ignores it. lazy=True returns (upper,
    confirm) for a feasible split (`achievability._max_log2M`); the BSC
    converse is computed exactly, so there upper is the rate itself.
    """
    if not 0 <= n0 <= spec.n:
        raise ValueError(f"n0 must be in [0, n], got {n0}")
    if spec.kind is ChannelKind.BEC:
        # at log2M = 0 the payload sum vanishes, leaving the header floor
        header = _header_sum(spec.kind, spec.p, n0, m, True)
        return _max_log2M(
            spec, spec.n - n0, eps_i, hinge=True, fixed=header, all_eps=all_eps, lazy=lazy
        )
    rate = header_conv_max_log2M_bsc(spec, eps_i, m, n0, all_eps, eps0_points)
    return (rate, lambda: rate) if lazy and rate is not None else rate
