"""Exact Neyman-Pearson beta and meta-converse evaluations for BSC and BEC.

The BSC converse needs the optimal binary hypothesis test between the
channel law W(.|x) and the equiprobable output distribution 2^-n. Its
likelihood ratio is monotone in Hamming distance, so the optimal randomized
test fills whole distance shells in order and randomizes on the boundary
shell, read off `channel.info_density_spectrum`. The converses pass the miss
probability eps itself (`np_beta_bsc_miss`), which 1 - eps would round away;
beta is assembled in the log domain because shell masses under the
equiprobable law reach 2^-n.

The lambda vector in these converses is existentially quantified, so every
function here evaluates at a caller-chosen lambda; none of them claims a
single lambda is binding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .achievability import _block_sum, _max_log2M
from .channel import ChannelKind, ChannelSpec, info_density_spectrum
from .numerics import LN2, LogValue, log_sum_exp


@dataclass(frozen=True)
class NPBetaResult:
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
    channel and 2^-density[t] times that under the equiprobable law.
    """
    if not 0.0 < p < 0.5:
        raise ValueError(f"np_beta_bsc requires 0 < p < 0.5, got {p}")
    if n < 0 or not 0.0 <= alpha <= 1.0:
        raise ValueError(f"need n >= 0 and detection in [0,1], got n={n}, alpha={alpha}")
    if alpha == 0.0:
        return NPBetaResult(LogValue.zero(), 0, 0.0)
    if miss == 0.0:
        return NPBetaResult(LogValue(0.0), n, 1.0)
    spectrum = info_density_spectrum(ChannelKind.BSC, n, p)
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
    log_q = spectrum.log_mass[: L + 1] - spectrum.density[: L + 1] * LN2
    log_beta = np.logaddexp(log_sum_exp(log_q[:L]), math.log(rho) + log_q[L])
    return NPBetaResult(LogValue(float(log_beta)), L, rho)


def np_beta_bsc(n: int, p: float, alpha: float) -> NPBetaResult:
    """Minimal false alarm vs the equiprobable law at detection alpha.

    Requires 0 < p < 0.5 (reduce by symmetry at the caller); the likelihood
    ordering then runs from distance 0 outward.
    """
    return _np_shell_test(n, p, alpha, 1.0 - alpha)


def np_beta_bsc_miss(n: int, p: float, eps: float) -> NPBetaResult:
    """np_beta_bsc at detection 1 - eps, taking the miss probability eps exactly."""
    return _np_shell_test(n, p, 1.0 - eps, eps)


def _reduced_bsc_p(spec: ChannelSpec) -> Optional[float]:
    """min(p, 1 - p), to which the BSC converses reduce by symmetry.

    None at p in {0, 1/2, 1}, which have no Neyman-Pearson shell structure.
    """
    if spec.kind is not ChannelKind.BSC:
        raise ValueError("the BSC converses require a BSC spec")
    p = min(spec.p, 1.0 - spec.p)
    return p if 0.0 < p < 0.5 else None


def converse_max_log2M_bsc(spec: ChannelSpec, eps: float, lambda_i: float) -> Optional[float]:
    """Meta-converse rate limit for a BSC class: log2(lambda) - log2(beta).

    None at p in {0, 1/2, 1}; p > 1/2 is reduced to 1 - p by symmetry.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    if lambda_i <= 0.0:
        raise ValueError(f"lambda_i must be > 0, got {lambda_i}")
    p = _reduced_bsc_p(spec)
    if p is None:
        return None
    return math.log2(lambda_i) - np_beta_bsc_miss(spec.n, p, eps).log2_beta


def _bec_log2_lambda(spec: ChannelSpec, lambda_i: float) -> float:
    """log2(lambda_i), the shift of the BEC converse coefficient, on a BEC spec."""
    if spec.kind is not ChannelKind.BEC:
        raise ValueError("the BEC converses require a BEC spec")
    if lambda_i <= 0.0:
        raise ValueError(f"lambda_i must be > 0, got {lambda_i}")
    return math.log2(lambda_i)


def converse_eps_bec(spec: ChannelSpec, log2M: float, lambda_i: float) -> float:
    """Meta-converse error floor for a BEC class at size M and split lambda."""
    log2_lambda = _bec_log2_lambda(spec, lambda_i)
    if log2M < 0:
        raise ValueError(f"log2M must be >= 0, got {log2M}")
    return _block_sum(spec, spec.n, log2M - log2_lambda, hinge=True)


def converse_max_log2M_bec(spec: ChannelSpec, eps: float, lambda_i: float) -> Optional[float]:
    """Largest log2M whose BEC converse floor does not exceed eps."""
    # the floor depends on log2M only through log2M - log2(lambda)
    log2_lambda = _bec_log2_lambda(spec, lambda_i)
    return _max_log2M(
        spec, spec.n, eps, lambda lm: lm - log2_lambda, lambda c: c + log2_lambda, hinge=True
    )


def header_conv_eps_bec(spec: ChannelSpec, n0: int, m: int, log2M: float) -> float:
    """Error floor for BEC header codes: header-part plus payload-part sums."""
    if spec.kind is not ChannelKind.BEC:
        raise ValueError("the BEC converses require a BEC spec")
    if not 0 <= n0 <= spec.n:
        raise ValueError(f"n0 must be in [0, n], got {n0}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    header = _block_sum(spec, n0, math.log2(m), hinge=True)
    return min(1.0, header + _block_sum(spec, spec.n - n0, log2M, hinge=True))


@functools.lru_cache(maxsize=16)
def _eps0_grid(top: float, points: int) -> np.ndarray:
    """Uniform header error-allocation grid on [0, top], shared and read-only."""
    grid = np.linspace(0.0, top, points)
    grid.flags.writeable = False
    return grid


def _header_eps0_index(p: float, n0: int, m: int, grid: np.ndarray) -> Optional[int]:
    """Smallest grid index whose eps0 lets m header codewords pass the converse.

    The header constraint is beta_{n0}(1 - eps0) <= 1/m, and beta is monotone
    in its detection level, so the feasible eps0 form an upper set whose least
    element is the miss mass of the test with false alarm exactly 1/m. One
    searchsorted puts that on the grid; the test at the index and at its
    predecessor confirms it, or moves it to where the test switches.
    """
    log2_m = math.log2(m)

    def header_ok(eps0: float) -> bool:
        return log2_m <= -np_beta_bsc_miss(n0, p, eps0).log2_beta

    spectrum = info_density_spectrum(ChannelKind.BSC, n0, p)
    pmass = np.exp(spectrum.log_mass)
    q = np.exp(spectrum.log_mass - spectrum.density * LN2)
    L = int(np.searchsorted(np.cumsum(q), 1.0 / m, side="right"))
    if L > n0:
        eps0_min = 0.0
    else:
        rejected = (q[: L + 1].sum() - 1.0 / m) / q[L]
        eps0_min = pmass[L + 1 :].sum() + rejected * pmass[L]
    idx = int(np.searchsorted(grid, eps0_min, side="left"))
    while idx < len(grid) and not header_ok(grid[idx]):
        idx += 1
    while idx > 0 and header_ok(grid[idx - 1]):
        idx -= 1
    return idx if idx < len(grid) else None


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
    feasible one. None when no grid point admits the header, and at p in
    {0, 1/2, 1}; p > 1/2 is reduced to 1 - p by symmetry.
    """
    if not 0.0 < eps_i < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps_i}")
    p = _reduced_bsc_p(spec)
    if not 0 <= n0 <= spec.n:
        raise ValueError(f"n0 must be in [0, n], got {n0}")
    if p is None:
        return None
    grid = _eps0_grid(min(all_eps), eps0_points)
    idx = _header_eps0_index(p, n0, m, grid)
    if idx is None:
        return None
    payload_miss = eps_i - float(grid[idx])
    if payload_miss <= 0.0:
        return 0.0
    return -np_beta_bsc_miss(spec.n - n0, p, payload_miss).log2_beta


def header_conv_max_log2M_bec(
    spec: ChannelSpec, eps_i: float, m: int, n0: int, all_eps: Sequence[float]
) -> Optional[float]:
    """Largest class size whose BEC header-converse floor meets eps_i."""
    # at log2M = 0 the payload sum vanishes, leaving the header part
    header_term = header_conv_eps_bec(spec, n0, m, 0.0)
    return _max_log2M(
        spec, spec.n - n0, eps_i, lambda lm: lm, lambda c: c,
        hinge=True, fixed=header_term, all_eps=all_eps,
    )


def converse_max_log2M(spec: ChannelSpec, eps: float, lambda_i: float) -> Optional[float]:
    """Meta-converse class-size limit on either channel.

    None when not even one codeword fits (log2M < 0) and, for BSC, at p in
    {0, 1/2, 1}.
    """
    if spec.kind is ChannelKind.BEC:
        return converse_max_log2M_bec(spec, eps, lambda_i)
    value = converse_max_log2M_bsc(spec, eps, lambda_i)
    return value if value is not None and value >= 0.0 else None


def header_conv_max_log2M(
    spec: ChannelSpec,
    eps_i: float,
    m: int,
    n0: int,
    all_eps: Sequence[float],
    eps0_points: int = 1000,
) -> Optional[float]:
    """Header-converse class-size limit at split n0 on either channel.

    eps0_points sets the BSC header error-allocation grid; the BEC bound has
    a closed-form header term and ignores it.
    """
    if spec.kind is ChannelKind.BEC:
        return header_conv_max_log2M_bec(spec, eps_i, m, n0, all_eps)
    return header_conv_max_log2M_bsc(spec, eps_i, m, n0, all_eps, eps0_points)
