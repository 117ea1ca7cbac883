"""Normal approximation, expected rate, betting loss, moderate deviations.

BSC and BEC have a unique capacity-achieving input, so the min/max conditional
variances coincide and a single dispersion V serves for every error target.
Every quantity is kept in bits (V in bits^2, gaps in bits, logs base 2).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .achievability import _log2_lambda
from .channel import ChannelSpec, channel_stats
from .numerics import LN2, gaussian_Q_inv


def normal_approx_log2M(spec: ChannelSpec, eps: float, lambda_i: float) -> float:
    """n*C - sqrt(n*V)*Qinv(eps) - log2(1/lambda); may be negative at small n.

    With lambda = 1 this is the classical single-class second-order rate.
    Callers clamp for display.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    stats = channel_stats(spec)
    if stats.dispersion <= 0.0:
        raise ValueError(
            f"normal approximation needs positive dispersion, got V={stats.dispersion}"
        )
    return (
        spec.n * stats.capacity
        - math.sqrt(spec.n * stats.dispersion) * gaussian_Q_inv(eps)
        + _log2_lambda(lambda_i)
    )


def expected_rate(
    spec: ChannelSpec, eps: Sequence[float], mu: Sequence[float], losses: Sequence[float]
) -> np.ndarray:
    """(1/n) sum_i mu_i (log2 M_i - log2 mu_i), with 0*log(1/0) = 0, per loss.

    M_i is the normal approximation at class target eps[i]. Since
    log2 M_i(lambda_i) = log2 M_i(1) + log2 lambda_i, the expected rate at
    lambda is the lambda-free sum_i mu_i log2 M_i(1) minus D(mu || lambda);
    `losses` holds D(mu || lambda) in bits for each lambda of interest, as a
    sequence or a float64 array. The rates are the float64 array
    (base - losses) / n, each element the IEEE result of the scalar formula.
    """
    base = sum(
        mu_i * normal_approx_log2M(spec, eps_i, 1.0)
        for mu_i, eps_i in zip(mu, eps)
        if mu_i > 0.0
    )
    return (base - np.asarray(losses, dtype=float)) / spec.n


def kl_divergence_bits(mu: Sequence[float], lam: Sequence[float]) -> float:
    """D(mu || lambda) in bits; infinite when lambda vanishes where mu does not."""
    if len(mu) != len(lam):
        raise ValueError(f"length mismatch: {len(mu)} vs {len(lam)}")
    total = 0.0
    for m_i, l_i in zip(mu, lam):
        if m_i == 0.0:
            continue
        if l_i == 0.0:
            return math.inf
        total += m_i * math.log2(m_i / l_i)
    return total


class ModDevPoint(NamedTuple):
    """Finite-n moderate-deviations diagnostics for one class.

    When the positivity condition rho_n > penalty_n fails the error is
    bounded away from zero and no decay prediction is made.
    """

    exponent: float  # 1/(2V)
    speed: float  # n*(rho_n - penalty_n)^2
    predicted_log2_error: Optional[float]  # log2 of the error exp(-speed * exponent)
    error_bounded_away: bool


def md_exponent_and_speed(
    spec: ChannelSpec, rho_n: float, penalty_n: float, n: int
) -> ModDevPoint:
    """Exponent 1/(2V) and speed n*(rho_n - penalty_n)^2 at finite n.

    rho_n is the gap to capacity and penalty_n is (1/n)*log2(1/Lambda_n), both
    in bits per channel use.
    """
    stats = channel_stats(spec)
    if stats.dispersion <= 0.0:
        raise ValueError(
            f"moderate deviations need positive dispersion, got V={stats.dispersion}"
        )
    exponent = 1.0 / (2.0 * stats.dispersion)
    gap = rho_n - penalty_n
    speed = n * gap * gap
    if gap <= 0.0:
        return ModDevPoint(exponent, speed, None, True)
    return ModDevPoint(exponent, speed, -speed * exponent / LN2, False)
