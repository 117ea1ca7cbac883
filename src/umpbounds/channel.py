"""Binary symmetric / binary erasure channel descriptions.

Only the uniform input distribution is implemented; it is capacity-achieving
for both channels, and every bound in this package is evaluated under it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numerics import log_binomial_row


class ChannelKind(Enum):
    BSC = "bsc"
    BEC = "bec"


@dataclass(frozen=True)
class ChannelSpec:
    """A memoryless binary channel instance.

    p is the crossover probability for BSC and the erasure probability for
    BEC; n is the blocklength. Bound computations that need positive
    dispersion must check channel_stats(spec).dispersion > 0 themselves.
    """

    kind: ChannelKind
    p: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"channel parameter must be in [0,1], got {self.p}")
        if self.n < 1:
            raise ValueError(f"blocklength must be >= 1, got {self.n}")


@dataclass(frozen=True)
class ChannelStats:
    capacity: float  # bits per channel use
    dispersion: float  # bits^2 per channel use


@dataclass(frozen=True)
class InfoDensitySpectrum:
    """Law of the per-block information density under uniform input.

    The density depends on the output only through a weight t: for BSC t
    counts flipped positions, for BEC t counts erased positions (an output
    that disagrees with the input on an unerased position has density -inf
    and zero probability). log_mass[t] is the natural-log probability of
    weight t and density[t] the density of every output of that weight, in
    bits; both are -inf where the channel gives t probability zero.
    """

    log_mass: np.ndarray
    density: np.ndarray


def binomial_log_pmf(n: int, p: float) -> np.ndarray:
    """Natural-log Binomial(n, p) masses for t = 0..n."""
    if p == 0.0:
        out = np.full(n + 1, -np.inf)
        out[0] = 0.0
        return out
    if p == 1.0:
        out = np.full(n + 1, -np.inf)
        out[n] = 0.0
        return out
    t = np.arange(n + 1)
    return log_binomial_row(n) + t * math.log(p) + (n - t) * math.log(1.0 - p)


# an auto header scan reads lengths s and n - s at each split s it visits (its
# cap reads n - s too) and stops after tens of splits, so this short cache lets
# the converse scan reuse the achievability scan's builds; memory stays flat.
@functools.lru_cache(maxsize=256)
def info_density_spectrum(kind: ChannelKind, length: int, p: float) -> InfoDensitySpectrum:
    """Spectrum of a length-symbol block, length = 0 included.

    BSC: density(t) = len*(1 + log2(1-p)) + t*(log2(p) - log2(1-p)), a
    constant plus a multiple of t, so every rounding step is monotone in t and
    so is the float density, for every p; BEC: density(t) = len - t. The
    arrays are shared by every caller and are read-only.
    """
    log_mass = binomial_log_pmf(length, p)
    t = np.arange(length + 1)
    if kind is ChannelKind.BSC:
        # at p = 0 (p = 1) the weights that would need log2(0) have zero mass
        # and are masked below
        log2_p = math.log2(p) if p > 0.0 else 0.0
        log2_q = math.log2(1.0 - p) if p < 1.0 else 0.0
        density = length * (1.0 + log2_q) + t * (log2_p - log2_q)
    else:
        density = (length - t).astype(float)
    density[log_mass == -np.inf] = -np.inf
    log_mass.flags.writeable = density.flags.writeable = False
    return InfoDensitySpectrum(log_mass, density)


def channel_stats(spec: ChannelSpec) -> ChannelStats:
    """Capacity and dispersion (bits, bits^2) for the uniform input.

    They are the mean and the variance of one channel use's information
    density, read off the length-1 spectrum with zero-mass weights left out.
    """
    one = info_density_spectrum(spec.kind, 1, spec.p)
    has_mass = one.log_mass > -np.inf
    w, density = np.exp(one.log_mass[has_mass]), one.density[has_mass]
    capacity = float(w @ density)
    return ChannelStats(capacity, float(w @ (density - capacity) ** 2))
