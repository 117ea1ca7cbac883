"""Binary symmetric / binary erasure channel descriptions.

Only the uniform input distribution is implemented; it is capacity-achieving
for both channels, and every bound in this package is evaluated under it.
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .numerics import LN2, log_binomial_row


class ChannelKind(Enum):
    BSC = "bsc"
    BEC = "bec"


# The records are NamedTuples, not dataclasses: a dataclass compiles its
# generated methods at every import, which no bytecode cache keeps. A record
# that checks its fields does so in __new__ of a subclass of its fields, whose
# _make (and so _replace) builds through the class to run the same checks.


class _ChannelFields(NamedTuple):
    kind: ChannelKind
    p: float
    n: int


class ChannelSpec(_ChannelFields):
    """A memoryless binary channel instance.

    p is the crossover probability for BSC and the erasure probability for
    BEC; n is the blocklength. Bound computations that need positive
    dispersion must check channel_stats(spec).dispersion > 0 themselves.
    """

    __slots__ = ()

    def __new__(cls, kind: ChannelKind, p: float, n: int):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"channel parameter must be in [0,1], got {p}")
        if n < 1:
            raise ValueError(f"blocklength must be >= 1, got {n}")
        return super().__new__(cls, kind, p, n)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class ChannelStats(NamedTuple):
    capacity: float  # bits per channel use
    dispersion: float  # bits^2 per channel use


class _SpectrumFields(NamedTuple):
    kind: ChannelKind
    log_mass: np.ndarray
    density: np.ndarray


class InfoDensitySpectrum(_SpectrumFields):
    """Law of the per-block information density under uniform input.

    The density depends on the output only through a weight t: for BSC t
    counts flipped positions, for BEC t counts erased positions (an output
    that disagrees with the input on an unerased position has density -inf
    and zero probability). log_mass[t] is the natural-log probability of
    weight t and density[t] the density of every output of that weight, in
    bits; both are -inf where the channel gives t probability zero.

    log_q[t] is the natural-log mass of weight t under Q, the output law of
    the uniform input (equiprobable on the BSC) drawn independently of the
    input: the law the converses test the channel against, and that of an
    independent competitor codeword. Where the channel gives t mass,
    Q[t] = P[t] 2^-density[t]. The class has no __slots__: the instance
    dict holds the cached log_q.
    """

    @functools.cached_property
    def log_q(self) -> np.ndarray:
        """ln Q[t], built when first read; read-only like the other arrays.

        BSC: ln C(n, t) - n ln 2, exact whatever p, with no n |ln p| terms to
        cancel, and finite where the channel gives t no mass. BEC: the mass
        of erasing t positions and agreeing on the rest is P[t] 2^-(n - t),
        so log_mass - density ln 2, exact since the density is an integer,
        and -inf where the mass is 0.
        """
        length = len(self.log_mass) - 1
        if self.kind is ChannelKind.BSC:
            log_q = log_binomial_row(length)
            log_q -= length * LN2
        else:
            log_q = np.full(length + 1, -np.inf)
            np.subtract(self.log_mass, self.density * LN2, out=log_q, where=self.log_mass > -np.inf)
        log_q.flags.writeable = False
        return log_q


def binomial_log_pmf(n: int, p: float) -> np.ndarray:
    """Natural-log Binomial(n, p) masses for t = 0..n.

    Entry t is ((ln n! - ln t!) - ln (n-t)!) + t ln p + (n-t) ln(1-p),
    rounded in that order.
    """
    if p == 0.0:
        out = np.full(n + 1, -np.inf)
        out[0] = 0.0
        return out
    if p == 1.0:
        out = np.full(n + 1, -np.inf)
        out[n] = 0.0
        return out
    t = np.arange(n + 1)
    out = log_binomial_row(n)
    out += t * math.log(p)
    out += (t * math.log(1.0 - p))[::-1]
    return out


# an auto header scan reads lengths s and n - s at each split s it visits (its
# cap reads n - s too) and stops after tens of splits, so this short cache lets
# the converse scan reuse the achievability scan's builds. A spectrum of a
# length-L block holds up to three float64 arrays of L + 1 weights (log_mass,
# density, log_q), so at blocklength n the cache can hold
# SPECTRUM_CACHE_SIZE * 24 * (n + 1) bytes. `cli.bound_rows` refuses a sweep
# whose cache could pass MAX_SPECTRUM_CACHE_BYTES: one with a block longer
# than MAX_BOUND_LENGTH = 174,761.
SPECTRUM_CACHE_SIZE = 256
MAX_SPECTRUM_CACHE_BYTES = 1 << 30
MAX_BOUND_LENGTH = MAX_SPECTRUM_CACHE_BYTES // (SPECTRUM_CACHE_SIZE * 24) - 1


@functools.lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def info_density_spectrum(kind: ChannelKind, length: int, p: float) -> InfoDensitySpectrum:
    """Spectrum of a length-symbol block, length = 0 included.

    BSC: density(t) = len*(1 + log2(1-p)) + t*(log2(p) - log2(1-p)), a
    constant plus a multiple of t, so every rounding step is monotone in t and
    so is the float density, for every p; BEC: density(t) = len - t. Weights
    have zero mass only at p in {0, 1}, and only there is their density masked
    to -inf. The arrays are shared by every caller and are read-only; `log_q`
    is built only by the callers that read it.
    """
    log_mass = binomial_log_pmf(length, p)
    if kind is ChannelKind.BSC:
        # at p = 0 (p = 1) the weights that would need log2(0) have zero mass
        # and are masked below
        log2_p = math.log2(p) if p > 0.0 else 0.0
        log2_q = math.log2(1.0 - p) if p < 1.0 else 0.0
        density = length * (1.0 + log2_q) + np.arange(length + 1) * (log2_p - log2_q)
    else:
        density = np.arange(length, -1, -1, dtype=float)
    if p in (0.0, 1.0):
        density[log_mass == -np.inf] = -np.inf
    log_mass.flags.writeable = density.flags.writeable = False
    return InfoDensitySpectrum(kind, log_mass, density)


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
