import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import direct_spectrum
from scipy.special import logsumexp

from umpbounds.channel import (
    ChannelKind,
    ChannelSpec,
    binomial_log_pmf,
    channel_stats,
    info_density_spectrum,
)
from umpbounds.numerics import log_binomial_row

BSC, BEC = ChannelKind.BSC, ChannelKind.BEC


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(BSC, -0.1, 10)
    with pytest.raises(ValueError):
        ChannelSpec(BSC, 1.1, 10)
    with pytest.raises(ValueError):
        ChannelSpec(BEC, 0.5, 0)


def test_spec_replace_and_make_run_the_checks():
    spec = ChannelSpec(BSC, 0.11, 10)
    with pytest.raises(ValueError, match=r"channel parameter must be in \[0,1\], got 7.0"):
        spec._replace(p=7.0)
    with pytest.raises(ValueError, match=r"channel parameter must be in \[0,1\], got -1.0"):
        ChannelSpec._make([BSC, -1.0, 0])
    with pytest.raises(ValueError, match="blocklength must be >= 1, got 0"):
        spec._replace(n=0)
    assert spec._replace(p=0.2) == ChannelSpec(BSC, 0.2, 10)
    assert type(ChannelSpec._make(spec)) is ChannelSpec


STATS_P = (0.0, 1e-300, 0.01, 0.11, 0.5, 0.89, 1.0)


def _mp_stats(kind, p):
    """Closed-form C and V at 50 digits for the float p taken exactly."""
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        q = 1 - p
        if kind is BEC:
            return 1 - p, p * q
        if p in (0, 1):
            return mpmath.mpf(1), mpmath.mpf(0)
        h = -p * mpmath.log(p, 2) - q * mpmath.log(q, 2)
        return 1 - h, p * q * mpmath.log(q / p, 2) ** 2


def _check_closed_form(kind, p):
    stats = channel_stats(ChannelSpec(kind, p, 8))
    capacity, dispersion = _mp_stats(kind, p)
    assert stats.capacity == pytest.approx(float(capacity), rel=0.0, abs=1e-15), (kind, p)
    assert stats.dispersion == pytest.approx(float(dispersion), rel=1e-12, abs=0.0), (kind, p)


class TestChannelStats:
    def test_noiseless_bsc(self):
        stats = channel_stats(ChannelSpec(BSC, 0.0, 8))
        assert stats.capacity == 1.0 and stats.dispersion == 0.0
        # V is exactly 0 wherever the density is constant: the normal
        # approximation cells print NA there
        for kind, p in [(BSC, 0.0), (BSC, 0.5), (BSC, 1.0), (BEC, 0.0), (BEC, 1.0)]:
            assert channel_stats(ChannelSpec(kind, p, 8)).dispersion == 0.0, (kind, p)

    def test_useless_bsc(self):
        stats = channel_stats(ChannelSpec(BSC, 0.5, 8))
        assert stats.capacity == 0.0 and stats.dispersion == 0.0

    def test_bec_half(self):
        stats = channel_stats(ChannelSpec(BEC, 0.5, 8))
        assert stats.capacity == 0.5 and stats.dispersion == 0.25
        for p in STATS_P:
            _check_closed_form(BEC, p)

    def test_bsc_reference_point(self):
        # independently computed from the capacity/dispersion closed forms
        stats = channel_stats(ChannelSpec(BSC, 0.11, 8))
        assert stats.capacity == pytest.approx(0.5000840418354720, abs=1e-12)
        assert stats.dispersion == pytest.approx(0.8907017013975560, abs=1e-12)
        for p in STATS_P:
            _check_closed_form(BSC, p)

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.11, 0.3, 0.5, 0.77, 1.0])
    def test_crossover_symmetry(self, p):
        a = channel_stats(ChannelSpec(BSC, p, 4))
        b = channel_stats(ChannelSpec(BSC, 1.0 - p, 4))
        assert a.capacity == pytest.approx(b.capacity, abs=1e-14)
        assert a.dispersion == pytest.approx(b.dispersion, abs=1e-14)


def _mean_density(spec):
    w = np.exp(spec.log_mass - logsumexp(spec.log_mass))
    has_mass = w > 0.0
    return float(np.sum(w[has_mass] * spec.density[has_mass]))


class TestWeightSpectrum:
    def test_noiseless_mass(self):
        spec = info_density_spectrum(BSC, 3, 0.0)
        pmf = np.exp(spec.log_mass)
        assert pmf[0] == 1.0 and np.all(pmf[1:] == 0.0)
        assert spec.density[0] == 3.0 and np.all(np.isneginf(spec.density[1:]))

    def test_fair_coin(self):
        spec = info_density_spectrum(BSC, 2, 0.5)
        assert np.exp(spec.log_mass) == pytest.approx([0.25, 0.5, 0.25])
        assert spec.density == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)

    def test_single_flip_mass(self):
        spec = info_density_spectrum(BSC, 10, 0.11)
        assert math.exp(spec.log_mass[1]) == pytest.approx(
            0.3853920440782337, rel=1e-12
        )

    @pytest.mark.parametrize("n", [10, 100, 1000, 10_000])
    def test_normalization(self, n):
        for kind, p in [(BSC, 0.11), (BEC, 0.5), (BSC, 0.3)]:
            spec = info_density_spectrum(kind, n, p)
            assert spec.log_mass.shape == spec.density.shape == (n + 1,)
            assert logsumexp(spec.log_mass) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("p", [0.05, 0.11, 0.3])
    def test_mean_density_is_capacity(self, p):
        n = 200
        cs = ChannelSpec(BSC, p, n)
        mean = _mean_density(info_density_spectrum(BSC, n, p))
        assert mean == pytest.approx(n * channel_stats(cs).capacity, rel=1e-8)

    def test_mean_density_bec(self):
        n = 64
        cs = ChannelSpec(BEC, 0.5, n)
        spec = info_density_spectrum(BEC, n, 0.5)
        # t counts erasures, each unerased symbol carries one bit
        assert np.array_equal(spec.density, n - np.arange(n + 1.0))
        assert _mean_density(spec) == pytest.approx(
            n * channel_stats(cs).capacity, rel=1e-8
        )

    def test_bsc_density_line(self):
        spec = info_density_spectrum(BSC, 10, 0.11)
        line = 10 * math.log2(2 - 0.22) + np.arange(11) * math.log2(0.11 / 0.89)
        assert spec.density == pytest.approx(line, abs=1e-12)

    def test_degenerate_p_one(self):
        spec = info_density_spectrum(BSC, 5, 1.0)
        pmf = np.exp(spec.log_mass)
        assert pmf[5] == 1.0 and np.all(pmf[:5] == 0.0)
        assert spec.density[5] == 5.0 and np.all(np.isneginf(spec.density[:5]))

    @pytest.mark.parametrize("p, t_sure", [(0.0, 0), (1.0, 4)])
    def test_degenerate_bec(self, p, t_sure):
        spec = info_density_spectrum(BEC, 4, p)
        assert spec.log_mass[t_sure] == 0.0 and spec.density[t_sure] == 4 - t_sure
        others = np.arange(5) != t_sure
        assert np.all(np.isneginf(spec.log_mass[others]))
        assert np.all(np.isneginf(spec.density[others]))

    def test_zero_length_block(self):
        spec = info_density_spectrum(BSC, 0, 0.11)
        assert spec.log_mass.tolist() == [0.0] and spec.density.tolist() == [0.0]

    def test_arrays_are_read_only(self):
        spec = info_density_spectrum(BSC, 8, 0.11)
        with pytest.raises(ValueError):
            spec.density[0] = 0.0

    @pytest.mark.parametrize("p", [0.0, 1e-9, 0.11, 0.5, 0.89, 1.0])
    def test_equiprobable_log_q(self, p):
        # Q[t] = P[t] 2^-density[t] where the channel gives t mass; the BSC's
        # Q is Binomial(n, 1/2) whatever p, and the BEC's outputs that agree
        # with the input off the erasures hold ((1 + p)/2)^n of it
        n = 40
        bsc, bec = info_density_spectrum(BSC, n, p), info_density_spectrum(BEC, n, p)
        assert np.array_equal(bsc.log_q, log_binomial_row(n) - n * math.log(2.0))
        for spec in (bsc, bec):
            has_mass = spec.log_mass > -np.inf
            derived = spec.log_mass[has_mass] - spec.density[has_mass] * math.log(2.0)
            assert spec.log_q[has_mass] == pytest.approx(derived, rel=1e-12)
            assert not spec.log_q.flags.writeable
        assert np.all(np.isneginf(bec.log_q[bec.log_mass == -np.inf]))
        assert logsumexp(bec.log_q) == pytest.approx(n * math.log((1.0 + p) / 2.0), abs=1e-12)


def test_binomial_log_pmf_degenerate():
    assert binomial_log_pmf(4, 0.0)[0] == 0.0
    assert binomial_log_pmf(4, 1.0)[4] == 0.0
    assert np.all(np.isneginf(binomial_log_pmf(4, 0.0)[1:]))


# both degenerate ends, a tiny p, 1/2 and two ulps below it, where the BSC
# density's slope in t is smallest, and p past 1/2
SPECTRUM_P = (0.0, 1e-9, 0.11, 0.3, 0.5 - 2.0**-53, 0.5, 0.89, 1.0)
SPECTRUM_LENGTHS = list(range(71)) + [500, 999, 1000, 2000, 10000]


def test_spectrum_tables_give_the_direct_bytes():
    info_density_spectrum.cache_clear()
    for kind in (BSC, BEC):
        for p in SPECTRUM_P:
            for n in SPECTRUM_LENGTHS:
                got = info_density_spectrum(kind, n, p)
                log_mass, density = direct_spectrum(kind, n, p)
                assert got.log_mass.tobytes() == log_mass.tobytes(), (kind, p, n)
                assert got.density.tobytes() == density.tobytes(), (kind, p, n)


# p on the 2^-53 grid of (0, 1), log-uniform down to 1e-300, within 1e-16..0.1 of
# 1, or exactly 1/2
SWEEP_P = st.one_of(
    st.integers(1, 2**53 - 1).map(lambda i: i * 2.0**-53),
    st.floats(-300.0, 0.0, exclude_max=True).map(lambda e: 10.0**e),
    st.floats(-16.0, -1.0).map(lambda e: 1.0 - 10.0**e),
    st.just(0.5),
)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from([BSC, BEC]), n=st.integers(0, 3000), p=SWEEP_P)
def test_spectrum_gives_the_direct_bytes_for_any_p(kind, n, p):
    got = info_density_spectrum(kind, n, p)
    log_mass, density = direct_spectrum(kind, n, p)
    assert got.log_mass.tobytes() == log_mass.tobytes()
    assert got.density.tobytes() == density.tobytes()
