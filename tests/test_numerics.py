import math
import statistics

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umpbounds import numerics
from umpbounds.numerics import (
    LogValue,
    gaussian_Q,
    gaussian_Q_inv,
    log_binomial_row,
)


class TestLogValue:
    def test_zero_flag(self):
        z = LogValue.zero()
        assert z.is_zero
        assert z.to_linear() == 0.0


class TestLogBinomial:
    def test_trivial(self):
        assert log_binomial_row(1)[0] == 0.0
        assert log_binomial_row(5)[5] == pytest.approx(0.0, abs=1e-12)

    def test_small_exact(self):
        assert log_binomial_row(4)[2] == pytest.approx(math.log(6.0), abs=1e-12)

    def test_against_big_integer(self):
        expected = math.log(math.comb(100, 50))
        assert log_binomial_row(100)[50] == pytest.approx(expected, abs=1e-10)

    def test_large_n_absolute_error(self):
        # the "< 1e-10 up to n = 1e4" accuracy claim, against exact integers
        # and against math.lgamma
        for n, t in [(10_000, 5_000), (10_000, 137), (10_000, 1), (9_999, 3_333)]:
            got = log_binomial_row(n)[t]
            assert got == pytest.approx(math.log(math.comb(n, t)), abs=1e-10)
            via_lgamma = math.lgamma(n + 1) - math.lgamma(t + 1) - math.lgamma(n - t + 1)
            assert got == pytest.approx(via_lgamma, abs=1e-10)

    def test_all_small_n_relative(self):
        for n in range(61):
            row = log_binomial_row(n)
            for t in range(n + 1):
                assert math.exp(row[t]) == pytest.approx(
                    math.comb(n, t), rel=1e-12
                )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_binomial_row(-1)

    def test_rows_do_not_depend_on_table_growth(self, monkeypatch):
        # one ln k! table grows on demand; whatever order lengths are asked
        # in, every entry is the float64 lgamma expression, bit for bit
        monkeypatch.setattr(numerics, "_log_factorial_table", np.zeros(1))
        for n in (3, 1000, 0, 5, 1001, 70, 4097):
            want = [
                math.lgamma(n + 1) - math.lgamma(t + 1) - math.lgamma(n - t + 1)
                for t in range(n + 1)
            ]
            assert log_binomial_row(n).tolist() == want


class TestGaussianQ:
    def test_symmetry_point(self):
        assert gaussian_Q(0.0) == 0.5

    def test_deep_tail(self):
        assert gaussian_Q(40.0) < 1e-300

    def test_known_decile(self):
        assert gaussian_Q(1.2815515655) == pytest.approx(0.1, abs=1e-10)

    @given(st.floats(min_value=-37.0, max_value=37.0))
    def test_complement(self, x):
        assert gaussian_Q(x) + gaussian_Q(-x) == pytest.approx(1.0, abs=1e-12)

    @given(
        st.floats(min_value=-37.0, max_value=36.0),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_monotone_decreasing(self, x, dx):
        assert gaussian_Q(x + dx) <= gaussian_Q(x)


class TestGaussianQInv:
    def test_median(self):
        assert gaussian_Q_inv(0.5).hex() == "0x0.0p+0"  # +0.0, not -0.0

    def test_decile(self):
        assert gaussian_Q_inv(0.1) == pytest.approx(1.2815515655446004, abs=1e-9)

    def test_antisymmetry(self):
        assert gaussian_Q_inv(0.9) == pytest.approx(-gaussian_Q_inv(0.1), abs=1e-12)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                gaussian_Q_inv(bad)

    def test_round_trip_grid(self):
        for eps in (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-9):
            assert gaussian_Q(gaussian_Q_inv(eps)) == pytest.approx(eps, rel=1e-9)

    @settings(max_examples=200)
    @given(st.floats(min_value=1e-9, max_value=1 - 1e-9))
    def test_round_trip_property(self, eps):
        assert gaussian_Q(gaussian_Q_inv(eps)) == pytest.approx(eps, rel=1e-9)

    @given(st.floats(min_value=-5.0, max_value=5.9))
    def test_inverse_of_Q(self, x):
        # below x ~ -5.2, Q(x) sits within ~1e-8 of 1.0 and a float64 cannot
        # resolve the tail any finer; the x-side round trip holds above that
        assert gaussian_Q_inv(gaussian_Q(x)) == pytest.approx(x, abs=1e-9)

    @staticmethod
    def _mp_Q_inv(eps):
        """50-digit Q^-1(eps), solved on log Q for eps <= 1/2 and by symmetry
        above; the root is checked to reproduce eps before it is used."""
        with mpmath.workdps(50):
            e = mpmath.mpf(eps)  # the float eps taken exactly
            tail = min(e, 1 - e)

            def log_Q(x):
                return mpmath.log(mpmath.erfc(x / mpmath.sqrt(2)) / 2)

            log_tail = mpmath.log(tail)
            x = mpmath.findroot(lambda v: log_Q(v) - log_tail, (-1, 40), solver="anderson")
            assert abs(mpmath.exp(log_Q(x)) / tail - 1) < mpmath.mpf(10) ** -40
            return x if e <= 0.5 else -x

    @pytest.mark.parametrize(
        "eps", [1e-300, 1e-15, 1e-3, 0.5000001, 0.9, 1 - 1e-9, 1 - 1e-12]
    )
    def test_against_mpmath(self, eps):
        want = self._mp_Q_inv(eps)
        assert gaussian_Q_inv(eps) == pytest.approx(float(want), rel=1e-14, abs=0.0)

    # 10^4 log-spaced eps from 1e-300 to 1 - 2^-53, as many log-spaced
    # 1 - eps from 2^-53 to 1/2, and the eps the benchmark workloads and
    # acceptance criteria 1-9 pass
    @pytest.mark.parametrize("eps", [
        pytest.param(np.geomspace(1e-300, 1.0 - 2.0**-53, 10_000), id="log-spaced"),
        pytest.param(1.0 - np.geomspace(2.0**-53, 0.5, 10_000), id="near-one"),
        pytest.param(np.array([0.5, 1e-3, 0.1]), id="operating-points"),
    ])
    def test_bits_of_statistics_inv_cdf(self, eps):
        # AS241 is copied into numerics, so the package never imports statistics
        normal = statistics.NormalDist()
        for e in map(float, np.unique(eps)):
            assert gaussian_Q_inv(e).hex() == (0.0 - normal.inv_cdf(e)).hex(), e

    def test_inverse_of_Q_near_one_quantization(self):
        for x in (-5.9, -5.5):
            assert gaussian_Q_inv(gaussian_Q(x)) == pytest.approx(x, abs=5e-8)
