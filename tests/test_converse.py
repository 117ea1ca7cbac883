import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.optimize import linprog

import oracles
from umpbounds import converse
from umpbounds.achievability import dt_class_bound, max_log2M_dt, max_log2M_header_ach
from umpbounds.channel import ChannelKind, ChannelSpec
from umpbounds.converse import (
    converse_eps_bec,
    converse_max_log2M,
    converse_max_log2M_bsc,
    header_conv_eps_bec,
    header_conv_max_log2M,
    header_conv_max_log2M_bsc,
    np_beta_bsc,
)

BSC, BEC = ChannelKind.BSC, ChannelKind.BEC

# miss probabilities down to 1e-15, where 1 - eps and a sum of shell masses
# near 1 keep only a digit or two of eps
SMALL_EPS = (1e-3, 1e-6, 1e-9, 1e-12, 1e-14, 1e-15)
MP_TOL_BITS = 1e-8


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(lambda: np_beta_bsc(4, 0.6, 0.5), r"0 <= p <= 0.5", id="np-beta-p-above-half"),
        pytest.param(
            lambda: converse_eps_bec(ChannelSpec(BSC, 0.11, 8), 1.0, 1.0), "BEC spec",
            id="class-floor-on-bsc",
        ),
        pytest.param(
            lambda: converse_eps_bec(ChannelSpec(BEC, 0.5, 8), -1.0, 1.0), "log2M must be >= 0",
            id="class-floor-log2M-negative",
        ),
        pytest.param(
            lambda: header_conv_eps_bec(ChannelSpec(BSC, 0.11, 8), 2, 3, 1.0), "BEC spec",
            id="header-floor-on-bsc",
        ),
        pytest.param(
            lambda: header_conv_eps_bec(ChannelSpec(BEC, 0.5, 8), 2, 0, 1.0), "m must be >= 1",
            id="header-floor-m-0",
        ),
        pytest.param(
            lambda: header_conv_max_log2M_bsc(ChannelSpec(BSC, 0.11, 8), 1e-3, 3, 9, [1e-3]),
            r"n0 must be in \[0, n\]", id="bsc-header-n0-past-n",
        ),
        pytest.param(
            lambda: header_conv_max_log2M(ChannelSpec(BEC, 0.0, 8), 1e-3, 3, 9, [1e-3]),
            r"n0 must be in \[0, n\]", id="bec-header-n0-past-n",
        ),
    ],
)
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def _np_beta_lp(n: int, p: float, alpha: float) -> float:
    """Independent LP check: minimize sum q_y z_y s.t. sum p_y z_y >= alpha."""
    d = np.array([bin(y).count("1") for y in range(2**n)])
    pmass = p**d * (1 - p) ** (n - d)
    qmass = np.full(2**n, 2.0**-n)
    res = linprog(
        c=qmass,
        A_ub=-pmass[None, :],
        b_ub=[-alpha],
        bounds=[(0, 1)] * 2**n,
        method="highs",
    )
    assert res.success
    return float(res.fun)


class TestNpBeta:
    def test_alpha_zero(self):
        res = np_beta_bsc(6, 0.11, 0.0)
        assert res.log_beta.is_zero and res.randomization_rho == 0.0

    def test_alpha_one(self):
        res = np_beta_bsc(6, 0.11, 1.0)
        assert res.log_beta.to_linear() == 1.0

    def test_two_bit_frozen(self):
        # four outputs sorted by likelihood: beta = 1/4 + 0.9 * 2/4 = 0.7
        res = np_beta_bsc(2, 0.25, 0.9)
        assert res.log_beta.to_linear() == pytest.approx(0.7, rel=1e-12)
        assert res.threshold_weight_L == 1
        assert res.randomization_rho == pytest.approx(0.9, rel=1e-12)

    def test_test_attains_alpha_exactly(self):
        # the (L, rho) randomized test must reproduce the requested detection
        n, p = 9, 0.11
        for alpha in (0.05, 0.3, 0.77, 0.999):
            res = np_beta_bsc(n, p, alpha)
            shell = [math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]
            det = sum(shell[: res.threshold_weight_L])
            det += res.randomization_rho * shell[res.threshold_weight_L]
            assert det == pytest.approx(alpha, rel=1e-12)

    @pytest.mark.parametrize("p,pf", [(0.11, Fraction(11, 100)), (0.25, Fraction(1, 4))])
    def test_brute_force_small_n(self, p, pf):
        for n in range(1, 9):
            for alpha, af in [
                (0.1, Fraction(1, 10)),
                (0.5, Fraction(1, 2)),
                (0.9, Fraction(9, 10)),
                (0.99, Fraction(99, 100)),
            ]:
                want = oracles.np_beta_exact_outputs(n, pf, af)
                got = np_beta_bsc(n, p, alpha).log_beta.to_linear()
                assert got == pytest.approx(float(want), rel=1e-12)

    def test_lp_cross_check(self):
        for n in (2, 3, 4):
            for alpha in (0.1, 0.5, 0.9):
                got = np_beta_bsc(n, 0.3, alpha).log_beta.to_linear()
                assert got == pytest.approx(_np_beta_lp(n, 0.3, alpha), abs=1e-8)

    def test_monotone_in_alpha(self):
        alphas = np.linspace(0.0, 1.0, 23)
        betas = [np_beta_bsc(12, 0.2, a).log_beta.to_linear() for a in alphas]
        assert all(b >= a for a, b in zip(betas, betas[1:]))

    def test_likelihood_ratio_sanity_bound(self):
        # beta_alpha >= (alpha - P[LR >= tau]) / tau for any threshold tau
        n, p = 10, 0.15
        shell_p = np.array(
            [math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]
        )
        lr = shell_p / (math.comb(0, 0) * 2.0**-n) / np.array(
            [math.comb(n, j) for j in range(n + 1)]
        )  # W(y|x)/Q(y) per output at distance j
        for alpha in (0.2, 0.6, 0.95):
            beta = np_beta_bsc(n, p, alpha).log_beta.to_linear()
            for j in (1, 3, 5, 8):
                tau = lr[j]
                p_lr_ge_tau = float(shell_p[: j + 1].sum())
                assert beta >= (alpha - p_lr_ge_tau) / tau - 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            np_beta_bsc(4, 0.11, 1.5)

    @pytest.mark.parametrize("n, p, eps", [(1300, 0.49, 1e-15), (64, 0.5, 1e-15)])
    def test_beta_never_exceeds_one(self, n, p, eps):
        # the float shell sums of beta(1 - eps) come out above 1 here: at
        # (1300, 0.49) -log2(beta) read -6.56e-13
        assert converse.np_beta_bsc_miss(n, p, eps).log_beta.log_magnitude <= 0.0

    @pytest.mark.parametrize("p", [0.0, 0.5])
    def test_degenerate_p_lp_cross_check(self, p):
        # the channel law is a point mass at p = 0, and at p = 1/2 every
        # output ties in likelihood ratio
        for n in range(1, 7):
            for alpha in (0.1, 0.5, 0.9, 1.0):
                got = np_beta_bsc(n, p, alpha).log_beta.to_linear()
                assert got == pytest.approx(_np_beta_lp(n, p, alpha), rel=1e-9), (n, alpha)

    @pytest.mark.parametrize("n", [0, 1, 7, 64, 1000])
    def test_degenerate_p_closed_forms(self, n):
        # beta = alpha 2^-n at p = 0, where the test accepts the reference
        # word with probability alpha, and beta = alpha at p = 1/2, where
        # every shell ties: ln alpha exactly, not a sum of float shell masses
        for alpha in (1e-300, 1e-9, 0.3, 0.5, 0.9, 1.0 - 1e-15, 1.0):
            at_zero = np_beta_bsc(n, 0.0, alpha).log_beta.log_magnitude
            assert at_zero == pytest.approx(math.log(alpha) - n * math.log(2.0), rel=1e-12)
            assert np_beta_bsc(n, 0.5, alpha).log_beta.log_magnitude == math.log(alpha)


class TestConverseBsc:
    def test_lambda_one_is_homogeneous(self):
        # dyadic eps, so that 1 - (1 - eps) == eps and both forms see one level
        spec, eps = ChannelSpec(BSC, 0.11, 64), 2.0**-10
        beta = np_beta_bsc(64, 0.11, 1 - eps)
        assert converse_max_log2M_bsc(spec, eps, 1.0) == -beta.log2_beta

    def test_lambda_additivity_exact(self):
        spec = ChannelSpec(BSC, 0.11, 100)
        base = converse_max_log2M_bsc(spec, 0.05, 1.0)
        for lam in (0.5, 1 / 3, 0.01):
            assert converse_max_log2M_bsc(spec, 0.05, lam) == base + math.log2(lam)

    def test_frozen_shell_oracle_value(self):
        # exact rational shell sums at n=200, eps=1e-3, lambda=1/3
        spec = ChannelSpec(BSC, 0.11, 200)
        got = converse_max_log2M_bsc(spec, 1e-3, 1 / 3)
        assert got == pytest.approx(64.96901436991039, abs=1e-6)

    def test_tie_at_half_fits_one_codeword(self):
        # beta(1/2) = 1/2 = lambda at p = 1/2: one codeword meets the converse
        # exactly, where float shell sums put beta above 1/2 and the class NA
        assert converse_max_log2M_bsc(ChannelSpec(BSC, 0.5, 1000), 0.5, 0.5) == 0.0

    def test_requires_bsc(self):
        with pytest.raises(ValueError):
            converse_max_log2M_bsc(ChannelSpec(BEC, 0.5, 8), 0.1, 1.0)

    @pytest.mark.parametrize("p", [0.0, 0.11, 0.5, 0.89, 1.0])
    def test_one_class_builds_no_eps0_grid(self, p, monkeypatch):
        # one class has no header, so eps0 = 0 is read off no grid
        def no_grid(*args):
            raise AssertionError("a one-class converse searched the eps0 grid")

        for name in ("_header_eps0_index", "_header_eps0"):
            monkeypatch.setattr(converse, name, no_grid)
        spec = ChannelSpec(BSC, p, 200)
        want = 0.0 - converse.np_beta_bsc_miss(200, min(p, 1.0 - p), 1e-3).log2_beta
        assert converse_max_log2M(spec, 1e-3, 1.0) == want
        assert header_conv_max_log2M(spec, 1e-3, 1, 50, [1e-3]) is not None

    # dyadic p, so that 1 - (1 - p) == p and the two sides compute alike
    @pytest.mark.parametrize("p", [0.125, 0.25])
    @pytest.mark.parametrize("n", [40, 100])
    def test_crossover_symmetry(self, n, p):
        spec, mirror = ChannelSpec(BSC, p, n), ChannelSpec(BSC, 1.0 - p, n)
        for fn in (converse_max_log2M_bsc, converse_max_log2M):
            assert fn(mirror, 1e-2, 0.5) == fn(spec, 1e-2, 0.5)
        for fn in (header_conv_max_log2M_bsc, header_conv_max_log2M):
            for n0 in (n // 2, n):
                want = fn(spec, 1e-2, 2, n0, [1e-2, 0.1], 50)
                assert want is not None
                assert fn(mirror, 1e-2, 2, n0, [1e-2, 0.1], 50) == want

    @pytest.mark.parametrize("p, want", [(0.0, 32.0), (0.5, 0.0), (1.0, 32.0)])
    def test_degenerate_p_converse_closed_form(self, p, want):
        # -log2 beta(1 - eps) is n - log2(1 - eps) at p in {0, 1}, -log2(1 - eps) at p = 1/2
        spec = ChannelSpec(BSC, p, 32)
        for fn in (converse_max_log2M_bsc, converse_max_log2M):
            assert fn(spec, 1e-2, 1.0) == pytest.approx(want - math.log2(0.99), rel=1e-12)
        for fn in (header_conv_max_log2M_bsc, header_conv_max_log2M):
            got = fn(spec, 1e-2, 2, 8, [1e-2])
            if p == 0.5:  # two header codewords need eps0 >= 1/2 > eps
                assert got is None
            else:  # eps0 = 0 admits them, leaving the payload all of eps
                assert got == pytest.approx(want - 8.0 - math.log2(0.99), rel=1e-12)


class TestSmallEpsMpmath:
    """Rates against 60-digit references down to eps = 1e-15."""

    def test_converse_at_a_tiny_rate(self):
        # n = 1, p = 1e-9, eps = 1e-15: beta = 1 - 5e-7, so -log2 beta keeps
        # beta's absolute rounding error, a few 1e-17, over 1 - beta, about
        # 1e-10 relative. Forming the equiprobable shell masses as
        # log_mass - density ln 2 erred 1.6e-9 relative; they are exact now,
        # and the rate errs 6e-11.
        n, p, eps = 1, 1e-9, 1e-15
        want = -oracles.mp_log2_beta_miss(n, p, eps)
        got = converse_max_log2M_bsc(ChannelSpec(BSC, p, n), eps, 1.0)
        assert got == pytest.approx(want, rel=5e-10, abs=0.0)

    @pytest.mark.parametrize("n", [200, 1000, 5000])
    def test_converse(self, n):
        spec = ChannelSpec(BSC, 0.11, n)
        for eps in SMALL_EPS:
            want = -oracles.mp_log2_beta_miss(n, 0.11, eps)
            got = converse_max_log2M_bsc(spec, eps, 1.0)
            assert got == pytest.approx(want, abs=MP_TOL_BITS), (n, eps, got, want)

    @pytest.mark.parametrize("n,eps,n0", [(1000, 1e-12, 300), (1000, 1e-9, 200), (600, 1e-14, 350)])
    def test_header_converse(self, n, eps, n0):
        spec, m = ChannelSpec(BSC, 0.11, n), 3
        grid = np.linspace(0.0, eps, 1000)
        want = oracles.mp_header_conv_max_log2M(n, 0.11, eps, m, n0, grid)
        got = header_conv_max_log2M_bsc(spec, eps, m, n0, [eps])
        assert got == pytest.approx(want, abs=MP_TOL_BITS), (got, want)

    @pytest.mark.parametrize("n", [200, 1000])
    @pytest.mark.parametrize(
        "kind,p,bound",
        [
            pytest.param(BSC, 0.11, "dt", id="dt-bsc"),
            pytest.param(BEC, 0.5, "dt", id="dt-bec"),
            pytest.param(BEC, 0.5, "converse", id="converse-bec"),
        ],
    )
    def test_bound_sum_at_rate(self, kind, p, bound, n):
        # the 60-digit bound sum at the returned rate equals eps; an NA rate
        # needs the sum at a single codeword to exceed eps. The float ln C(n, t)
        # table is good to a few ulps of ln n!, about 1e-12 relative in each
        # mass at n = 1000; the sums measured within 2.5e-13 of eps.
        spec, lam = ChannelSpec(kind, p, n), 0.5
        if bound == "dt":
            rate_fn, mp_sum = max_log2M_dt, functools.partial(oracles.mp_dt_sum, kind.value)
        else:
            rate_fn, mp_sum = converse_max_log2M, oracles.mp_bec_conv_sum
        for eps in (1e-9, 1e-15):
            got = rate_fn(spec, eps, lam)
            if got is None:
                assert mp_sum(n, p, -math.log2(lam)) > eps, eps
                continue
            at_rate = float(mp_sum(n, p, got - math.log2(lam)))
            assert at_rate == pytest.approx(eps, rel=1e-12, abs=0.0), (eps, got)

    @pytest.mark.parametrize(
        "kind,p,bound,n0",
        [
            pytest.param(BSC, 0.11, "header-dt", 400, id="header-dt-bsc"),
            pytest.param(BEC, 0.5, "header-dt", 250, id="header-dt-bec"),
            pytest.param(BEC, 0.5, "header-converse", 250, id="header-converse-bec"),
        ],
    )
    def test_header_bound_sum_at_rate(self, kind, p, bound, n0):
        # the header searches sum a float header term and a float payload sum,
        # each good to about 1e-12 relative at n = 1000, as the sums above
        n, m = 1000, 3
        spec = ChannelSpec(kind, p, n)
        for eps in (1e-9, 1e-15):
            if bound == "header-dt":
                got = max_log2M_header_ach(spec, eps, m, n0, [eps] * m)
                with mpmath.workdps(oracles.MP_DPS):
                    payload_coeff = mpmath.log(2 ** mpmath.mpf(got) - 1, 2) - 1
                at_rate = oracles.mp_dt_sum(kind.value, n0, p, math.log2(m - 1) - 1)
                at_rate += oracles.mp_dt_sum(kind.value, n - n0, p, payload_coeff)
            else:
                got = header_conv_max_log2M(spec, eps, m, n0, [eps] * m)
                at_rate = oracles.mp_bec_conv_sum(n0, p, math.log2(m))
                at_rate += oracles.mp_bec_conv_sum(n - n0, p, got)
            assert float(at_rate) == pytest.approx(eps, rel=1e-12, abs=0.0), (eps, got)


class TestConverseBec:
    def test_single_codeword_floor_is_zero(self):
        spec = ChannelSpec(BEC, 0.5, 16)
        assert converse_eps_bec(spec, 0.0, 1.0) == 0.0

    def test_hand_summed_two_terms(self):
        # n=1, p=1/2, M=2, lambda=1: only the erased branch contributes 1/4
        spec = ChannelSpec(BEC, 0.5, 1)
        assert converse_eps_bec(spec, 1.0, 1.0) == pytest.approx(0.25, rel=1e-12)

    def test_frozen_rational_value(self):
        spec = ChannelSpec(BEC, 0.5, 64)
        got = converse_eps_bec(spec, 20.0, 0.5)
        assert got == pytest.approx(0.0011649463840457896, rel=1e-10)

    @pytest.mark.parametrize("p,pf", [(0.5, Fraction(1, 2)), (0.25, Fraction(1, 4))])
    def test_oracle_grid(self, p, pf):
        for n in (1, 9, 33):
            spec = ChannelSpec(BEC, p, n)
            for log2M in range(0, n + 1, max(1, n // 4)):
                for lam, lamf in ((1.0, Fraction(1)), (1 / 3, Fraction(1, 3))):
                    got = converse_eps_bec(spec, float(log2M), lam)
                    want = oracles.converse_eps_bec_exact(n, pf, log2M, lamf)
                    assert got == pytest.approx(float(want), rel=1e-10, abs=1e-300)

    def test_rate_inversion_brackets(self):
        spec = ChannelSpec(BEC, 0.5, 128)
        eps = 1e-3
        rate = converse_max_log2M(spec, eps, 1 / 3)
        assert rate is not None
        assert converse_eps_bec(spec, rate, 1 / 3) <= eps
        assert converse_eps_bec(spec, rate + 1e-3, 1 / 3) > eps


class TestHeaderConverse:
    def test_bsc_degenerate_split_is_homogeneous(self):
        # n0=0 with m=1 selects eps0=0 and reduces to the plain converse
        spec = ChannelSpec(BSC, 0.11, 64)
        got = header_conv_max_log2M_bsc(spec, 1e-2, 1, 0, [1e-2])
        assert got == converse_max_log2M_bsc(spec, 1e-2, 1.0)

    @pytest.mark.parametrize(
        "n0, m, eps", [(3, 3, 0.05), (0, 1, 0.05), (1, 3, 0.4), (0, 2, 0.6), (5, 1000, 0.99)]
    )
    def test_bsc_header_at_p0_closed_form(self, n0, m, eps):
        # at p = 0 the header test admits m codewords iff eps0 >= max(0, 1 - 2^n0/m)
        # (no grid point lies on it), and a payload of miss e has rate
        # (n - n0) - log2(1 - e); at (3, 3, 0.05) that is 29 - log2(0.95)
        n = 32
        eps0_min = max(0.0, 1.0 - 2.0**n0 / m)
        if m > 1:  # one class takes eps0 = 0 with no header test
            assert converse._header_eps0_min(0.0, n0, m)[0] == pytest.approx(eps0_min, rel=1e-12, abs=0.0)
        grid = np.linspace(0.0, eps, 1000)
        payload_miss = eps - float(grid[np.searchsorted(grid, eps0_min)])
        want = (n - n0) - math.log2(1.0 - payload_miss)
        got = header_conv_max_log2M_bsc(ChannelSpec(BSC, 0.0, n), eps, m, n0, [eps])
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_bsc_header_taking_all_of_eps_leaves_a_noiseless_payload(self, p):
        # two codewords on an empty header need eps0 = 1/2, all of class 0's
        # eps: its payload has miss 0, and a noiseless 10-symbol block still
        # carries 10 bits (beta = Q(reference word) = 2^-10), not 0
        spec = ChannelSpec(BSC, p, 10)
        assert header_conv_max_log2M_bsc(spec, 0.5, 2, 0, [0.5, 0.6]) == 10.0

    @pytest.mark.parametrize("p", [0.0, 0.11, 0.49, 0.5])
    def test_bsc_one_class_header_needs_no_eps0(self, p):
        # beta <= 1 always, so eps0 is exactly 0 and the payload takes all of
        # eps; float shell sums above 1 once made eps0_min positive, up to
        # 1.9e-13 at p = 1/2
        spec = ChannelSpec(BSC, p, 300)
        for n0 in range(301):
            want = 0.0 - converse.np_beta_bsc_miss(300 - n0, p, 1e-3).log2_beta
            assert header_conv_max_log2M_bsc(spec, 1e-3, 1, n0, [1e-3]) == want, n0

    def test_bsc_infeasible_header(self):
        # three headers over a single channel use cannot meet eps=1e-3
        spec = ChannelSpec(BSC, 0.11, 32)
        assert header_conv_max_log2M_bsc(spec, 1e-3, 3, 1, [1e-3]) is None

    def test_bec_degenerate_split_keeps_header_part(self):
        # n0=n with M=1: the payload part vanishes entirely
        spec = ChannelSpec(BEC, 0.5, 24)
        got = header_conv_eps_bec(spec, 24, 3, 0.0)
        want = oracles.header_conv_eps_bec_exact(24, Fraction(1, 2), 24, 3, 0)
        assert got == pytest.approx(float(want), rel=1e-10)

    def test_bec_frozen_long_block(self):
        spec = ChannelSpec(BEC, 0.5, 512)
        got = header_conv_eps_bec(spec, 16, 3, 200.0)
        assert got == pytest.approx(9.619801339254857e-05, rel=1e-10)

    def test_bec_oracle_grid(self):
        pf = Fraction(1, 2)
        for n in (12, 40):
            spec = ChannelSpec(BEC, 0.5, n)
            for n0 in (1, n // 3, n // 2):
                for log2M in (0, 3, n // 2):
                    got = header_conv_eps_bec(spec, n0, 3, float(log2M))
                    want = oracles.header_conv_eps_bec_exact(n, pf, n0, 3, log2M)
                    assert got == pytest.approx(float(want), rel=1e-10, abs=1e-300)

    def test_bec_rate_inversion(self):
        spec = ChannelSpec(BEC, 0.5, 64)
        eps = 1e-2
        rate = header_conv_max_log2M(spec, eps, 3, 16, [eps] * 3)
        assert rate is not None
        assert header_conv_eps_bec(spec, 16, 3, rate) <= eps
        assert header_conv_eps_bec(spec, 16, 3, rate + 1e-3) > eps

    def test_split_validation(self):
        spec = ChannelSpec(BEC, 0.5, 8)
        with pytest.raises(ValueError):
            header_conv_eps_bec(spec, 9, 3, 1.0)


class TestSandwich:
    @pytest.mark.parametrize("n", [64, 128, 256, 600])
    def test_bsc_achievability_below_converse(self, n):
        spec = ChannelSpec(BSC, 0.11, n)
        for eps in SMALL_EPS + (0.1,):
            for lam in (1.0, 1 / 3):
                dt = max_log2M_dt(spec, eps, lam)
                conv = converse_max_log2M_bsc(spec, eps, lam)
                if dt is not None:
                    assert dt <= conv

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_bec_floor_below_dt(self, n):
        spec = ChannelSpec(BEC, 0.5, n)
        for log2M in range(0, n, max(1, n // 8)):
            for lam in (1.0, 0.5, 1 / 3):
                assert converse_eps_bec(spec, float(log2M), lam) <= dt_class_bound(
                    spec, float(log2M), lam
                )
