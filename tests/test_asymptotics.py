import math

import pytest

from umpbounds.asymptotics import (
    expected_rate,
    kl_divergence_bits,
    md_exponent_and_speed,
    normal_approx_log2M,
)
from umpbounds.channel import ChannelKind, ChannelSpec, channel_stats
from umpbounds.numerics import gaussian_Q_inv

BSC, BEC = ChannelKind.BSC, ChannelKind.BEC

# capacity/dispersion of BSC(0.11), computed independently at high precision
C_BSC11 = 0.5000840418354720
V_BSC11 = 0.8907017013975560


@pytest.mark.parametrize(
    "call, match",
    [
        pytest.param(
            lambda: normal_approx_log2M(ChannelSpec(BSC, 0.11, 100), 1.0, 1.0),
            r"eps must be in \(0,1\)", id="normal-eps-1",
        ),
        pytest.param(
            lambda: kl_divergence_bits([0.5, 0.5], [1.0]), "length mismatch", id="kl-lengths"
        ),
    ],
)
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestNormalApprox:
    def test_median_error_drops_dispersion_term(self):
        spec = ChannelSpec(BSC, 0.11, 500)
        got = normal_approx_log2M(spec, 0.5, 0.25)
        assert got == pytest.approx(500 * C_BSC11 - math.log2(4.0), abs=1e-9)

    def test_single_class_strassen_form(self):
        spec = ChannelSpec(BEC, 0.5, 400)
        stats = channel_stats(spec)
        want = 400 * stats.capacity - math.sqrt(400 * stats.dispersion) * gaussian_Q_inv(0.01)
        assert normal_approx_log2M(spec, 0.01, 1.0) == pytest.approx(want, abs=1e-12)

    def test_frozen_reference_point(self):
        # independent recomputation: 1000*C - sqrt(1000*V)*Qinv(1e-3) - log2 3
        spec = ChannelSpec(BSC, 0.11, 1000)
        got = normal_approx_log2M(spec, 1e-3, 1 / 3)
        assert got == pytest.approx(406.2722518876080, abs=1e-6)

    def test_lambda_shift(self):
        spec = ChannelSpec(BSC, 0.11, 300)
        base = normal_approx_log2M(spec, 0.1, 1.0)
        for lam in (0.5, 0.1, 1 / 3):
            got = normal_approx_log2M(spec, 0.1, lam)
            assert got - base == pytest.approx(math.log2(lam), abs=1e-12)

    def test_zero_dispersion_rejected(self):
        with pytest.raises(ValueError):
            normal_approx_log2M(ChannelSpec(BSC, 0.0, 100), 0.1, 1.0)

    def test_may_go_negative(self):
        assert normal_approx_log2M(ChannelSpec(BSC, 0.45, 4), 1e-6, 0.01) < 0.0


class TestExpectedRate:
    def test_single_class(self):
        spec = ChannelSpec(BSC, 0.11, 100)
        got = expected_rate(spec, [1e-3], [1.0], [0.0])
        assert got == [normal_approx_log2M(spec, 1e-3, 1.0) / 100]

    def test_class_bit_adds_one(self):
        # two equal classes bet 1/2 each: the class index carries one bit
        spec = ChannelSpec(BEC, 0.5, 18)
        (got,) = expected_rate(spec, [0.1, 0.1], [0.5, 0.5], [0.0])
        assert got * 18 == pytest.approx(normal_approx_log2M(spec, 0.1, 0.5) + 1.0)

    def test_three_class_example(self):
        # at lambda = mu the class-index bits repay each class's log2(1/lambda_i)
        spec = ChannelSpec(BSC, 0.11, 400)
        mu, eps = [0.5, 0.25, 0.25], [1e-3, 1e-2, 1e-1]
        want = sum(m * normal_approx_log2M(spec, e, 1.0) for m, e in zip(mu, eps)) / 400
        (got,) = expected_rate(spec, eps, mu, [kl_divergence_bits(mu, mu)])
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_prior_convention(self):
        spec = ChannelSpec(BSC, 0.11, 10)
        got = expected_rate(spec, [0.1, 1e-6], [1.0, 0.0], [0.0])
        assert got == [normal_approx_log2M(spec, 0.1, 1.0) / 10]

    @pytest.mark.parametrize(
        "spec", [ChannelSpec(BSC, 0.11, 500), ChannelSpec(BEC, 0.5, 500)], ids=["bsc", "bec"]
    )
    def test_matches_paper_definition(self, spec):
        # (1/n) sum_{mu_i > 0} mu_i (log2 M_i(lambda_i) - log2 mu_i), written out
        mu, eps = [0.0, 0.2, 0.3, 0.5], [1e-2, 1e-3, 1e-6, 0.1]
        lams = [[0.25] * 4, [0.1, 0.2, 0.3, 0.4], [0.7, 0.1, 0.1, 0.1], [1e-9, 0.5, 0.25, 0.25]]
        for lam in lams:
            want = sum(
                m * (normal_approx_log2M(spec, e, l) - math.log2(m))
                for m, e, l in zip(mu, eps, lam)
                if m > 0.0
            ) / spec.n
            (got,) = expected_rate(spec, eps, mu, [kl_divergence_bits(mu, lam)])
            assert got == pytest.approx(want, rel=1e-12)

    def test_one_rate_per_loss(self):
        spec = ChannelSpec(BEC, 0.5, 200)
        rates = expected_rate(spec, [1e-3, 1e-2], [0.5, 0.5], [0.0, 1.0, math.inf])
        assert rates[0] - rates[1] == pytest.approx(1.0 / 200, rel=1e-12)
        assert rates[2] == -math.inf


class TestProportionalBetting:
    def test_kl_loss_frozen(self):
        loss = kl_divergence_bits([0.5, 0.5], [0.9, 0.1])
        assert loss == pytest.approx(0.7369655941662062, abs=1e-12)

    def test_kl_zero_iff_equal(self):
        assert kl_divergence_bits([0.3, 0.7], [0.3, 0.7]) == 0.0
        assert kl_divergence_bits([0.3, 0.7], [0.4, 0.6]) > 0.0

    def test_kl_infinite_off_support(self):
        assert kl_divergence_bits([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_grid_argmax_matches_prior(self):
        # testable form of the betting optimality: coarse simplex scan
        spec = ChannelSpec(BSC, 0.11, 1000)
        mu = (0.7, 0.3)
        base = normal_approx_log2M(spec, 1e-3, 1.0)
        best, best_lam = -math.inf, None
        for a in range(0, 11):
            lam = (a / 10, 1 - a / 10)
            if 0.0 in lam:
                continue
            rate = sum(
                m * (base + math.log2(l) - math.log2(m)) for m, l in zip(mu, lam)
            )
            if rate > best:
                best, best_lam = rate, lam
        assert max(abs(a - b) for a, b in zip(best_lam, mu)) <= 0.1 + 1e-12


class TestModerateDeviations:
    def test_zero_penalty_reduces_to_homogeneous_speed(self):
        point = md_exponent_and_speed(ChannelSpec(BSC, 0.11, 8), 10_000**-0.25, 0.0, 10_000)
        assert point.speed == pytest.approx(10_000 * (10_000**-0.25) ** 2)
        assert not point.error_bounded_away

    def test_positivity_violation(self):
        point = md_exponent_and_speed(ChannelSpec(BSC, 0.11, 8), 500**-0.25, 500**-0.25, 500)
        assert point.error_bounded_away
        assert point.predicted_log2_error is None

    def test_reference_values(self):
        # rho = n^(-1/3), penalty = log2(n)/n at n = 1e4, plugged by hand; the
        # error is exp(-n gap^2 / (2V)), whose log2 carries a factor log2(e)
        n = 10_000
        point = md_exponent_and_speed(
            ChannelSpec(BSC, 0.11, 8), n ** (-1 / 3), math.log2(n) / n, n
        )
        gap = n ** (-1 / 3) - math.log2(n) / n
        assert point.exponent == pytest.approx(1.0 / (2.0 * V_BSC11), abs=1e-12)
        assert point.speed == pytest.approx(n * gap * gap, rel=1e-12)
        assert point.predicted_log2_error == pytest.approx(
            -n * gap * gap / (2.0 * V_BSC11) * math.log2(math.e), rel=1e-12
        )

    def test_zero_dispersion_rejected(self):
        with pytest.raises(ValueError):
            md_exponent_and_speed(ChannelSpec(BEC, 1.0, 8), 0.1, 0.0, 100)

    def test_predicted_error_trend_over_n_grid(self):
        # finite-n diagnostics stand in for the limit: along a regular
        # schedule the predicted log-error must decay monotonically
        spec = ChannelSpec(BSC, 0.11, 8)
        preds = [
            md_exponent_and_speed(spec, n ** (-1 / 3), math.log2(n) / n, n).predicted_log2_error
            for n in (200, 500, 1000, 5000, 20_000)
        ]
        assert all(b < a for a, b in zip(preds, preds[1:]))
