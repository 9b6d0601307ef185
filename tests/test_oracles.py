"""Cross-checks of the closed-form oracles against independent numerics.

The experiment code trusts these formulas, so each one is validated here by
a route that does not share code with it: quadrature against hand-coded
densities, series identities, or direct enumeration.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from sigmapaths import oracles


def _passage_density_drifted(t, level, drift):
    """First-passage density of B + drift*t to ``level`` (hand-coded)."""
    return (
        level / math.sqrt(2.0 * math.pi * t**3)
        * math.exp(-((level - drift * t) ** 2) / (2.0 * t))
    )


def test_level_passage_survival_integrates_density():
    for a, t in ((1.0, 1.0), (1.0, 4.0), (2.0, 3.0)):
        tail, _ = integrate.quad(_passage_density_drifted, t, np.inf, args=(a, 0.0))
        assert oracles.level_passage_survival(a, t) == pytest.approx(tail, abs=1e-9)


def test_level_passage_survival_frozen_values():
    assert oracles.level_passage_survival(1.0, 1.0) == pytest.approx(0.6826894921370859)
    assert 1.0 - oracles.level_passage_survival(1.0, 1.0) == pytest.approx(0.3173105078629141)


def test_level_passage_slope_near_minus_half():
    slope = oracles.level_passage_survival_slope(1.0, [4.0, 16.0, 64.0])
    assert -0.6 <= slope <= -0.4
    far = oracles.level_passage_survival_slope(1.0, [1e4, 1e5])
    assert far == pytest.approx(-0.5, abs=1e-3)


def test_drifted_line_survival_integrates_density():
    for b, t in ((1.0, 2.0), (0.5, 4.0)):
        tail, _ = integrate.quad(_passage_density_drifted, t, np.inf, args=(1.0, b))
        assert oracles.drifted_line_passage_survival(b, t) == pytest.approx(tail, abs=1e-9)


def _drifted_line_survival_in_one_expression(b, t):
    """The survival formula with its product always taken, which overflows in
    ``exp(2 b)`` past b = 354.9."""
    rt = math.sqrt(t)
    return oracles.norm_cdf((1.0 - b * t) / rt) - math.exp(2.0 * b) * oracles.norm_cdf((-1.0 - b * t) / rt)


@settings(max_examples=400, deadline=None)
@given(st.floats(0.0, 354.0, exclude_min=True), st.floats(1e-6, 1e4))
def test_drifted_line_survival_keeps_its_bits_below_the_overflow(b, t):
    assert oracles.drifted_line_passage_survival(b, t).hex() == _drifted_line_survival_in_one_expression(b, t).hex()


@pytest.mark.parametrize("b", [354.9, 356.0, 1e6])
def test_drifted_line_survival_is_finite_past_the_overflow(b):
    for t in (1e-6, 1.0 / b, 0.5, 1.0, 64.0):
        assert 0.0 <= oracles.drifted_line_passage_survival(b, t) <= 1.0


def test_drifted_laplace_by_quadrature():
    for b, lam in ((1.0, 1.5), (0.5, 1.0), (2.0, 2.5)):
        val, _ = integrate.quad(
            lambda t: math.exp(-lam * t) * _passage_density_drifted(t, 1.0, b), 0, np.inf
        )
        assert oracles.drifted_passage_laplace(1.0, b, lam) == pytest.approx(val, abs=1e-9)


def test_stopped_exp_martingale_mean_is_one_here():
    # the square root collapses for this parametrization, for every b > 0
    for b in (0.25, 0.5, 1.0, 2.0):
        assert oracles.stopped_exp_martingale_mean(b) == pytest.approx(1.0, abs=1e-12)


def test_gamblers_ruin_values():
    assert oracles.gamblers_ruin_down_before_up(1.0) == 0.5
    assert oracles.gamblers_ruin_down_before_up(2.0) == pytest.approx(1.0 / 3.0)
    assert oracles.gamblers_ruin_down_before_up(4.0) == pytest.approx(0.2)


def test_interval_exit_local_time_mean_by_enumeration():
    # |B| at the exit of (-a, b): a with probability b/(a+b), b with a/(a+b)
    for a, b in ((1.0, 1.0), (2.0, 1.0), (0.5, 3.0)):
        p_down = oracles.gamblers_ruin_down_before_up(a, b)
        expected = a * p_down + b * (1.0 - p_down)
        assert oracles.interval_exit_local_time_mean(a, b) == pytest.approx(expected)


def test_bessel3_inverse_moment_by_transition_quadrature():
    def density(y, x, t):
        # transition density of the Bessel(3) process (hand-coded)
        phi = lambda u: math.exp(-u * u / (2 * t)) / math.sqrt(2 * math.pi * t)
        return (y / x) * (phi(y - x) - phi(y + x))

    for x0, t in ((1.0, 1.0), (2.0, 0.5), (4.0, 1.0)):
        val, _ = integrate.quad(lambda y: density(y, x0, t) / y, 0, np.inf)
        assert oracles.bessel3_inverse_moment(x0, t) == pytest.approx(val, abs=1e-9)
        assert oracles.bessel3_inverse_moment(x0, t) < 1.0 / x0  # strict local martingale


def test_scale_hit_probability_branches():
    assert oracles.scale_hit_probability(2.0, 1.0) == 0.5
    assert oracles.scale_hit_probability(0.5, 1.0) == 1.0
    assert oracles.scale_hit_probability(1.0, 1.0) == 1.0


def test_exp_martingale_hit_probability_branches():
    assert oracles.exp_martingale_level_hit_probability(0.25, 0.5) == 0.5
    assert oracles.exp_martingale_level_hit_probability(0.9, 0.5) == 1.0


def test_overshoot_allowance_scales_with_sqrt_dt():
    a1 = oracles.overshoot_allowance(1.0, 1.0, 1e-4)
    a2 = oracles.overshoot_allowance(1.0, 1.0, 4e-4)
    assert a1 > 0
    assert a2 == pytest.approx(2.0 * a1)
