"""Closed-form reference values for the Monte Carlo experiments.

Every expected value asserted anywhere in the package comes from a named
formula in this module, so experiment code never inlines constants.  The
formulas are textbook: the reflection principle for one-sided passage times,
the gambler's ruin for two-sided exits, scale-function hitting probabilities
for transient diffusions, and the Laplace transform of drifted passage times.

Grid caveat: hitting times resolved at grid resolution overshoot the barrier
by O(sqrt(dt)).  ``overshoot_allowance`` quantifies the resulting first-order
bias (Siegmund's expected-overshoot constant 0.5826 for Gaussian walks) so
tests can widen oracle tolerances honestly instead of loosening them ad hoc.
"""

from __future__ import annotations

import math

__all__ = [
    "norm_cdf",
    "norm_pdf",
    "gamblers_ruin_down_before_up",
    "interval_exit_local_time_mean",
    "level_passage_survival",
    "level_passage_survival_slope",
    "drifted_line_passage_survival",
    "drifted_passage_laplace",
    "stopped_exp_martingale_mean",
    "bessel3_inverse_moment",
    "scale_hit_probability",
    "exp_martingale_level_hit_probability",
    "overshoot_allowance",
    "EXPECTED_OVERSHOOT_COEFF",
]

#: E[overshoot]/sqrt(step variance) for a Gaussian walk crossing a level.
EXPECTED_OVERSHOOT_COEFF = 0.5826


def norm_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def gamblers_ruin_down_before_up(a: float, b: float = 1.0) -> float:
    """P(standard BM from 0 hits -a before +b) = b / (a + b)."""
    if a <= 0 or b <= 0:
        raise ValueError("barriers must be positive")
    return b / (a + b)


def interval_exit_local_time_mean(a: float, b: float = 1.0) -> float:
    """E[local time at 0 when BM first exits (-a, b)] = 2ab / (a + b).

    Optional stopping of |B| - L: the mean local time equals E|B| at the
    exit, which the ruin probabilities make 2ab/(a+b).
    """
    return 2.0 * a * b / (a + b)


def level_passage_survival(a: float, t: float) -> float:
    """P(T_a > t) for BM and a level a > 0: 2*Phi(a/sqrt(t)) - 1.

    Reflection principle; decays like a*sqrt(2/(pi t)), so T_a has no mean.
    """
    if a <= 0 or t <= 0:
        raise ValueError("level and time must be positive")
    return 2.0 * norm_cdf(a / math.sqrt(t)) - 1.0


def level_passage_survival_slope(a: float, times: list[float]) -> float:
    """Least-squares log-log slope of the exact survival over ``times``."""
    xs = [math.log(t) for t in times]
    ys = [math.log(level_passage_survival(a, t)) for t in times]
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = sum((x - mx) ** 2 for x in xs)
    return num / den


def drifted_line_passage_survival(b: float, t: float) -> float:
    """P(sigma_b > t) where sigma_b = inf{s : B_s + b s = 1}, b real.

    Standard drifted passage-time law for the level 1:
    Phi((1 - b t)/sqrt(t)) - exp(2 b) * Phi((-1 - b t)/sqrt(t)).
    The product is skipped where its Phi is 0.0, so it never overflows: past
    b = 354.9, where exp(2 b) does, that Phi's argument is at most
    -2 sqrt(b) < -37 at every t.
    """
    if t <= 0:
        raise ValueError("time must be positive")
    rt = math.sqrt(t)
    first, tail = norm_cdf((1.0 - b * t) / rt), norm_cdf((-1.0 - b * t) / rt)
    return first - math.exp(2.0 * b) * tail if tail else first


def drifted_passage_laplace(level: float, drift: float, lam: float) -> float:
    """E[exp(-lam * T) ; T < inf] for T = inf{t : B_t + drift*t = level}.

    Equals exp(level * (drift - sqrt(drift^2 + 2*lam))) for level > 0,
    lam >= 0 (paths that never reach the level contribute 0).
    """
    if level <= 0:
        raise ValueError("level must be positive")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return math.exp(level * (drift - math.sqrt(drift * drift + 2.0 * lam)))


def stopped_exp_martingale_mean(b: float) -> float:
    """E[exp(B_sigma - sigma/2)] at the line-hit sigma_b, by Laplace transform.

    exp(B_sigma - sigma/2) = e * exp(-(b + 1/2) * sigma) since
    B_sigma = 1 - b*sigma, so the mean is e * L(1, b, b + 1/2).  For every
    b >= -1 the square root collapses (b^2 + 2b + 1 = (b+1)^2) and the value
    is exactly 1; the experiment reports the Monte Carlo estimate against
    this reference without asserting a side.
    """
    return math.e * drifted_passage_laplace(1.0, b, b + 0.5)


def bessel3_inverse_moment(x0: float, t: float) -> float:
    """E[1/R_t] for a Bessel(3) process from x0: (2*Phi(x0/sqrt(t)) - 1)/x0.

    Strictly below 1/x0 for t > 0: 1/R is the canonical strict local
    martingale, so no martingale-mean oracle applies to it.
    """
    if x0 <= 0 or t <= 0:
        raise ValueError("x0 and t must be positive")
    return (2.0 * norm_cdf(x0 / math.sqrt(t)) - 1.0) / x0


def scale_hit_probability(z: float, y: float) -> float:
    """P(a Bessel(3) path from z ever hits the level y): min(y/z, 1).

    Scale function -1/x; from below the hit is certain (transience to
    infinity plus continuity).  Also the conditional last-visit survival
    P(g_y > t | R_t = z) of the level y.
    """
    if z <= 0 or y <= 0:
        raise ValueError("states must be positive")
    return min(y / z, 1.0)


def exp_martingale_level_hit_probability(m: float, a: float) -> float:
    """P(a positive local martingale from m, vanishing at infinity, hits a):
    min(m/a, 1).  Conditional last-visit survival of the level a given
    the current value m."""
    if m <= 0 or a <= 0:
        raise ValueError("states must be positive")
    return min(m / a, 1.0)


def overshoot_allowance(a: float, t: float, dt: float) -> float:
    """First-order grid bias of the survival estimate of T_a at time t.

    The discrete walk crosses at the first grid point past the barrier,
    which shifts the effective level by about 0.5826*sqrt(dt); the induced
    survival bias is that shift times the sensitivity d/da of the exact law.
    """
    sens = 2.0 * norm_pdf(a / math.sqrt(t)) / math.sqrt(t)
    return EXPECTED_OVERSHOOT_COEFF * math.sqrt(dt) * sens
