"""Property tests of the exact grid contracts, over generated paths: the
Skorokhod regulator, the minimality of C = 1/I, and the sigma compose /
recover round trip."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmapaths.calculus import regulator, running_min
from sigmapaths.decompose import minimality_gap, sigma_compose, sigma_martingale
from sigmapaths.grids import Path, TimeGrid


def _walk(steps):
    """A path from 0 with the given increments."""
    return np.concatenate([[0.0], np.cumsum(steps)])


_STEPS = st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=200)
_LOG_STEPS = st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=200)


def _log_martingale_path(steps):
    """A positive path with M_0 = 1 exactly."""
    return Path(TimeGrid(1.0, len(steps)), np.exp(_walk(steps)))


@settings(max_examples=200, deadline=None)
@given(_STEPS)
def test_regulator_is_exact(steps):
    z = _walk(steps)
    k = regulator(z)
    y = z + k
    assert np.all(y >= 0.0)
    dk = np.diff(k)
    assert k[0] == 0.0 and np.all(dk >= 0.0)
    assert np.all(y[1:][dk > 0] == 0.0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_minimality_gap_is_zero_at_one_over_i_and_nonnegative_above(data):
    steps = data.draw(_LOG_STEPS)
    M = _log_martingale_path(steps)
    minimal = 1.0 / running_min(M.values)
    assert minimality_gap(M, M.with_values(minimal)) == 0.0
    inflation = data.draw(st.lists(st.floats(0.0, 0.2), min_size=len(steps), max_size=len(steps)))
    C = M.with_values(minimal * np.exp(_walk(inflation)))
    assert minimality_gap(M, C) >= -1e-12


@settings(max_examples=200, deadline=None)
@given(_LOG_STEPS)
def test_sigma_compose_then_martingale_recovers_m(steps):
    M = _log_martingale_path(steps)
    tri = sigma_compose(M)
    back = sigma_martingale(tri.submartingale, tri.increasing_part).values
    assert np.all(np.abs(back - M.values) <= 1e-12 * M.values)
