"""Keyed Gaussian stream contracts: determinism, independence, moments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from sigmapaths.grids import TimeGrid
from sigmapaths.streams import MAX_SEED, KeySequence, StreamKey

from reference import gaussian_increments


def test_same_key_reproduces_exactly():
    g = TimeGrid(1.0, 512)
    key = StreamKey(master_seed=42, path_index=3, substream=1)
    a = gaussian_increments(g, key)
    b = gaussian_increments(g, key)
    assert np.array_equal(a, b)


def test_distinct_indices_give_distinct_streams():
    g = TimeGrid(1.0, 256)
    base = gaussian_increments(g, StreamKey(42, 0, 0))
    assert not np.array_equal(base, gaussian_increments(g, StreamKey(42, 1, 0)))
    assert not np.array_equal(base, gaussian_increments(g, StreamKey(42, 0, 1)))
    assert not np.array_equal(base, gaussian_increments(g, StreamKey(43, 0, 0)))


def test_call_order_does_not_matter():
    g = TimeGrid(1.0, 128)
    keys = [StreamKey(7, i, 0) for i in range(20)]
    forward = {k.path_index: gaussian_increments(g, k) for k in keys}
    backward = {k.path_index: gaussian_increments(g, k) for k in reversed(keys)}
    for i in range(20):
        assert np.array_equal(forward[i], backward[i])


def test_increment_variance_scales_with_dt():
    g = TimeGrid(1.0, 4096)  # dt = 1/4096
    x = gaussian_increments(g, StreamKey(11, 0, 0))
    assert x.var() == pytest.approx(g.dt, rel=0.1)


def _pooled_unit_draws(n_total=1_000_000, seed=2718):
    """Unit-variance draws (dt = 1) pooled over keyed streams."""
    per = 2**16
    g = TimeGrid(float(per), per)
    blocks = [gaussian_increments(g, StreamKey(seed, i, 0)) for i in range(n_total // per + 1)]
    return np.concatenate(blocks)[:n_total]


def test_pooled_mean_and_variance():
    x = _pooled_unit_draws()
    n = x.size
    assert abs(x.mean()) <= 4.0 / np.sqrt(n)
    assert abs(x.var() - 1.0) <= 0.02


def test_pooled_skewness_and_kurtosis():
    x = _pooled_unit_draws()
    m2 = x.var()
    skew = np.mean(x**3) / m2**1.5
    kurt = np.mean(x**4) / m2**2 - 3.0
    assert abs(skew) <= 0.02
    assert abs(kurt) <= 0.05


@pytest.mark.parametrize("path_index,substream", [(-1, 0), (2**32, 0), (0, -1), (0, 2**32)])
def test_stream_key_range_validation(path_index, substream):
    with pytest.raises(ValueError):
        StreamKey(1, path_index, substream)


def test_master_seed_domain_is_64_bits():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="master_seed"):
            StreamKey(seed)
    # the largest seed is a valid key of its own stream
    g = TimeGrid(1.0, 64)
    top = gaussian_increments(g, StreamKey(2**64 - 1))
    assert not np.array_equal(top, gaussian_increments(g, StreamKey(0)))


def _with_extremes(lo, hi):
    return st.one_of(st.sampled_from([lo, lo + 1, hi - 1, hi]), st.integers(lo, hi))


@settings(max_examples=60, deadline=None)
@given(_with_extremes(0, MAX_SEED), _with_extremes(0, 2**32 - 1), _with_extremes(0, 2**32 - 1),
       st.integers(1, 300))
def test_key_sequence_is_the_philox_key(seed, path_index, substream, n):
    key = StreamKey(seed, path_index, substream).philox_key()
    by_key, by_seq = Philox(key=key), Philox(KeySequence(key))
    assert repr(by_seq.state) == repr(by_key.state)
    a, b = Generator(by_key), Generator(by_seq)
    # two draws: the ziggurat's rejections leave the counters where they are, and they must agree
    for size in (n, 7):
        assert b.standard_normal(size).tobytes() == a.standard_normal(size).tobytes()
    assert repr(by_seq.state) == repr(by_key.state)
