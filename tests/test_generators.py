"""Process family generators against their closed-form oracles."""

import pickle

import numpy as np
import pytest

from sigmapaths import experiments, oracles
from sigmapaths.experiments import generate_rows
from sigmapaths.generators import FAMILIES, GeneratorSpec, _first_stop
from sigmapaths.grids import TimeGrid


class _FixedStream:
    """A stand-in Generator that serves ``draws`` in order."""

    def __init__(self, draws):
        self.draws, self.pos = np.asarray(draws, dtype=float), 0

    def standard_normal(self, out):
        out[...] = self.draws[self.pos:self.pos + out.size]
        self.pos += out.size
        return out


@pytest.fixture
def fixed_normals(monkeypatch):
    """Replace every keyed stream by ``draws[substream]``, the same for every path."""
    def install(*draws):
        # the low 32 bits of the key's second word are the substream
        monkeypatch.setattr(experiments, "Philox", lambda seq: int(seq.key[1]) & 0xFFFFFFFF)
        monkeypatch.setattr(experiments, "Generator", lambda substream: _FixedStream(draws[substream]))
    return install


def _brownian(g, seed, first, rows):
    return generate_rows(GeneratorSpec("brownian", {}, g), seed, first, rows)


def _bessel3(g, x0, seed, first, rows):
    return generate_rows(GeneratorSpec("bessel3", {"x0": x0}, g), seed, first, rows)


def test_brownian_zero_stream_is_identically_zero(fixed_normals):
    g = TimeGrid(1.0, 8)
    fixed_normals(np.zeros(8))
    p = generate_rows(GeneratorSpec("brownian", {}, g), 0, 0, 1)[0]
    assert np.all(p == 0.0)


def test_brownian_starts_at_zero_exactly():
    g = TimeGrid(2.0, 64)
    p = _brownian(g, 5, 0, 1)[0]
    assert p[0] == 0.0


def test_brownian_terminal_moments():
    g = TimeGrid(1.0, 16)
    B = _brownian(g, 101, 0, 100_000)
    end = B[:, -1]
    n = end.size
    se_mean = end.std(ddof=1) / np.sqrt(n)
    assert abs(end.mean()) <= 3 * se_mean
    # variance of the sample variance of a Gaussian: 2 sigma^4 / n
    se_var = np.sqrt(2.0 / n) * 1.0
    assert abs(end.var(ddof=1) - 1.0) <= 3 * se_var


def _ramp(increments):
    return np.concatenate([[0.0], np.cumsum(increments)])[None, :]


def test_stopped_hitting_on_deterministic_ramp(fixed_normals):
    g = TimeGrid(1.0, 4)
    fixed_normals(np.full(4, 0.5))  # sqrt(dt) = 0.5: b_t = t
    ramp = _ramp(np.full(4, 0.25))
    frozen = generate_rows(GeneratorSpec("brownian_stopped_level", {"a": 0.5}, g), 0, 0, 1)
    assert _first_stop(ramp, g.times, upper=0.5)[0] == 2
    assert np.array_equal(frozen[0], [0.0, 0.25, 0.5, 0.5, 0.5])


def test_stopped_hitting_never_triggers(fixed_normals):
    g = TimeGrid(1.0, 4)
    fixed_normals(np.full(4, 0.2))
    ramp = _ramp(np.full(4, 0.1))
    frozen = generate_rows(GeneratorSpec("brownian_stopped_level", {"a": 5.0}, g), 0, 0, 1)
    assert _first_stop(ramp, g.times, upper=5.0)[0] == -1  # not stopped
    assert np.array_equal(frozen, ramp)


def test_stopped_hitting_line_rule():
    g = TimeGrid(1.0, 4)
    flat = _ramp(np.zeros(4))
    assert _first_stop(flat, g.times, line_b=2.0)[0] == 2  # 0 + 2t >= 1 at t = 0.5


def test_exp_martingale_degenerate_stream(fixed_normals):
    g = TimeGrid(1.0, 4)
    fixed_normals(np.zeros(4))
    p = generate_rows(GeneratorSpec("exp_martingale", {}, g), 0, 0, 1)[0]
    assert np.allclose(p, np.exp(-g.times / 2.0))


def test_exp_martingale_unit_mean():
    # the discrete exponential walk has exactly unit conditional mean, so the
    # sample mean converges with no discretization bias
    g = TimeGrid(1.0, 16)
    spec = GeneratorSpec("exp_martingale", {}, g)
    M = generate_rows(spec, 404, 0, 100_000)
    end = M[:, -1]
    se = end.std(ddof=1) / np.sqrt(end.size)
    assert abs(end.mean() - 1.0) <= 3 * se
    assert np.all(M > 0)
    assert np.all(M[:, 0] == 1.0)


def test_exp_martingale_stopped_is_bounded():
    g = TimeGrid(4.0, 1024)
    p = generate_rows(GeneratorSpec("exp_martingale", {"stop_level": 1.0}, g), 17, 4, 1)[0]
    B = _brownian(g, 17, 4, 1)[0]
    max_inc = np.max(np.abs(np.diff(B)))
    assert np.max(p) <= np.exp(1.0 + max_inc)


def test_bessel3_zero_stream_is_constant(fixed_normals):
    g = TimeGrid(1.0, 8)
    fixed_normals(*np.zeros((3, 8)))
    p = generate_rows(GeneratorSpec("bessel3", {"x0": 1.5}, g), 0, 0, 1)[0]
    assert np.all(p == 1.5)


def test_bessel3_stays_positive():
    g = TimeGrid(1.0, 2048)
    for i in range(20):
        p = generate_rows(GeneratorSpec("bessel3", {"x0": 1.0}, g), 23, i, 1)[0]
        assert np.min(p) > 0.0


def test_bessel3_inverse_moment_oracle():
    # 1/R is a strict local martingale: its mean at T is (2*Phi(x0/sqrt(T))-1)/x0,
    # not 1/x0; the closed form is the oracle here
    g = TimeGrid(1.0, 512)
    R = _bessel3(g, 1.0, 606, 0, 100_000)
    inv = 1.0 / R[:, -1]
    se = inv.std(ddof=1) / np.sqrt(inv.size)
    ref = oracles.bessel3_inverse_moment(1.0, 1.0)
    assert abs(inv.mean() - ref) <= 3 * se
    assert abs(ref - 1.0) > 30 * se  # the naive martingale-mean guess is far away


def test_scale_martingale_constant_path(fixed_normals):
    # zero streams hold R at x0 = 2, so x0/R is 1 throughout
    g = TimeGrid(1.0, 3)
    fixed_normals(*np.zeros((3, 3)))
    N = generate_rows(GeneratorSpec("scale_martingale", {"x0": 2.0}, g), 0, 0, 1)[0]
    assert np.all(N == 1.0)


def test_scale_martingale_neg_inverse_values(fixed_normals):
    # unit steps (dt = 1) of the first component give R = [1, 2, 4]; x0/R = 1/R for x0 = 1
    g = TimeGrid(2.0, 2)
    fixed_normals([1.0, 2.0], [0.0, 0.0], [0.0, 0.0])
    assert np.array_equal(_bessel3(g, 1.0, 0, 0, 1)[0], [1.0, 2.0, 4.0])
    M = generate_rows(GeneratorSpec("scale_martingale", {"x0": 1.0}, g), 0, 0, 1)[0]
    assert np.array_equal(M, [1.0, 0.5, 0.25])


def test_scale_martingale_rejects_nonpositive():
    # R stays positive because its start x0 must be: that is where nonpositive input is refused
    g = TimeGrid(1.0, 2)
    with pytest.raises(ValueError, match="positive"):
        GeneratorSpec("scale_martingale", {"x0": 0.0}, g)


def test_normalized_scale_mean_matches_oracle():
    g = TimeGrid(1.0, 512)
    spec = GeneratorSpec("scale_martingale", {"x0": 1.0}, g)
    N = generate_rows(spec, 707, 0, 100_000)
    end = N[:, -1]
    se = end.std(ddof=1) / np.sqrt(end.size)
    ref = 1.0 * oracles.bessel3_inverse_moment(1.0, 1.0)
    assert abs(end.mean() - ref) <= 3 * se
    assert np.all(N[:, 0] == 1.0)


def test_bessel3_transience_proxy():
    g = TimeGrid(1.0, 1024)
    R = _bessel3(g, 1.0, 808, 0, 5000)
    mins = R.min(axis=1)
    probs = [(mins < eps).mean() for eps in (0.1, 0.05, 0.01)]
    assert probs[0] >= probs[1] >= probs[2]
    assert probs[2] < probs[0]


def test_generator_spec_validation():
    g = TimeGrid(1.0, 4)
    with pytest.raises(ValueError, match="unknown family"):
        GeneratorSpec("levy", {}, g)
    with pytest.raises(ValueError, match="requires"):
        GeneratorSpec("bessel3", {}, g)
    with pytest.raises(ValueError, match="positive"):
        GeneratorSpec("bessel3", {"x0": -1.0}, g)
    with pytest.raises(ValueError, match="accept"):
        GeneratorSpec("brownian", {"a": 1.0}, g)
    with pytest.raises(ValueError, match="at most one"):
        GeneratorSpec("exp_martingale", {"stop_level": 1.0, "stop_line_drift": 1.0}, g)
    for x0 in (1e-200, 1e200):  # R_0 = sqrt(x0^2) would not be x0
        with pytest.raises(ValueError, match="too small or large"):
            GeneratorSpec("bessel3", {"x0": x0}, g)
    for lower in (0.0, 0.5, -np.inf, np.nan):  # B_0 = 0: a barrier at or above it stops every row at step 1
        with pytest.raises(ValueError, match="lower must be negative and finite"):
            GeneratorSpec("brownian_stopped_level", {"a": 1.0, "lower": lower}, g)


def test_generator_spec_config_roundtrip():
    g = TimeGrid(4.0, 128)
    for family in sorted(FAMILIES):
        params = {}
        if family in ("bessel3", "scale_martingale"):
            params["x0"] = 2.0
        if family == "brownian_stopped_level":
            params["a"] = 1.5
        if family == "brownian_drift_stopped_line":
            params["b"] = 0.5
        spec = GeneratorSpec(family, params, g)
        back = GeneratorSpec.from_config(spec.to_config())
        assert back.family == spec.family
        assert back.params == spec.params
        assert np.array_equal(back.grid.times, g.times)


def test_spec_pickles_its_grid_as_two_numbers():
    # every batch takes its spec as it is: the grid pickles as (horizon, n_steps) and rebuilds its times
    g = TimeGrid(64.0, 16384)
    spec = GeneratorSpec("bessel3", {"x0": 1.0}, g)
    blob = pickle.dumps(spec)
    back = pickle.loads(blob)
    assert len(blob) < 1024, len(blob)
    assert (back.family, back.params, back.grid) == (spec.family, spec.params, g)
    assert pickle.loads(pickle.dumps(g)) == g
    assert back.grid.times.tobytes() == g.times.tobytes()
    assert not back.grid.times.flags.writeable


def test_generate_rows_batch_split_invariance():
    g = TimeGrid(1.0, 64)
    spec = GeneratorSpec("bessel3", {"x0": 1.0}, g)
    full = generate_rows(spec, 99, 0, 10)
    split = np.vstack([generate_rows(spec, 99, 0, 4), generate_rows(spec, 99, 4, 6)])
    assert np.array_equal(full, split)


def test_make_ensemble_distinct_paths_and_seeds():
    g = TimeGrid(1.0, 16)
    spec = GeneratorSpec("brownian", {}, g)
    vals = generate_rows(spec, 12, 0, 5)
    assert len(vals) == 5
    # row i is the stream of path index i
    assert all(np.array_equal(vals[i], generate_rows(spec, 12, i, 1)[0]) for i in range(5))
    assert np.unique(vals[:, -1]).size == 5
