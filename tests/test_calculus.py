"""Discrete calculus kernels: extrema, Ito sums, reflection, local times."""

import numpy as np
import pytest

from sigmapaths import oracles
from sigmapaths.calculus import (
    estimate_local_time,
    ito_integral,
    local_time_occupation,
    local_time_tanaka,
    quadratic_variation,
    running_extremum,
    skorokhod_map,
    tanaka_raw,
)
from sigmapaths.decompose import carried_by_zeros, default_zero_threshold, sigma_example_triple
from sigmapaths.experiments import generate_rows
from sigmapaths.generators import GeneratorSpec
from sigmapaths.grids import Path, TimeGrid
from sigmapaths.streams import StreamKey

from reference import gaussian_increments


def _path(values, horizon=1.0):
    return Path(TimeGrid(horizon, len(values) - 1), values)


# -- running extrema --------------------------------------------------------


def test_running_min_example():
    p = _path([1.0, 2.0, 0.5, 3.0])
    assert np.array_equal(running_extremum(p, "min").values, [1.0, 1.0, 0.5, 0.5])


def test_running_extremum_constant_path():
    p = _path([2.0, 2.0, 2.0])
    assert np.array_equal(running_extremum(p, "min").values, p.values)
    assert np.array_equal(running_extremum(p, "max").values, p.values)


def test_running_min_of_nondecreasing_is_start():
    p = _path([1.0, 1.5, 2.0, 2.5])
    assert np.all(running_extremum(p, "min").values == 1.0)


def test_running_extremum_rejects_unknown_mode():
    with pytest.raises(ValueError):
        running_extremum(_path([0.0, 1.0]), "median")


# -- Ito sums and quadratic variation ---------------------------------------


def test_ito_integral_of_one_telescopes():
    x = _path([0.0, 0.7, -0.3, 1.4])
    h = x.with_values(np.ones(4))
    assert np.allclose(ito_integral(h, x).values, x.values - x.values[0])


def test_ito_integral_of_zero_is_zero():
    x = _path([0.0, 0.7, -0.3, 1.4])
    h = x.with_values(np.zeros(4))
    assert np.all(ito_integral(h, x).values == 0.0)


def test_ito_integral_two_step_hand_sum():
    x = _path([0.0, 1.0, 3.0])
    h = x.with_values([1.0, 2.0, 3.0])  # final integrand value unused
    assert np.array_equal(ito_integral(h, x).values, [0.0, 1.0, 5.0])


def test_ito_integral_grid_mismatch():
    x = _path([0.0, 1.0, 3.0])
    h = Path(TimeGrid(2.0, 2), [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="grids"):
        ito_integral(h, x)


def test_qv_linear_ramp_vanishes_under_refinement():
    for n in (64, 256):
        g = TimeGrid(1.0, n)
        p = Path(g, g.times)  # x_j = j dt
        qv = quadratic_variation(p).values[-1]
        assert qv == pytest.approx(n * g.dt**2)
    assert quadratic_variation(Path(TimeGrid(1.0, 256), TimeGrid(1.0, 256).times)).values[-1] < \
        quadratic_variation(Path(TimeGrid(1.0, 64), TimeGrid(1.0, 64).times)).values[-1]


def test_qv_constant_path_is_zero():
    assert np.all(quadratic_variation(_path([2.0, 2.0, 2.0])).values == 0.0)


def test_qv_brownian_tracks_horizon():
    g = TimeGrid(1.0, 2**16)
    devs = []
    for i in range(100):
        B = Path(g, generate_rows(GeneratorSpec("brownian", {}, g), 311, i, 1)[0])
        devs.append(abs(quadratic_variation(B).values[-1] - 1.0))
    assert np.median(devs) <= 0.05


def test_qv_refinement_improves():
    g = TimeGrid(1.0, 2**14)
    devs_fine, devs_coarse = [], []
    for i in range(50):
        inc = gaussian_increments(g, StreamKey(312, i, 0))
        B = np.concatenate([[0.0], np.cumsum(inc)])
        fine = np.sum(np.diff(B) ** 2)
        coarse = np.sum(np.diff(B[::4]) ** 2)
        devs_fine.append(abs(fine - 1.0))
        devs_coarse.append(abs(coarse - 1.0))
    assert np.median(devs_fine) < np.median(devs_coarse)


# -- Skorokhod reflection ----------------------------------------------------


def test_skorokhod_pure_drain():
    rp = skorokhod_map(_path([0.0, -1.0, -2.0]))
    assert np.array_equal(rp.regulator.values, [0.0, 1.0, 2.0])
    assert np.array_equal(rp.regulated.values, [0.0, 0.0, 0.0])


def test_skorokhod_nonnegative_input_passes_through():
    z = _path([0.0, 1.0, 0.5, 2.0])
    rp = skorokhod_map(z)
    assert np.all(rp.regulator.values == 0.0)
    assert np.array_equal(rp.regulated.values, z.values)


def test_skorokhod_mixed_example():
    rp = skorokhod_map(_path([0.0, 1.0, -1.0, 0.0]))
    assert np.array_equal(rp.regulator.values, [0.0, 0.0, 1.0, 1.0])
    assert np.array_equal(rp.regulated.values, [0.0, 1.0, 0.0, 1.0])


def test_skorokhod_requires_zero_start():
    with pytest.raises(ValueError, match="z_0"):
        skorokhod_map(_path([1.0, 0.0]))


def test_skorokhod_exactness_random():
    rng = np.random.default_rng(99)
    for _ in range(100):
        z = np.concatenate([[0.0], np.cumsum(rng.standard_normal(200))])
        rp = skorokhod_map(_path(z))
        y, k = rp.regulated.values, rp.regulator.values
        assert np.min(y) >= 0.0
        dk = np.diff(k)
        assert np.all(dk >= 0)
        assert float(np.sum(dk[y[1:] > 0])) == 0.0


# -- local time --------------------------------------------------------------


def test_tanaka_zero_for_positive_path():
    p = _path([0.5, 1.0, 0.25, 2.0])
    assert np.all(local_time_tanaka(p).values == 0.0)


def test_tanaka_raw_nondecreasing_up_to_rounding_and_clamped_exactly():
    # with sgn(0) = -1 the raw residual only jumps at sign flips, so any
    # decrease is pure accumulation rounding; the clamp removes even that
    rng = np.random.default_rng(5)
    for _ in range(20):
        B = np.concatenate([[0.0], np.cumsum(rng.standard_normal(500))])
        raw = tanaka_raw(B)
        assert np.all(np.diff(raw) >= -1e-12)
        clamped = local_time_tanaka(_path(B)).values
        assert np.all(np.diff(clamped) >= 0.0)


def test_tanaka_mean_at_interval_exit():
    # E[L] at the first exit of (-1, 1) is exactly 1 by optional stopping;
    # stopping at an interval exit avoids horizon censoring entirely.
    g = TimeGrid(16.0, 16 * 2048)
    n_paths = 2000
    B = generate_rows(GeneratorSpec("brownian", {}, g), master_seed=515, first_index=0, rows=n_paths)
    hit = (B >= 1.0) | (B <= -1.0)
    stop = np.where(hit.any(axis=1), hit.argmax(axis=1), g.n_steps)
    assert np.all(hit.any(axis=1))  # horizon 16 leaves no censored exits here
    samples = np.empty(n_paths)
    for i in range(n_paths):
        k = stop[i]
        samples[i] = np.maximum.accumulate(tanaka_raw(B[i, : k + 1]))[-1]
    ref = oracles.interval_exit_local_time_mean(1.0, 1.0)
    se = samples.std(ddof=1) / np.sqrt(n_paths)
    overshoot = 2.0 * oracles.EXPECTED_OVERSHOOT_COEFF * np.sqrt(g.dt)
    assert abs(samples.mean() - ref) <= 3 * se + overshoot


def test_occupation_empty_band_is_zero():
    p = _path([1.0, 2.0, 3.0])
    assert np.all(local_time_occupation(p, 0.5).values == 0.0)


def test_occupation_of_zero_path_is_linear_ramp():
    g = TimeGrid(1.0, 4)
    p = Path(g, np.zeros(5))
    eps = 0.1
    expected = g.times / (2 * eps)
    assert np.allclose(local_time_occupation(p, eps).values, expected)


def test_occupation_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        local_time_occupation(_path([0.0, 1.0]), 0.0)


def test_tanaka_occupation_agreement_and_refinement():
    g = TimeGrid(1.0, 2**16)
    rel_fine, sup_fine, sup_coarse = [], [], []
    for i in range(30):
        inc = gaussian_increments(g, StreamKey(517, i, 0))
        B = np.concatenate([[0.0], np.cumsum(inc)])
        for values, n in ((B, 2**16), (B[::4], 2**14)):
            gg = TimeGrid(1.0, n)
            p = Path(gg, values)
            est = estimate_local_time(p)  # eps defaults to sqrt(dt)
            sup = float(np.max(np.abs(est.tanaka.values - est.occupation.values)))
            if n == 2**16:
                sup_fine.append(sup)
                terminal = est.tanaka.values[-1]
                if terminal > 0.05:
                    rel_fine.append(abs(terminal - est.occupation.values[-1]) / terminal)
            else:
                sup_coarse.append(sup)
    assert np.median(rel_fine) <= 0.10
    assert np.median(sup_fine) < np.median(sup_coarse)


# -- canonical zero-carried triples ------------------------------------------


def test_sigma_example_triple_zero_input():
    g = TimeGrid(1.0, 4)
    K = Path(g, np.zeros(5))
    for kind in ("abs", "pos_part", "drawdown"):
        tri = sigma_example_triple(K, kind)
        assert np.all(tri.submartingale.values == 0.0)
        assert np.all(tri.increasing_part.values == 0.0)
        assert np.all(tri.martingale_part.values == 0.0)


def test_sigma_example_triple_drawdown_hand_case():
    tri = sigma_example_triple(_path([0.0, 1.0, 0.5]), "drawdown")
    assert np.array_equal(tri.submartingale.values, [0.0, 0.0, 0.5])
    assert np.array_equal(tri.increasing_part.values, [0.0, 1.0, 1.0])
    assert np.array_equal(tri.martingale_part.values, [0.0, -1.0, -0.5])


def test_sigma_example_triple_requires_zero_start():
    with pytest.raises(ValueError, match="K_0"):
        sigma_example_triple(_path([1.0, 0.0]), "abs")


def test_abs_triple_is_carried_on_brownian_paths():
    g = TimeGrid(1.0, 2**14)
    B = Path(g, generate_rows(GeneratorSpec("brownian", {}, g), 519, 0, 1)[0])
    tri = sigma_example_triple(B, "abs")
    verdict = carried_by_zeros(tri.submartingale, tri.increasing_part, default_zero_threshold(g))
    assert verdict.carried


def test_pos_part_triple_additivity_and_half_local_time():
    g = TimeGrid(1.0, 1024)
    B = Path(g, generate_rows(GeneratorSpec("brownian", {}, g), 521, 0, 1)[0])
    tri_abs = sigma_example_triple(B, "abs")
    tri_pos = sigma_example_triple(B, "pos_part")
    assert np.allclose(tri_pos.increasing_part.values, 0.5 * tri_abs.increasing_part.values)
    x = tri_pos.submartingale.values
    assert np.allclose(x, np.maximum(B.values, 0.0))
    assert np.allclose(
        tri_pos.martingale_part.values + tri_pos.increasing_part.values, x, atol=1e-12
    )
