"""Multiplicative decomposition: explicit formulas, roundtrips, minimality,
zero-carried scoring, and the class-(D) diagnostics."""

import tracemalloc

import numpy as np
import pytest

from sigmapaths.calculus import local_time_tanaka, running_min, tanaka_raw
from sigmapaths.decompose import (
    CARRIED_SCORE_THRESHOLD,
    carried_by_zeros,
    class_d_report,
    default_zero_threshold,
    minimality_gap,
    mult_compose,
    mult_decompose,
    mult_decompose_exp,
    sigma_compose,
    sigma_martingale,
)
from sigmapaths.experiments import generate_rows
from sigmapaths.generators import GeneratorSpec
from sigmapaths.grids import Path, TimeGrid
from sigmapaths.streams import StreamKey

from reference import class_d_path_stats, gaussian_increments


def _path(values, horizon=1.0):
    return Path(TimeGrid(horizon, len(values) - 1), values)


# -- mult_compose -------------------------------------------------------------


def test_mult_compose_unit_pair_gives_zero():
    g = TimeGrid(1.0, 3)
    one = Path(g, np.ones(4))
    Y = mult_compose(one, one)
    assert np.all(Y.values == 0.0)


def test_mult_compose_linear_growth():
    g = TimeGrid(1.0, 4)
    M = Path(g, np.ones(5))
    C = Path(g, 1.0 + g.times)
    assert np.allclose(mult_compose(M, C).values, g.times)


def test_mult_compose_rejects_product_below_one():
    g = TimeGrid(1.0, 2)
    M = Path(g, [1.0, 0.5, 0.5])
    C = Path(g, [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="index 1"):
        mult_compose(M, C)


def test_mult_compose_rejects_decreasing_c():
    g = TimeGrid(1.0, 2)
    M = Path(g, [1.0, 2.0, 2.0])
    C = Path(g, [1.0, 0.9, 0.8])
    with pytest.raises(ValueError, match="nondecreasing"):
        mult_compose(M, C)


# -- mult_decompose -----------------------------------------------------------


def test_mult_decompose_trivial_pair():
    g = TimeGrid(1.0, 4)
    zero = Path(g, np.zeros(5))
    d = mult_decompose(zero, zero)
    assert np.all(d.martingale_part.values == 1.0)
    assert np.all(d.increasing_part.values == 1.0)


def test_mult_decompose_deterministic_closed_form_refines():
    # Y_t = t with increasing part t: in the continuum C = 1 + t and M = 1;
    # the discrete left-point sum converges at first order
    sups = []
    for n in (64, 256, 1024):
        g = TimeGrid(1.0, n)
        Y = Path(g, g.times)
        d = mult_decompose(Y, Y)
        sups.append(float(np.max(np.abs(d.increasing_part.values - (1.0 + g.times)))))
        assert np.max(np.abs(d.martingale_part.values - 1.0)) < 5.0 / n
    assert sups[2] < sups[1] < sups[0]
    assert sups[2] < 2.0 / 1024


def test_mult_decompose_exactly_carried_increasing_part():
    # when ell grows only at grid points where Y sits at zero, the integrand
    # is exactly 1 there and C reproduces exp(ell) to rounding
    g = TimeGrid(1.0, 6)
    Y = Path(g, [0.0, 1.0, 0.0, 2.0, 0.0, 1.0, 0.5])
    ell = Path(g, [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    ell = ell.with_values(np.array([0.0, 0.3, 0.3, 0.7, 0.7, 1.1, 1.1]))
    # increments happen on steps starting at indices 0, 2, 4: all have Y_i = 0
    d = mult_decompose(Y, ell)
    assert np.max(np.abs(d.increasing_part.values - np.exp(ell.values))) <= 1e-12


def test_mult_decompose_brownian_tanaka_c_tracks_exp_local_time():
    # dL sits within O(sqrt(dt)) of the zeros, so C = exp(int dL/(1+|B|))
    # approaches exp(L) only under refinement; the deviation halves when the
    # grid is refined fourfold
    g = TimeGrid(1.0, 2**14)
    devs = {2**14: [], 2**12: []}
    for i in range(20):
        inc = gaussian_increments(g, StreamKey(881, i, 0))
        B = np.concatenate([[0.0], np.cumsum(inc)])
        for n in (2**14, 2**12):
            sub = B[:: (2**14) // n]
            gg = TimeGrid(1.0, n)
            X = Path(gg, np.abs(sub))
            L = Path(gg, np.maximum.accumulate(tanaka_raw(sub)))
            d = mult_decompose(X, L)
            devs[n].append(np.max(np.abs(np.log(d.increasing_part.values) - L.values)))
    assert np.median(devs[2**14]) < 0.75 * np.median(devs[2**12])
    assert np.median(devs[2**14]) < 0.05


def test_mult_decompose_rejects_bad_inputs():
    g = TimeGrid(1.0, 2)
    Y = Path(g, [0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="nondecreasing"):
        mult_decompose(Y, Path(g, [0.0, 0.5, 0.2]))
    with pytest.raises(ValueError, match="nonnegative"):
        mult_decompose(Path(g, [0.0, -0.5, 0.0]), Path(g, [0.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="integrand_rule"):
        mult_decompose(Y, Path(g, [0.0, 0.0, 0.0]), integrand_rule="simpson")


def test_mult_decompose_midpoint_option_improves_smooth_case():
    g = TimeGrid(1.0, 128)
    Y = Path(g, g.times)
    left = mult_decompose(Y, Y, integrand_rule="left")
    mid = mult_decompose(Y, Y, integrand_rule="midpoint")
    target = 1.0 + g.times
    assert np.max(np.abs(mid.increasing_part.values - target)) < np.max(
        np.abs(left.increasing_part.values - target)
    )


# -- mult_decompose_exp -------------------------------------------------------


def test_mult_decompose_exp_flat_martingale_part():
    g = TimeGrid(1.0, 8)
    Y = Path(g, np.linspace(0.0, 2.0, 9))  # any Y: m == 0 forces M == 1
    m = Path(g, np.zeros(9))
    assert np.all(mult_decompose_exp(m, Y).values == 1.0)


def test_mult_decompose_exp_requires_zero_start():
    g = TimeGrid(1.0, 2)
    with pytest.raises(ValueError, match="m_0"):
        mult_decompose_exp(Path(g, [1.0, 1.0, 1.0]), Path(g, [0.0, 0.0, 0.0]))


def test_decompose_formula_variants_converge_together():
    g = TimeGrid(1.0, 2**14)
    sup = {2**14: [], 2**12: []}
    for i in range(20):
        inc = gaussian_increments(g, StreamKey(883, i, 0))
        B = np.concatenate([[0.0], np.cumsum(inc)])
        for n in (2**14, 2**12):
            sub = B[:: (2**14) // n]
            gg = TimeGrid(1.0, n)
            X = np.abs(sub)
            L = np.maximum.accumulate(tanaka_raw(sub))
            M1 = mult_decompose(Path(gg, X), Path(gg, L)).martingale_part.values
            M2 = mult_decompose_exp(Path(gg, X - L), Path(gg, X)).values
            sup[n].append(np.max(np.abs(M1 - M2)))
    assert np.median(sup[2**14]) < 0.75 * np.median(sup[2**12])


def test_roundtrip_compose_then_decompose_refines():
    # smooth admissible family: recovered factors approach the originals as
    # the grid refines
    sups_c, sups_m = [], []
    for n in (256, 1024):
        g = TimeGrid(1.0, n)
        M = Path(g, np.exp(0.3 * np.sin(2 * np.pi * g.times)))
        M = M.with_values(M.values / M.values[0])
        C = Path(g, 1.0 + g.times**2)
        Y = mult_compose(M, C)
        ell = np.concatenate([[0.0], np.cumsum(M.values[:-1] * np.diff(C.values))])
        d = mult_decompose(Y, Path(g, ell))
        sups_c.append(np.max(np.abs(d.increasing_part.values - C.values)))
        sups_m.append(np.max(np.abs(d.martingale_part.values - M.values)))
    assert sups_c[1] < sups_c[0]
    assert sups_m[1] < sups_m[0]


@pytest.mark.parametrize("other", [TimeGrid(2.0, 4), TimeGrid(1.0, 5)], ids=["horizon", "n_steps"])
def test_decompositions_require_one_grid_by_value(other):
    # grids compare by horizon and step count: one built apart from the path's is the same grid
    Y = _path([0.0, 0.5, 0.5, 1.0, 2.0])
    same = Path(TimeGrid(1.0, 4), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert same.grid is not Y.grid
    mult_decompose(Y, same)
    mult_decompose_exp(same, Y)
    elsewhere = Path(other, np.linspace(0.0, 1.0, len(other)))
    with pytest.raises(ValueError, match="different grids"):
        mult_decompose(Y, elsewhere)
    with pytest.raises(ValueError, match="different grids"):
        mult_decompose_exp(elsewhere, Y)


# -- sigma compose / martingale ----------------------------------------------


def test_sigma_compose_constant_martingale():
    g = TimeGrid(1.0, 3)
    tri = sigma_compose(Path(g, np.ones(4)))
    assert np.all(tri.submartingale.values == 0.0)
    assert np.all(tri.increasing_part.values == 0.0)
    assert np.all(tri.martingale_part.values == 0.0)


def test_sigma_compose_decreasing_exponential():
    g = TimeGrid(1.0, 64)
    M = Path(g, np.exp(-g.times))
    tri = sigma_compose(M)
    assert np.allclose(tri.submartingale.values, 0.0, atol=1e-15)
    assert np.allclose(tri.increasing_part.values, g.times, atol=1e-12)


def test_sigma_compose_hand_case():
    g = TimeGrid(1.0, 2)
    tri = sigma_compose(Path(g, [1.0, 2.0, 0.5]))
    assert np.array_equal(tri.submartingale.values, [0.0, 1.0, 0.0])
    assert np.allclose(tri.increasing_part.values, [0.0, 0.0, np.log(2.0)])


def test_sigma_martingale_trivial():
    g = TimeGrid(1.0, 3)
    zero = Path(g, np.zeros(4))
    assert np.all(sigma_martingale(zero, zero).values == 1.0)


def test_sigma_roundtrip_exact():
    rng = np.random.default_rng(42)
    g = TimeGrid(1.0, 512)
    worst = 0.0
    for _ in range(50):
        logm = 0.8 * np.concatenate([[0.0], np.cumsum(rng.standard_normal(512))]) * np.sqrt(g.dt)
        M = Path(g, np.exp(logm))
        tri = sigma_compose(M)
        back = sigma_martingale(tri.submartingale, tri.increasing_part)
        worst = max(worst, float(np.max(np.abs(back.values - M.values))))
    assert worst <= 1e-12


def test_sigma_martingale_drawdown_identity():
    g = TimeGrid(1.0, 1024)
    K = Path(g, generate_rows(GeneratorSpec("brownian", {}, g), 885, 0, 1)[0])
    kbar = np.maximum.accumulate(K.values)
    X = Path(g, kbar - K.values)
    A = Path(g, kbar)
    M = sigma_martingale(X, A)
    target = (1.0 + kbar - K.values) * np.exp(-kbar)
    assert np.max(np.abs(M.values - target)) <= 1e-12


def test_sigma_roundtrip_recovers_local_time_under_refinement():
    # rebuilding M from (|B|, L) and composing back recovers A ~ L with
    # sup-error shrinking as the grid refines
    g = TimeGrid(1.0, 2**14)
    err = {}
    for n in (2**12, 2**14):
        errs = []
        for i in range(10):
            inc = gaussian_increments(g, StreamKey(887, i, 0))
            B = np.concatenate([[0.0], np.cumsum(inc)])[:: (2**14) // n]
            gg = TimeGrid(1.0, n)
            X = Path(gg, np.abs(B))
            L = np.maximum.accumulate(tanaka_raw(B))
            M = sigma_martingale(X, Path(gg, L))
            tri = sigma_compose(M)
            errs.append(np.max(np.abs(tri.increasing_part.values - L)))
        err[n] = np.median(errs)
    assert err[2**14] < err[2**12]


# -- carried_by_zeros ---------------------------------------------------------


def test_carried_zero_increasing_part():
    g = TimeGrid(1.0, 4)
    X = Path(g, np.abs(np.sin(7 * g.times)))
    A = Path(g, np.zeros(5))
    v = carried_by_zeros(X, A, 0.1)
    assert v.score == 0.0 and v.carried


def test_carried_discriminates_on_brownian_path():
    g = TimeGrid(1.0, 2**14)
    eps = default_zero_threshold(g)
    B = Path(g, generate_rows(GeneratorSpec("brownian", {}, g), 889, 0, 1)[0])
    X = Path(g, np.abs(B.values))
    L = local_time_tanaka(B)
    assert carried_by_zeros(X, L, eps).carried
    lebesgue = Path(g, g.times)
    v = carried_by_zeros(X, lebesgue, eps)
    assert not v.carried
    assert v.score >= 0.5


def test_carried_rejects_bad_epsilon_and_decreasing_a():
    g = TimeGrid(1.0, 2)
    X = Path(g, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        carried_by_zeros(X, Path(g, [0.0, 0.0, 0.0]), 0.0)
    with pytest.raises(ValueError, match="nondecreasing"):
        carried_by_zeros(X, Path(g, [0.0, 1.0, 0.5]), 0.1)


# -- minimality ---------------------------------------------------------------


def test_minimality_gap_zero_at_minimal_choice():
    g = TimeGrid(1.0, 256)
    rng = np.random.default_rng(17)
    logm = np.concatenate([[0.0], np.cumsum(rng.standard_normal(256))]) * np.sqrt(g.dt)
    M = Path(g, np.exp(logm))
    C = Path(g, 1.0 / running_min(M.values))
    assert minimality_gap(M, C) == 0.0


def test_minimality_gap_positive_for_inflated_c():
    g = TimeGrid(1.0, 64)
    M = Path(g, np.exp(-g.times))
    C = Path(g, (1.0 / running_min(M.values)) * (1.0 + g.times))
    assert minimality_gap(M, C) > 0.0


def test_minimality_gap_randomized_sweep():
    rng = np.random.default_rng(23)
    g = TimeGrid(1.0, 128)
    for _ in range(200):
        logm = 0.7 * np.concatenate([[0.0], np.cumsum(rng.standard_normal(128))]) * np.sqrt(g.dt)
        M = Path(g, np.exp(logm))
        infl = np.concatenate([[0.0], rng.uniform(0, 0.1, 128)])
        C = Path(g, (1.0 / running_min(M.values)) * np.exp(np.cumsum(infl)))
        assert minimality_gap(M, C) >= -1e-12


def test_minimality_rejects_inadmissible_pair():
    g = TimeGrid(1.0, 2)
    M = Path(g, [1.0, 0.4, 0.4])
    C = Path(g, [1.0, 1.0, 1.0])  # M*C dips below 1
    with pytest.raises(ValueError):
        minimality_gap(M, C)


# -- zero sets and reflection consistency --------------------------------------


def test_zero_set_equality_and_c_consistency():
    g = TimeGrid(1.0, 2048)
    M = Path(g, generate_rows(GeneratorSpec("brownian", {}, g), 891, 0, 1)[0])
    M = M.with_values(np.exp(M.values - g.times / 2.0))
    tri = sigma_compose(M)
    I = running_min(M.values)
    eps = default_zero_threshold(g)
    assert np.array_equal(tri.submartingale.values <= eps, M.values <= (1 + eps) * I)
    C = 1.0 / I
    assert np.all(C - 1.0 / M.values >= 0.0)
    grew = np.diff(C) > 0
    assert np.all(tri.submartingale.values[1:][grew] == 0.0)


# -- class-(D) diagnostics ------------------------------------------------------


def test_class_d_constant_ensemble_exact():
    g = TimeGrid(1.0, 16)
    M = np.ones((8, 17))
    rep = class_d_report(class_d_path_stats(M), g)
    assert rep.e_mc.mean == 1.0 and rep.e_mc.stderr == 0.0
    assert rep.e_int.mean == 1.0
    assert rep.e_log_inv_i.mean == 0.0
    assert rep.e_qv_u.mean == 0.0
    assert rep.n_paths == 8


def test_class_d_degenerate_exponential_closed_forms():
    for n in (64, 256):
        g = TimeGrid(1.0, n)
        M = np.exp(-g.times)[None, :].repeat(4, axis=0)
        rep = class_d_report(class_d_path_stats(M), g)
        assert rep.e_log_inv_i.mean == pytest.approx(1.0, abs=1e-9)
        # exact discrete quadratic variation of the deterministic path; O(dt)
        assert rep.e_qv_u.mean == pytest.approx(n * (np.exp(-g.dt) - 1.0) ** 2, rel=1e-9)
        assert rep.e_qv_u.mean < 1.05 * g.dt  # vanishes under refinement
        assert rep.pathwise_log_identity_median_err < 1.0 / n


def test_class_d_requires_paths():
    g = TimeGrid(1.0, 4)
    for rows in (0, 1):
        with pytest.raises(ValueError, match="at least 2 paths"):
            class_d_report(class_d_path_stats(np.ones((rows, 5))), g)


def test_class_d_report_copies_no_vector():
    # the eight per-path vectors as the batch runner joins them: the report's reductions hold one temporary
    # of a vector at a time, where concatenating the eight again peaked at 9 vectors
    n = 100_000
    stats = tuple(np.linspace(1.0, 2.0, n) for _ in range(8))
    tracemalloc.start()
    try:
        rep = class_d_report(stats, TimeGrid(1.0, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.n_paths == n
    assert peak < 2 * 8 * n, peak


def test_class_d_pathwise_identities_converge_under_refinement():
    # log(1/M) ~ -(U - <U>/2) and log(1/I_T) ~ -min(U - <U>/2): the median
    # pathwise errors shrink as the grid refines
    errs = {}
    for n in (512, 2048):
        g = TimeGrid(1.0, n)
        batch = np.empty((40, n + 1))
        for i in range(40):
            inc = gaussian_increments(g, StreamKey(893, i, 0))
            batch[i] = np.exp(np.concatenate([[0.0], np.cumsum(inc)]) - g.times / 2.0)
        batch[:, 0] = 1.0
        rep = class_d_report(class_d_path_stats(batch), g)
        errs[n] = (rep.pathwise_log_identity_median_err, rep.pathwise_inf_identity_median_err)
    assert errs[2048][0] < errs[512][0]
    assert errs[2048][1] < errs[512][1]


def test_class_d_from_ensemble_wrapper():
    g = TimeGrid(1.0, 32)
    rep = class_d_report(class_d_path_stats(generate_rows(GeneratorSpec("exp_martingale", {}, g), 3, 0, 16)), g)
    assert rep.n_paths == 16
    assert rep.e_mc.n_samples == rep.e_int.n_samples == rep.e_qv_u.n_samples
