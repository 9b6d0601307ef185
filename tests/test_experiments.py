"""Experiment-level behavior at desk scale; the acceptance module runs the
full-size versions."""

from concurrent.futures import Future

import numpy as np
import pytest

from sigmapaths import experiments, oracles
from sigmapaths.cli import experiment as experiment_group
from sigmapaths.decompose import class_d_report
from sigmapaths.experiments import (
    LEMMA_ACCEPTANCE_SPECS,
    azema_conditional_experiment,
    lemma_balance_experiment,
    saturation_probe,
    tail_experiment,
    two_infinity_check,
)
from sigmapaths.generators import GeneratorSpec
from sigmapaths.grids import Path, TimeGrid
from sigmapaths.reports import reports_equal_ignoring_meta

from reference import class_d_path_stats


def _grid(h, n):
    return TimeGrid(float(h), n)


# -- lemma balance ---------------------------------------------------------------


def test_lemma_balance_constant_surrogate_exact():
    # a constant positive "martingale" keeps C at 1: both sides are exactly 1
    g = _grid(1, 16)
    rep = class_d_report(class_d_path_stats(np.ones((64, 17))), g)
    assert rep.e_mc.mean == 1.0
    assert rep.e_int.mean == 1.0


def test_lemma_balance_shipped_specs_small():
    for label, cfg in LEMMA_ACCEPTANCE_SPECS:
        spec = GeneratorSpec.from_config(dict(cfg))
        small = GeneratorSpec(spec.family, dict(spec.params),
                              TimeGrid(spec.grid.horizon, 512))
        rep = lemma_balance_experiment(small, 4000, 314)
        assert rep.abs_diff <= 4.0 * rep.combined_stderr, label
        assert not rep.degenerate


def test_lemma_balance_detects_strict_local_martingale():
    # the normalized Bessel(3) scale factor from x0=1 is a strict local
    # martingale: the balance identity must fail by many standard errors
    spec = GeneratorSpec("bessel3", {"x0": 1.0}, _grid(1, 512))
    rep = lemma_balance_experiment(spec, 8000, 271)
    assert rep.e_mc.mean < rep.e_int.mean
    assert rep.abs_diff > 10.0 * rep.combined_stderr
    assert not rep.ci_agreement


def test_lemma_balance_rejects_non_martingale_family():
    spec = GeneratorSpec("brownian", {}, _grid(1, 64))
    with pytest.raises(ValueError, match="martingale"):
        lemma_balance_experiment(spec, 100, 1)


def test_lemma_report_envelope_shape():
    spec = GeneratorSpec("exp_martingale", {}, _grid(1, 64))
    env = lemma_balance_experiment(spec, 500, 2).as_report()
    assert env["schema"] == 1
    assert env["experiment"] == "lemma-balance"
    assert {"spec", "seed", "n_paths", "horizon", "censoring_rate", "results"} <= set(env)


# -- azema conditional law --------------------------------------------------------


def test_azema_formula_branches_with_explicit_bins():
    spec = GeneratorSpec("bessel3", {"x0": 1.0}, _grid(8, 1024))
    tab = azema_conditional_experiment(
        spec, level=1.0, t=1.0, bins=[0.25, 0.75, 1.75, 2.25, 4.0],
        n_paths=3000, master_seed=5,
    )
    by_center = {b.center: b.formula for b in tab.bins}
    assert by_center[0.5] == 1.0  # capped branch below the level
    assert by_center[2.0] == 0.5  # min(y/z, 1) at z = 2
    assert tab.censoring_rate <= 1.0


def test_azema_bessel_unbiased_at_moderate_size():
    spec = GeneratorSpec("bessel3", {"x0": 1.0}, _grid(16, 8192))
    tab = azema_conditional_experiment(spec, 1.0, 1.0, 10, 8000, 21)
    for b in tab.bins:
        assert abs(b.empirical.mean - b.formula) <= max(0.05, 4.0 * b.empirical.stderr)
    assert tab.tail_correction_mass < 0.25


def test_azema_bins_keep_their_edges_past_a_dropped_bin():
    # no path lands in [1, 1.0000001], so that bin is dropped; the bins after
    # it must still report their own edges, in the report and in the table
    spec = GeneratorSpec("bessel3", {"x0": 1.0}, _grid(4, 512))
    tab = azema_conditional_experiment(spec, level=1.0, t=1.0, bins=[0, 1, 1.0000001, 2, 50],
                                       n_paths=400, master_seed=7)
    assert tab.n_dropped_bins == 1
    bins = tab.as_report()["results"]["bins"]
    assert all(b["lo"] < b["center"] < b["hi"] for b in bins)
    assert [(b["lo"], b["hi"]) for b in bins] == [(0.0, 1.0), (1.0000001, 2.0), (2.0, 50.0)]
    assert [(r["lo"], r["hi"]) for r in tab.tables()["bins"]] == [(b["lo"], b["hi"]) for b in bins]


def test_azema_exp_martingale_variant():
    spec = GeneratorSpec("exp_martingale", {}, _grid(24, 8192))
    # narrow bins below the level, one wide capped bin above; the formula is
    # linear/constant inside each, so center evaluation is faithful (a bin
    # straddling the kink at the level would not be)
    edges = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 5.0]
    tab = azema_conditional_experiment(spec, level=0.5, t=1.0, bins=edges,
                                       n_paths=4000, master_seed=31)
    for b in tab.bins:
        assert b.formula == oracles.exp_martingale_level_hit_probability(b.center, 0.5)
        if b.lo >= 0.5 or b.hi <= 0.5:  # skip the kink-straddling bin
            assert abs(b.empirical.mean - b.formula) <= max(0.08, 4.0 * b.empirical.stderr), (b.lo, b.hi)


def test_azema_exp_martingale_escape_residual_is_exact():
    # paths below the level at t mostly retire by escape (M <= level/8) and
    # are scored by the residual M/level; with no absolute floor, scoring
    # escaped paths 0 puts a bin 5.4 se off at this size
    spec = GeneratorSpec("exp_martingale", {}, _grid(24, 8192))
    tab = azema_conditional_experiment(spec, level=0.5, t=1.0, bins=[0.05, 0.15, 0.25, 0.35, 0.45],
                                       n_paths=20000, master_seed=31)
    assert len(tab.bins) == 4
    for b in tab.bins:
        assert abs(b.empirical.mean - b.formula) <= 4.0 * b.empirical.stderr, b


def test_azema_table_monotone_above_level():
    spec = GeneratorSpec("bessel3", {"x0": 1.0}, _grid(16, 8192))
    tab = azema_conditional_experiment(spec, 1.0, 1.0, 12, 8000, 43)
    above = [(b.center, b.empirical, b.formula) for b in tab.bins if b.center > 1.0]
    formulas = [f for _, _, f in above]
    assert all(b <= a for a, b in zip(formulas, formulas[1:]))  # exactly nonincreasing
    for (c1, e1, _), (c2, e2, _) in zip(above, above[1:]):
        slack = 3.0 * (e1.stderr + e2.stderr)
        assert e2.mean <= e1.mean + slack, (c1, c2)


def test_tail_report_validates_survival_monotonicity():
    from sigmapaths.experiments import TailReport
    from sigmapaths.grids import McEstimate

    up = (McEstimate(0.3, 0.01, 100), McEstimate(0.5, 0.01, 100))
    with pytest.raises(ValueError, match="nonincreasing"):
        TailReport(kind="T_a_heavy_tail", levels=(1.0, 2.0), empirical_survival=up,
                   reference=(0.4, 0.3), extras={}, censoring_rate=0.0, n_paths=100,
                   horizon=4.0, dt=0.01, seed=1)


def test_azema_rejects_bad_setup():
    spec = GeneratorSpec("bessel3", {"x0": 1.0}, _grid(8, 256))
    with pytest.raises(ValueError, match="horizon"):
        azema_conditional_experiment(spec, 1.0, 9.0, 4, 100, 1)
    with pytest.raises(ValueError, match="positive"):
        azema_conditional_experiment(spec, -1.0, 1.0, 4, 100, 1)
    brown = GeneratorSpec("brownian", {}, _grid(8, 256))
    with pytest.raises(ValueError, match="supports"):
        azema_conditional_experiment(brown, 1.0, 1.0, 4, 100, 1)
    # t = 7.99 rounds to the last grid index, where no revisit can be resolved
    with pytest.raises(ValueError, match="rounds onto the horizon"):
        azema_conditional_experiment(spec, 1.0, 7.99, 4, 100, 1)
    # a stopped M does not vanish at infinity: min(z/a, 1) is not its law
    for params in ({"stop_level": 0.8}, {"stop_line_drift": 0.5}):
        stopped = GeneratorSpec("exp_martingale", params, _grid(8, 256))
        with pytest.raises(ValueError, match="does not vanish"):
            azema_conditional_experiment(stopped, 0.5, 1.0, 4, 100, 1)


# -- two infinity ------------------------------------------------------------------


def test_two_infinity_single_path_algebra():
    # with A carried exactly by the zeros of X, the terminal gap is
    # e^{-A_T} * |X_T - 1| on the nose
    g = _grid(1, 4)
    X = Path(g, [0.0, 0.3, 0.0, 0.6, 1.0 - 0.125])
    A = Path(g, [0.0, 0.0, 0.4, 0.4, 0.4])
    from sigmapaths.decompose import sigma_martingale

    M = sigma_martingale(X, A)
    I = np.minimum.accumulate(M.values)
    gap = abs(M.values[-1] - 2.0 * I[-1])
    assert gap == pytest.approx(np.exp(-0.4) * 0.125, abs=1e-15)


def test_two_infinity_negative_control_constant():
    # X == 0 (a last visit that never happens) keeps the gap pinned at 1
    g = _grid(1, 8)
    from sigmapaths.decompose import sigma_martingale

    zero = Path(g, np.zeros(9))
    M = sigma_martingale(zero, zero)
    assert np.all(np.abs(M.values - 2.0 * np.minimum.accumulate(M.values)) == 1.0)


def test_two_infinity_trend_small():
    spec = GeneratorSpec("bessel3", {"x0": 1.0}, _grid(16, 4096))
    rep = two_infinity_check(spec, [2, 4, 8, 16], 400, 77)
    assert rep.nonincreasing
    assert rep.median_gap[-1] < rep.median_gap[0]
    assert rep.x_range_violation <= 1e-9


def test_two_infinity_requires_matching_horizon():
    spec = GeneratorSpec("bessel3", {"x0": 1.0}, _grid(16, 1024))
    with pytest.raises(ValueError, match="horizon"):
        two_infinity_check(spec, [2, 4, 8], 100, 1)


# -- saturation probe ---------------------------------------------------------------


def test_saturation_survival_matches_ruin_probabilities():
    rep = saturation_probe("nonsaturated_zero_set", 8000, 99, horizon=64.0, dt=2e-3)
    assert rep.n_censored == 0
    for a, est, ref in zip(rep.levels, rep.empirical_survival, rep.reference):
        allowance = 0.1 * np.sqrt(rep.dt)  # grid overshoot, second order here
        assert abs(est.mean - ref) <= 3.5 * est.stderr + allowance, f"level {a}"
    # |B_L| > 0 in continuous time; at grid resolution a small fraction of
    # paths reach level 1 without ever printing a negative grid value
    samples = np.asarray(rep.samples)
    assert np.all(samples >= 0)
    assert np.mean(samples == 0.0) < 0.05
    assert samples.mean() > 0.5


def test_saturation_membership_is_exact():
    rep = saturation_probe("saturated_level_set", 2000, 98, horizon=64.0, dt=2e-3)
    assert rep.membership_rate == 1.0
    assert rep.n_uncensored + rep.n_censored == 2000


def test_saturation_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        saturation_probe("mystery", 10, 1)


# -- tails ------------------------------------------------------------------------


def test_tail_t_a_survival_and_slope():
    rep = tail_experiment("T_a_heavy_tail", 8000, 55, a=1.0, horizon=64.0, dt=1e-3)
    for t, est, ref in zip(rep.levels, rep.empirical_survival, rep.reference):
        tol = 3.0 * est.stderr + oracles.overshoot_allowance(1.0, t, rep.dt)
        assert abs(est.mean - ref) <= tol, f"t={t}"
    assert -0.6 <= rep.extras["loglog_slope"] <= -0.4


def test_tail_t_a_warns_when_no_slope_can_be_fitted():
    # below horizon 16 only one survival time (4) is >= 4, so there is no log-log slope
    short = tail_experiment("T_a_heavy_tail", 200, 5, horizon=4.0, dt=0.01)
    assert np.isnan(short.extras["loglog_slope"])
    assert "no log-log slope" in short.warning
    assert short.as_report()["results"]["warning"] == short.warning
    assert tail_experiment("T_a_heavy_tail", 200, 5, horizon=16.0, dt=0.01).warning == ""


def test_tail_passage_times_come_from_the_walked_grid():
    # dt = 1/3 + 1e-12 walks 3 steps of 1/3 to horizon 1, and 3 * dt passes 1: a path that stops at the
    # last grid point has passed level a by t = 1, so survival at 1 is the censoring rate
    rep = tail_experiment("T_a_heavy_tail", 2000, 7, a=0.5, horizon=1.0, dt=1 / 3 + 1e-12)
    assert rep.levels == (1.0,)
    assert rep.empirical_survival[0].mean == rep.censoring_rate


def test_tail_sigma_b_reports_not_asserts():
    rep = tail_experiment("sigma_b_expectation", 4000, 56, b=1.0, horizon=16.0, dt=1e-3)
    w = rep.extras["wealth_estimate"]
    assert rep.extras["wealth_reference_laplace"] == pytest.approx(1.0)
    assert rep.extras["side_of_one"] in ("below", "above")
    assert w["stderr"] > 0
    assert rep.censoring_rate <= 0.001


def test_tail_sigma_b_censoring_vanishes_with_horizon():
    rates = []
    for horizon in (2.0, 4.0, 8.0):
        rep = tail_experiment("sigma_b_expectation", 3000, 57, b=1.0,
                              horizon=horizon, dt=2e-3)
        rates.append(rep.censoring_rate)
    assert rates[0] >= rates[1] >= rates[2]
    assert rates[2] < rates[0]


# -- registry and determinism --------------------------------------------------------


def test_registry_names_and_runners():
    assert set(experiment_group.commands) == {"lemma-balance", "azema-law", "two-infinity",
                                              "saturation", "tail"}
    for command in experiment_group.commands.values():
        assert command.help
        assert callable(command.callback)


def test_experiment_rerun_is_byte_identical():
    spec = GeneratorSpec("exp_martingale", {}, _grid(1, 128))
    a = lemma_balance_experiment(spec, 1000, 7).as_report()
    b = lemma_balance_experiment(spec, 1000, 7).as_report()
    assert reports_equal_ignoring_meta(a, b)


def test_worker_count_does_not_change_numbers():
    spec = GeneratorSpec("exp_martingale", {}, _grid(1, 128))
    one = lemma_balance_experiment(spec, 2000, 11, workers=1).as_report()
    two = lemma_balance_experiment(spec, 2000, 11, workers=2).as_report()
    assert reports_equal_ignoring_meta(one, two)

    t1 = tail_experiment("T_a_heavy_tail", 2000, 12, horizon=8.0, dt=2e-3, workers=1)
    t2 = tail_experiment("T_a_heavy_tail", 2000, 12, horizon=8.0, dt=2e-3, workers=2)
    assert reports_equal_ignoring_meta(t1.as_report(), t2.as_report())


class _InProcessPool:
    """A process pool stand-in that records its ``max_workers`` and runs each
    submitted call in this process."""

    def __init__(self, started, max_workers):
        started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, arg):
        done = Future()
        done.set_result(fn(arg))
        return done


@pytest.mark.parametrize("workers, batches, started", [(64, 3, [3]), (2, 3, [2]), (64, 1, []), (1, 3, [])])
def test_pool_starts_no_more_workers_than_batches(monkeypatch, workers, batches, started):
    seen = []
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", lambda max_workers: _InProcessPool(seen, max_workers))
    # each batch returns its paths' indices times 10, and the runner concatenates them in path order
    out = experiments._run_batches(lambda a: (10 * np.arange(a[0], a[0] + a[1]), a[2:]), 2 * batches - 1, 2,
                                   workers, "common")
    assert out[0].tolist() == [10 * i for i in range(2 * batches - 1)]
    assert out[1].tolist() == ["common"] * batches
    assert seen == started
