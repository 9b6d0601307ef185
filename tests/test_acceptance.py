"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Sizes, tolerances, and runtime budgets are pinned here; Monte Carlo
criteria are seed-pinned.  Budgets are asserted, so a dramatically slower
machine fails loudly rather than silently degrading.  The four 100,000-path
Monte Carlo criteria (5-8) run their batches in ``_WORKERS`` processes;
reports do not depend on the worker count (criterion 11), so no verdict
does either.
"""

import time

import numpy as np
import pytest

from sigmapaths import oracles
from sigmapaths.calculus import running_min, tanaka_raw
from sigmapaths.decompose import (
    carried_by_zeros,
    default_zero_threshold,
    mult_decompose,
    mult_decompose_exp,
)
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
from sigmapaths.reports import report_json_bytes
from sigmapaths.streams import StreamKey
from sigmapaths.verify import run_suite

from reference import gaussian_increments

#: Worker processes of the 100,000-path criteria.
_WORKERS = 2


def _report(num, name, ok, detail, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    budget_note = f" / budget {budget:.0f}s" if budget else ""
    print(f"[{status}] criterion {num:2d} ({name}): {detail} [{elapsed:.1f}s{budget_note}]",
          flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"
    if budget is not None:
        assert elapsed <= budget, f"criterion {num} over budget: {elapsed:.1f}s > {budget}s"


def test_criterion_01_skorokhod_exactness():
    t0 = time.time()
    ok, detail = run_suite("skorokhod")
    _report(1, "skorokhod exactness", ok, detail, time.time() - t0, budget=1.0)


def test_criterion_02_minimality():
    t0 = time.time()
    ok, detail = run_suite("minimality")
    _report(2, "minimality of the zero-carried source", ok, detail, time.time() - t0, budget=5.0)


def test_criterion_03_sigma_roundtrip():
    t0 = time.time()
    ok, detail = run_suite("sigma-roundtrip")
    _report(3, "compose/recover roundtrip", ok, detail, time.time() - t0, budget=5.0)


def test_criterion_04_local_time_identity_refinement():
    t0 = time.time()
    master_seed, n_paths = 1005, 100
    grid_fine = TimeGrid(1.0, 2**16)
    grid_coarse = TimeGrid(1.0, 2**14)
    d_log = {14: [], 16: []}
    d_cross = {14: [], 16: []}
    for i in range(n_paths):
        inc = gaussian_increments(grid_fine, StreamKey(master_seed, i, 0))
        B_fine = np.concatenate([[0.0], np.cumsum(inc)])
        for level, B, grid in ((16, B_fine, grid_fine), (14, B_fine[::4], grid_coarse)):
            X = np.abs(B)
            L = np.maximum.accumulate(tanaka_raw(B))
            M = (1.0 + X) * np.exp(-L)
            d_log[level].append(np.max(np.abs(L + np.log(running_min(M)))))
            M1 = mult_decompose(Path(grid, X), Path(grid, L)).martingale_part.values
            M2 = mult_decompose_exp(Path(grid, X - L), Path(grid, X)).values
            d_cross[level].append(np.max(np.abs(M1 - M2)))
    r_log = np.median(d_log[16]) / np.median(d_log[14])
    r_cross = np.median(d_cross[16]) / np.median(d_cross[14])
    ok = r_log <= 0.6 and r_cross <= 0.6
    _report(4, "local-time identity refinement", ok,
            f"sup|L - log(1/I)| ratio {r_log:.3f} <= 0.6; factor-formula ratio {r_cross:.3f} <= 0.6",
            time.time() - t0, budget=120.0)


def test_criterion_05_lemma_balance_three_specs():
    t0 = time.time()
    lines = []
    ok = True
    for label, cfg in LEMMA_ACCEPTANCE_SPECS:
        spec = GeneratorSpec.from_config(dict(cfg))
        rep = lemma_balance_experiment(spec, 100_000, 31415, workers=_WORKERS)
        ratio = rep.abs_diff / rep.combined_stderr
        ok = ok and rep.ci_agreement
        lines.append(f"{label}: {ratio:.2f} se")
    _report(5, "balance identity on three shipped specs", ok,
            "; ".join(lines) + " (all <= 3)", time.time() - t0, budget=300.0)


def test_criterion_06_conditional_last_visit_law():
    t0 = time.time()
    spec = GeneratorSpec("bessel3", {"x0": 1.0}, TimeGrid(64.0, 32768))
    tab = azema_conditional_experiment(spec, level=1.0, t=1.0, bins=20,
                                       n_paths=100_000, master_seed=999, workers=_WORKERS)
    worst = 0.0
    ok = tab.censoring_rate <= 0.05
    for b in tab.bins:
        dev = abs(b.empirical.mean - b.formula)
        worst = max(worst, dev)
        ok = ok and dev <= max(0.05, 3.0 * b.empirical.stderr)
    _report(6, "conditional last-visit law", ok,
            f"max per-bin |emp - min(y/z,1)| = {worst:.4f} (floor 0.05), "
            f"censoring {tab.censoring_rate:.4f} <= 0.05",
            time.time() - t0, budget=300.0)


def test_criterion_07_gamblers_ruin_survival():
    t0 = time.time()
    rep = saturation_probe("nonsaturated_zero_set", 100_000, 777, horizon=64.0, dt=4e-4, workers=_WORKERS)
    ok = rep.n_uncensored >= 100_000 - 10
    parts = []
    for a, est, ref in zip(rep.levels, rep.empirical_survival, rep.reference):
        dev = abs(est.mean - ref) / est.stderr
        ok = ok and dev <= 3.0
        parts.append(f"a={a:g}: {dev:.2f} se")
    _report(7, "ruin survival of the set end", ok,
            "; ".join(parts) + f" (uncensored {rep.n_uncensored})",
            time.time() - t0, budget=180.0)


def test_criterion_08_heavy_tail_slope():
    t0 = time.time()
    rep = tail_experiment("T_a_heavy_tail", 100_000, 778, a=1.0, horizon=64.0, dt=1e-3, workers=_WORKERS)
    slope = rep.extras["loglog_slope"]
    ok = -0.6 <= slope <= -0.4
    _report(8, "heavy-tail exponent of T_a", ok,
            f"fitted log-log slope {slope:.4f} in [-0.6, -0.4]",
            time.time() - t0, budget=180.0)


def test_criterion_09_terminal_balance_trend():
    t0 = time.time()
    spec = GeneratorSpec("bessel3", {"x0": 1.0}, TimeGrid(64.0, 2**14))
    rep = two_infinity_check(spec, [4, 8, 16, 32, 64], 2000, 4242)
    first, last = rep.median_gap[0], rep.median_gap[-1]
    ok = last < 0.5 * first
    _report(9, "terminal balance M_T ~ 2 I_T", ok,
            f"median gap T=64 ({last:.4f}) < 0.5 x T=4 ({first:.4f})",
            time.time() - t0, budget=300.0)


def test_criterion_10_carried_by_zeros_discrimination():
    t0 = time.time()
    master_seed, n_paths = 1001, 100
    grid = TimeGrid(1.0, 2**14)
    eps = default_zero_threshold(grid)
    lebesgue = Path(grid, grid.times)
    n_good = n_bad = 0
    worst_good, best_bad = 0.0, np.inf
    for i in range(n_paths):
        inc = gaussian_increments(grid, StreamKey(master_seed, i, 0))
        B = np.concatenate([[0.0], np.cumsum(inc)])
        X = Path(grid, np.abs(B))
        L = Path(grid, np.maximum.accumulate(tanaka_raw(B)))
        good = carried_by_zeros(X, L, eps)
        bad = carried_by_zeros(X, lebesgue, eps)
        n_good += good.score <= 0.05
        n_bad += bad.score >= 0.5
        worst_good = max(worst_good, good.score)
        best_bad = min(best_bad, bad.score)
    ok = n_good == n_paths and n_bad == n_paths
    _report(10, "carried-by-zeros discrimination", ok,
            f"{n_good}/100 local-time scores <= 0.05 (max {worst_good:.4f}); "
            f"{n_bad}/100 calendar-time scores >= 0.5 (min {best_bad:.4f})",
            time.time() - t0, budget=60.0)


def test_criterion_11_determinism():
    t0 = time.time()
    spec = GeneratorSpec("exp_martingale", {}, TimeGrid(1.0, 512))
    runs = [lemma_balance_experiment(spec, 2000, 7, workers=w) for w in (1, 1, 2)]
    blobs = [report_json_bytes(r.as_report(), with_meta=False) for r in runs]
    rerun_identical = blobs[0] == blobs[1]
    workers_identical = blobs[0] == blobs[2]

    walks = [tail_experiment("T_a_heavy_tail", 1500, 13, horizon=8.0, dt=2e-3, workers=w)
             for w in (1, 2)]
    walk_blobs = [report_json_bytes(r.as_report(), with_meta=False) for r in walks]
    walk_identical = walk_blobs[0] == walk_blobs[1]

    ok = rerun_identical and workers_identical and walk_identical
    _report(11, "determinism", ok,
            f"rerun byte-identical: {rerun_identical}; "
            f"worker-count invariant: {workers_identical and walk_identical}",
            time.time() - t0)
