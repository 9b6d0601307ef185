"""The benchmark's workloads and the checks on their reports.

Each workload is a list of ``sigmapaths`` CLI commands that run one after
another (a closed loop with one client).  Path counts are sized so that every
command splits into at least two equal batches, which gives ``--workers 2``
something to share, and so that one round of commands takes a few seconds.

Why these four (see the benchmark contract in ``BENCHMARK.json``):

* ``balance``   full-matrix engine with stop-freeze, the serial class-(D)
                reduction and ~64 MB matrix pickles per batch, plus
                ``decompose``'s second copy of the same reduction;
* ``passage``   the 1-D chunked first-passage walker, bound by keyed draws;
                it bypasses ``generators``, ``decompose`` and ``calculus``;
* ``lastvisit`` the 3-substream Bessel walker in 512-step chunks, where the
                per-call cost of ``standard_normal`` matters;
* ``terminal``  the full-matrix Bessel(3) engine on a 16384-step grid, the
                only workload where the ``calculus`` kernels do real work.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from statistics import NormalDist

#: Family-wise false-alarm rate of the per-bin last-visit check.
BIN_CHECK_ALPHA = 0.01


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple       # CLI arguments before the common ones
    report: str       # JSON report file the command writes


@dataclass(frozen=True)
class Workload:
    name: str
    paths: int
    commands: tuple

    def argv(self, command: Command, seed: int, workers: int, out: str, paths: int) -> list[str]:
        return [*command.argv, "--paths", str(paths), "--seed", str(seed),
                "--workers", str(workers), "--out", out]


_BALANCE_SPEC = ("--family", "exp_martingale", "--stop-level", "1", "--horizon", "4", "--n-steps", "4096")

WORKLOADS: dict[str, Workload] = {
    # 3904 = 2 batches of lemma-balance (1952 rows) and 4 of decompose (976 rows)
    "balance": Workload("balance", 3904, (
        Command("lemma-balance", ("experiment", "lemma-balance", *_BALANCE_SPEC), "lemma_balance.json"),
        Command("decompose", ("decompose", *_BALANCE_SPEC), "classd_report.json"),
    )),
    # 8192 = 2 walker batches of 4096 rows
    "passage": Workload("passage", 8192, (
        Command("tail", ("experiment", "tail", "--kind", "T_a_heavy_tail", "--horizon", "64", "--dt", "0.001"),
                "tail.json"),
    )),
    # 3904 = 8 batches of 488 rows on the 16384-step grid
    "lastvisit": Workload("lastvisit", 3904, (
        Command("azema-law", ("experiment", "azema-law"), "azema_law.json"),
    )),
    # 976 = 2 batches of 488 full 16385-point rows
    "terminal": Workload("terminal", 976, (
        Command("two-infinity", ("experiment", "two-infinity", "--n-steps", "16384"), "two_infinity.json"),
    )),
}


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


def load_report(raw: bytes) -> dict:
    """Parse a report as strict JSON: a bare NaN or Infinity is an error."""
    return json.loads(raw, parse_constant=_reject_constant)


def digest(doc: dict) -> str:
    """sha256 of the report without its ``meta`` block, in the package's
    canonical encoding (sorted keys, indent 2, trailing newline)."""
    body = {k: v for k, v in doc.items() if k != "meta"}
    return hashlib.sha256((json.dumps(body, sort_keys=True, indent=2) + "\n").encode("utf-8")).hexdigest()


def oracle_checks(command: str, doc: dict) -> list[tuple[str, bool, str]]:
    """Closed-form checks of one report at the benchmark's size."""
    res = doc["results"]
    if command == "lemma-balance":
        return [("ci_agreement", res["ci_agreement"] is True,
                 f"|diff| = {res['diff_over_stderr']:.2f} combined stderr (<= 3)")]
    if command == "decompose":
        return []  # checked against lemma-balance by cross_checks
    if command == "tail":
        slope = res["extras"]["loglog_slope"]
        return [("loglog_slope", -0.6 <= slope <= -0.4, f"slope {slope:.4f} in [-0.6, -0.4]")]
    if command == "azema-law":
        from sigmapaths import oracles

        out = [("censoring", doc["censoring_rate"] <= 0.05, f"censoring {doc['censoring_rate']:.4f} <= 0.05")]
        bins = res["bins"]
        # The formula is decreasing in the state, so a bin's conditional mean
        # lies between its values at the bin edges; the overflow bin above
        # the 99.5% quantile is wide, and its center alone is no reference.
        # Scores lie in [0, 1], so a score with mean f has variance at most
        # f(1 - f): the sampling bound comes from each bin's sample count
        # (a sparse bin's own standard error can collapse to near 0), with
        # Bonferroni over the bins.  The grid resolves a revisit only at its
        # points, so the first-order overshoot bias is allowed on top.
        z = NormalDist().inv_cdf(1.0 - BIN_CHECK_ALPHA / (2 * len(bins)))
        dt = doc["horizon"] / int(doc["spec"]["n_steps"])
        allowance = oracles.overshoot_allowance(res["level"], res["t"], dt)

        def ratio(b):
            """Deviation from the bin's formula range over the allowed bound."""
            emp, n = b["empirical"]["mean"], b["empirical"]["n_samples"]
            f_lo = oracles.scale_hit_probability(b["hi"], res["level"])
            f_hi = oracles.scale_hit_probability(b["lo"], res["level"])
            var = 0.25 if f_lo <= 0.5 <= f_hi else max(f_lo * (1 - f_lo), f_hi * (1 - f_hi))
            return max(f_lo - emp, emp - f_hi, 0.0) / (z * math.sqrt(var / n) + allowance)

        worst = max(bins, key=ratio)
        out.append(("bins", ratio(worst) <= 1.0,
                    f"worst bin [{worst['lo']:.3f}, {worst['hi']:.3f}] (n={worst['empirical']['n_samples']}) "
                    f"at {ratio(worst):.3f} of its bound ({z:.2f} sigma + allowance {allowance:.4f}, "
                    f"{len(bins)} bins)"))
        return out
    if command == "two-infinity":
        gaps = [r["median_gap"] for r in res["per_horizon"]]
        return [("nonincreasing", res["nonincreasing"] is True, f"gaps {gaps}"),
                ("halved", gaps[-1] < 0.5 * gaps[0], f"last {gaps[-1]:.4f} < 0.5 x first {gaps[0]:.4f}")]
    raise KeyError(command)


def cross_checks(reports: dict[str, dict]) -> list[tuple[str, bool, str]]:
    """Checks between the reports of one round of a workload."""
    if "decompose" in reports and "lemma-balance" in reports:
        same = reports["decompose"]["results"] == reports["lemma-balance"]["results"]["classd"]
        return [("decompose_equals_lemma_classd", same, "decompose results == lemma-balance results.classd")]
    return []
