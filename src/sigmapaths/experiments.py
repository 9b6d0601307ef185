"""Monte Carlo experiments: balance identities, conditional laws of last-visit
times, saturation probes, and passage-time tails.

Estimation strategy notes, shared by several experiments:

* Every experiment is a pure function of (spec, parameters, master seed),
  and one ``experiment`` subcommand of the CLI calls it directly.
  Paths are generated from per-path keyed streams in batches, and a batch is
  the only grouping of paths: one rule, :func:`_batch_rows`, sizes every
  batch so that it holds about ``_BATCH_VALUES`` values at a time (per path,
  a draw block and what its reduction builds on it, and for the class-(D)
  batch two full rows of Stieltjes terms).  Each batch function takes one
  tuple ``(first, rows, ...)``, generates its rows in one pass and reduces
  them where they are generated, returning a tuple of per-path arrays
  (leading dimension = rows), so only those vectors travel back from a
  worker; the class-(D) batch that starts at path 0 also returns that
  path's row, which ``decompose`` writes, so no path is drawn twice.  One
  runner, :func:`_run_batches`, runs every study's batches, in process or
  in a worker pool, and concatenates each returned array in path order
  before any cross-path reduction, so reports are bit-identical across
  reruns, worker counts and batch splits.

* Last-visit times ("honest times") are not stopping times: a finite
  simulation can only bound them.  The experiments resolve the revisit event
  on the grid and close the remainder with the exact hitting probability from
  the terminal state (strong Markov plus the scale-function / martingale ruin
  formula).  That keeps the estimator unbiased in the horizon, but a revisit
  is seen only as a sign change between grid points, so one that crosses
  the level and returns within a step is missed: an O(sqrt(dt)) bias of
  discrete monitoring that reads -10.0 standard errors on the grid of
  acceptance criterion 6 (32,768 steps, 100,000 paths; see ROADMAP).
  What is reported as censoring is the fraction of paths whose binary
  classification stays genuinely ambiguous (residual hit probability above
  1/2), plus the mean tail-correction mass.

* Every path is drawn by one keyed chunk engine, :func:`_keyed_chunks`,
  the one block generator of the family outputs.  It draws each path's
  streams in blocks and carries one running sum per stream across them, so
  a position is one cumulative sum and the block size changes no report
  byte; ``generators._family_block`` turns each block into the family's
  output, and column 0 of a block is the value before it.  Only the
  last-visit walker, which serves both azema-law families, restarts its sum
  at every block, so its block of ``_REVISIT_BLOCK`` steps is part of both
  azema-law reports' identity.  Every batch reduces the engine's blocks as
  they come: the first-passage walker (on the stopped Brownian families),
  the last-visit walker, and the two-infinity and class-(D) batches with
  carried per-row state that is exact or one sequential sum.
  :func:`row_passes` fills full rows for the API edge from the same blocks,
  and :func:`generate_rows` stacks them.  Stops are decided at grid
  resolution by one rule, ``generators._first_stop``, which
  ``_family_block`` applies; a stopped path draws no block past its stop
  and leaves the reduction there; that is what makes the 10^5-path tail
  studies affordable.  A passage time is the time of the walked grid at the
  stop index, never that index times a second step.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.random import Generator, Philox

from . import oracles
from .calculus import tanaka_carried
from .decompose import ClassDReport, class_d_carried, class_d_finish, class_d_report, class_d_start
from .generators import GeneratorSpec, _family_block, _family_start
from .grids import MAX_STEPS, McEstimate, TimeGrid, median, quantile, require_positive
from .reports import Chart
from .streams import RNG_INFO, KeySequence, StreamKey

__all__ = [
    "lemma_balance_experiment",
    "azema_conditional_experiment",
    "two_infinity_check",
    "saturation_probe",
    "tail_experiment",
    "LemmaBalanceReport",
    "ConditionalLawTable",
    "LawBin",
    "TwoInfinityReport",
    "SaturationReport",
    "TailReport",
    "LEMMA_ACCEPTANCE_SPECS",
    "generate_rows",
    "row_passes",
]

#: Values one batch holds at a time (8 MiB of float64): the smallest block whose arrays all get
#: numpy's huge pages (4 MiB and up); below that every batch page-faults afresh.
_BATCH_VALUES = 1 << 20


def _batch_rows(row_values: int) -> int:
    """Paths per batch, when one path holds ``row_values`` values at a time:
    a full row, or a walker's draw block and what its reduction builds on it.
    Every batch of the package is sized by this one rule."""
    return max(1, min(8192, _BATCH_VALUES // row_values))


def _run_batches(fn: Callable, n_paths: int, rows: int, workers: int, *common) -> tuple[np.ndarray, ...]:
    """Run ``fn((first, rows, *common))`` over the batches of ``rows`` paths
    that cover ``n_paths``, in this process at 1 worker and otherwise in a
    pool of no more processes than batches (a forked pool starts all of its
    workers at once), and concatenate each array of the returned tuples in
    path order, so the outcome does not depend on ``workers``."""
    args = [(first, min(rows, n_paths - first), *common) for first in range(0, n_paths, rows)]
    workers = min(workers, len(args))
    if workers <= 1:
        parts = [fn(a) for a in args]
    else:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = [f.result() for f in [ex.submit(fn, a) for a in args]]
    return tuple(np.concatenate(v) for v in zip(*parts))


# ---------------------------------------------------------------------------
# keyed chunk engine (every path is drawn by it) and the full rows of the API edge

#: Steps per draw block of the family outputs that the first-passage walker,
#: the class-(D) batch and ``row_passes`` walk.
#: A block does not change a report byte; a shorter one draws fewer normals
#: past a path's stop.
_WALK_BLOCK = 1000
#: Steps per block of the last-visit walker, which restarts its running sum at
#: every block: floating-point addition is not associative, so this period is
#: part of the identity of both azema-law reports (bessel3 and exp_martingale).
_REVISIT_BLOCK = 512
#: Steps per block of the two-infinity batch, which draws every step of every
#: path.  Its batch rows shrink as the block grows, so the block sets only the
#: draw calls per path: 1000-step blocks cost about 10% of its throughput in
#: them on a 2-core VM, and 4096 about nothing.
_TERMINAL_BLOCK = 4096
#: The last-visit walker retires a path beyond this multiple of the level.
_ESCAPE_MULT = 8.0


def _keyed_chunks(spec: GeneratorSpec, seed: int, first: int, rows: int, block: int,
                  retired: np.ndarray | None = None, restart: bool = False):
    """Walk ``rows`` paths of ``spec``'s family, ``block`` grid steps at a
    time, one keyed stream set per path.

    Component ``c`` of row ``i`` (of the ``generators._family_start(spec)``
    it starts from) draws from ``StreamKey(seed, first + i, c)``, a
    counter-based stream, so the blocks see the same increments as one
    draw.  Each block puts the sum of the earlier increments in column 0,
    draws its increments after it and takes one cumsum, and numpy's
    accumulate is sequential, so a position is ``start`` plus one cumulative
    sum of its stream, the same bits for every ``block``.  With ``restart``,
    each block's sum starts again from the last position instead.

    ``generators._family_block`` turns each block into the family's output
    ``P``, and each block yields ``(step, alive, P, stop)``: the grid index
    before the block, the rows still walking, ``P`` at grid indices ``step``
    to ``step + cs``, and each row's stop column in ``P[:, 1:]`` (-1 for
    none).  Column 0 is the carried position's, equal to the last column of
    the block before bit for bit.  A stopped row is not drawn after that
    block, nor is a row the caller sets in ``retired``.  Every block reuses
    one buffer, and each stream draws straight into it; callers may
    overwrite ``P``, and reduce it in a function of their own, so that the
    reduction's temporaries are freed before the next block is drawn.
    """
    grid, start = spec.grid, _family_start(spec)
    k = len(start)
    gens = [[Generator(Philox(KeySequence(StreamKey(seed, first + i, c).philox_key()))) for c in range(k)]
            for i in range(rows)]
    pos = np.tile(np.asarray(start, dtype=float), (rows, 1))  # added after each cumsum
    raw = np.zeros((rows, k))  # Brownian sum so far; stays 0 with ``restart``
    buf = np.empty(rows * k * (min(block, grid.n_steps) + 1))
    sqrt_dt = math.sqrt(grid.dt)
    retired = np.zeros(rows, dtype=bool) if retired is None else retired
    alive = np.arange(rows)
    for step in range(0, grid.n_steps, block):
        alive = alive[~retired[alive]]
        if not alive.size:
            return
        cs = min(block, grid.n_steps - step)
        W = buf[: alive.size * k * (cs + 1)].reshape(alive.size, k, cs + 1)  # out= needs each stream contiguous
        for r, i in enumerate(alive):
            for c in range(k):
                gens[i][c].standard_normal(out=W[r, c, 1:])
        W[:, :, 1:] *= sqrt_dt
        W[:, :, 0] = raw[alive]
        np.cumsum(W, axis=2, out=W)
        if not restart:
            raw[alive] = W[:, :, -1]
        W += pos[alive][:, :, None]
        if restart:
            pos[alive] = W[:, :, -1]
        P, stop = _family_block(spec, step, W.transpose(0, 2, 1))
        retired[alive[stop >= 0]] = True
        yield step, alive, P, stop


def row_passes(spec: GeneratorSpec, master_seed: int, first_index: int, rows: int):
    """The rows of :func:`generate_rows`, in passes of at most one full-row
    batch (``_batch_rows(len(grid))`` rows).

    Each pass yields ``(off, R)``: the offset of its first row from
    ``first_index`` and its rows, walked by :func:`_keyed_chunks` in
    ``_WALK_BLOCK`` blocks, so each row equals one cumulative sum of its
    streams bit for bit.  A stopped row stops drawing after the block that
    holds its stop, and its tail is filled from the stop column.  ``R`` lives
    in one buffer that the next pass overwrites, so the passes hold one
    pass's rows at a time, however many there are."""
    bound = _batch_rows(len(spec.grid))
    buf = np.empty((min(bound, rows), len(spec.grid)))
    for off in range(0, rows, bound):
        out = buf[:min(bound, rows - off)]
        for step, alive, P, stop in _keyed_chunks(spec, master_seed, first_index + off, len(out), _WALK_BLOCK):
            end = step + P.shape[1]
            out[alive, step:end] = P
            out[alive[stop >= 0], end:] = P[stop >= 0, -1:]
        del P  # a view of this pass's block buffer: free it before the next pass draws
        yield off, out


def generate_rows(spec: GeneratorSpec, master_seed: int, first_index: int, rows: int) -> np.ndarray:
    """Batch of the family's output, one keyed stream set per path: the
    passes of :func:`row_passes` in one ``(rows, n+1)`` matrix.  A single
    path is ``rows=1``, and a row does not depend on the batch it was drawn
    in."""
    out = np.empty((rows, len(spec.grid)))
    for off, R in row_passes(spec, master_seed, first_index, rows):
        out[off:off + len(R)] = R
    return out


# ---------------------------------------------------------------------------
# report envelope: each report class gives its JSON envelope (``as_report``),
# its CSV tables (``tables``), its ``chart`` and its stdout line (``summary``)


def _envelope(experiment: str, spec_cfg: dict | None, seed: int, n_paths: int,
              horizon: float, censoring_rate: float, results) -> dict:
    return {
        "schema": 1,
        "experiment": experiment,
        "spec": spec_cfg or {},
        "seed": seed,
        "n_paths": n_paths,
        "horizon": horizon,
        "censoring_rate": censoring_rate,
        "rng": dict(RNG_INFO),
        "results": results,
    }


def _survival_rows(at, estimates, reference) -> list[dict]:
    return [{"at": a, "empirical": e.mean, "stderr": e.stderr, "n": e.n_samples, "reference": r}
            for a, e, r in zip(at, estimates, reference)]


def _survival_chart(experiment: str) -> Chart:
    return Chart("levels", "at", (("empirical", "empirical"), ("reference", "reference")),
                 f"{experiment}: survival vs level/time", "level / time", "survival")


# ---------------------------------------------------------------------------
# lemma balance


@dataclass(frozen=True)
class LemmaBalanceReport:
    """Paired estimates of E[M_T C_T] and 1 + E[sum M dC] with C = 1/I."""

    spec_cfg: dict
    seed: int
    classd: ClassDReport
    degenerate: bool
    #: Path 0 of the martingale spec, as its batch drew it (``decompose`` writes its table).
    path0: np.ndarray = field(compare=False, repr=False)

    chart = None

    @property
    def e_mc(self) -> McEstimate:
        return self.classd.e_mc

    @property
    def e_int(self) -> McEstimate:
        return self.classd.e_int

    @property
    def abs_diff(self) -> float:
        return abs(self.e_mc.mean - self.e_int.mean)

    @property
    def combined_stderr(self) -> float:
        return math.hypot(self.e_mc.stderr, self.e_int.stderr)

    @property
    def diff_over_stderr(self) -> float:
        return self.abs_diff / max(self.combined_stderr, np.finfo(float).tiny)

    @property
    def ci_agreement(self) -> bool:
        return self.abs_diff <= 3.0 * self.combined_stderr

    def as_report(self) -> dict:
        results = {
            "classd": self.classd.as_dict(),
            "abs_diff": self.abs_diff,
            "combined_stderr": self.combined_stderr,
            "diff_over_stderr": self.diff_over_stderr,
            "ci_agreement": self.ci_agreement,
            "degenerate_ensemble": self.degenerate,
        }
        return _envelope("lemma-balance", self.spec_cfg, self.seed, self.classd.n_paths,
                         self.classd.horizon, 0.0, results)

    def tables(self) -> dict:
        names = ("e_mc", "e_int", "e_int_left", "e_log_inv_i", "e_qv_u")
        return {"estimates": [{"estimate": n, **getattr(self.classd, n).as_dict()} for n in names]}

    def summary(self) -> str:
        return (f"lemma-balance: |diff|={self.abs_diff:.5f} "
                f"({self.diff_over_stderr:.2f} combined stderr, agree={self.ci_agreement})")


def _martingale_spec(spec: GeneratorSpec) -> GeneratorSpec:
    """Positive-martingale view of a spec: bessel3 enters balance experiments
    through its normalized scale martingale x0/R."""
    if spec.family == "bessel3":
        return GeneratorSpec("scale_martingale", dict(spec.params), spec.grid)
    if spec.family in ("exp_martingale", "scale_martingale"):
        return spec
    raise ValueError(
        f"family {spec.family!r} does not yield a positive unit-start martingale; "
        "use exp_martingale, scale_martingale, or bessel3"
    )


def _martingale_batch(args) -> tuple[np.ndarray, ...]:
    """Per-path class-(D) statistics of one batch, reduced block by block,
    and the row of path 0 when the batch holds it.

    The M-paths are walked in ``_WALK_BLOCK``-step blocks, and each block
    goes through :func:`~.decompose.class_d_carried` with carried per-row
    state, so a stopped row leaves the reduction after the block that holds
    its stop.  The two Stieltjes sums are pairwise sums of whole rows, so
    the terms at each new low go into two zeroed full-length rows per path,
    each summed once at the end: everywhere else, and after a stop, ``dC``
    is +0.0, so these rows equal the full-row terms bit for bit.  The last
    array is path 0 held at its stop, as :func:`row_passes` fills it,
    shaped ``(1, n + 1)`` in the batch that starts at path 0 and ``(0, n +
    1)`` in every other."""
    first, rows, spec, seed = args
    n = spec.grid.n_steps
    block = min(_WALK_BLOCK, n)
    terms = np.zeros((2, rows, n))
    carry = class_d_start(rows)
    buf = np.empty(2 * rows * block)
    path0 = np.empty((1 if first == 0 else 0, n + 1))
    for step, alive, M, _ in _keyed_chunks(spec, seed, first, rows, block):
        c = carry[:, alive]
        r, j, t = class_d_carried(M, c, buf)
        carry[:, alive] = c
        terms[:, alive[r], step + j] = t
        if path0.size and alive[0] == 0:
            path0[0, step:] = M[0, -1]
            path0[0, step:step + M.shape[1]] = M[0]
    return (*class_d_finish(carry, terms), path0)


def lemma_balance_experiment(
    spec: GeneratorSpec, n_paths: int, master_seed: int, workers: int = 1
) -> LemmaBalanceReport:
    """Check E[M_T C_T] = 1 + E[sum M_{i+1} dC_i] on an ensemble of ``spec``.

    The truncation horizon is the grid horizon of ``spec``.  The balance
    holds for uniformly integrable martingales; the report carries both
    estimates with standard errors and their agreement ratio, so a spec that
    violates the hypotheses (a strict local martingale, say) shows up as a
    many-sigma disagreement rather than an error.
    """
    mspec = _martingale_spec(spec)
    if n_paths < 2:
        raise ValueError(f"--paths {n_paths}: the balance estimates need --paths of at least 2")
    n, k = mspec.grid.n_steps, len(_family_start(mspec))
    # one path holds its two rows of Stieltjes terms and, on each block, its k-component draw block (M in
    # place), one temporary of the Bessel norm, two work rows, and the copy that the running minimum takes
    # of the rows that set a new low, with a spare row
    rows = _batch_rows(2 * n + (k + 5) * min(_WALK_BLOCK, n))
    *stats, path0 = _run_batches(_martingale_batch, n_paths, rows, workers, mspec, master_seed)
    classd = class_d_report(stats, mspec.grid)
    degenerate = classd.e_mc.stderr == 0.0 and classd.e_int.stderr == 0.0
    return LemmaBalanceReport(spec_cfg=spec.to_config(), seed=master_seed, classd=classd, degenerate=degenerate,
                              path0=path0[0])


#: The three specs the balance acceptance criterion runs (all satisfy the
#: uniform-integrability hypothesis at their horizon; the strict-local
#: bessel3 case at x0=1 is exercised separately as a documented failure).
LEMMA_ACCEPTANCE_SPECS: tuple[tuple[str, dict], ...] = (
    ("exp_martingale T=1", {"family": "exp_martingale", "horizon": "1.0", "n_steps": "2048"}),
    ("exp_martingale stopped at level 1, T=4",
     {"family": "exp_martingale", "stop_level": "1.0", "horizon": "4.0", "n_steps": "4096"}),
    ("bessel3 scale martingale x0=4, T=1",
     {"family": "bessel3", "x0": "4.0", "horizon": "1.0", "n_steps": "2048"}),
)


# ---------------------------------------------------------------------------
# conditional law of a last-visit time (state-binned)


@dataclass(frozen=True)
class LawBin:
    """One kept state bin: its edges and center, the empirical survival of
    its paths and the formula at its center."""

    lo: float
    hi: float
    center: float
    empirical: McEstimate
    formula: float


@dataclass(frozen=True)
class ConditionalLawTable:
    """Per-bin empirical vs formula conditional survival P(g > t | state)."""

    level: float
    t: float
    horizon: float
    bins: tuple               # LawBin per kept bin
    n_dropped_bins: int
    censoring_rate: float
    tail_correction_mass: float
    n_paths: int
    spec_cfg: dict
    seed: int
    warning: str = ""

    chart = Chart("bins", "center", (("empirical", "empirical"), ("formula", "formula")),
                  "conditional last-visit survival", "state at t", "P(g > t | state)")

    def __post_init__(self):
        for b in self.bins:
            if not -1e-12 <= b.empirical.mean <= 1.0 + 1e-12:
                raise ValueError("empirical conditional probabilities must lie in [0, 1]")
            if not 0.0 <= b.formula <= 1.0:
                raise ValueError("formula values must lie in [0, 1]")

    def max_abs_deviation(self) -> float:
        return max(abs(b.empirical.mean - b.formula) for b in self.bins)

    def as_report(self) -> dict:
        results = {
            "level": self.level,
            "t": self.t,
            "bins": [{"lo": b.lo, "hi": b.hi, "center": b.center, "empirical": b.empirical.as_dict(),
                      "formula": b.formula} for b in self.bins],
            "n_dropped_bins": self.n_dropped_bins,
            "tail_correction_mass": self.tail_correction_mass,
            "max_abs_deviation": self.max_abs_deviation(),
            "warning": self.warning,
        }
        return _envelope("azema-law", self.spec_cfg, self.seed, self.n_paths,
                         self.horizon, self.censoring_rate, results)

    def tables(self) -> dict:
        return {"bins": [{"lo": b.lo, "hi": b.hi, "center": b.center, "empirical": b.empirical.mean,
                          "stderr": b.empirical.stderr, "n": b.empirical.n_samples, "formula": b.formula}
                         for b in self.bins]}

    def summary(self) -> str:
        return f"azema-law: max|emp-formula|={self.max_abs_deviation():.4f} censoring={self.censoring_rate:.4f}"


def _state_bin_edges(state_t: np.ndarray, bins: int | Sequence[float]) -> np.ndarray:
    """Bin edges covering the observed state range.

    An integer asks for equal-width bins over the bulk (up to the 99.5%
    quantile) plus one overflow bin to the observed maximum, so bulk bins
    stay narrow while the long state tail stays covered; the overflow bin is
    sparse, which the per-bin standard error accounts for.
    """
    if not isinstance(bins, int):
        edges = np.asarray(sorted(bins), dtype=float)
        if len(edges) < 2:
            raise ValueError("need at least one bin")
        return edges
    if bins < 1:
        raise ValueError("need at least one bin")
    lo = float(np.min(state_t))
    hi = quantile(state_t, 0.995)
    top = float(np.max(state_t))
    if hi <= lo:
        return np.array([lo, max(top, lo + 1e-12)])
    edges = np.linspace(lo, hi, bins + 1)
    if top > hi:
        edges = np.append(edges, top)
    return edges


def _bessel_revisit_batch(args):
    """One batch of the last-visit walker, for both azema-law families.

    The state is the Bessel norm ``R``, or ``M = exp(B - t/2)``, as
    :func:`_keyed_chunks` yields it, and the exact probability that
    it visits the level after a stopping time where it stands at ``z`` is
    ``min(num/den, 1)``, with ``(num, den) = (level, R)`` for Bessel(3) and
    ``(M, level)`` for the exponential martingale.  The state is walked in
    ``_REVISIT_BLOCK``-step blocks, each of which restarts its running sums
    from the last position.  After time ``t`` a path retires at the end of
    the first block where it crossed the level, escaped (``den >=
    _ESCAPE_MULT * num``) or reached the horizon, and scores 1 if it crossed,
    else the residual ``min(num/den, 1)``, its correction mass; it is
    ambiguous when that exceeds 1/2 (an escaped path's is at most 1/8).
    Returns (state at t, survival scores, ambiguous flags, correction mass).
    """
    (first, rows, spec, seed, level, t_idx) = args
    state_t = np.empty(rows)
    score = np.empty(rows)
    correction = np.zeros(rows)
    retired = np.zeros(rows, dtype=bool)
    for step, alive, P, _ in _keyed_chunks(spec, seed, first, rows, _REVISIT_BLOCK, retired, restart=True):
        end = step + P.shape[1] - 1  # P holds the state at grid indices step to end
        if step < t_idx <= end:
            state_t[alive] = P[:, t_idx - step]
        if end > t_idx:
            rel = P[:, max(t_idx - step, 0):] - level
            crossed = (rel[:, :-1] * rel[:, 1:] <= 0).any(axis=1)
            num, den = (level, P[:, -1]) if spec.family == "bessel3" else (P[:, -1], level)
            resid = np.minimum(num / den, 1.0)
            score[alive] = np.where(crossed, 1.0, resid)
            correction[alive] = np.where(crossed, 0.0, resid)
            retired[alive[crossed | (den >= _ESCAPE_MULT * num) | (end == spec.grid.n_steps)]] = True
    return state_t, score, correction > 0.5, correction


def azema_conditional_experiment(
    spec: GeneratorSpec,
    level: float,
    t: float,
    bins: int | Sequence[float],
    n_paths: int,
    master_seed: int,
    workers: int = 1,
) -> ConditionalLawTable:
    """Empirical conditional law of the last visit to a level, against the
    closed-form ``min(level/state, 1)`` (Bessel) / ``min(state/level, 1)``
    (positive martingale vanishing at infinity).

    Paths are binned by their state at time ``t``; within each bin the
    empirical column averages per-path survival scores (1 for an observed
    revisit in ``(t, horizon]``, else the exact residual hit probability from
    the state where simulation stopped).  ``bins`` is either a bin count of
    at most ``n_paths`` (edges over the observed states) or explicit edges.
    """
    grid = spec.grid
    if not 0 < t < grid.horizon:
        raise ValueError("need 0 < t < horizon with room to resolve last visits")
    require_positive("level", level)
    t_idx = grid.index_at(t)
    if t_idx < 1:
        raise ValueError("t is below grid resolution")
    if t_idx >= grid.n_steps:
        raise ValueError(f"t={t} rounds onto the horizon, grid index {t_idx} of {grid.n_steps}, where no "
                         "revisit can be resolved: lower --t or raise --n-steps")
    if spec.family == "bessel3":
        formula_at = oracles.scale_hit_probability
    elif spec.family == "exp_martingale":
        if level > 1.0:
            raise ValueError("exp_martingale last-visit level must be <= M_0 = 1")
        if spec.params:
            raise ValueError(f"a stopped exp_martingale ({sorted(spec.params)}) does not vanish at infinity, "
                             "so min(state/level, 1) is not its last-visit law")
        formula_at = oracles.exp_martingale_level_hit_probability
    else:
        raise ValueError("azema experiment supports bessel3 and exp_martingale specs")
    if isinstance(bins, int) and bins > n_paths:  # most bins would be empty, each an edge and a scan of all paths
        raise ValueError(f"--bins {bins} exceeds --paths {n_paths}: lower --bins or raise --paths")
    # one path holds its draw block (the state in place) plus two temporaries of its crossing test
    rows = _batch_rows((len(_family_start(spec)) + 2) * _REVISIT_BLOCK)
    state_t, score, ambiguous, correction = _run_batches(_bessel_revisit_batch, n_paths, rows, workers,
                                                         spec, master_seed, level, t_idx)

    edges = _state_bin_edges(state_t, bins)

    kept = []
    idx = np.clip(np.searchsorted(edges, state_t, side="right") - 1, 0, len(edges) - 2)
    inside = (state_t >= edges[0]) & (state_t <= edges[-1])
    for b in range(len(edges) - 1):
        sel = inside & (idx == b)
        if sel.sum() >= 2:
            center = 0.5 * (edges[b] + edges[b + 1])
            kept.append(LawBin(float(edges[b]), float(edges[b + 1]), float(center),
                               McEstimate.from_samples(score[sel]), float(formula_at(center, level))))
    if not kept:
        raise ValueError(f"no state bin holds 2 of the {state_t.size} paths; "
                         "raise --paths or lower --bins")

    censoring = float(np.mean(ambiguous))
    warning = ""
    if censoring > 0.05:
        warning = f"censoring rate {censoring:.3f} exceeds 5% target"
    return ConditionalLawTable(
        level=level,
        t=t,
        horizon=grid.horizon,
        bins=tuple(kept),
        n_dropped_bins=len(edges) - 1 - len(kept),
        censoring_rate=censoring,
        tail_correction_mass=float(np.mean(correction)),
        n_paths=int(state_t.size),
        spec_cfg=spec.to_config(),
        seed=master_seed,
        warning=warning,
    )


# ---------------------------------------------------------------------------
# terminal balance M_infty = 2 I_infty (honest-time construction)


@dataclass(frozen=True)
class TwoInfinityReport:
    """Median |M_T - 2 I_T| across doubling horizons for the conditional-law
    submartingale built from a Bessel(3) last visit."""

    level: float
    horizons: tuple
    median_gap: tuple
    nonincreasing: bool
    x_range_violation: float
    n_paths: int
    spec_cfg: dict
    seed: int

    chart = Chart("gaps", "horizon", (("median |M_T - 2 I_T|", "median_gap"),),
                  "terminal balance gap vs horizon", "horizon", "median gap")

    def as_report(self) -> dict:
        results = {
            "level": self.level,
            "per_horizon": self.tables()["gaps"],
            "nonincreasing": self.nonincreasing,
            "x_range_violation": self.x_range_violation,
        }
        return _envelope("two-infinity", self.spec_cfg, self.seed, self.n_paths,
                         max(self.horizons), 0.0, results)

    def tables(self) -> dict:
        return {"gaps": [{"horizon": h, "median_gap": g} for h, g in zip(self.horizons, self.median_gap)]}

    def summary(self) -> str:
        gaps = ", ".join(f"T={h:g}: {g:.4f}" for h, g in zip(self.horizons, self.median_gap))
        return f"two-infinity: median gaps {gaps}"


def _two_infinity_batch(args):
    """Per path: |M - 2I| at each horizon index, and the x-range violation.

    The Bessel(3) paths of :func:`_keyed_chunks` are walked in
    ``_TERMINAL_BLOCK``-step blocks, each turned into ``S = 1 - level/R`` in
    place (column 0 is the last ``S`` of the block before), and each block is
    reduced with carried per-row state: the Tanaka sum and the running max of
    its residual, the running min of ``M`` and the running max of ``S``.  A
    gap reads the min carried into its block and the block's prefix up to its
    horizon index (grid indices of at least 1).  Each step is exact or one
    sequential sum, so the block size changes no bit."""
    (first, rows, spec, seed, level, h_indices) = args
    s0 = 1.0 - level / np.full(rows, spec.params["x0"])  # S_0
    base = np.abs(s0)
    tanaka = np.full(rows, -0.0)  # the exact additive identity
    local_max = base - base  # the residual at index 0
    m_min = np.maximum(s0, 0.0) + 1.0  # M_0 = (1 + X_0) exp(-0)
    s_max = np.ones(rows)  # max(X - 1, 0) == max(S, 1) - 1: rounding is monotone
    violation = -s0
    gaps = np.empty((rows, len(h_indices)))
    block = min(_TERMINAL_BLOCK, spec.grid.n_steps)
    buf = np.empty(2 * rows * block)
    for step, _, S, _ in _keyed_chunks(spec, seed, first, rows, block):
        cs = S.shape[1] - 1
        # M's buffer holds the Tanaka increments first
        L = buf[:rows * cs].reshape(rows, cs)
        M = buf[rows * block:][:rows * cs].reshape(rows, cs)
        np.subtract(1.0, np.divide(level, S, out=S), out=S)
        np.maximum(s_max, S.max(axis=1), out=s_max)
        tanaka_carried(S, base, tanaka, L, M)
        np.maximum(local_max, L[:, 0], out=L[:, 0])
        np.maximum.accumulate(L, axis=1, out=L)
        local_max = L[:, -1].copy()
        L *= -0.5  # E = exp(-A), A half the clamped Tanaka local time; -(x/2) exactly
        E = np.exp(L, out=L)
        np.maximum(S[:, 1:], 0.0, out=M)  # M = (1 + X) E, with X = max(S, 0)
        M += 1.0
        M *= E
        for h, i in enumerate(h_indices):  # M[:, c] is M at grid index step + 1 + c
            if step < i <= step + cs:
                gaps[:, h] = M[:, i - step - 1] - 2.0 * np.minimum(m_min, M[:, :i - step].min(axis=1))
        np.minimum(m_min, M.min(axis=1), out=m_min)
    np.maximum(s_max - 1.0, violation, out=violation)
    return np.abs(gaps, out=gaps), violation


def two_infinity_check(
    spec: GeneratorSpec,
    horizons: Sequence[float],
    n_paths: int,
    master_seed: int,
    level: float | None = None,
    workers: int = 1,
) -> TwoInfinityReport:
    """Track the terminal balance of the last-visit submartingale.

    From a Bessel(3) ensemble, ``X_t = (1 - level/R_t)^+`` is the conditional
    probability that the last visit to ``level`` has already happened.  Its
    increasing part is recovered pathwise (half the Tanaka local time of
    ``1 - level/R``), the positive martingale ``M = (1+X) exp(-A)`` is
    rebuilt, and ``median |M_T - 2 I_T|`` is reported per horizon: the gap
    must trend to zero as the horizon doubles.
    """
    if spec.family != "bessel3":
        raise ValueError("two_infinity_check is built on the bessel3 family")
    hs = sorted(float(h) for h in horizons)
    if not hs or hs[-1] != spec.grid.horizon:
        raise ValueError("largest horizon must equal the spec grid horizon")
    y = spec.params["x0"] if level is None else float(level)
    require_positive("level", y)
    grid = spec.grid
    h_indices = [grid.index_at(h) for h in hs]
    if h_indices[0] < 1 or any(a >= b for a, b in zip(h_indices, h_indices[1:])):
        raise ValueError(f"horizons {hs} fall on grid indices {h_indices} of {grid.n_steps} steps; "
                         "they need distinct indices of at least 1: raise --n-steps")
    # one path holds its 3-component draw block (S in place of its first component), L, M and one temporary
    # of the Bessel norm
    rows = _batch_rows(6 * min(_TERMINAL_BLOCK, grid.n_steps))
    gaps, violation = _run_batches(_two_infinity_batch, n_paths, rows, workers, spec, master_seed, y, h_indices)
    medians = [median(gaps[:, k]) for k in range(len(hs))]
    noninc = all(medians[k + 1] <= medians[k] + 1e-12 for k in range(len(medians) - 1))
    return TwoInfinityReport(
        level=y,
        horizons=tuple(hs),
        median_gap=tuple(medians),
        nonincreasing=noninc,
        x_range_violation=max(0.0, float(np.max(violation))),
        n_paths=int(gaps.shape[0]),
        spec_cfg=spec.to_config(),
        seed=master_seed,
    )


# ---------------------------------------------------------------------------
# Brownian first-passage walker, block by block


def _walk_brownian_batch(args):
    """Walk Brownian rows block by block until a stop or the horizon.

    ``params`` are a stopped Brownian family's own, walked by
    :func:`_keyed_chunks`: ``brownian_stopped_level`` when they hold
    ``a`` (``B >= a``, or ``B <= lower`` with the optional ``lower``), else
    ``brownian_drift_stopped_line`` (``B + b t >= 1``).  Returns per path:
    stop step (grid index, -1 when censored), value at the stop (final value
    when censored), prefix minimum up to the stop, and the censored mask.
    """
    (first, rows, seed, horizon, n_steps, params) = args
    spec = GeneratorSpec("brownian_stopped_level" if "a" in params else "brownian_drift_stopped_line", params,
                         TimeGrid(horizon, n_steps))
    run_min = np.zeros(rows)
    stop_step = np.full(rows, -1, dtype=np.int64)
    stop_value = np.zeros(rows)
    for step, alive, P, stop in _keyed_chunks(spec, seed, first, rows, _WALK_BLOCK):
        stop_value[alive] = P[:, -1]
        run_min[alive] = np.minimum(run_min[alive], P.min(axis=1))  # a held tail repeats its stop
        stopped = stop >= 0
        stop_step[alive[stopped]] = step + stop[stopped] + 1
    return stop_step, stop_value, run_min, stop_step < 0


def _walk_steps(horizon: float, dt: float) -> int:
    """Grid steps of a walker run over ``[0, horizon]``: at least one, and
    ``dt`` must divide ``horizon`` (to 1e-9 relative), so that the run ends
    at the horizon its report names."""
    require_positive("dt", dt)
    require_positive("horizon", horizon)
    if not horizon / dt <= MAX_STEPS:
        raise ValueError(f"--dt {dt} cuts --horizon {horizon} into {horizon / dt:.3g} steps, "
                         f"more than the grid step bound of {MAX_STEPS}")
    n_steps = round(horizon / dt)
    if n_steps < 1:
        raise ValueError(f"horizon {horizon} rounds to zero steps of dt={dt}")
    if abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise ValueError(f"--dt {dt} does not divide --horizon {horizon}: "
                         f"{n_steps} steps would end at {n_steps * dt!r}")
    return n_steps


def _walk(n_paths, master_seed, horizon, n_steps, workers, params) -> tuple:
    """The first-passage walker on ``TimeGrid(horizon, n_steps)``, stopped
    by the stopped Brownian family of ``params``.  Returns per path: the
    passage time, read off that grid (``inf`` when censored), the value at
    the stop and the prefix minimum up to the stop."""
    stop_step, stop_value, run_min, censored = _run_batches(
        _walk_brownian_batch, n_paths, _batch_rows(_WALK_BLOCK), workers, master_seed, horizon, n_steps, params)
    return np.where(censored, np.inf, TimeGrid(horizon, n_steps).times[stop_step]), stop_value, run_min


def _stopped(t_hit, what) -> np.ndarray:
    """Mask of the walked paths that stopped before the horizon.  An estimate
    over them needs a standard error, so fewer than two is an error."""
    ok = np.isfinite(t_hit)
    if ok.sum() < 2:
        raise ValueError(f"{ok.sum()} of {len(t_hit)} paths reached {what} before the horizon, and the estimate "
                         f"needs at least 2: raise --horizon or --paths")
    return ok


# ---------------------------------------------------------------------------
# saturation probe

#: Most per-path samples a saturation report lists.
_KEEP_SAMPLES = 10000
#: Levels a at which the nonsaturated probe estimates P(X_L >= a).
_SATURATION_LEVELS = (1.0, 2.0, 4.0)


@dataclass(frozen=True)
class SaturationReport:
    """Distributional probe of the end of a random set under a Brownian path
    stopped at its first passage of level 1."""

    kind: str
    levels: tuple
    empirical_survival: tuple   # McEstimate per level (nonsaturated kind)
    reference: tuple            # float per level
    samples: tuple              # -I at the decision time (capped at max level)
    sample_capped: tuple        # True where the sample is right-censored
    membership_rate: float      # saturated kind: fraction with B_{L'} <= 0
    n_uncensored: int
    n_censored: int
    horizon: float
    dt: float
    seed: int

    chart = _survival_chart("saturation")

    def as_report(self) -> dict:
        results = {
            "kind": self.kind,
            "levels": [
                {
                    "level": a,
                    "empirical_survival": e.as_dict(),
                    "reference": r,
                }
                for a, e, r in zip(self.levels, self.empirical_survival, self.reference)
            ],
            "membership_rate": self.membership_rate,
            "n_uncensored": self.n_uncensored,
            "sample_summary": {
                "count": len(self.samples),
                "capped": int(sum(self.sample_capped)),
                "mean_uncapped": float(np.mean([s for s, c in zip(self.samples, self.sample_capped) if not c]))
                if any(not c for c in self.sample_capped) else float("nan"),
            },
        }
        n_total = self.n_uncensored + self.n_censored
        cens = self.n_censored / n_total if n_total else 0.0
        return _envelope("saturation", None, self.seed, n_total, self.horizon, cens, results)

    def tables(self) -> dict:
        return {"levels": _survival_rows(self.levels, self.empirical_survival, self.reference)}

    def summary(self) -> str:
        if not self.levels:
            return f"saturation[{self.kind}]: membership_rate={self.membership_rate:.4f}"
        lv = ", ".join(f"a={a:g}: {e.mean:.4f} (ref {r:.4f})"
                       for a, e, r in zip(self.levels, self.empirical_survival, self.reference))
        return f"saturation[{self.kind}]: {lv}"


def saturation_probe(
    kind: str,
    n_paths: int,
    master_seed: int,
    horizon: float = 64.0,
    dt: float = 4e-4,
    workers: int = 1,
) -> SaturationReport:
    """Probe the ends of two random sets under Brownian paths run to T_1.

    kind='nonsaturated_zero_set': L is the last time the path sits at its
    running minimum before T_1; X_L = |B_L| = -I_{T_1} is strictly positive
    with probability 1, and its survival P(X_L >= a) = 1/(1+a) (gambler's
    ruin) is estimated at a = 1, 2, 4.  Simulation stops at the decision time
    T_1 ^ T_{-4}, which settles every level event exactly; samples from paths
    that hit the lower barrier are right-censored there and flagged.  Paths
    that reach neither barrier by the horizon are dropped (``censoring_rate``),
    about 0.75 exp(-pi^2 T / 50) of them: 2e-6 at the default T = 64 but 34%
    at T = 4.  They are the paths that wander down, so a short horizon biases
    the survival low (0.213, 0.073 and 0.059 at T = 4 against 0.5, 0.333, 0.2).

    kind='saturated_level_set': H = {t <= T_1 : B_t <= 0}; the end of the
    running-minimum set lies in H pathwise (the running minimum never exceeds
    B_0 = 0), verified for every uncensored path.
    """
    n_steps = _walk_steps(horizon, dt)
    nonsaturated = kind == "nonsaturated_zero_set"
    if not nonsaturated and kind != "saturated_level_set":
        raise ValueError(f"kind must be 'nonsaturated_zero_set' or 'saturated_level_set', got {kind!r}")
    a_max = max(_SATURATION_LEVELS)
    t_hit, stop_value, run_min = _walk(n_paths, master_seed, horizon, n_steps, workers,
                                       {"a": 1.0, "lower": -a_max} if nonsaturated else {"a": 1.0})
    ok = _stopped(t_hit, f"level 1 or {-a_max:g}") if nonsaturated else np.isfinite(t_hit)
    levels, keep = (_SATURATION_LEVELS, _KEEP_SAMPLES) if nonsaturated else ((), 0)
    neg_min = -run_min[ok]
    capped = stop_value[ok] <= -a_max
    return SaturationReport(
        kind=kind,
        levels=levels,
        empirical_survival=tuple(McEstimate.from_samples((neg_min >= a).astype(float)) for a in levels),
        reference=tuple(oracles.gamblers_ruin_down_before_up(a, 1.0) for a in levels),
        samples=tuple(float(v) for v in neg_min[:keep]),
        sample_capped=tuple(bool(c) for c in capped[:keep]),
        membership_rate=float(np.mean(run_min[ok] <= 0.0)) if ok.any() and not nonsaturated else float("nan"),
        n_uncensored=int(ok.sum()),
        n_censored=int((~ok).sum()),
        horizon=horizon,
        dt=dt,
        seed=master_seed,
    )


# ---------------------------------------------------------------------------
# tails: heavy T_a and the sigma_b expectation

#: Times t at which the heavy-tail probe estimates P(T_a > t).
_TAIL_TIMES = (1.0, 4.0, 16.0, 64.0)


@dataclass(frozen=True)
class TailReport:
    """Survival estimates across levels/times plus rule-specific extras."""

    kind: str
    levels: tuple
    empirical_survival: tuple
    reference: tuple
    extras: dict
    censoring_rate: float
    n_paths: int
    horizon: float
    dt: float
    seed: int
    warning: str = ""

    chart = _survival_chart("tail")

    def __post_init__(self):
        means = [e.mean for e in self.empirical_survival]
        if any(b > a + 1e-12 for a, b in zip(means, means[1:])):
            raise ValueError("empirical survival must be nonincreasing across levels")

    def as_report(self) -> dict:
        results = {
            "kind": self.kind,
            "levels": [
                {"at": a, "empirical_survival": e.as_dict(), "reference": r}
                for a, e, r in zip(self.levels, self.empirical_survival, self.reference)
            ],
            "extras": self.extras,
            "warning": self.warning,
        }
        return _envelope("tail", None, self.seed, self.n_paths, self.horizon,
                         self.censoring_rate, results)

    def tables(self) -> dict:
        return {"levels": _survival_rows(self.levels, self.empirical_survival, self.reference)}

    def summary(self) -> str:
        ex = self.extras
        if self.kind == "T_a_heavy_tail":
            return f"tail[T_a]: loglog slope {ex['loglog_slope']:.3f} (ref {ex['loglog_slope_reference']:.3f})"
        w = ex["wealth_estimate"]
        return f"tail[sigma_b]: E[exp(B-t/2)]={w['mean']:.4f}+-{w['stderr']:.4f} side_of_one={ex['side_of_one']}"


def tail_experiment(
    kind: str,
    n_paths: int,
    master_seed: int,
    a: float = 1.0,
    b: float = 1.0,
    horizon: float = 64.0,
    dt: float = 1e-3,
    workers: int = 1,
) -> TailReport:
    """Passage-time tails.

    kind='T_a_heavy_tail': empirical survival of T_a at those of the times
    1, 4, 16, 64 that do not pass the horizon, and the log-log slope fitted
    over the times >= 4, against the reflection oracle (slope near -1/2: T_a
    is heavy tailed with infinite mean even though the stopped exponential
    martingale is bounded).

    kind='sigma_b_expectation': estimates E[exp(B_sigma - sigma/2)] at the
    line hit sigma_b = inf{t : B_t + b t = 1} over uncensored paths.  The
    report carries the Monte Carlo value with its CI, the Laplace-transform
    reference, and which side of 1 the estimate falls on; no inequality is
    asserted.  Survival of sigma_b at doubling horizons tracks its (fast)
    transience.
    """
    n_steps = _walk_steps(horizon, dt)
    if n_paths < 2:
        raise ValueError(f"--paths {n_paths}: the survival estimates need --paths of at least 2")
    if kind == "T_a_heavy_tail":
        require_positive("a", a)
        times = [t for t in _TAIL_TIMES if t <= horizon]
        if not times:
            raise ValueError(f"--horizon {horizon} lies below every survival time {list(_TAIL_TIMES)}; "
                             f"raise it to at least {min(_TAIL_TIMES)}")
        params = {"a": a}
    elif kind == "sigma_b_expectation":
        require_positive("b", b)
        times = [horizon / 8, horizon / 4, horizon / 2, horizon]
        params = {"b": b}
    else:
        raise ValueError(f"kind must be 'T_a_heavy_tail' or 'sigma_b_expectation', got {kind!r}")
    if times[0] < dt:
        raise ValueError(f"--dt {dt} is longer than the survival time {times[0]:g}, which the walked grid "
                         f"cannot resolve: lower --dt to at most {times[0]:g}")
    t_hit, stop_value, _ = _walk(n_paths, master_seed, horizon, n_steps, workers, params)
    survival = [McEstimate.from_samples((t_hit > t).astype(float)) for t in times]
    censoring = float(np.mean(np.isinf(t_hit)))
    warning = ""
    if kind == "T_a_heavy_tail":
        refs = [oracles.level_passage_survival(a, t) for t in times]
        fit_times = [t for t in times if t >= 4.0]
        if len(fit_times) >= 2:
            xs = np.log(fit_times)
            ys = np.log([max(e.mean, 1e-12) for e, t in zip(survival, times) if t >= 4.0])
            slope = float(np.polyfit(xs, ys, 1)[0])
            slope_ref = oracles.level_passage_survival_slope(a, fit_times)
        else:
            slope = slope_ref = float("nan")
            warning = (f"no log-log slope: {len(fit_times)} survival time(s) >= 4 within horizon "
                       f"{horizon:g}, the fit needs 2 (a horizon of at least 16)")
        extras = {
            "loglog_slope": slope,
            "loglog_slope_reference": slope_ref,
            "level": a,
        }
    else:
        ok = _stopped(t_hit, f"the line B_t + b t = 1 (b={b:g})")
        est = McEstimate.from_samples(np.exp(stop_value[ok] - 0.5 * t_hit[ok]))
        refs = [oracles.drifted_line_passage_survival(b, t) for t in times]
        if b >= 0.5 and horizon >= 64.0 and censoring > 0.01:
            warning = f"censoring {censoring:.4f} exceeds 1% at b={b}"
        extras = {
            "wealth_estimate": est.as_dict(),
            "wealth_reference_laplace": oracles.stopped_exp_martingale_mean(b),
            "side_of_one": "below" if est.mean < 1.0 else "above",
            "ci_contains_one": abs(est.mean - 1.0) <= 3 * est.stderr,
            "drift": b,
        }
    return TailReport(
        kind=kind,
        levels=tuple(times),
        empirical_survival=tuple(survival),
        reference=tuple(refs),
        extras=extras,
        censoring_rate=censoring,
        n_paths=n_paths,
        horizon=horizon,
        dt=dt,
        seed=master_seed,
        warning=warning,
    )
