"""Uniform time grids, the validated single-path type, Monte Carlo
estimates, and the long-form CSV path format.

Every process in this package lives on a :class:`TimeGrid`: a uniform
discretization ``0 = t_0 < t_1 < ... < t_n = T``.  A :class:`Path` holds the
sampled values at those grid points; it is the type of the API edge (the
decomposition operations and CSV files), while paths are generated as row
matrices by :func:`sigmapaths.experiments.generate_rows`.  Integrals and
hitting times downstream are always defined in terms of grid sums and grid
indices.  Hitting times are resolved at grid resolution (first grid index
at/after the crossing), with no sub-step bridge correction; the resulting
O(sqrt(dt)) first-passage bias is quantified by refinement studies in the
test suite.

The input rules the other modules share are written here once:
:func:`require`, :func:`require_nondecreasing_from`, :func:`require_positive`
and ``MAX_STEPS``, the step bound of every grid.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "TimeGrid",
    "Path",
    "McEstimate",
    "write_paths_csv",
    "read_paths_csv",
]

#: Relative tolerance, in steps, of a CSV ``t`` column against its grid.
UNIFORMITY_RTOL = 1e-9
#: Most steps of any grid: its times are then 512 MiB of float64, more than
#: the largest ``simulate`` output (50,000,000 values) needs.
MAX_STEPS = 2**26


def require(bad: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` saying ``what`` must hold, at the first index
    where ``bad`` is true."""
    i = int(np.argmax(bad))
    if bad[i]:
        raise ValueError(f"{what}; first violation at index {i}")


def require_nondecreasing_from(a: np.ndarray, start: float, name: str) -> None:
    """Raise unless ``a[0] == start`` exactly and ``a`` never decreases."""
    require(np.concatenate(([a[0] != start], a[1:] < a[:-1])), f"{name} must be nondecreasing from {start:g}")


def require_positive(name: str, value: float) -> None:
    """Raise unless ``0 < value < inf``, which ``nan`` fails too."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=float)
    if out is a:
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid ``t_0 = 0 < t_1 < ... < t_n = horizon``: two grids are
    equal when their horizon and step count are.  ``times`` is built from
    them, with its last point ``horizon`` exactly."""

    horizon: float
    n_steps: int
    times: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        require_positive("horizon", self.horizon)
        if not 1 <= self.n_steps <= MAX_STEPS:
            raise ValueError(f"n_steps must be in [1, {MAX_STEPS}] (the grid step bound), got {self.n_steps}")
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "n_steps", int(self.n_steps))
        times = np.linspace(0.0, self.horizon, self.n_steps + 1)
        times.flags.writeable = False
        object.__setattr__(self, "times", times)

    def __reduce__(self):
        # a grid pickles as its two numbers and rebuilds its read-only times
        return TimeGrid, (self.horizon, self.n_steps)

    @property
    def dt(self) -> float:
        """Step size ``horizon / n_steps``."""
        return self.horizon / self.n_steps

    def __len__(self) -> int:
        return self.n_steps + 1

    def index_at(self, t: float) -> int:
        """Grid index of the point closest to time ``t``."""
        j = int(round(t / self.dt))
        return min(max(j, 0), self.n_steps)


@dataclass(frozen=True, eq=False)
class Path:
    """A process sampled on a grid: finite values, one per grid point."""

    grid: TimeGrid
    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if len(self.values) != len(self.grid):
            raise ValueError(
                f"path has {len(self.values)} values for a grid of {len(self.grid)} points"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"path {self.label!r} contains non-finite values")

    def with_values(self, values: np.ndarray, label: str | None = None) -> "Path":
        """New path on the same grid."""
        return Path(self.grid, values, self.label if label is None else label)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with standard error of the mean."""

    mean: float
    stderr: float
    n_samples: int

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("n_samples must be >= 2")
        if not self.stderr >= 0:
            raise ValueError("stderr must be nonnegative")

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "McEstimate":
        x = np.asarray(samples, dtype=float)
        n = x.size
        if n < 2:
            raise ValueError("need at least 2 samples")
        return cls(mean=float(x.mean()), stderr=float(x.std(ddof=1) / np.sqrt(n)), n_samples=n)

    def as_dict(self) -> dict:
        return {"mean": self.mean, "stderr": self.stderr, "n_samples": self.n_samples}


# numpy's median and quantile check for NaN through ``numpy.ma``, which they import on their first call
# (1.2 MB of RSS); these two take numpy's steps on a nonempty 1-D float array, partition indices included,
# so they give its bits, and without that import.


def median(x: np.ndarray) -> float:
    """``np.median(x)``, bit for bit: NaN when ``x`` holds one."""
    n = x.size
    part = np.partition(x, [n // 2 - 1, n // 2, -1] if n % 2 == 0 else [(n - 1) // 2, -1])
    return float(part[-1] if np.isnan(part[-1]) else part[(n - 1) // 2:n // 2 + 1].mean())


def quantile(x: np.ndarray, q: float) -> float:
    """``np.quantile(x, q)`` by its default ``linear`` method, bit for bit:
    the order statistics around index ``(n - 1) * q``, numpy's two-branch
    lerp between them, and NaN when ``x`` holds one."""
    n = x.size
    at = (n - 1) * q
    lo = -1 if at >= n - 1 else math.floor(at)
    hi = -1 if lo == -1 else lo + 1
    part = np.partition(x, sorted({0, -1, lo, hi}))
    if np.isnan(part[-1]):
        return float(part[-1])
    a, b, t = float(part[lo]), float(part[hi]), at - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


# ---------------------------------------------------------------------------
# CSV path format (long form): header "path_id,t,value", one row per grid
# point, values printed with 17 significant digits, LF line endings, UTF-8.


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def write_paths_csv(paths: Iterable[Path], dest) -> None:
    """Write paths in long form CSV; ``dest`` is a path or text file object."""
    own = isinstance(dest, (str, bytes)) or hasattr(dest, "__fspath__")
    fh = open(dest, "w", encoding="utf-8", newline="\n") if own else dest
    try:
        fh.write("path_id,t,value\n")
        for i, p in enumerate(paths):
            pid = p.label or str(i)
            if any(c in pid for c in ',"\r\n'):
                raise ValueError(f"path label {pid!r} holds a comma, a double quote, a CR or a LF, "
                                 f"which the unquoted CSV format cannot read back")
            for t, v in zip(p.grid.times, p.values):
                fh.write(f"{pid},{_fmt(t)},{_fmt(v)}\n")
    finally:
        if own:
            fh.close()


def read_paths_csv(src) -> list[Path]:
    """Read paths written by :func:`write_paths_csv`.  Each path's grid is
    rebuilt from its row count and last time, and its ``t`` column must be
    that grid to ``UNIFORMITY_RTOL`` of a step."""
    own = isinstance(src, (str, bytes)) or hasattr(src, "__fspath__")
    fh = open(src, "r", encoding="utf-8", newline="") if own else src
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("empty CSV: no path_id,t,value header")
        if header != ["path_id", "t", "value"]:
            raise ValueError(f"unexpected CSV header: {header}")
        by_id: dict[str, list[tuple[float, float]]] = {}
        order: list[str] = []
        for row in reader:
            if len(row) != 3:
                raise ValueError(f"line {reader.line_num}: {len(row)} fields, expected 3 (path_id,t,value)")
            pid, t, v = row
            if pid not in by_id:
                by_id[pid] = []
                order.append(pid)
            by_id[pid].append((float(t), float(v)))
    finally:
        if own:
            fh.close()
    out = []
    grid_cache: dict[tuple, TimeGrid] = {}
    for pid in order:
        rows = by_id[pid]
        times = np.array([r[0] for r in rows])
        values = np.array([r[1] for r in rows])
        key = (len(times), times[-1])
        grid = grid_cache.get(key)
        if grid is None:
            grid = TimeGrid(times[-1], len(times) - 1)
            grid_cache[key] = grid
        if np.max(np.abs(times - grid.times)) > UNIFORMITY_RTOL * grid.dt:
            raise ValueError(f"path {pid!r}: its t column is not the uniform grid of {grid.n_steps} steps "
                             f"on [0, {grid.horizon!r}]")
        out.append(Path(grid, values, label=pid))
    return out
