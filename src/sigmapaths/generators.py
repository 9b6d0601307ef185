"""Builders for the concrete process families used across the experiments.

Families
--------
* ``brownian``                    standard Brownian motion from 0
* ``brownian_stopped_level``     Brownian motion frozen at the first grid
                                  index with ``B >= a``
* ``brownian_drift_stopped_line`` Brownian motion frozen at the first grid
                                  index with ``B + b t >= 1``
* ``exp_martingale``             ``exp(B_t - t/2)``, optionally on a stopped
                                  Brownian path (``t`` stops with it)
* ``bessel3``                    Euclidean norm of a 3-D Brownian motion
                                  started at ``(x0, 0, 0)`` -- exact in law at
                                  the grid points, no singularity handling
* ``scale_martingale``           ``x0 / R_t`` for a Bessel(3) path ``R``: the
                                  scale-function martingale normalized to 1

Every row is drawn from its own keyed streams (path index ``first_index +
i``) through the one keyed chunk engine of :mod:`~.experiments`, with the
stop rule the first-passage walker uses.  :func:`_primary_blocks` is the one
block generator of the family outputs: it yields each block of ``B``, ``R``,
``exp(B - t/2)`` or ``x0/R``, holds a stopped row at its stop inside the
block, and stops drawing the row after that block.  Every batch of
:mod:`~.experiments` but the first-passage walker reduces these blocks as
they come: the class-(D) batch of the balance experiments, the two-infinity
batch and the last-visit walker (which restarts the engine's running sums at
every block).  :func:`row_passes` fills full rows from them, one row per
path and each stopped row's tail from its stop column, one pass of at most
one full-row batch at a time in one reused buffer, and :func:`generate_rows`
stacks those passes into a ``(rows, n+1)`` matrix.  A single path is
``rows=1`` and a row does not depend on the batch it was drawn in, so
ensembles can be built in any order, split across any number of workers,
and still come out bit-identical.  :class:`~.grids.Path` objects are built
from rows only at the API edge (``simulate``, which writes each pass before
drawing the next, ``decompose``'s CSV, the ``verify`` suites).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .grids import TimeGrid, make_grid

__all__ = ["GeneratorSpec", "FAMILIES", "generate_rows", "row_passes"]

#: family -> (required params, optional params)
FAMILIES: dict[str, tuple[set, set]] = {
    "brownian": (set(), set()),
    "brownian_stopped_level": ({"a"}, set()),
    "brownian_drift_stopped_line": ({"b"}, set()),
    "exp_martingale": (set(), {"stop_level", "stop_line_drift"}),
    "bessel3": ({"x0"}, set()),
    "scale_martingale": ({"x0"}, set()),
}

_POSITIVE_PARAMS = {"a", "b", "x0", "stop_level", "stop_line_drift"}


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """A process family with its parameters and the grid it runs on."""

    family: str
    params: dict = field(default_factory=dict)
    grid: TimeGrid = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; known: {sorted(FAMILIES)}")
        if self.grid is None:
            raise ValueError("spec requires a grid")
        required, optional = FAMILIES[self.family]
        given = set(self.params)
        missing = required - given
        if missing:
            raise ValueError(f"{self.family} requires parameters {sorted(missing)}")
        unknown = given - required - optional
        if unknown:
            raise ValueError(f"{self.family} does not accept {sorted(unknown)}")
        if self.family == "exp_martingale" and {"stop_level", "stop_line_drift"} <= given:
            raise ValueError("exp_martingale accepts at most one stopping rule")
        for k, v in self.params.items():
            if k in _POSITIVE_PARAMS and not 0 < v < math.inf:
                raise ValueError(f"parameter {k} must be positive and finite, got {v}")

    def to_config(self) -> dict[str, str]:
        """Flat key-value form (echoed into reports)."""
        cfg = {
            "family": self.family,
            "horizon": repr(self.grid.horizon),
            "n_steps": str(self.grid.n_steps),
        }
        for k in sorted(self.params):
            cfg[k] = repr(float(self.params[k]))
        return cfg

    @classmethod
    def from_options(cls, family: str, grid: TimeGrid, **options: float) -> "GeneratorSpec":
        """Spec from option values that span every family, as the CLI has
        them: the family's required parameters that are given, and its
        optional ones that are not 0 (0 means off)."""
        required, optional = FAMILIES.get(family, (set(), set()))
        params = {k: v for k, v in options.items() if k in required or (k in optional and v != 0)}
        return cls(family, params, grid)

    @classmethod
    def from_config(cls, cfg: Mapping[str, str]) -> "GeneratorSpec":
        items = dict(cfg)
        family = items.pop("family")
        grid = make_grid(float(items.pop("horizon")), int(items.pop("n_steps")))
        params = {k: float(v) for k, v in items.items()}
        return cls(family=family, params=params, grid=grid)


# ---------------------------------------------------------------------------
# blocks and rows: the keyed chunk engine of ``experiments``, one running sum per stream


def _freeze(values: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Hold each row of ``values`` at its value in column ``stop`` from there
    on, in place; returns ``values``."""
    held = values[np.arange(len(values)), stop][:, None]
    np.copyto(values, held, where=np.arange(values.shape[1]) > stop[:, None])
    return values


def _bessel_norm(W: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Euclidean norm of 3-D positions ``W`` (shape ``(..., 3)``) into ``out``,
    summing the squares in component order; returns ``out``."""
    np.multiply(W[..., 0], W[..., 0], out=out)
    out += W[..., 1] * W[..., 1]
    out += W[..., 2] * W[..., 2]
    return np.sqrt(out, out=out)


def _primary_blocks(spec: GeneratorSpec, master_seed: int, first_index: int, rows: int, block: int,
                    retired: np.ndarray, restart: bool = False):
    """Walk ``rows`` paths of the family's primary output (``B``, ``R``,
    ``exp(B - t/2)`` or ``x0/R``) through :func:`~.experiments._keyed_chunks`,
    ``block`` grid steps at a time, one keyed stream set per path.

    Each block yields ``(step, alive, P, stopped)``: the grid index before the
    block, the rows still walking, their values at grid indices ``step`` to
    ``step + cs`` (shaped ``(len(alive), cs + 1)``, so column 0 repeats the
    last column of the block before), and which of them stop in the block.  A
    stopped row is held at its stop column (for ``exp_martingale``, at
    ``exp(B_s - s/2)``, what the stopped ``(B, t)`` gives from there on) and
    is not drawn after that block, so its value from there on is ``P[stopped,
    -1]``.  Rows the caller sets in ``retired`` are not drawn again either,
    and ``restart`` goes to the engine.  ``P`` lives in a buffer that the
    next block overwrites."""
    from .experiments import _first_stop, _keyed_chunks

    grid, p = spec.grid, spec.params
    x0 = p.get("x0")
    start = (0.0,) if x0 is None else (x0, 0.0, 0.0)
    level = p.get("a", p.get("stop_level"))
    line_b = p.get("b", p.get("stop_line_drift"))
    stops = level is not None or line_b is not None
    # B_0 = 0 and R_0 = x0; both martingales start at 1, exp(0 - 0/2) and x0/x0 exactly
    last = np.full(rows, 1.0 if spec.family in ("exp_martingale", "scale_martingale") else start[0])
    buf = np.empty(rows * (min(block, grid.n_steps) + 1))
    for step, alive, W in _keyed_chunks(master_seed, first_index, rows, start, grid.dt, grid.n_steps, block,
                                        retired, restart):
        cs = W.shape[1]
        t = grid.times[step + 1:step + 1 + cs]
        P = buf[:alive.size * (cs + 1)].reshape(alive.size, cs + 1)
        P[:, 0] = last[alive]
        V = P[:, 1:]
        stopped = np.zeros(alive.size, dtype=bool)
        if x0 is None:
            B = W[:, :, 0]
            if stops:
                stopped, at = _first_stop(B, t, upper=level, line_b=line_b)
            if spec.family == "exp_martingale":
                np.exp(np.subtract(B, t / 2.0, out=V), out=V)
            else:
                V[...] = B
            if stops:
                _freeze(V, at)
                retired[alive[stopped]] = True
        else:  # the Bessel families never stop
            _bessel_norm(W, V)
            if spec.family == "scale_martingale":
                np.divide(x0, V, out=V)
        last[alive] = V[:, -1]
        yield step, alive, P, stopped


def row_passes(spec: GeneratorSpec, master_seed: int, first_index: int, rows: int):
    """The rows of :func:`generate_rows`, in passes of at most one full-row
    batch (``_batch_rows(len(grid))`` rows).

    Each pass yields ``(off, R)``: the offset of its first row from
    ``first_index`` and its rows, walked by :func:`_primary_blocks` in
    ``_WALK_BLOCK`` blocks, so each row equals one cumulative sum of its
    streams bit for bit.  A stopped row stops drawing after the block that
    holds its stop, and its tail is filled from the stop column.  ``R`` lives
    in one buffer that the next pass overwrites, so the passes hold one
    pass's rows at a time, however many there are."""
    from .experiments import _WALK_BLOCK, _batch_rows

    bound = _batch_rows(len(spec.grid))
    buf = np.empty((min(bound, rows), len(spec.grid)))
    for off in range(0, rows, bound):
        out = buf[:min(bound, rows - off)]
        for step, alive, P, stopped in _primary_blocks(spec, master_seed, first_index + off, len(out),
                                                       _WALK_BLOCK, np.zeros(len(out), dtype=bool)):
            end = step + P.shape[1]
            out[alive, step:end] = P
            out[alive[stopped], end:] = P[stopped, -1:]
        del P  # a view of this pass's block buffer: free it before the next pass draws
        yield off, out


def generate_rows(spec: GeneratorSpec, master_seed: int, first_index: int, rows: int) -> np.ndarray:
    """Batch of the family's primary output, one keyed stream set per path:
    the passes of :func:`row_passes` in one ``(rows, n+1)`` matrix."""
    out = np.empty((rows, len(spec.grid)))
    for off, R in row_passes(spec, master_seed, first_index, rows):
        out[off:off + len(R)] = R
    return out
