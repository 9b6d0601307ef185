"""Builders for the concrete process families used across the experiments.

Families
--------
* ``brownian``                    standard Brownian motion from 0
* ``brownian_stopped_level``     Brownian motion frozen at the first grid
                                  index with ``B >= a``, or ``B <= lower``
                                  when the optional ``lower < 0`` is given
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
i``) through the one keyed chunk engine of :mod:`~.experiments`, which is
called here only.  :func:`_primary_blocks` is the one block generator of the
family outputs: it turns each engine block into ``B``, ``R``, ``exp(B -
t/2)`` or ``x0/R`` in place (the Bessel norm into the first component),
applies the one stop rule, :func:`_first_stop`, holds a stopped row at its
stop inside the block, and stops drawing the row after that block.  Every
batch of :mod:`~.experiments` reduces these blocks as they come: the
first-passage walker, the class-(D) batch of the balance experiments, the
two-infinity batch and the last-visit walker (which restarts the engine's
running sums at every block).  :func:`row_passes` fills full rows from them,
one row per path and each stopped row's tail from its stop column, one pass
of at most one full-row batch at a time in one reused buffer, and
:func:`generate_rows` stacks those passes into a ``(rows, n+1)`` matrix.  A
single path is ``rows=1`` and a row does not depend on the batch it was
drawn in, so ensembles can be built in any order, split across any number of
workers, and still come out bit-identical.  :class:`~.grids.Path` objects
are built from rows only at the API edge (``simulate``, which writes each
pass before drawing the next, the ``verify`` suites, and ``decompose``'s
CSV, from the class-(D) batch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .grids import TimeGrid

__all__ = ["GeneratorSpec", "FAMILIES", "generate_rows", "row_passes"]

#: family -> (required params, optional params)
FAMILIES: dict[str, tuple[set, set]] = {
    "brownian": (set(), set()),
    "brownian_stopped_level": ({"a"}, {"lower"}),
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
        if not -math.inf < self.params.get("lower", -1.0) < 0:  # B_0 = 0 would stop at step 1
            raise ValueError(f"parameter lower must be negative and finite, got {self.params['lower']}")
        if math.sqrt((x0 := self.params.get("x0", 1.0)) * x0) != x0:  # the Bessel norm gives R_0
            raise ValueError(f"parameter x0 = {x0} is too small or large: sqrt(x0 * x0) != x0")

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
        grid = TimeGrid(float(items.pop("horizon")), int(items.pop("n_steps")))
        params = {k: float(v) for k, v in items.items()}
        return cls(family=family, params=params, grid=grid)


# ---------------------------------------------------------------------------
# blocks and rows: the keyed chunk engine of ``experiments``, one running sum per stream


def _hold(values: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Hold each row of ``values`` with ``stop >= 0`` at its column ``stop``
    from there on, in place, touching no other row; returns ``values``."""
    for r in np.flatnonzero(stop >= 0):
        values[r, stop[r] + 1:] = values[r, stop[r]]
    return values


def _first_stop(P: np.ndarray, times: np.ndarray, upper=None, lower=None, line_b=None) -> np.ndarray:
    """The stop rule of every stopped path: the first column of each row of
    ``P`` (paths at grid ``times``) where ``P >= upper`` (given an ``upper``
    level, else ``P + line_b * t >= 1``) or, given a ``lower`` level, ``P <=
    lower``; -1 for a row where none holds."""
    trig = P >= upper if upper is not None else P + line_b * times[None, :] >= 1.0
    if lower is not None:
        trig |= P <= lower
    return np.where(trig.any(axis=1), trig.argmax(axis=1), -1)


def _bessel_norm(W: np.ndarray) -> np.ndarray:
    """Euclidean norm of 3-D positions ``W`` (shape ``(..., 3)``), summing the
    squares in component order, into ``W[..., 0]`` in place; returns it."""
    R = np.multiply(W[..., 0], W[..., 0], out=W[..., 0])
    R += W[..., 1] * W[..., 1]
    R += W[..., 2] * W[..., 2]
    return np.sqrt(R, out=R)


def _primary_blocks(spec: GeneratorSpec, master_seed: int, first_index: int, rows: int, block: int,
                    retired: np.ndarray, restart: bool = False):
    """Walk ``rows`` paths of the family's primary output (``B``, ``R``,
    ``exp(B - t/2)`` or ``x0/R``) through :func:`~.experiments._keyed_chunks`,
    ``block`` grid steps at a time, one keyed stream set per path.

    Each block yields ``(step, alive, P, stop)``: the grid index before the
    block, the rows still walking, their values at grid indices ``step`` to
    ``step + cs`` (shaped ``(len(alive), cs + 1)``; column 0 comes from the
    engine and repeats the last column of the block before), and each row's
    stop column in ``P[:, 1:]``, -1 for rows that do not stop in the block.
    A stopped row is held at its stop (for ``exp_martingale``, at
    ``exp(B_s - s/2)``, what the stopped ``(B, t)`` gives from there on) and
    is not drawn after that block, so its value from there on is ``P[row,
    -1]``.  Rows the caller sets in ``retired`` are not drawn again either,
    and ``restart`` goes to the engine.  ``P`` is the engine's block (its
    component 0 for the Bessel families), transformed in place, and the next
    block overwrites it."""
    from .experiments import _keyed_chunks

    grid, p = spec.grid, spec.params
    x0 = p.get("x0")
    start = (0.0,) if x0 is None else (x0, 0.0, 0.0)
    level = p.get("a", p.get("stop_level"))
    line_b = p.get("b", p.get("stop_line_drift"))
    for step, alive, W in _keyed_chunks(master_seed, first_index, rows, start, grid.dt, grid.n_steps, block,
                                        retired, restart):
        cs = W.shape[1] - 1
        stop = np.full(alive.size, -1)
        if x0 is None:  # B_0 = 0, and exp(0 - 0/2) = 1 exactly
            P = W[:, :, 0]
            if level is not None or line_b is not None:
                stop = _first_stop(P[:, 1:], grid.times[step + 1:step + 1 + cs], upper=level,
                                   lower=p.get("lower"), line_b=line_b)
                retired[alive[stop >= 0]] = True
            if spec.family == "exp_martingale":
                np.exp(np.subtract(P, grid.times[step:step + cs + 1] / 2.0, out=P), out=P)
            _hold(P[:, 1:], stop)
        else:  # the Bessel families never stop; R_0 = sqrt(x0^2) = x0 and x0/x0 = 1 exactly
            P = _bessel_norm(W)
            if spec.family == "scale_martingale":
                np.divide(x0, P, out=P)
        yield step, alive, P, stop


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
        for step, alive, P, stop in _primary_blocks(spec, master_seed, first_index + off, len(out),
                                                    _WALK_BLOCK, np.zeros(len(out), dtype=bool)):
            end = step + P.shape[1]
            out[alive, step:end] = P
            out[alive[stop >= 0], end:] = P[stop >= 0, -1:]
        del P  # a view of this pass's block buffer: free it before the next pass draws
        yield off, out


def generate_rows(spec: GeneratorSpec, master_seed: int, first_index: int, rows: int) -> np.ndarray:
    """Batch of the family's primary output, one keyed stream set per path:
    the passes of :func:`row_passes` in one ``(rows, n+1)`` matrix."""
    out = np.empty((rows, len(spec.grid)))
    for off, R in row_passes(spec, master_seed, first_index, rows):
        out[off:off + len(R)] = R
    return out
