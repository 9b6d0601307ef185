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

Every generator returns a ``(rows, n+1)`` matrix, one row per path, and draws
each row from its own keyed stream (path index ``first_index + i``).  A
single path is ``rows=1`` and a row does not depend on the batch it was
drawn in, so ensembles can be built in any order, split across any number
of workers, and still come out bit-identical.  :class:`~.grids.Path` objects
are built from rows only at the API edge (``simulate``, the ``verify``
suites).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .grids import TimeGrid, make_grid
from .streams import StreamKey, standard_normal_block

__all__ = [
    "GeneratorSpec",
    "FAMILIES",
    "brownian_rows",
    "bessel3_rows",
    "stop_at_mask_rows",
    "generate_rows",
]

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
            if k in _POSITIVE_PARAMS and not v > 0:
                raise ValueError(f"parameter {k} must be positive, got {v}")

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
# row generators: one keyed stream per path, rows stacked in path order


def _normal_rows(master_seed: int, first_index: int, rows: int, substream: int, n: int) -> np.ndarray:
    out = np.empty((rows, n))
    for i in range(rows):
        out[i] = standard_normal_block(StreamKey(master_seed, first_index + i, substream), n)
    return out


def brownian_rows(grid: TimeGrid, master_seed: int, first_index: int, rows: int, substream: int = 0) -> np.ndarray:
    """(rows, n+1) Brownian paths; row i uses path_index = first_index + i."""
    out = np.empty((rows, grid.n_steps + 1))
    out[:, 0] = 0.0
    inc = _normal_rows(master_seed, first_index, rows, substream, grid.n_steps)
    inc *= np.sqrt(grid.dt)
    np.cumsum(inc, axis=1, out=out[:, 1:])
    return out


def bessel3_rows(grid: TimeGrid, x0: float, master_seed: int, first_index: int, rows: int) -> np.ndarray:
    """(rows, n+1) Bessel(3) paths from x0 via three component substreams."""
    if not x0 > 0:
        raise ValueError(f"x0 must be positive, got {x0}")
    sq = None
    for comp in range(3):
        inc = _normal_rows(master_seed, first_index, rows, comp, grid.n_steps)
        inc *= np.sqrt(grid.dt)
        w = np.cumsum(inc, axis=1)
        if comp == 0:
            w += x0
        sq = w * w if sq is None else sq + w * w
        del inc, w
    out = np.empty((rows, grid.n_steps + 1))
    out[:, 0] = x0
    np.sqrt(sq, out=out[:, 1:])
    return out


def stop_at_mask_rows(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Freeze each row at its first True in ``mask``.

    Returns the frozen matrix and per-row stop indices (the final index for
    rows that never trigger, which leaves them unchanged).
    """
    n_last = values.shape[1] - 1
    any_hit = mask.any(axis=1)
    stop = np.where(any_hit, mask.argmax(axis=1), n_last)
    idx = np.minimum(np.arange(values.shape[1])[None, :], stop[:, None])
    frozen = np.take_along_axis(values, idx, axis=1)
    return frozen, stop


def generate_rows(spec: GeneratorSpec, master_seed: int, first_index: int, rows: int) -> np.ndarray:
    """Batch of the family's primary output, one keyed stream set per path."""
    grid = spec.grid
    fam = spec.family
    if fam == "brownian":
        return brownian_rows(grid, master_seed, first_index, rows)
    if fam == "brownian_stopped_level":
        B = brownian_rows(grid, master_seed, first_index, rows)
        frozen, _ = stop_at_mask_rows(B, B >= spec.params["a"])
        return frozen
    if fam == "brownian_drift_stopped_line":
        B = brownian_rows(grid, master_seed, first_index, rows)
        line = B + spec.params["b"] * grid.times[None, :]
        frozen, _ = stop_at_mask_rows(B, line >= 1.0)
        return frozen
    if fam == "exp_martingale":
        B = brownian_rows(grid, master_seed, first_index, rows)
        t = np.broadcast_to(grid.times, B.shape)
        if "stop_level" in spec.params:
            B, stop = stop_at_mask_rows(B, B >= spec.params["stop_level"])
            t = np.minimum(grid.times[None, :], grid.times[stop][:, None])
        elif "stop_line_drift" in spec.params:
            line = B + spec.params["stop_line_drift"] * grid.times[None, :]
            B, stop = stop_at_mask_rows(B, line >= 1.0)
            t = np.minimum(grid.times[None, :], grid.times[stop][:, None])
        M = np.exp(B - t / 2.0)
        M[:, 0] = 1.0
        return M
    if fam == "bessel3":
        return bessel3_rows(grid, spec.params["x0"], master_seed, first_index, rows)
    if fam == "scale_martingale":
        R = bessel3_rows(grid, spec.params["x0"], master_seed, first_index, rows)
        return spec.params["x0"] / R
    raise ValueError(f"unknown family {fam!r}")
