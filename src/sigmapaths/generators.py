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

Every path is drawn from its own keyed streams (path index ``first_index +
i``) by the one keyed chunk engine, ``experiments._keyed_chunks``, from
the start :func:`_family_start` gives, and the engine hands each block of
positions to :func:`_family_block`.  That pure function turns the block
into ``B``, ``R``, ``exp(B - t/2)`` or ``x0/R`` in place
(the Bessel norm into the first component), applies the one stop rule,
:func:`_first_stop`, and holds a stopped row at its stop inside the block;
the engine stops drawing the row after that block.  A spec holds exactly
the parameters its family takes (``FAMILIES``); which command-line options
become them is ``cli``'s rule.  This module imports only :mod:`~.grids`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .grids import TimeGrid, require_positive

__all__ = ["GeneratorSpec", "FAMILIES"]

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
        for k in sorted(given & _POSITIVE_PARAMS):
            require_positive(f"parameter {k}", self.params[k])
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
    def from_config(cls, cfg: Mapping[str, str]) -> "GeneratorSpec":
        items = dict(cfg)
        family = items.pop("family")
        grid = TimeGrid(float(items.pop("horizon")), int(items.pop("n_steps")))
        params = {k: float(v) for k, v in items.items()}
        return cls(family=family, params=params, grid=grid)


# ---------------------------------------------------------------------------
# family blocks: what each block of the keyed chunk engine of ``experiments`` becomes


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


def _family_start(spec: GeneratorSpec) -> tuple[float, ...]:
    """The start of the keyed positions ``spec``'s family is drawn from:
    ``(x0, 0, 0)`` for the Bessel families (3 components), else ``(0,)``."""
    x0 = spec.params.get("x0")
    return (0.0,) if x0 is None else (x0, 0.0, 0.0)


def _family_block(spec: GeneratorSpec, step: int, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One engine block ``W`` of ``spec``'s keyed positions, as
    ``experiments._keyed_chunks`` draws it (grid indices ``step`` to ``step +
    cs``), turned in place into the family's output: ``B``, ``R``, ``exp(B -
    t/2)`` or ``x0/R`` (the Bessel norm into the first component).

    Returns ``(P, stop)``: the output, shaped ``(len(W), cs + 1)``, and each
    row's stop column in ``P[:, 1:]`` by :func:`_first_stop`, -1 for rows
    that do not stop in the block.  A stopped row is held at its stop (for
    ``exp_martingale``, at ``exp(B_s - s/2)``, what the stopped ``(B, t)``
    gives from there on), so its value from there on is ``P[row, -1]``."""
    p, times = spec.params, spec.grid.times
    cs = W.shape[1] - 1
    stop = np.full(len(W), -1)
    if "x0" in p:  # the Bessel families never stop; R_0 = sqrt(x0^2) = x0 and x0/x0 = 1 exactly
        P = _bessel_norm(W)
        if spec.family == "scale_martingale":
            np.divide(p["x0"], P, out=P)
        return P, stop
    P = W[:, :, 0]  # B_0 = 0, and exp(0 - 0/2) = 1 exactly
    level = p.get("a", p.get("stop_level"))
    line_b = p.get("b", p.get("stop_line_drift"))
    if level is not None or line_b is not None:
        stop = _first_stop(P[:, 1:], times[step + 1:step + 1 + cs], upper=level, lower=p.get("lower"),
                           line_b=line_b)
    if spec.family == "exp_martingale":
        np.exp(np.subtract(P, times[step:step + cs + 1] / 2.0, out=P), out=P)
    _hold(P[:, 1:], stop)
    return P, stop
