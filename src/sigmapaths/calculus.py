"""Discrete stochastic calculus on grid paths.

Two layers live here.  Array kernels (``running_min``, ``ito_sum``,
``qv_sum``, ``regulator``, ``tanaka_raw``, ``tanaka_carried``,
``occupation_sum``) operate along
the last axis of numpy arrays so ensemble code can process thousands of paths
per call.  The Path-level operations wrap those kernels with grid checks and
the container types used across the package.  This module imports only
:mod:`~.grids`; the triples built on its kernels live in :mod:`~.decompose`.

Conventions, fixed once:

* Integrals are left-point Riemann sums: ``S_{j+1} = S_j + h_j (x_{j+1} - x_j)``.
* ``sgn(0) = -1`` in the Tanaka residual, matching the left-continuous
  integrand convention on the grid.
* The Tanaka local-time estimate is clamped nondecreasing by running max;
  the raw residual stays available for diagnostics.  (With the ``sgn(0) = -1``
  convention the raw residual only grows at sign flips, so the clamp is only
  absorbing summation rounding, not discretization noise.)
* The occupation-time estimator uses the band ``(-eps, eps)`` with default
  ``eps = sqrt(dt)``.
* The Tanaka residual has a carried form, ``tanaka_carried``, which takes a
  path block by block: the sum so far is folded into each block's first
  increment before one sequential cumsum, so any split of a path gives the
  bits of one block.  ``tanaka_raw`` is its one-block case, and the
  two-infinity batch of ``experiments`` streams through it.
* Reductions (``tanaka_raw`` here; the class-(D) statistics of
  ``decompose`` and the two-infinity batch of ``experiments`` on top of these
  kernels) reuse a few buffers of their own instead of allocating one array
  per numpy step.  Each step keeps its operands and their order, so the
  results are bit-identical to the one-array-per-step form, and no kernel
  writes into an array its caller passed in other than its ``out``, ``work``
  and carried state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Path, require, require_nondecreasing_from

__all__ = [
    "ReflectionPair",
    "LocalTimeEstimate",
    "running_min",
    "running_max",
    "ito_sum",
    "qv_sum",
    "regulator",
    "tanaka_raw",
    "tanaka_carried",
    "occupation_sum",
    "running_extremum",
    "ito_integral",
    "quadratic_variation",
    "skorokhod_map",
    "local_time_tanaka",
    "local_time_occupation",
    "estimate_local_time",
]


# ---------------------------------------------------------------------------
# array kernels (last axis = time)


def running_min(a: np.ndarray) -> np.ndarray:
    return np.minimum.accumulate(a, axis=-1)


def running_max(a: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(a, axis=-1)


def _with_zero_start(increments: np.ndarray) -> np.ndarray:
    """Cumulative sum with a 0 prepended along the last axis."""
    out = np.zeros(increments.shape[:-1] + (increments.shape[-1] + 1,))
    np.cumsum(increments, axis=-1, out=out[..., 1:])
    return out


def ito_sum(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Left-point stochastic sum of ``h`` against increments of ``x``."""
    return _with_zero_start(h[..., :-1] * np.diff(x, axis=-1))


def qv_sum(x: np.ndarray) -> np.ndarray:
    """Cumulative sum of squared increments of ``x``."""
    dx = np.diff(x, axis=-1)
    return _with_zero_start(dx * dx)


def regulator(z: np.ndarray) -> np.ndarray:
    """Skorokhod regulator ``k_j = max(0, max_{i<=j}(-z_i))`` (needs z_0 = 0)."""
    return np.maximum(np.maximum.accumulate(-z, axis=-1), 0.0)


def tanaka_raw(k: np.ndarray) -> np.ndarray:
    """Tanaka residual ``|K_j| - |K_0| - sum_{i<j} sgn(K_i) dK_i``, sgn(0) = -1:
    the one-block case of :func:`tanaka_carried`."""
    k = np.asarray(k)
    out = np.empty(k.shape)
    base = np.abs(k[..., 0])
    np.subtract(base, base, out=out[..., 0])
    if k.shape[-1] > 1:
        tanaka_carried(k, base, np.full(base.shape, -0.0), out[..., 1:], np.empty(out[..., 1:].shape))
    return out


def tanaka_carried(k: np.ndarray, base, carry: np.ndarray, out: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Tanaka residual over one block of a longer path, with carried state.

    ``k[..., 0]`` is the path at the index before the block and ``k[..., 1:]``
    the block; ``base`` is ``|K_0|`` and ``carry`` the sum of ``sgn(K_i) dK_i``
    before the block, which moves to the block's end in place (start it at
    -0.0, the exact additive identity).  The carry is folded into the block's
    first increment before one sequential cumsum, so a path split into any
    blocks gets the bits of one block.  Writes the residual into ``out`` (shaped
    like ``k[..., 1:]``), with the increments in ``work``; returns ``out``."""
    ito = np.subtract(k[..., 1:], k[..., :-1], out=work)
    np.negative(ito, out=ito, where=~(k[..., :-1] > 0))  # sgn(K_i) dK_i, exactly
    ito[..., :1] += carry[..., None]
    np.cumsum(ito, axis=-1, out=ito)
    carry[...] = ito[..., -1]
    np.abs(k[..., 1:], out=out)
    out -= base[..., None]
    out -= ito
    return out


def occupation_sum(k: np.ndarray, epsilon: float, dt: float) -> np.ndarray:
    """Occupation-band local time: ``(1/2eps) * sum_{i<j} 1{|K_i| < eps} dt``."""
    inside = (np.abs(k[..., :-1]) < epsilon).astype(float)
    return _with_zero_start(inside * (dt / (2.0 * epsilon)))


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True, eq=False)
class ReflectionPair:
    """Skorokhod decomposition ``y = z + k`` of an input path ``z``."""

    regulated: Path
    regulator: Path

    def __post_init__(self):
        require(self.regulated.values < 0, "regulated path must be nonnegative")
        require_nondecreasing_from(self.regulator.values, 0.0, "regulator")


@dataclass(frozen=True, eq=False)
class LocalTimeEstimate:
    """Local time at 0 by two routes: Tanaka residual and occupation band."""

    tanaka: Path
    occupation: Path
    epsilon: float

    def __post_init__(self):
        for p in (self.tanaka, self.occupation):
            if p.values[0] != 0.0:
                raise ValueError("local time must start at 0")
            if np.any(np.diff(p.values) < -1e-12):
                raise ValueError("local time estimate must be nondecreasing")


# ---------------------------------------------------------------------------
# path-level operations


def running_extremum(path: Path, mode: str) -> Path:
    """Prefix minimum (``mode='min'``) or maximum (``mode='max'``) of a path."""
    if mode == "min":
        vals = running_min(path.values)
    elif mode == "max":
        vals = running_max(path.values)
    else:
        raise ValueError(f"mode must be 'min' or 'max', got {mode!r}")
    return path.with_values(vals, label=f"{mode}({path.label})")


def ito_integral(h: Path, x: Path) -> Path:
    """Left-point Riemann sum of ``h`` against ``dx``, as a path from 0."""
    if h.grid != x.grid:
        raise ValueError("paths live on different grids")
    return x.with_values(ito_sum(h.values, x.values), label=f"int({h.label} d{x.label})")


def quadratic_variation(x: Path) -> Path:
    """Cumulative sum of squared increments."""
    return x.with_values(qv_sum(x.values), label=f"qv({x.label})")


def skorokhod_map(z: Path) -> ReflectionPair:
    """Reflect ``z`` at 0: the unique ``k`` nondecreasing from 0 with
    ``y = z + k >= 0`` and ``k`` increasing only where ``y = 0``.

    Exact on the grid: at every index where ``k`` increases, ``y`` is 0 in
    floating point, not merely small.
    """
    if z.values[0] != 0.0:
        raise ValueError("skorokhod_map requires z_0 = 0")
    k = regulator(z.values)
    y = z.values + k
    return ReflectionPair(
        regulated=z.with_values(y, label=f"reflect({z.label})"),
        regulator=z.with_values(k, label=f"regulator({z.label})"),
    )


def local_time_tanaka(K: Path) -> Path:
    """Local time at 0 via the Tanaka residual, clamped nondecreasing."""
    L = np.maximum.accumulate(tanaka_raw(K.values))
    return K.with_values(L, label=f"tanaka({K.label})")


def local_time_occupation(K: Path, epsilon: float) -> Path:
    """Local time at 0 via normalized occupation of the band ``(-eps, eps)``."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    L = occupation_sum(K.values, epsilon, K.grid.dt)
    return K.with_values(L, label=f"occupation({K.label})")


def estimate_local_time(K: Path, epsilon: float | None = None) -> LocalTimeEstimate:
    """Both local-time estimates; ``epsilon`` defaults to ``sqrt(dt)``."""
    eps = float(np.sqrt(K.grid.dt)) if epsilon is None else epsilon
    return LocalTimeEstimate(
        tanaka=local_time_tanaka(K),
        occupation=local_time_occupation(K, eps),
        epsilon=eps,
    )
