"""Independent reference generators for the engine tests: one keyed block per
stream and one cumulative sum per row, with no chunk engine in between.

These are the row generators the package used before every family was drawn
through the keyed chunk engine of ``experiments``; the tests compare the
engine against them bit for bit."""

import numpy as np

from sigmapaths.grids import TimeGrid
from sigmapaths.streams import StreamKey, standard_normal_block


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


def reference_rows(spec, master_seed: int, first_index: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The family's rows from the generators above, and each row's stop index
    (the final index for rows that do not stop)."""
    grid = spec.grid
    fam = spec.family
    stop = np.full(rows, grid.n_steps)
    if fam in ("bessel3", "scale_martingale"):
        R = bessel3_rows(grid, spec.params["x0"], master_seed, first_index, rows)
        return (R if fam == "bessel3" else spec.params["x0"] / R), stop
    B = brownian_rows(grid, master_seed, first_index, rows)
    level = spec.params.get("a", spec.params.get("stop_level"))
    drift = spec.params.get("b", spec.params.get("stop_line_drift"))
    if level is not None:
        B, stop = stop_at_mask_rows(B, B >= level)
    elif drift is not None:
        B, stop = stop_at_mask_rows(B, B + drift * grid.times[None, :] >= 1.0)
    if fam != "exp_martingale":
        return B, stop
    if level is None and drift is None:
        t = np.broadcast_to(grid.times, B.shape)
    else:
        t = np.minimum(grid.times[None, :], grid.times[stop][:, None])
    M = np.exp(B - t / 2.0)
    M[:, 0] = 1.0
    return M, stop
