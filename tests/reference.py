"""Independent references for the engine and reduction tests.

The row generators draw one keyed block per stream and take one cumulative
sum per row, with no chunk engine in between: they are the generators the
package used before every family was drawn through the keyed chunk engine of
``experiments``.  The full-row reductions (Tanaka residual, two-infinity tile
reduction, last-visit scoring, class-(D) statistics) build one fresh array
per numpy step, as the package did before they worked in reused buffers.
The tests compare the package against both bit for bit."""

import numpy as np
from numpy.random import Generator, Philox

from sigmapaths.grids import TimeGrid
from sigmapaths.streams import StreamKey


def standard_normal_block(key: StreamKey, n: int) -> np.ndarray:
    """The first ``n`` standard normal draws of the stream ``key``."""
    return Generator(Philox(key=key.philox_key())).standard_normal(n)


def gaussian_increments(grid: TimeGrid, key: StreamKey) -> np.ndarray:
    """Brownian increments for ``grid``: n i.i.d. N(0, dt) draws of the stream ``key``."""
    return standard_normal_block(key, grid.n_steps) * np.sqrt(grid.dt)


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
        B, stop = stop_at_mask_rows(B, (B >= level) | (B <= spec.params.get("lower", -np.inf)))
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


# ---------------------------------------------------------------------------
# full-row reductions as the package computed them with one fresh array per
# numpy step; the in-place kernels must equal them bit for bit


def _with_zero_start(increments: np.ndarray) -> np.ndarray:
    """Cumulative sum with a 0 prepended along the last axis."""
    out = np.zeros(increments.shape[:-1] + (increments.shape[-1] + 1,))
    np.cumsum(increments, axis=-1, out=out[..., 1:])
    return out


def ito_sum(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Left-point stochastic sum of ``h`` against increments of ``x``."""
    return _with_zero_start(h[..., :-1] * np.diff(x, axis=-1))


def tanaka_raw(k: np.ndarray) -> np.ndarray:
    """Tanaka residual ``|K_j| - |K_0| - sum_{i<j} sgn(K_i) dK_i``, sgn(0) = -1."""
    sgn = np.where(k > 0, 1.0, -1.0)
    return np.abs(k) - np.abs(k[..., :1]) - ito_sum(sgn, k)


def two_infinity_reduce(R: np.ndarray, level: float, h_indices) -> tuple[np.ndarray, np.ndarray]:
    """Per path of a Bessel(3) tile ``R``: |M - 2I| at each horizon index, and
    the x-range violation."""
    S = 1.0 - level / R
    X = np.maximum(S, 0.0)
    A = 0.5 * np.maximum.accumulate(tanaka_raw(S), axis=-1)
    M = (1.0 + X) * np.exp(-A)
    gaps = np.abs(M - 2.0 * np.minimum.accumulate(M, axis=-1))
    violation = np.maximum(np.max(X - 1.0, axis=1, initial=0.0), -S[:, 0])
    return gaps[:, h_indices], violation


def revisit_reduce(R: np.ndarray, level: float, t_idx: int, bessel: bool) -> tuple[np.ndarray, ...]:
    """The last-visit walker's scoring of full ``(rows, n+1)`` state rows in
    one block: (state at ``t_idx``, survival score, ambiguous flag,
    correction mass).  A row that crosses the level after ``t_idx`` scores 1;
    any other scores ``min(num/den, 1)`` at the horizon, with ``(num, den) =
    (level, R)`` for Bessel(3) and ``(M, level)`` for ``exp_martingale``, and
    counts as escaped (not ambiguous) when ``den >= 8 num``."""
    rel = R[:, t_idx:] - level
    crossed = (rel[:, :-1] * rel[:, 1:] <= 0).any(axis=1)
    num, den = (level, R[:, -1]) if bessel else (R[:, -1], level)
    resid = np.minimum(num / den, 1.0)
    live = ~crossed & ~(den >= 8.0 * num)
    score = np.where(crossed, 1.0, resid)
    return R[:, t_idx].copy(), score, live & (score > 0.5), np.where(crossed, 0.0, resid)


def class_d_path_stats(M: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per-path class-(D) statistics ``(mc, int_right, int_left, log_inv_i,
    qv_u, err_log, err_inf, m_T)`` of ``(rows, n+1)`` positive M-paths."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("each batch must be a 2-D (paths, points) array")
    if np.any(M[:, 0] != 1.0):
        raise ValueError("every path must start at M_0 = 1")
    if np.any(M <= 0):
        raise ValueError("every path must stay positive")
    I = np.minimum.accumulate(M, axis=-1)
    log_inv_i = -np.log(I[:, -1])
    C = 1.0 / I
    dC = np.diff(C, axis=1)
    mc = M[:, -1] * C[:, -1]
    int_right = 1.0 + np.sum(M[:, 1:] * dC, axis=1)
    int_left = 1.0 + np.sum(M[:, :-1] * dC, axis=1)
    u_inc = np.diff(M, axis=1)
    u_inc /= M[:, :-1]
    QV = np.cumsum(u_inc * u_inc, axis=1)
    drift = np.cumsum(u_inc, axis=1)
    drift -= 0.5 * QV
    qv_u = QV[:, -1].copy()
    err_inf = np.abs(log_inv_i + np.minimum(np.min(drift, axis=1), 0.0))  # drift_0 = 0
    drift -= np.log(M[:, 1:])
    err_log = np.max(np.abs(drift), axis=1, initial=0.0)  # |drift_0 - log M_0| = 0
    return mc, int_right, int_left, log_inv_i, qv_u, err_log, err_inf, M[:, -1].copy()
