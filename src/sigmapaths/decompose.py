"""Multiplicative decomposition of nonnegative submartingales.

A nonnegative source path ``Y`` with ``Y_0 = 0`` factors as ``Y = M*C - 1``
with ``M`` positive (``M_0 = 1``) and ``C`` nondecreasing (``C_0 = 1``).
Given the increasing part ``ell`` of the additive decomposition of ``Y``,
the factors are explicit:

    C = exp( integral of d(ell) / (1 + Y) ),    M = (Y + 1) / C,

and equivalently ``M = exp( int dm/(1+Y) - (1/2) int d<m>/(1+Y)^2 )`` for the
martingale part ``m = Y - ell``.  When the increasing part grows only on the
zero set of the process (a zero-carried, "reflected" submartingale), the
factorization specializes to ``X = M/I - 1`` with ``I`` the running minimum
of ``M``, ``C = 1/I`` and ``A = log(1/I)``; these are the smallest members of
the family sharing a given ``M``.  :func:`sigma_example_triple` builds the
canonical ``|K|``, ``K^+`` and drawdown triples of a local martingale ``K``.
Each hypothesis (``M > 0`` with ``M_0 = 1``, ``C`` nondecreasing from 1,
``X >= 0`` from 0, ``A`` nondecreasing from 0) is written once, and its check
names the first index where it fails.

Grid conventions: the d(ell) integrand uses the left-point value of ``Y``
(a midpoint rule is available as an option); stochastic integrals are always
left-point Ito sums.  The discrete Stieltjes sum for ``int M dC`` evaluates
``M`` at the right endpoint, i.e. at the time the jump of the discrete ``C``
occurs -- this is the grid transcription of the optional projection and makes
the balance identity ``E[M_T C_T] = 1 + E[sum M dC]`` exact in expectation
for discretely sampled martingales.

The per-path class-(D) statistics come from one carried kernel,
:func:`class_d_carried`, which takes paths block by block with the bits of
one block; the balance experiments stream their paths through it, and
:func:`class_d_report` reads the vectors of :func:`class_d_finish`, joined in
path order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calculus import ito_sum, running_max, running_min, tanaka_raw
from .grids import McEstimate, Path, TimeGrid, median, require, require_nondecreasing_from

__all__ = [
    "MultDecomp",
    "SigmaTriple",
    "CarriedVerdict",
    "ClassDReport",
    "CARRIED_SCORE_THRESHOLD",
    "default_zero_threshold",
    "mult_compose",
    "mult_decompose",
    "mult_decompose_exp",
    "sigma_compose",
    "sigma_example_triple",
    "sigma_martingale",
    "carried_by_zeros",
    "minimality_gap",
]

#: Acceptance threshold for the zero-carried score.
CARRIED_SCORE_THRESHOLD = 0.05

_ADDITIVITY_TOL = 1e-10
_NEG_FLOOR = -1e-12
#: Level of the class-(D) tail-mass proxy P(M_T > level).
_TAIL_LEVEL = 10.0


def default_zero_threshold(grid: TimeGrid) -> float:
    """Default band for "the process is at zero": ``2 * sqrt(dt)``."""
    return 2.0 * float(np.sqrt(grid.dt))


def _require_unit_martingale(M: np.ndarray) -> None:
    """The martingale factor's contract: ``M > 0`` with ``M_0 = 1``."""
    bad = M <= 0
    bad[0] = M[0] != 1.0
    require(bad, "M must be positive with M_0 = 1")


def _require_nonnegative_from_zero(x: np.ndarray, name: str) -> None:
    """A source path's contract: ``x_0 = 0`` and ``x >= 0`` (to ``_NEG_FLOOR``)."""
    bad = x < _NEG_FLOOR
    bad[0] = x[0] != 0.0
    require(bad, f"{name} must be nonnegative from 0")


# ---------------------------------------------------------------------------
# containers


@dataclass(frozen=True, eq=False)
class MultDecomp:
    """Factorization ``Y = M*C - 1`` of a nonnegative source path."""

    martingale_part: Path
    increasing_part: Path
    source: Path

    def __post_init__(self):
        M, C, Y = self.martingale_part.values, self.increasing_part.values, self.source.values
        _check_factor_pair(M, C)
        require(np.abs(M * C - (Y + 1.0)) > _ADDITIVITY_TOL * np.maximum(np.abs(Y) + 1.0, 1.0),
                "M*C must reproduce Y + 1 within tolerance")


@dataclass(frozen=True, eq=False)
class SigmaTriple:
    """Additive split ``X = N + A`` of a nonnegative path whose increasing
    part is meant to grow only on the zero set of ``X``.

    Construction checks the cheap exact invariants (signs, initial values,
    exact additivity).  Whether ``A`` really is carried by the zeros of ``X``
    is a statistical statement on a grid; score it with
    :func:`carried_by_zeros` against ``zero_threshold``.
    """

    submartingale: Path
    martingale_part: Path
    increasing_part: Path
    zero_threshold: float

    def __post_init__(self):
        X, N, A = self.submartingale.values, self.martingale_part.values, self.increasing_part.values
        if not self.zero_threshold > 0:
            raise ValueError("zero_threshold must be positive")
        _require_nonnegative_from_zero(X, "X")
        require_nondecreasing_from(A, 0.0, "A")
        if N[0] != 0.0:
            raise ValueError("N must start at 0")
        require(np.abs(X - (N + A)) > _ADDITIVITY_TOL * np.maximum(np.abs(X), 1.0),
                "X = N + A must hold within tolerance")


@dataclass(frozen=True)
class CarriedVerdict:
    """Fraction of A-increase falling where X is away from zero."""

    score: float
    carried: bool
    epsilon: float
    threshold: float


@dataclass(frozen=True)
class ClassDReport:
    """Horizon-truncated integrability diagnostics for an ensemble of
    positive martingale paths ``M`` with ``C = 1/I``.

    The four estimates are finite-horizon stand-ins for the limit quantities
    in the equivalences "Y of class (D)" <=> "E[M C] finite" <=> "E[int M dC]
    finite", and for the L^2 criterion through ``U = int dM/M``.  Uniform
    integrability itself is not testable from finitely many sampled paths;
    ``e_mean_drift`` (E[M_T] - 1) and ``tail_mass`` (P(M_T > 10)) are
    reported as labeled proxies only.
    """

    horizon: float
    n_paths: int
    e_mc: McEstimate
    e_int: McEstimate
    e_log_inv_i: McEstimate
    e_qv_u: McEstimate
    pathwise_log_identity_median_err: float
    pathwise_inf_identity_median_err: float
    e_int_left: McEstimate
    e_mean_drift: float
    tail_mass: float

    def as_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "n_paths": self.n_paths,
            "e_mc": self.e_mc.as_dict(),
            "e_int": self.e_int.as_dict(),
            "e_log_inv_i": self.e_log_inv_i.as_dict(),
            "e_qv_u": self.e_qv_u.as_dict(),
            "pathwise_log_identity_median_err": self.pathwise_log_identity_median_err,
            "pathwise_inf_identity_median_err": self.pathwise_inf_identity_median_err,
            "e_int_left": self.e_int_left.as_dict(),
            "ui_proxies": {
                "e_mean_drift": self.e_mean_drift,
                "tail_level": _TAIL_LEVEL,
                "tail_mass": self.tail_mass,
            },
        }


# ---------------------------------------------------------------------------
# operations


def mult_compose(M: Path, C: Path) -> Path:
    """Source path ``Y = M*C - 1`` from an admissible factor pair."""
    _check_factor_pair(M.values, C.values)
    # M*C >= 1 was checked to 1e-12; clamp the sub-ulp negatives so the
    # nonnegativity post-condition holds exactly.
    Y = np.maximum(M.values * C.values - 1.0, 0.0)
    return M.with_values(Y, label=f"compose({M.label},{C.label})")


def _check_factor_pair(M: np.ndarray, C: np.ndarray) -> None:
    _require_unit_martingale(M)
    require_nondecreasing_from(C, 1.0, "C")
    require(M * C < 1.0 - 1e-12, "M*C must stay >= 1")


def mult_decompose(Y: Path, ell: Path, integrand_rule: str = "left") -> MultDecomp:
    """Recover the factor pair of ``Y`` from its increasing part ``ell``.

    ``C_j = exp( sum_{i<j} d(ell)_i / (1 + Y_i) )`` with the left-point value
    of ``Y`` (default), or the midpoint average with
    ``integrand_rule='midpoint'``; then ``M = (Y + 1) / C``.
    """
    if Y.grid != ell.grid:
        raise ValueError("Y and ell live on different grids")
    y = Y.values
    _require_nonnegative_from_zero(y, "Y")
    require_nondecreasing_from(ell.values, 0.0, "ell")
    dl = np.diff(ell.values)
    if integrand_rule == "left":
        w = 1.0 / (1.0 + y[:-1])
    elif integrand_rule == "midpoint":
        w = 0.5 * (1.0 / (1.0 + y[:-1]) + 1.0 / (1.0 + y[1:]))
    else:
        raise ValueError(f"integrand_rule must be 'left' or 'midpoint', got {integrand_rule!r}")
    log_c = np.concatenate([[0.0], np.cumsum(dl * w)])
    C = np.exp(log_c)
    M = (y + 1.0) / C
    return MultDecomp(
        martingale_part=Y.with_values(M, label=f"M({Y.label})"),
        increasing_part=Y.with_values(C, label=f"C({Y.label})"),
        source=Y,
    )


def mult_decompose_exp(m: Path, Y: Path) -> Path:
    """Martingale factor via the exponential formula.

    ``M = exp( int dm/(1+Y) - (1/2) int d<m>/(1+Y)^2 )`` with left-point
    sums; agrees with the ``(Y+1)/C`` form under grid refinement.
    """
    if m.grid != Y.grid:
        raise ValueError("m and Y live on different grids")
    if m.values[0] != 0.0:
        raise ValueError("m_0 must equal 0")
    w = 1.0 / (1.0 + Y.values)
    drift_arg = ito_sum(w, m.values)
    dm = np.diff(m.values)
    qv_part = np.concatenate([[0.0], np.cumsum(dm * dm * w[:-1] * w[:-1])])
    return Y.with_values(np.exp(drift_arg - 0.5 * qv_part), label=f"M_exp({Y.label})")


def sigma_compose(M: Path) -> SigmaTriple:
    """Zero-carried triple generated by a positive martingale path.

    ``X = M/I - 1`` with ``I`` the running minimum, ``A = log(1/I)``,
    ``N = X - A`` (so additivity is exact; the stochastic-integral form of
    ``N`` is a consistency diagnostic, not the stored value).
    """
    v = M.values
    _require_unit_martingale(v)
    I = running_min(v)
    X = v / I - 1.0
    A = -np.log(I)
    A = np.maximum.accumulate(np.maximum(A, 0.0))  # exact-zero start, monotone under rounding
    N = X - A
    return SigmaTriple(
        submartingale=M.with_values(X, label=f"X({M.label})"),
        martingale_part=M.with_values(N, label=f"N({M.label})"),
        increasing_part=M.with_values(A, label=f"A({M.label})"),
        zero_threshold=default_zero_threshold(M.grid),
    )


def sigma_example_triple(K: Path, kind: str) -> SigmaTriple:
    """Canonical zero-carried triples built from a local-martingale path ``K``.

    kind='abs':      X = |K|,        A = Tanaka local time L,  N = X - A
    kind='pos_part': X = max(K, 0),  A = L / 2,                N = X - A
    kind='drawdown': X = max(K) - K, A = running max of K,     N = X - A (= -K)

    ``X = N + A`` holds exactly by construction in all three cases.
    """
    if K.values[0] != 0.0:
        raise ValueError("sigma_example_triple requires K_0 = 0")
    v = K.values
    if kind == "abs":
        X = np.abs(v)
        A = np.maximum.accumulate(tanaka_raw(v))
    elif kind == "pos_part":
        X = np.maximum(v, 0.0)
        A = 0.5 * np.maximum.accumulate(tanaka_raw(v))
    elif kind == "drawdown":
        kbar = running_max(v)
        X = kbar - v
        A = kbar
    else:
        raise ValueError(f"kind must be 'abs', 'pos_part' or 'drawdown', got {kind!r}")
    N = X - A
    return SigmaTriple(
        submartingale=K.with_values(X, label=f"{kind}({K.label})"),
        martingale_part=K.with_values(N, label=f"N[{kind}]"),
        increasing_part=K.with_values(A, label=f"A[{kind}]"),
        zero_threshold=default_zero_threshold(K.grid),
    )


def sigma_martingale(X: Path, A: Path) -> Path:
    """Positive martingale factor ``M = (1 + X) * exp(-A)`` of a triple."""
    x, a = X.values, A.values
    _require_nonnegative_from_zero(x, "X")
    require_nondecreasing_from(a, 0.0, "A")
    return X.with_values((1.0 + x) * np.exp(-a), label=f"M({X.label})")


def carried_by_zeros(X: Path, A: Path, epsilon: float) -> CarriedVerdict:
    """Score how much of the increase of ``A`` happens away from zeros of ``X``.

    The increment ``A_{i+1} - A_i`` lives on the step ``(t_i, t_{i+1}]``; it
    counts as off-zero only when both endpoints are outside the band
    (``X_i > eps`` and ``X_{i+1} > eps``), since a step with an endpoint
    inside the band plausibly straddles a zero.  The score is the off-zero
    increase divided by ``A_n`` (``A == 0`` scores 0), and the verdict is
    "carried" when it is at most the acceptance threshold (default 0.05).
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    a = A.values
    require_nondecreasing_from(a, a[0], "A")
    da = np.diff(a)
    x = X.values
    off_zero = (x[:-1] > epsilon) & (x[1:] > epsilon)
    total = a[-1] - a[0]
    bad = float(np.sum(da[off_zero]))
    score = bad / max(total, np.finfo(float).tiny)
    return CarriedVerdict(
        score=score,
        carried=score <= CARRIED_SCORE_THRESHOLD,
        epsilon=epsilon,
        threshold=CARRIED_SCORE_THRESHOLD,
    )


def minimality_gap(M: Path, C: Path) -> float:
    """``min_j (M_j C_j - M_j / I_j)``: slack of ``(M, C)`` over the smallest
    admissible source sharing the martingale part ``M``.

    Nonnegative (up to rounding) for every admissible pair, and exactly 0
    when ``C = 1/I``: the slack is evaluated as ``M * (C - 1/I)`` so the
    minimal choice cancels bit-for-bit.  The start point is excluded from the
    minimum (both sources vanish there by construction, which would mask
    strict inflation).
    """
    _check_factor_pair(M.values, C.values)
    I = running_min(M.values)
    return float(np.min((M.values * (C.values - 1.0 / I))[1:]))


# ---------------------------------------------------------------------------
# class-(D) diagnostics


def class_d_start(rows: int) -> np.ndarray:
    """Carried class-(D) state of ``rows`` paths at ``M_0 = 1``, for
    :func:`class_d_carried`: per path (columns), the running minimum ``I``, the
    sums of ``u = dM/M`` and of ``u**2`` (started at -0.0, the exact additive
    identity), the minimum of ``drift = sum u - sum u**2 / 2`` and the maximum
    of ``|drift - log M|`` (both started at their value 0 at index 0), and the
    last ``M``."""
    return np.repeat(np.array([[1.0], [-0.0], [-0.0], [0.0], [0.0], [1.0]]), rows, axis=1)


def class_d_carried(M: np.ndarray, carry: np.ndarray, work: np.ndarray) -> tuple[np.ndarray, ...]:
    """Class-(D) sums over one block of longer positive M-paths, with carried
    state.

    ``M[:, 0]`` is each path at the grid index before the block and ``M[:,
    1:]`` the block; ``carry`` (from :func:`class_d_start`) moves to the block's
    end in place.  Each running sum is folded into the block's first term
    before one sequential cumsum, and the minima and maxima are exact, so a
    path split into any blocks gets the bits of one block.  The Stieltjes
    terms ``M_{j+1} dC_j`` and ``M_j dC_j`` of ``C = 1/I`` are +0.0 unless
    ``I`` falls: returns ``(r, j, terms)``, the row and column of each step
    where it falls and the two terms there (``terms`` is ``(2, len(r))``).
    ``work`` holds ``2 * (M.size - len(M))`` values.  ``M`` is only read."""
    low = M[:, 1:].min(axis=1)
    if not np.all(low > 0):
        raise ValueError("every path must stay positive")
    i_min, sum_u, qv, drift_min, err_log, m_last = carry
    rows, cs = M.shape[0], M.shape[1] - 1
    fall = np.flatnonzero(low < i_min)  # the rows that set a new low in this block
    I = work[:fall.size * (cs + 1)].reshape(fall.size, cs + 1)
    I[:, 0] = i_min[fall]
    I[:, 1:] = M[fall, 1:]
    np.minimum.accumulate(I, axis=1, out=I)
    i_min[fall] = I[:, -1]
    r, j = np.nonzero(I[:, 1:] < I[:, :-1])
    dC = 1.0 / I[r, j + 1] - 1.0 / I[r, j]
    r = fall[r]
    terms = np.stack([M[r, j + 1] * dC, M[r, j] * dC])
    u = np.subtract(M[:, 1:], M[:, :-1], out=work[:rows * cs].reshape(rows, cs))  # u, then the drift
    u /= M[:, :-1]
    QV = np.multiply(u, u, out=work[rows * cs:2 * rows * cs].reshape(rows, cs))
    QV[:, 0] += qv
    np.cumsum(QV, axis=1, out=QV)
    qv[...] = QV[:, -1]
    u[:, 0] += sum_u
    drift = np.cumsum(u, axis=1, out=u)
    sum_u[...] = drift[:, -1]
    QV *= 0.5
    drift -= QV
    np.minimum(drift_min, drift.min(axis=1), out=drift_min)
    drift -= np.log(M[:, 1:], out=QV)
    np.maximum(err_log, np.abs(drift, out=drift).max(axis=1), out=err_log)
    m_last[...] = M[:, -1]
    return r, j, terms


def class_d_finish(carry: np.ndarray, terms: np.ndarray) -> tuple[np.ndarray, ...]:
    """The per-path class-(D) statistics ``(mc, int_right, int_left,
    log_inv_i, qv_u, err_log, err_inf, m_T)``, vectors of length ``rows``,
    from the carried state at the horizon and the full ``(2, rows, n)`` rows
    of Stieltjes terms (zero where ``I`` does not fall), each summed once
    along its row."""
    i_min, _, qv, drift_min, err_log, m_T = carry
    log_inv_i = -np.log(i_min)
    mc = m_T * (1.0 / i_min)
    int_right = 1.0 + np.sum(terms[0], axis=1)
    int_left = 1.0 + np.sum(terms[1], axis=1)
    err_inf = np.abs(log_inv_i + drift_min)  # the drift minimum includes drift_0 = 0
    return mc, int_right, int_left, log_inv_i, qv.copy(), err_log.copy(), err_inf, m_T.copy()


def class_d_report(stats: Sequence[np.ndarray], grid: TimeGrid) -> ClassDReport:
    """Report from the eight per-path vectors of :func:`class_d_finish`, each
    joined over the ensemble in path order; none of them is copied."""
    mc, int_right, int_left, log_inv_i, qv_u, err_log, err_inf, m_T = stats
    n = mc.size
    if n < 2:
        raise ValueError("need at least 2 paths")
    return ClassDReport(
        horizon=grid.horizon,
        n_paths=n,
        e_mc=McEstimate.from_samples(mc),
        e_int=McEstimate.from_samples(int_right),
        e_log_inv_i=McEstimate.from_samples(log_inv_i),
        e_qv_u=McEstimate.from_samples(qv_u),
        pathwise_log_identity_median_err=median(err_log),
        pathwise_inf_identity_median_err=median(err_inf),
        e_int_left=McEstimate.from_samples(int_left),
        e_mean_drift=float(np.mean(m_T) - 1.0),
        tail_mass=float(np.mean(m_T > _TAIL_LEVEL)),
    )
