"""Randomized property suites behind ``sigmapaths verify``.

Each suite draws a deterministic batch of random and adversarial inputs from
a named seed and checks the exact grid-level contracts: reflection
exactness, minimality of the zero-carried source, algebraic roundtrips, and
zero-set equalities.  Suites return ``(ok, detail)`` so the CLI can print one
line per suite and map failures to its acceptance exit code.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .calculus import ito_integral, regulator
from .decompose import (
    carried_by_zeros,
    minimality_gap,
    sigma_compose,
    sigma_example_triple,
    sigma_martingale,
)
from .experiments import generate_rows
from .generators import GeneratorSpec
from .grids import Path, TimeGrid

__all__ = ["VERIFY_SUITES", "run_suite"]


def _random_z_inputs(rng: np.random.Generator, n_cases: int, n: int):
    """Mixed random/adversarial reflection inputs with z_0 = 0."""
    for c in range(n_cases):
        kind = c % 5
        if kind == 0:
            z = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))])
        elif kind == 1:
            z = -np.linspace(0.0, rng.uniform(0.5, 4.0), n + 1)  # pure drain
        elif kind == 2:
            z = np.abs(np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))]))  # never binds
        elif kind == 3:
            steps = rng.choice([-0.25, 0.0, 0.25], size=n)  # quantized, heavy ties
            z = np.concatenate([[0.0], np.cumsum(steps)])
        else:
            z = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n))])
            z[n // 2 :] = z[n // 2]  # frozen tail
        yield z


def skorokhod_suite(seed: int = 20240) -> tuple[bool, str]:
    """Reflection map exactness on random/adversarial inputs."""
    rng = np.random.default_rng(seed)
    n_cases = 1000
    for z in _random_z_inputs(rng, n_cases, 257):
        k = regulator(z)
        y = z + k
        if np.any(y < 0):
            return False, "regulated path went negative"
        dk = np.diff(k)
        if np.any(dk < 0):
            return False, "regulator decreased"
        grew = dk > 0
        if np.any(y[1:][grew] != 0.0):
            return False, "regulator grew where the regulated path is nonzero"
        if float(np.sum(dk[y[1:] > 0])) != 0.0:
            return False, "regulator increase leaked onto the positive set"
    return True, f"{n_cases} inputs, exactness tolerance 0"


def _random_positive_martingale(rng, grid) -> Path:
    inc = rng.standard_normal(grid.n_steps) * np.sqrt(grid.dt)
    scale = rng.uniform(0.3, 2.0)
    logm = scale * np.concatenate([[0.0], np.cumsum(inc)]) - 0.5 * scale**2 * grid.times
    return Path(grid, np.exp(logm), label="random M")


def minimality_suite(seed: int = 20241) -> tuple[bool, str]:
    """The zero-carried source is the smallest admissible one."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, 128)
    n_cases = 1000
    worst = 0.0
    for c in range(n_cases):
        M = _random_positive_martingale(rng, grid)
        inv_i = 1.0 / np.minimum.accumulate(M.values)
        if c % 3 == 0:
            C = inv_i
        elif c % 3 == 1:
            C = inv_i * (1.0 + np.linspace(0.0, rng.uniform(0.0, 3.0), len(inv_i)))
        else:
            bumps = np.concatenate([[0.0], rng.uniform(0.0, 0.2, len(inv_i) - 1)])
            C = inv_i * np.exp(np.cumsum(bumps))
        gap = minimality_gap(M, M.with_values(C, "C"))
        if c % 3 == 0 and gap != 0.0:
            return False, f"gap at the minimal C was {gap!r}, expected exact 0"
        if gap < -1e-12:
            return False, f"negative gap {gap} on an admissible pair"
        worst = min(worst, gap)
    return True, f"{n_cases} admissible pairs, min gap {worst:.3e} >= -1e-12"


def sigma_roundtrip_suite(seed: int = 20242) -> tuple[bool, str]:
    """Compose/recover martingale roundtrip at 1e-12."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, 256)
    n_cases = 1000
    worst = 0.0
    for _ in range(n_cases):
        M = _random_positive_martingale(rng, grid)
        tri = sigma_compose(M)
        back = sigma_martingale(tri.submartingale, tri.increasing_part)
        worst = max(worst, float(np.max(np.abs(back.values - M.values))))
    ok = worst <= 1e-12
    return ok, f"{n_cases} paths, max roundtrip error {worst:.3e} (tol 1e-12)"


def zero_sets_suite(seed: int = 20243) -> tuple[bool, str]:
    """Zero-set equalities and reflection consistency."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, 512)
    eps = 2.0 * np.sqrt(grid.dt)
    for _ in range(200):
        M = _random_positive_martingale(rng, grid)
        tri = sigma_compose(M)
        I = np.minimum.accumulate(M.values)
        set_x = tri.submartingale.values <= eps
        set_m = M.values <= (1.0 + eps) * I
        if not np.array_equal(set_x, set_m):
            return False, "zero-set characterizations disagree"
        C = 1.0 / I
        if np.any(C - 1.0 / M.values < 0):
            return False, "C fell below 1/M"
        grew = np.diff(C) > 0
        if np.any(tri.submartingale.values[1:][grew] != 0.0):
            return False, "C grew off the zero set"
    return True, "200 paths, set equality and reflection consistency exact"


def carried_suite(seed: int = 20244) -> tuple[bool, str]:
    """Carried-by-zeros discrimination on Brownian paths."""
    grid = TimeGrid(1.0, 2**14)
    worst_good, best_bad = 0.0, np.inf
    for i, row in enumerate(generate_rows(GeneratorSpec("brownian", {}, grid), seed, 0, 20)):
        tri = sigma_example_triple(Path(grid, row), "abs")
        good = carried_by_zeros(tri.submartingale, tri.increasing_part, tri.zero_threshold)
        bad = carried_by_zeros(tri.submartingale, Path(grid, grid.times, "t"), tri.zero_threshold)
        worst_good = max(worst_good, good.score)
        best_bad = min(best_bad, bad.score)
        if not good.carried or bad.carried:
            return False, f"path {i}: good score {good.score:.3f}, bad score {bad.score:.3f}"
    return True, f"20 paths: local-time scores <= {worst_good:.3f}, calendar-time scores >= {best_bad:.3f}"


def ito_linearity_suite(seed: int = 20245) -> tuple[bool, str]:
    """Stochastic sums are linear in the integrand."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(1.0, 256)
    worst = 0.0
    for _ in range(200):
        h1 = Path(grid, rng.standard_normal(len(grid)), "h1")
        h2 = Path(grid, rng.standard_normal(len(grid)), "h2")
        x = Path(grid, np.concatenate([[0.0], np.cumsum(rng.standard_normal(grid.n_steps))]), "x")
        a, b = rng.uniform(-2, 2, 2)
        lhs = ito_integral(h1.with_values(a * h1.values + b * h2.values, "combo"), x).values
        rhs = a * ito_integral(h1, x).values + b * ito_integral(h2, x).values
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-12
    return ok, f"200 cases, max linearity defect {worst:.3e} (tol 1e-12)"


VERIFY_SUITES: dict[str, Callable[[int], tuple[bool, str]]] = {
    "skorokhod": skorokhod_suite,
    "minimality": minimality_suite,
    "sigma-roundtrip": sigma_roundtrip_suite,
    "zero-sets": zero_sets_suite,
    "carried": carried_suite,
    "ito-linearity": ito_linearity_suite,
}


def run_suite(name: str, seed: int | None = None) -> tuple[bool, str]:
    fn = VERIFY_SUITES[name]
    return fn() if seed is None else fn(seed)
