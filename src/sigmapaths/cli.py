"""Command-line entry point.

Commands: ``simulate`` (write path ensembles as CSV), ``decompose`` (run the
multiplicative decomposition diagnostics over an ensemble), ``verify`` (exact
property suites), and ``experiment`` (the Monte Carlo studies: each
subcommand declares its options and calls its study in ``experiments``).
An experiment's report object gives its own stdout summary line, and
``reports.write_report`` writes its JSON, tables and chart.

Files are written as they are produced, so no command holds its whole output.
``simulate`` draws its paths in the CLI process (it takes no ``--workers``),
in the passes of ``experiments.row_passes``, one full-row batch each, and
writes each pass to ``paths.csv`` before drawing the next; it draws nothing
unless ``csv`` is in ``--formats``.  Its size cap bounds its output, one CSV
line per value.  ``decompose`` writes the table of path 0 row by row, from
the row the balance batch that draws path 0 returns: the CLI process draws
nothing itself.

Exit codes: 0 success; 2 invalid configuration or usage; 3 an acceptance
threshold failed while the computation itself succeeded; 4 unwritable
output.  The master seed, in [0, 2^64), comes from ``--seed``, falling
back to the ``SIGMA_SEED`` environment variable.  ``--config FILE`` supplies
defaults from a flat ``key = value`` file (``#`` comments allowed); explicit
flags win over the file, and a key that names no option of the command exits
2.  A library ``ValueError`` exits 2: a positive parameter must be finite too,
and a grid takes at most ``grids.MAX_STEPS`` steps, by ``--n-steps`` or ``--dt``.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path as FsPath

import click
from click.core import ParameterSource

from . import reports
from .calculus import running_min
from .decompose import sigma_compose
from .experiments import (azema_conditional_experiment, lemma_balance_experiment, row_passes, saturation_probe,
                          tail_experiment, two_infinity_check)
from .generators import FAMILIES, GeneratorSpec
from .grids import Path, TimeGrid, write_paths_csv
from .streams import MAX_PATHS, MAX_SEED
from .verify import VERIFY_SUITES, run_suite

EXIT_ACCEPTANCE = 3
EXIT_OUTPUT = 4
_MAX_SIMULATE_VALUES = 50_000_000
_SEED = click.IntRange(0, MAX_SEED)
_PATHS = click.IntRange(1, MAX_PATHS)
#: A pool starts all of its processes at once, one per batch up to ``--workers``.
_WORKERS = click.IntRange(1, 4 * (os.cpu_count() or 1))


def _read_config(ctx: click.Context, param: click.Parameter, value):
    """Eager --config callback: file values become the command's defaults.
    A key that names no option of the command is an error, not ignored."""
    if not value:
        return value
    known = {p.name for p in ctx.command.params if p.expose_value}
    defaults = {}
    try:
        with open(value, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise click.UsageError(f"{value}:{lineno}: expected 'key = value'")
                key, val = (part.strip() for part in line.split("=", 1))
                name = key.replace("-", "_")
                if name not in known:
                    raise click.UsageError(f"{value}:{lineno}: unknown key {key!r}; "
                                           f"{ctx.command.name} has no option --{name.replace('_', '-')}")
                defaults[name] = val
    except OSError as exc:
        raise click.UsageError(f"cannot read config file {value}: {exc}")
    ctx.default_map = {**defaults, **(ctx.default_map or {})}
    return value


def _common_options(fn, workers=True):
    fn = click.option("--seed", type=_SEED, default=0, envvar="SIGMA_SEED", show_default=True,
                      help="Master seed in [0, 2^64) (flag wins over SIGMA_SEED).")(fn)
    fn = click.option("--out", type=click.Path(file_okay=False), default="out", show_default=True,
                      help="Output directory.")(fn)
    fn = click.option("--formats", default="json,csv", show_default=True,
                      help="Comma list from {csv,json,svg} (svg: experiments only).")(fn)
    if workers:
        fn = click.option("--workers", type=_WORKERS, default=lambda: os.cpu_count() or 1,
                          help="Worker processes, at most 4 per CPU (default: available parallelism).")(fn)
    fn = click.option("--config", type=click.Path(dir_okay=False), callback=_read_config,
                      expose_value=False, is_eager=True,
                      help="Flat key=value config file supplying option defaults.")(fn)
    return fn


def _parse_formats(formats: str, known: set[str]) -> set[str]:
    """The ``--formats`` set, from the ``known`` formats the command writes."""
    parts = {p.strip() for p in formats.split(",") if p.strip()}
    if not parts or parts - known:
        raise click.UsageError(f"--formats {formats!r}: give a comma list from {sorted(known)}")
    return parts


def _build_spec(family, horizon, n_steps, options) -> GeneratorSpec:
    """The spec of ``family`` on ``TimeGrid(horizon, n_steps)`` from family
    option values: the family's required parameters, and its optional ones
    that are not 0 (0 means off).  An option set on the command line for a
    parameter the family does not take exits 2, not dropped."""
    required, optional = FAMILIES.get(family, (set(), set()))
    foreign = sorted(f"--{k.replace('_', '-')}" for k in options.keys() - required - optional
                     if click.get_current_context().get_parameter_source(k) is ParameterSource.COMMANDLINE)
    if foreign and family in FAMILIES:  # an unknown family is the spec's error
        raise click.UsageError(f"family {family!r} does not take {', '.join(foreign)}")
    params = {k: v for k, v in options.items() if k in required or (k in optional and v != 0)}
    try:
        return GeneratorSpec(family, params, TimeGrid(horizon, n_steps))
    except ValueError as exc:
        raise click.UsageError(str(exc))


def _family_options(fn):
    fn = click.option("--family", type=click.Choice(sorted(FAMILIES)), required=True)(fn)
    fn = click.option("--horizon", type=float, default=1.0, show_default=True)(fn)
    fn = click.option("--n-steps", type=int, default=4096, show_default=True)(fn)
    fn = click.option("--a", type=float, default=1.0, show_default=True,
                      help="Stopping level for brownian_stopped_level.")(fn)
    fn = click.option("--b", type=float, default=1.0, show_default=True,
                      help="Line drift for brownian_drift_stopped_line.")(fn)
    fn = click.option("--x0", type=float, default=1.0, show_default=True,
                      help="Start point for bessel3 / scale_martingale.")(fn)
    fn = click.option("--stop-level", type=float, default=0.0, show_default=True,
                      help="Optional exp_martingale level stop (0 disables).")(fn)
    fn = click.option("--stop-line-drift", type=float, default=0.0, show_default=True,
                      help="Optional exp_martingale line stop (0 disables).")(fn)
    return fn


def _experiment_options(fn):
    """``--paths`` and the common options, which ``decompose`` and every
    experiment end with."""
    return click.option("--paths", type=_PATHS, default=10000, show_default=True)(_common_options(fn))


def _write_guard(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except OSError as exc:
        click.echo(f"error: cannot write output: {exc}", err=True)
        sys.exit(EXIT_OUTPUT)


@click.group()
def main():
    """Stochastic-path toolkit: simulate ensembles, decompose nonnegative
    submartingales, and verify the decomposition identities by Monte Carlo."""


@main.command()
@_family_options
@click.option("--paths", type=_PATHS, default=10, show_default=True)
@functools.partial(_common_options, workers=False)
def simulate(family, horizon, n_steps, paths, seed, out, formats, **options):
    """Generate an ensemble and write it in the long-form CSV path format."""
    fmt = _parse_formats(formats, {"csv", "json"})
    spec = _build_spec(family, horizon, n_steps, options)
    total = paths * (n_steps + 1)
    if total > _MAX_SIMULATE_VALUES:
        raise click.UsageError(
            f"simulate writes one CSV line per value; {paths} x {n_steps + 1} values exceed "
            f"the {_MAX_SIMULATE_VALUES} cap -- reduce --paths or --n-steps"
        )
    out_dir = FsPath(out)
    _write_guard(out_dir.mkdir, parents=True, exist_ok=True)
    written = []
    if "csv" in fmt:
        p = out_dir / "paths.csv"
        _write_guard(write_paths_csv, (Path(spec.grid, row, label=f"{family}#{i}")
                                       for off, rows in row_passes(spec, seed, 0, paths)
                                       for i, row in enumerate(rows, off)), p)
        written.append(p.name)
    if "json" in fmt:
        doc = {
            "schema": 1,
            "command": "simulate",
            "spec": spec.to_config(),
            "seed": seed,
            "n_paths": paths,
        }
        p = out_dir / "simulate.json"
        _write_guard(p.write_bytes, reports.report_json_bytes(doc))
        written.append(p.name)
    click.echo(f"simulate: {paths} {family} paths on [0, {horizon}] -> {out_dir} ({', '.join(written)})")


@main.command()
@_family_options
@_experiment_options
def decompose(family, horizon, n_steps, paths, seed, out, formats, workers, **options):
    """Decompose a positive-martingale ensemble and write the class-(D)
    diagnostics report: the "classd" block of "experiment lemma-balance" on
    the same spec and seed (bessel3 enters via its normalized scale
    martingale)."""
    fmt = _parse_formats(formats, {"csv", "json"})
    spec = _build_spec(family, horizon, n_steps, options)
    try:
        report = lemma_balance_experiment(spec, paths, seed, workers)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    classd = report.classd
    envelope = {
        "schema": 1,
        "command": "decompose",
        "spec": spec.to_config(),
        "seed": seed,
        "results": classd.as_dict(),
    }
    out_dir = FsPath(out)
    _write_guard(out_dir.mkdir, parents=True, exist_ok=True)
    written = []
    if "json" in fmt:
        p = out_dir / "classd_report.json"
        _write_guard(p.write_bytes, reports.report_json_bytes(envelope))
        written.append(p.name)
    if "csv" in fmt:
        M = report.path0
        triple = sigma_compose(Path(spec.grid, M))
        columns = {"t": spec.grid.times, "M": M, "I": running_min(M), "X": triple.submartingale.values,
                   "A": triple.increasing_part.values, "N": triple.martingale_part.values}
        rows_csv = (dict(zip(columns, map(float, row))) for row in zip(*columns.values()))
        p = out_dir / "decomposition_path0.csv"
        _write_guard(reports.write_csv_table, p, rows_csv)
        written.append(p.name)
    click.echo(
        f"decompose: {family} x{paths} at T={horizon}: "
        f"E[MC]={classd.e_mc.mean:.5f}+-{classd.e_mc.stderr:.5f}, "
        f"1+E[int M dC]={classd.e_int.mean:.5f}+-{classd.e_int.stderr:.5f} -> {out_dir}"
    )


@main.command()
@click.argument("suite", type=click.Choice(sorted(VERIFY_SUITES) + ["all"]))
@click.option("--seed", type=_SEED, default=None, envvar="SIGMA_SEED",
              help="Override the suite's pinned seed (in [0, 2^64)).")
def verify(suite, seed):
    """Run an exact property suite; exits 3 if a property fails."""
    names = sorted(VERIFY_SUITES) if suite == "all" else [suite]
    failed = False
    for name in names:
        ok, detail = run_suite(name, seed)
        click.echo(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed = failed or not ok
    if failed:
        sys.exit(EXIT_ACCEPTANCE)


@main.group()
def experiment():
    """Run a named Monte Carlo experiment."""


def _write_experiment(name, out, formats, study):
    """Parse ``--formats``, run ``study()`` (a ``ValueError`` exits 2), write
    its report's files under ``out`` and print its summary line."""
    fmt = _parse_formats(formats, {"csv", "json", "svg"})
    try:
        report = study()
    except ValueError as exc:
        raise click.UsageError(str(exc))
    written = _write_guard(reports.write_report, out, name.replace("-", "_"), report, fmt)
    click.echo(f"{report.summary()} -> {out} ({', '.join(written)})")


@experiment.command("lemma-balance")
@click.option("--family", default="exp_martingale", show_default=True)
@click.option("--horizon", type=float, default=1.0, show_default=True)
@click.option("--n-steps", type=int, default=2048, show_default=True)
@click.option("--x0", type=float, default=1.0, show_default=True)
@click.option("--stop-level", type=float, default=0.0, show_default=True)
@click.option("--stop-line-drift", type=float, default=0.0, show_default=True)
@_experiment_options
def lemma_balance(family, horizon, n_steps, paths, seed, out, formats, workers, **options):
    """paired estimates of E[M_T C_T] and 1 + E[sum M dC] with C = 1/I"""
    _write_experiment("lemma-balance", out, formats, lambda: lemma_balance_experiment(
        _build_spec(family, horizon, n_steps, options), paths, seed, workers))


@experiment.command("azema-law")
@click.option("--family", default="bessel3", show_default=True)
@click.option("--x0", type=float, default=1.0, show_default=True)
@click.option("--level", type=float, default=1.0, show_default=True)
@click.option("--t", type=float, default=1.0, show_default=True)
@click.option("--bins", type=int, default=20, show_default=True)
@click.option("--horizon", type=float, default=64.0, show_default=True)
@click.option("--n-steps", type=int, default=16384, show_default=True)
@_experiment_options
def azema_law(family, x0, level, t, bins, horizon, n_steps, paths, seed, out, formats, workers):
    """state-binned conditional law of a last visit vs min(y/z, 1)"""
    _write_experiment("azema-law", out, formats, lambda: azema_conditional_experiment(
        _build_spec(family, horizon, n_steps, {"x0": x0}), level, t, bins, paths, seed, workers))


@experiment.command("two-infinity")
@click.option("--x0", type=float, default=1.0, show_default=True)
@click.option("--level", type=float, default=1.0, show_default=True)
@click.option("--horizon", type=float, default=64.0, show_default=True)
@click.option("--n-steps", type=int, default=16384, show_default=True)
@_experiment_options
def two_infinity(x0, level, horizon, n_steps, paths, seed, out, formats, workers):
    """median |M_T - 2 I_T| across doubling horizons (last-visit construction)"""
    def study():
        if not horizon >= 4.0:
            raise ValueError(f"two-infinity needs --horizon of at least 4 (its smallest doubling horizon), "
                             f"got {horizon}")
        hs = [horizon / 2**k for k in range(5, -1, -1) if horizon / 2**k >= 4.0]  # at most six, ascending
        return two_infinity_check(_build_spec("bessel3", horizon, n_steps, {"x0": x0}), hs, paths, seed,
                                  level=level, workers=workers)
    _write_experiment("two-infinity", out, formats, study)


@experiment.command("saturation")
@click.option("--kind", default="nonsaturated_zero_set", show_default=True)
@click.option("--horizon", type=float, default=64.0, show_default=True)
@click.option("--dt", type=float, default=4e-4, show_default=True)
@_experiment_options
def saturation(kind, horizon, dt, paths, seed, out, formats, workers):
    """ends of random sets under Brownian paths stopped at level 1"""
    _write_experiment("saturation", out, formats, lambda: saturation_probe(
        kind, paths, seed, horizon=horizon, dt=dt, workers=workers))


@experiment.command("tail")
@click.option("--kind", default="T_a_heavy_tail", show_default=True)
@click.option("--a", type=float, default=1.0, show_default=True)
@click.option("--b", type=float, default=1.0, show_default=True)
@click.option("--horizon", type=float, default=64.0, show_default=True)
@click.option("--dt", type=float, default=1e-3, show_default=True)
@_experiment_options
def tail(kind, a, b, horizon, dt, paths, seed, out, formats, workers):
    """heavy tail of T_a / the sigma_b stopped-martingale expectation"""
    _write_experiment("tail", out, formats, lambda: tail_experiment(
        kind, paths, seed, a=a, b=b, horizon=horizon, dt=dt, workers=workers))


if __name__ == "__main__":
    main()
