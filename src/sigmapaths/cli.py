"""Command-line entry point.

Commands: ``simulate`` (write path ensembles as CSV), ``decompose`` (run the
multiplicative decomposition diagnostics over an ensemble), ``verify`` (exact
property suites), and ``experiment`` (the Monte Carlo studies; subcommands
are generated from the experiment registry).  An experiment's report object
gives its own stdout summary line, and ``reports.write_report`` writes its
JSON, tables and chart.

Files are written as they are produced, so no command holds its whole output.
``simulate`` draws its paths in the passes of ``experiments.row_passes``
(one full-row batch each, ``--workers`` is not used) and writes each pass to
``paths.csv`` before drawing the next; it draws nothing unless ``csv`` is in
``--formats``.  ``decompose`` writes the table of path 0 row by row, from the
row the balance batch that draws path 0 returns: the CLI process draws
nothing itself.  The
``simulate`` size cap bounds its output, one CSV line per value.

Exit codes: 0 success; 2 invalid configuration or usage; 3 an acceptance
threshold failed while the computation itself succeeded; 4 unwritable
output.  The master seed, in [0, 2^64), comes from ``--seed``, falling
back to the ``SIGMA_SEED`` environment variable.  ``--config FILE`` supplies
defaults from a flat ``key = value`` file (``#`` comments allowed); explicit
flags win over the file, and a key that names no option of the command exits
2.  Family and experiment parameters that must be positive must also be
finite: ``inf`` and ``nan`` exit 2.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path as FsPath

import click
from click.core import ParameterSource

from . import reports
from .calculus import running_min
from .decompose import sigma_compose
from .experiments import EXPERIMENTS, lemma_balance_experiment, row_passes
from .generators import FAMILIES, GeneratorSpec
from .grids import Path, TimeGrid, write_paths_csv
from .streams import MAX_PATHS, MAX_SEED
from .verify import VERIFY_SUITES, run_suites

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


def _common_options(fn):
    fn = click.option("--seed", type=_SEED, default=0, envvar="SIGMA_SEED", show_default=True,
                      help="Master seed in [0, 2^64) (flag wins over SIGMA_SEED).")(fn)
    fn = click.option("--out", type=click.Path(file_okay=False), default="out", show_default=True,
                      help="Output directory.")(fn)
    fn = click.option("--formats", default="json,csv", show_default=True,
                      help="Comma list from {csv,json,svg} (svg: experiments only).")(fn)
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


#: Options that set a parameter of some family.
_FAMILY_PARAMS = set().union(*(required | optional for required, optional in FAMILIES.values()))


def _reject_foreign_options(family: str, options) -> None:
    """Exit 2 when an option set on the command line sets a parameter that
    ``family`` does not take, which ``GeneratorSpec.from_options`` would drop."""
    if family not in FAMILIES:
        return  # the spec reports an unknown family
    ctx = click.get_current_context()
    required, optional = FAMILIES[family]
    foreign = sorted(f"--{k.replace('_', '-')}" for k in options
                     if k in _FAMILY_PARAMS - required - optional
                     and ctx.get_parameter_source(k) is ParameterSource.COMMANDLINE)
    if foreign:
        raise click.UsageError(f"family {family!r} does not take {', '.join(foreign)}")


def _build_spec(family, horizon, n_steps, options) -> GeneratorSpec:
    _reject_foreign_options(family, options)
    try:
        return GeneratorSpec.from_options(family, TimeGrid(horizon, n_steps), **options)
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
@_common_options
def simulate(family, horizon, n_steps, paths, seed, out, formats, workers, **options):
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
@click.option("--paths", type=_PATHS, default=10000, show_default=True)
@_common_options
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
    for name, ok, detail in run_suites(names, seed):
        click.echo(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        failed = failed or not ok
    if failed:
        sys.exit(EXIT_ACCEPTANCE)


@main.group()
def experiment():
    """Run a named Monte Carlo experiment (names come from the registry)."""


def _make_experiment_command(name, defn):
    @click.option("--paths", type=_PATHS, default=10000, show_default=True)
    @_common_options
    def cmd(paths, seed, out, formats, workers, **params):
        fmt = _parse_formats(formats, {"csv", "json", "svg"})
        if "family" in params:
            _reject_foreign_options(params["family"], params)
        try:
            report = defn.runner(seed=seed, n_paths=paths, workers=workers, **params)
        except ValueError as exc:
            raise click.UsageError(str(exc))
        written = _write_guard(reports.write_report, out, name.replace("-", "_"), report, fmt)
        click.echo(f"{report.summary()} -> {out} ({', '.join(written)})")

    for pname, default in reversed(list(defn.params.items())):
        ptype = {int: int, float: float}.get(type(default), str)
        cmd = click.option(f"--{pname.replace('_', '-')}", pname, type=ptype,
                           default=default, show_default=True)(cmd)
    cmd = click.command(name=name, help=defn.summary)(cmd)
    return cmd


for _name, _defn in EXPERIMENTS.items():
    experiment.add_command(_make_experiment_command(_name, _defn))


if __name__ == "__main__":
    main()
