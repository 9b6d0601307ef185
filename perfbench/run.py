"""Benchmark of the ``sigmapaths`` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from a source checkout: the CLI is imported from ``src/`` next to this
directory, and the run exits with code 2 when that is missing.  Workloads and
their checks are in ``workloads.py``; ``python3 perfbench/selftest.py`` runs
every workload at a tiny size.

``--trace 0`` (end to end, tracing off).  For ``--seconds``, cycles run back
to back (a closed loop, one client).  A cycle times two fresh interpreters
that import ``sigmapaths.cli`` (set-up time), then runs a round of the
workload's commands as ``python -m sigmapaths.cli`` processes with
``--workers 1``, and another with ``--workers 2``.  Each metric is a median
over the run: throughput is the paths a round computed over its wall time,
and peak RSS is the largest ``ru_maxrss`` of a command or one of its
workers at ``--workers 2``, the CLI's default on a 2-core machine.  (At
``--workers 1`` one process runs every batch, and its peak depends on how the
allocator reuses the previous batch's memory, which differs between seeds by
up to 15%; it is recorded, ungated, in the result file.)

``--trace 1`` (per layer).  The commands run inside this process, cycling
through an untraced round at workers 1, a traced round at workers 1 and an
untraced round at workers 2; ``tracing.py`` wraps the package's functions
during the traced rounds only.  Time metrics are per round, and self time is
a span minus the child spans it covers.  ``experiments.scaling_w2`` is the
throughput ratio of the untraced in-process rounds at workers 2 and 1.
Pickle sizes and times of batch results are computed from the workers-1
results, and the tracer's own pickling is left out of ``trace.overhead``.

Every run checks the reports: exit codes, strict JSON, closed-form oracles,
byte-identical non-``meta`` reports across rounds, worker counts and tracing.
The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (the checks) and ``metrics``.  Everything else
(per-round times, report digests, the machine) goes to
``.perfbench_out/result-<workload>-<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINNED_DIGESTS = Path(__file__).resolve().parent / "digests.json"

DEFAULT_SEED = 506369
SETUP_SAMPLES_PER_CYCLE = 2
MIN_CYCLES = 2
MIN_TRACE_CYCLES = 2
WARMUP_PATHS = 64
COMMAND_TIMEOUT_S = 150.0
BULK_BLOCK = 1 << 20

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


class Checks:
    """Output checks of one run: counted, and failures echoed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
            print(f"check failed: {name}: {detail}", file=sys.stderr)
        return ok


class Digests:
    """Non-meta report digests: all runs of one command must agree."""

    def __init__(self, checks: Checks):
        self.checks = checks
        self.first: dict[str, tuple[str, str]] = {}

    def add(self, command: str, where: str, sha: str) -> None:
        if command not in self.first:
            self.first[command] = (where, sha)
            return
        ref_where, ref_sha = self.first[command]
        self.checks.add(f"{command}: {where} report == first {ref_where} report", sha == ref_sha,
                        f"{sha[:12]} vs {ref_sha[:12]}")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    env.pop("SIGMA_SEED", None)
    return env


def _spawn(argv: list[str], env: dict, stderr_path: Path | None = None) -> tuple[int, float, int]:
    """Run a child to completion: (exit code, wall seconds, peak RSS in KiB of
    the child and the descendants it waited for)."""
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    finally:
        if stderr_path:
            err.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss


def _read_report(checks: Checks, label: str, path: Path):
    try:
        return wl.load_report(path.read_bytes())
    except (OSError, ValueError) as exc:
        checks.add(f"{label}: strict JSON report", False, str(exc))
        return None


def _check_round(checks: Checks, digests: Digests, workload, reports: dict, where: str,
                 with_oracles: bool) -> dict:
    shas = {}
    for name, doc in reports.items():
        if doc is None:
            continue
        shas[name] = wl.digest(doc)
        digests.add(name, where, shas[name])
        if with_oracles:
            _add_checks(checks, name, lambda: wl.oracle_checks(name, doc))
    if with_oracles and all(doc is not None for doc in reports.values()):
        _add_checks(checks, workload.name, lambda: wl.cross_checks(reports))
    return shas


def _add_checks(checks: Checks, label: str, make) -> None:
    try:
        results = make()
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:  # a report without the expected fields
        checks.add(f"{label}: report fields", False, repr(exc))
        return
    for check, ok, detail in results:
        checks.add(f"{label}: {check}", ok, detail)


def _closed_loop(step, budget_s: float, min_steps: int) -> None:
    """Run ``step(index)`` back to back until the next one would likely overrun."""
    done, t0 = 0, perf_counter()
    while done < min_steps or (perf_counter() - t0) * (done + 1) / done <= budget_s:
        step(done)
        done += 1


# ---------------------------------------------------------------------------
# --trace 0: end to end


def measure_end_to_end(workload, seed: int, seconds: float, paths: int, run_dir: Path, checks: Checks):
    env = _child_env()
    digests = Digests(checks)
    probe = [sys.executable, "-c", "import sigmapaths.cli"]
    code, _, _ = _spawn(probe, env)  # fills the bytecode cache
    checks.add("import sigmapaths.cli", code == 0, f"exit {code}")
    log = {"setup_s": [], "commands": [], "round_walls_s": {"w1": [], "w2": []}, "digests": {},
           "peak_rss_kib": {"w1": 0, "w2": 0}}

    def run_round(workers: int, with_oracles: bool) -> None:
        wall, reports = 0.0, {}
        for cmd in workload.commands:
            out = run_dir / f"w{workers}" / cmd.name
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            argv = workload.argv(cmd, seed, workers, str(out), paths)
            code, w, rss = _spawn([sys.executable, "-m", "sigmapaths.cli", *argv], env, out.parent / f"{cmd.name}.stderr")
            wall += w
            log["peak_rss_kib"][f"w{workers}"] = max(log["peak_rss_kib"][f"w{workers}"], rss)
            log["commands"].append({"command": cmd.name, "workers": workers, "wall_s": w, "maxrss_kib": rss})
            ok = checks.add(f"{cmd.name} --workers {workers}: exit code", code == 0, f"exit {code}")
            reports[cmd.name] = _read_report(checks, cmd.name, out / cmd.report) if ok else None
        log["digests"].update(_check_round(checks, digests, workload, reports, f"w{workers}", with_oracles))
        log["round_walls_s"][f"w{workers}"].append(wall)

    def cycle(index: int) -> None:
        # set-up samples and both worker counts share each stretch of the run,
        # so a drift in machine speed reaches all three metrics alike
        for _ in range(SETUP_SAMPLES_PER_CYCLE):
            log["setup_s"].append(_spawn(probe, env)[1])
        run_round(1, index == 0)
        run_round(2, index == 0)

    _closed_loop(cycle, seconds, MIN_CYCLES)
    round_paths = paths * len(workload.commands)
    walls = log["round_walls_s"]
    metrics = {
        "setup_s": statistics.median(log["setup_s"]),
        "paths_per_s": statistics.median(round_paths / w for w in walls["w2"]),
        "paths_per_s_w1": statistics.median(round_paths / w for w in walls["w1"]),
        "peak_rss_mb": log["peak_rss_kib"]["w2"] / 1024.0,
    }
    return metrics, log


# ---------------------------------------------------------------------------
# --trace 1: per layer, in process


def _run_inprocess(argv: list[str]) -> int:
    import click
    from sigmapaths import cli

    with contextlib.redirect_stdout(io.StringIO()):
        try:
            cli.main.main(args=argv, standalone_mode=False)
            return 0
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1
        except click.ClickException as exc:
            exc.show()
            return exc.exit_code
        except Exception:  # a crash is a failed check, not a crashed benchmark
            traceback.print_exc()
            return 1


def _bulk_ns_per_normal(count: int, seed: int) -> float:
    """One Philox generator drawing ``count`` normals in 1 Mi-normal blocks."""
    import numpy as np

    gen = np.random.Generator(np.random.Philox(seed))
    buf = np.empty(min(count, BULK_BLOCK))
    t0, left = perf_counter(), count
    while left > 0:
        k = min(left, buf.size)
        gen.standard_normal(out=buf[:k])
        left -= k
    return (perf_counter() - t0) / count * 1e9


def measure_layers(workload, seed: int, seconds: float, paths: int, run_dir: Path, checks: Checks):
    import tracing

    digests = Digests(checks)
    log = {"rounds": {"w1": [], "traced": [], "w2": []}, "traced_transport_s": [], "digests": {},
           "bulk_ns_per_normal": [], "report_bytes": []}

    def run_round(phase: str, workers: int, n_paths: int, tracer=None, with_oracles: bool | None = None) -> float:
        """One round of the workload's commands; ``with_oracles=None`` is a
        warm-up round that records and checks nothing."""
        wall, reports, size = 0.0, {}, 0
        undo = tracing.install(tracer) if tracer is not None else None
        try:
            for cmd in workload.commands:
                out = run_dir / phase / cmd.name
                shutil.rmtree(out, ignore_errors=True)
                argv = workload.argv(cmd, seed, workers, str(out), n_paths)
                t0 = perf_counter()
                if tracer is None:
                    code = _run_inprocess(argv)
                else:
                    code = tracer.timed(tracing.ROOT, _run_inprocess, argv)
                wall += perf_counter() - t0
                if with_oracles is None:
                    continue
                size += sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0
                ok = checks.add(f"{cmd.name} {phase}: exit code", code == 0, f"exit {code}")
                reports[cmd.name] = _read_report(checks, cmd.name, out / cmd.report) if ok else None
        finally:
            if undo is not None:
                tracing.uninstall(undo)
        if with_oracles is not None:
            log["digests"].update(_check_round(checks, digests, workload, reports, phase, with_oracles))
            log["rounds"][phase].append(wall)
            if phase == "traced":
                log["report_bytes"].append(size)
        return wall

    # warm lazy imports and first-call paths on both sides of the tracer
    run_round("w1", 1, WARMUP_PATHS)
    run_round("traced", 1, WARMUP_PATHS, tracing.Tracer())

    tracer = tracing.Tracer()

    def cycle(index: int) -> None:
        run_round("w1", 1, paths, None, index == 0)
        drawn, transport = tracer.counts["streams.normals"], tracer.total_s[tracing.TRANSPORT]
        run_round("traced", 1, paths, tracer, False)
        log["traced_transport_s"].append(tracer.total_s[tracing.TRANSPORT] - transport)
        count = int(tracer.counts["streams.normals"] - drawn)
        log["bulk_ns_per_normal"].append(_bulk_ns_per_normal(count, seed))
        run_round("w2", 2, paths, None, index == 0)

    _closed_loop(cycle, seconds, MIN_TRACE_CYCLES)

    rounds = log["rounds"]
    n = len(rounds["traced"])
    round_paths = paths * len(workload.commands)
    c, per = tracer.counts, (lambda v: v / n)
    normals = per(c["streams.normals"])
    draw_s = per(tracer.layer_self_s("streams"))
    walk_s = per(tracer.layer_self_s("experiments", tracing.WALKERS))
    batch_s = per(tracer.layer_self_s("experiments", set(tracing.BATCHES) - set(tracing.WALKERS)))
    keyed_ns = draw_s / normals * 1e9 if normals else 0.0
    bulk_ns = statistics.median(log["bulk_ns_per_normal"])
    pps_w1 = statistics.median(round_paths / w for w in rounds["w1"])
    pps_w2 = statistics.median(round_paths / w for w in rounds["w2"])
    traced_net = [w - t for w, t in zip(rounds["traced"], log["traced_transport_s"])]
    metrics = {
        "streams.normals": normals,
        "streams.keys": per(c["streams.keys"]),
        "streams.calls": per(c["streams.calls"]),
        "streams.draw_s": draw_s,
        "streams.ns_per_normal": keyed_ns,
        "streams.bulk_ns_per_normal": bulk_ns,
        "streams.draw_efficiency": bulk_ns / keyed_ns if keyed_ns else 0.0,
        "generators.assemble_s": per(tracer.layer_self_s("generators")),
        "generators.bytes_out": per(c["generators.bytes_out"]),
        "calculus.kernel_s": per(tracer.layer_self_s("calculus")),
        "decompose.classd_s": per(tracer.layer_self_s("decompose")),
        "decompose.bytes_in": per(c["decompose.bytes_in"]),
        "experiments.batches": per(c["experiments.batches"]),
        "experiments.rows_per_batch": c["experiments.rows"] / c["experiments.batches"] if c["experiments.batches"] else 0.0,
        "experiments.scaling_w2": pps_w2 / pps_w1,
        "experiments.transport_bytes": c["experiments.transport_bytes"] / c["experiments.batches"] if c["experiments.batches"] else 0.0,
        "experiments.transport_s": per(tracer.total_s[tracing.TRANSPORT]),
        "experiments.walk_s": walk_s,
        "experiments.batch_s": batch_s,
        "experiments.normals_per_path": normals / round_paths,
        "experiments.useful_ratio": c["experiments.decided_steps"] / c["experiments.walker_normals"] if c["experiments.walker_normals"] else 0.0,
        "experiments.reduce_s": per(tracer.layer_self_s("experiments")) - walk_s - batch_s,
        "reports.emit_s": per(tracer.layer_self_s("reports")),
        "reports.bytes": float(statistics.median(log["report_bytes"])),
        "trace.overhead": statistics.median(traced_net) / statistics.median(rounds["w1"]),
        "src.lines": float(_src_lines()),
    }
    self_total = sum(tracer.self_s.values())
    checks.add("traced self times <= traced wall time", self_total <= sum(rounds["traced"]),
               f"{self_total:.4f} s vs {sum(rounds['traced']):.4f} s")
    log["spans"] = {k: {"calls": tracer.calls[k], "total_s": tracer.total_s[k], "self_s": tracer.self_s[k]}
                    for k in sorted(tracer.calls)}
    log["counts"] = dict(sorted(c.items()))
    log["cli_self_s"] = per(tracer.self_s[tracing.ROOT])
    return metrics, log


# ---------------------------------------------------------------------------
# ungated context


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "sigmapaths").glob("*.py")))


def _machine() -> dict:
    import numpy as np

    info = {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "cpu_model": platform.processor(), "caches": {}, "src_lines": _src_lines()}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level, kind = (d / "level").read_text().strip(), (d / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (d / "size").read_text().strip()
    return info


def _pinned(workload, seed: int, paths: int, digests: dict) -> dict:
    """Compare digests with the table pinned at the default seed and size.
    A mismatch is reported, not failed: a deliberate change is allowed."""
    table = json.loads(PINNED_DIGESTS.read_text()) if PINNED_DIGESTS.is_file() else {}
    if seed != table.get("seed") or paths != workload.paths:
        return {name: "unpinned" for name in digests}
    pinned = table.get("digests", {})
    return {name: ("match" if pinned.get(f"{workload.name}/{name}") == sha else "changed")
            for name, sha in digests.items()}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--paths", type=int, default=None, help="override the workload's path count (self-test)")
    args = p.parse_args(argv)
    if not (SRC / "sigmapaths" / "cli.py").is_file():
        print(f"error: no sigmapaths sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = wl.WORKLOADS[args.workload]
    paths = args.paths or workload.paths
    tag = f"{workload.name}-{args.seed}-trace{args.trace}"
    run_dir = OUT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    checks = Checks()
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        metrics, log = measure(workload, args.seed, args.seconds, paths, run_dir, checks)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    pinned = _pinned(workload, args.seed, paths, log["digests"])
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "paths": paths,
              "trace": args.trace, "machine": _machine(), "metrics": metrics, "pinned_digests": pinned,
              "checks": {"attempted": checks.attempted, "failures": checks.failures}, **log}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2, allow_nan=False) + "\n")

    print("machine " + json.dumps(record["machine"], sort_keys=True))
    for name, sha in sorted(log["digests"].items()):
        print(f"digest {name} {sha} ({pinned[name]})")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
