"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a few dozen paths, untraced and traced, and checks
that the last output line is strict JSON naming every metric of its mode
with a finite value, and that the traced self times did not exceed the
traced wall time.  Oracle checks are not asserted: at this size they are
noise.  Exits 1 on the first failure.
"""

from __future__ import annotations

import math
import subprocess
import sys
from pathlib import Path

import run
import workloads

HERE = Path(__file__).resolve().parent
TINY_PATHS = 64
SELF_TIME_CHECK = "traced self times <= traced wall time"


def check(workload: str, trace: int) -> None:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seconds", "0.1", "--seed", "1",
            "--trace", str(trace), "--paths", str(TINY_PATHS)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=run.ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    result = workloads.load_report(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(expected), set(result["metrics"]) ^ set(expected)
    for name, m in result["metrics"].items():
        assert m["unit"] == expected[name] and math.isfinite(m["value"]), (name, m)
    assert result["attempted"] >= 1
    if trace:
        assert f"check failed: {SELF_TIME_CHECK}" not in proc.stderr, proc.stderr


def main() -> int:
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            try:
                check(workload, trace)
            except AssertionError as exc:
                print(f"FAIL {workload} --trace {trace}: {exc}")
                return 1
            print(f"ok   {workload} --trace {trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
