"""Structure the package keeps: no import hidden in a function, and the
counts that the benchmark's tracer (``perfbench/tracing.py``, loaded here by
path and not edited) reads from each workload's commands."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sigmapaths import cli

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def _function_imports(path):
    """``(function, line)`` of each import statement inside a function of ``path``."""
    found = []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            found += [(getattr(fn, "name", "<lambda>"), node.lineno) for node in ast.walk(fn)
                      if isinstance(node, (ast.Import, ast.ImportFrom))]
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sigmapaths").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_inside_a_function(path):
    assert _function_imports(path) == []


#: The study span of each workload, the keyed streams per path (components x commands: balance runs
#: lemma-balance and decompose), and the work of one round at 64 paths and seed 1, the benchmark's
#: self-test size: normals, draw calls, batches and rows.  CI's tracer-contract step reads the same
#: table from the self-test's result files.  A change that alters the work on purpose repins it.
_CONTRACT = json.loads((ROOT / "tests" / "tracer_contract.json").read_text(encoding="utf-8"))
_PATHS = 64


@pytest.mark.parametrize("workload", sorted(_CONTRACT))
def test_traced_workload_counts_draws_keys_and_batches(workload, tmp_path):
    tracing, workloads = _load("tracing"), _load("workloads")
    w = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        codes = [cli.main.main(args=w.argv(cmd, 1, 1, str(tmp_path / cmd.name), _PATHS), standalone_mode=False)
                 for cmd in w.commands]
    finally:
        tracing.uninstall(undo)
    assert codes == [None] * len(w.commands)
    counts = tracer.counts
    assert all(counts[k] > 0 for k in ("streams.normals", "streams.keys", "experiments.batches")), counts
    contract = _CONTRACT[workload]
    assert f"experiments.{contract['study']}" in tracer.calls, sorted(tracer.calls)
    assert counts["streams.keys"] == _PATHS * contract["keys_per_path"]
    work = {"normals": counts["streams.normals"], "calls": counts["streams.calls"],
            "batches": counts["experiments.batches"], "rows": counts["experiments.rows"]}
    assert work == {k: contract[k] for k in work}
