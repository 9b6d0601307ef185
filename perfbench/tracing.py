"""Span tracing of one in-process ``sigmapaths`` run, from outside the package.

:func:`install` replaces the module-level functions of each traced
``sigmapaths`` module with wrappers that record a span per call.  The wrapper
goes into every ``sigmapaths`` namespace that binds the function, so call
sites that did ``from .x import f`` are traced too.  The keyed walkers in
``experiments`` build their Philox generators inline; there the ``Philox``
and ``Generator`` names are swapped for versions that count keys and time
every draw.

Spans are aggregated in memory by name (``<module>.<function>``): call
count, total time and self time, which is a span's duration minus the part
its child spans cover.  Counters are recorded at the same boundaries.
"""

from __future__ import annotations

import inspect
import pickle
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

#: Modules whose functions are wrapped; the module name is the layer name.
TRACED_MODULES = ("streams", "generators", "calculus", "decompose", "experiments", "reports")

#: Batch engines: their results are what a worker pickles back to the parent.
WALKERS = ("_walk_brownian_batch", "_bessel_revisit_batch")
BATCHES = ("_martingale_batch", "_two_infinity_batch", "_expmart_revisit_batch", *WALKERS)

#: Span names outside the package's modules.
ROOT = "cli.command"
TRANSPORT = "transport.roundtrip"


class Tracer:
    """Aggregated spans and counters of one traced run."""

    def __init__(self):
        self._open: list[float] = []   # child time covered so far, per open span
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def timed(self, name: str, fn, *args, **kwargs):
        self._open.append(0.0)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            child = self._open.pop()
            self.calls[name] += 1
            self.total_s[name] += dur
            self.self_s[name] += dur - child
            if self._open:
                self._open[-1] += dur

    def layer_self_s(self, prefix: str, names=None) -> float:
        return sum(v for k, v in self.self_s.items()
                   if k.startswith(prefix + ".") and (names is None or k.split(".", 1)[1] in names))


class _CountingGenerator:
    """A numpy Generator whose ``standard_normal`` draws are timed and counted."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, tracer: Tracer, gen):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        out = self._tracer.timed("streams.standard_normal", self._gen.standard_normal, *args, **kwargs)
        self._tracer.counts["streams.calls"] += 1
        self._tracer.counts["streams.normals"] += np.size(out)
        return out


def _transport_roundtrip(result) -> int:
    blob = pickle.dumps(result)
    pickle.loads(blob)
    return len(blob)


def _wrap(tracer: Tracer, name: str, fn):
    short = name.split(".", 1)[1]

    if name == "streams.standard_normal_block":
        def wrapper(key, n):
            out = tracer.timed(name, fn, key, n)
            tracer.counts["streams.keys"] += 1
            tracer.counts["streams.calls"] += 1
            tracer.counts["streams.normals"] += out.size
            return out
    elif name == "generators.generate_rows":
        def wrapper(*args, **kwargs):
            out = tracer.timed(name, fn, *args, **kwargs)
            tracer.counts["generators.bytes_out"] += out.nbytes
            return out
    elif name == "decompose.class_d_from_batches":
        def wrapper(batches, *args, **kwargs):
            def counted():
                for b in batches:
                    tracer.counts["decompose.bytes_in"] += np.asarray(b).nbytes
                    yield b
            return tracer.timed(name, fn, counted(), *args, **kwargs)
    elif short in BATCHES:
        def wrapper(args):
            drawn = tracer.counts["streams.normals"]
            out = tracer.timed(name, fn, args)
            first = out[0] if isinstance(out, tuple) else out
            tracer.counts["experiments.batches"] += 1
            tracer.counts["experiments.rows"] += first.shape[0]
            tracer.counts["experiments.transport_bytes"] += tracer.timed(TRANSPORT, _transport_roundtrip, out)
            if short == "_walk_brownian_batch":
                # a path is decided at its stop step, or runs the whole grid
                n_steps = args[4]
                stop_step = out[0]
                tracer.counts["experiments.walker_normals"] += tracer.counts["streams.normals"] - drawn
                tracer.counts["experiments.decided_steps"] += int(np.where(stop_step > 0, stop_step, n_steps).sum())
            return out
    else:
        def wrapper(*args, **kwargs):
            return tracer.timed(name, fn, *args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def _traced_functions(module) -> dict:
    """The module's own functions to trace: public ones, plus the private batch
    engines and runners of ``experiments`` (the layer's real work)."""
    short = module.__name__.rsplit(".", 1)[1]
    found = {}
    for attr, obj in vars(module).items():
        if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
            continue
        if inspect.isgeneratorfunction(obj):
            continue  # a span would close before the generator runs
        if attr.startswith("_") and short != "experiments":
            continue
        found[obj] = f"{short}.{attr}"
    return found


def install(tracer: Tracer) -> list:
    """Wrap the traced modules' functions; returns the undo list for
    :func:`uninstall`."""
    import sigmapaths.experiments as experiments

    namespaces = [m for n, m in sys.modules.items() if n == "sigmapaths" or n.startswith("sigmapaths.")]
    wrappers = {}
    for short in TRACED_MODULES:
        for fn, name in _traced_functions(sys.modules[f"sigmapaths.{short}"]).items():
            wrappers[id(fn)] = (fn, _wrap(tracer, name, fn))
    undo = []
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((ns, attr, obj))
                setattr(ns, attr, hit[1])

    real_philox, real_generator = experiments.Philox, experiments.Generator

    def philox(*args, **kwargs):
        tracer.counts["streams.keys"] += 1
        return tracer.timed("streams.philox", real_philox, *args, **kwargs)

    def generator(bitgen):
        return _CountingGenerator(tracer, tracer.timed("streams.generator", real_generator, bitgen))

    undo += [(experiments, "Philox", real_philox), (experiments, "Generator", real_generator)]
    experiments.Philox, experiments.Generator = philox, generator
    return undo


def uninstall(undo: list) -> None:
    for ns, attr, obj in reversed(undo):
        setattr(ns, attr, obj)
