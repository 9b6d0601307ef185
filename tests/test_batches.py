"""Property tests of the batch contract: per-path results do not depend on
how an ensemble is split into batches, draw blocks, row passes or workers."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import reference
from sigmapaths import experiments
from sigmapaths.calculus import tanaka_carried, tanaka_raw
from sigmapaths.decompose import class_d_carried, class_d_finish, class_d_start
from sigmapaths.experiments import generate_rows
from sigmapaths.generators import GeneratorSpec
from sigmapaths.grids import TimeGrid
from sigmapaths.reports import report_json_bytes

from reference import bessel3_rows, brownian_rows, reference_rows, stop_at_mask_rows

_SPECS = {
    "exp_martingale stopped": GeneratorSpec("exp_martingale", {"stop_level": 0.5}, TimeGrid(4.0, 64)),
    "scale_martingale": GeneratorSpec("scale_martingale", {"x0": 2.0}, TimeGrid(1.0, 48)),
}


def _bitwise_equal(a, b):
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@lru_cache(maxsize=None)
def _reports_at_batch_values(batch_values):
    """Non-meta report bytes of every experiment at a small size, run with
    ``experiments._BATCH_VALUES = batch_values``."""
    bessel = GeneratorSpec("bessel3", {"x0": 1.0}, TimeGrid(8.0, 128))
    expmart = GeneratorSpec("exp_martingale", {}, TimeGrid(4.0, 128))
    walk = {"horizon": 4.0, "dt": 0.01}
    runs = {
        "lemma-balance": lambda: experiments.lemma_balance_experiment(_SPECS["exp_martingale stopped"], 20, 7),
        "azema-law bessel3": lambda: experiments.azema_conditional_experiment(bessel, 1.0, 1.0, 2, 20, 7),
        "azema-law exp_martingale": lambda: experiments.azema_conditional_experiment(expmart, 0.5, 1.0, 2, 20, 7),
        "two-infinity": lambda: experiments.two_infinity_check(bessel, [4.0, 8.0], 20, 7),
        "tail T_a": lambda: experiments.tail_experiment("T_a_heavy_tail", 20, 7, **walk),
        "tail sigma_b": lambda: experiments.tail_experiment("sigma_b_expectation", 20, 7, **walk),
        "saturation nonsaturated": lambda: experiments.saturation_probe("nonsaturated_zero_set", 20, 7, **walk),
        "saturation saturated": lambda: experiments.saturation_probe("saturated_level_set", 20, 7, **walk),
    }
    saved = experiments._BATCH_VALUES
    experiments._BATCH_VALUES = batch_values
    try:
        return {name: report_json_bytes(run().as_report(), with_meta=False) for name, run in runs.items()}
    finally:
        experiments._BATCH_VALUES = saved


@settings(max_examples=12, deadline=None)
@given(st.integers(1, 4000))
def test_reports_ignore_batch_values(batch_values):
    # 1 to 4000 values: 1-row batches on every walker and up to 31-row batches of the full rows
    assert _reports_at_batch_values(batch_values) == _reports_at_batch_values(1 << 40)


def _in_batches(fn, args, batch_values):
    """Run the batch function ``fn`` on ``args = (first, rows, spec, seed, ...)``
    split into batches of ``_batch_rows(len(grid))`` rows under
    ``experiments._BATCH_VALUES = batch_values``, concatenated in path order."""
    first, rows, spec, common = args[0], args[1], args[2], args[2:]
    saved = experiments._BATCH_VALUES
    experiments._BATCH_VALUES = batch_values
    try:
        size = experiments._batch_rows(len(spec.grid))
    finally:
        experiments._BATCH_VALUES = saved
    parts = [fn((first + f, min(size, rows - f), *common)) for f in range(0, rows, size)]
    return tuple(np.concatenate(v) for v in zip(*parts))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_SPECS)), st.integers(0, 50), st.integers(1, 30), st.integers(1, 3000))
def test_tiled_martingale_batch_matches_one_block(name, first, rows, batch_values):
    spec = _SPECS[name]
    batched = _in_batches(experiments._martingale_batch, (first, rows, spec, 23), batch_values)
    drawn = generate_rows(spec, 23, first, rows)
    assert _bitwise_equal(batched[:-1], reference.class_d_path_stats(drawn))
    # the row of path 0 comes back once, from the batch that starts at it
    assert _bitwise_equal(batched[-1:], (drawn[:1 if first == 0 else 0],))


def _batch_args(rows):
    """Small argument tuples for every batch function of ``experiments``."""
    bessel = GeneratorSpec("bessel3", {"x0": 1.0}, TimeGrid(8.0, 256))
    expmart = GeneratorSpec("exp_martingale", {}, TimeGrid(4.0, 128))
    return {
        "_martingale_batch": (3, rows, expmart, 5),
        "_bessel_revisit_batch": (3, rows, bessel, 5, 1.0, 32),
        "_two_infinity_batch": (3, rows, bessel, 5, 1.0, [128, 256]),
        "_walk_brownian_batch": (3, rows, 5, 4.0, 400, {"a": 1.0, "lower": -2.0}),
    }


def _split_cases(rows):
    """Batch functions taking ``(first, rows, spec, seed, ...)``: the last-visit
    walker on both of its families over three of its restart blocks, and the
    two-infinity batch."""
    long = TimeGrid(8.0, 1200)
    return {
        "last-visit bessel3": (experiments._bessel_revisit_batch,
                               (3, rows, GeneratorSpec("bessel3", {"x0": 1.0}, long), 5, 1.0, 150)),
        "last-visit exp_martingale": (experiments._bessel_revisit_batch,
                                      (3, rows, GeneratorSpec("exp_martingale", {}, long), 5, 0.5, 150)),
        "two-infinity": (experiments._two_infinity_batch, _batch_args(rows)["_two_infinity_batch"]),
    }


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 12))
def test_every_batch_function_returns_per_path_tuple(rows):
    found = {name for name, fn in vars(experiments).items()
             if callable(fn) and name.startswith("_") and name.endswith("_batch")}
    args = _batch_args(rows)
    assert found == set(args)
    for name, a in args.items():
        out = getattr(experiments, name)(a)
        assert isinstance(out, tuple), name
        if name == "_martingale_batch":  # and path 0's row, empty in a batch that starts at path 3
            assert out[-1].shape == (0, 129), out[-1].shape
            out = out[:-1]
        for v in out:
            assert isinstance(v, np.ndarray) and v.shape[0] == rows, (name, type(v), np.shape(v))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(_split_cases(1))), st.integers(1, 12), st.integers(1, 3000))
def test_tiled_batches_ignore_tile_size(name, rows, batch_values):
    fn, args = _split_cases(rows)[name]
    assert _bitwise_equal(_in_batches(fn, args, batch_values), fn(args))


_REVISIT_CASES = {"bessel3": (GeneratorSpec("bessel3", {"x0": 1.0}, TimeGrid(8.0, 256)), (0.5, 1.0, 2.0)),
                  "exp_martingale": (GeneratorSpec("exp_martingale", {}, TimeGrid(8.0, 256)), (0.1, 0.5, 1.0))}


@pytest.mark.parametrize("t_at", ["first", "middle", "last"])
@pytest.mark.parametrize("family", sorted(_REVISIT_CASES))
@settings(max_examples=15, deadline=None)
@given(rows=st.integers(1, 12), seed=st.integers(0, 10**6), level_at=st.integers(0, 2))
def test_last_visit_walker_in_one_block_matches_full_row_scoring(family, t_at, rows, seed, level_at):
    # one block that covers the grid: the restart at every block does nothing
    spec, levels = _REVISIT_CASES[family]
    n = spec.grid.n_steps
    t_idx = {"first": 1, "middle": n // 2, "last": n - 1}[t_at]
    args = (3, rows, spec, seed, levels[level_at], t_idx)
    saved = experiments._REVISIT_BLOCK
    experiments._REVISIT_BLOCK = n
    try:
        walked = experiments._bessel_revisit_batch(args)
    finally:
        experiments._REVISIT_BLOCK = saved
    expected = reference.revisit_reduce(generate_rows(spec, seed, 3, rows), levels[level_at], t_idx,
                                        family == "bessel3")
    assert _bitwise_equal(walked, expected)


def _restart_rows(spec, seed, first, rows, block):
    """Full rows of the last-visit walker's engine: ``_keyed_chunks`` in
    restart blocks of ``block`` steps, with no row retired (the streams are
    counter-based, so retiring a row changes none of its values)."""
    out = np.empty((rows, len(spec.grid)))
    for step, alive, P, _ in experiments._keyed_chunks(spec, seed, first, rows, block, restart=True):
        out[alive, step:step + P.shape[1]] = P
    return out


@pytest.mark.parametrize("t_at", ["first", "middle", "last"])
@pytest.mark.parametrize("family", sorted(_REVISIT_CASES))
@settings(max_examples=15, deadline=None)
@given(rows=st.integers(1, 12), seed=st.integers(0, 10**6), level_at=st.integers(0, 2),
       block=st.one_of(st.integers(1, 16), st.integers(1, 256)))
def test_last_visit_walker_retires_rows_by_blocks_as_full_rows_score(family, t_at, rows, seed, level_at, block):
    # rows retire at the end of the first block past t where they crossed, escaped or reached the horizon
    spec, levels = _REVISIT_CASES[family]
    n = spec.grid.n_steps
    t_idx = {"first": 1, "middle": n // 2, "last": n - 1}[t_at]
    saved = experiments._REVISIT_BLOCK
    experiments._REVISIT_BLOCK = block
    try:
        walked = experiments._bessel_revisit_batch((3, rows, spec, seed, levels[level_at], t_idx))
    finally:
        experiments._REVISIT_BLOCK = saved
    expected = reference.revisit_blocks(_restart_rows(spec, seed, 3, rows, block), levels[level_at], t_idx,
                                        family == "bessel3", block)
    assert _bitwise_equal(walked, expected)


_WALK_GRID = TimeGrid(3.0, 300)
#: ``B`` and ``R``, the one- and three-component walks of the engine.
_WALK_SPECS = (GeneratorSpec("brownian", {}, _WALK_GRID), GeneratorSpec("bessel3", {"x0": 1.5}, _WALK_GRID))


class _CountingGenerator:
    """A numpy Generator that counts the normals drawn from it."""

    def __init__(self, bitgen):
        self.gen, self.drawn = np.random.Generator(bitgen), 0

    def standard_normal(self, out):
        self.drawn += out.size
        return self.gen.standard_normal(out=out)


def _walked(spec, rows, block, retire_after=None, restart=False):
    """Walk ``spec`` with ``_keyed_chunks`` in blocks of ``block`` steps,
    checking that column 0 of each block is the value before it, bit for
    bit.  Returns the values after index 0 (NaN where a row no longer
    walks), the ``(step, steps)`` of each yielded block, and the normals each
    row drew, one column per component; row ``i`` is retired after block
    ``retire_after[i]``."""
    g = spec.grid
    out = np.full((rows, g.n_steps), np.nan)
    retired = np.zeros(rows, dtype=bool)
    blocks, gens = [], []

    def counting(bitgen):
        gens.append(_CountingGenerator(bitgen))
        return gens[-1]

    saved, experiments.Generator = experiments.Generator, counting
    try:
        for j, (step, alive, P, stop) in enumerate(experiments._keyed_chunks(
                spec, 31, 4, rows, block, retired, restart=restart)):
            assert not retired[alive].any() and (stop == -1).all()
            assert P.shape == (alive.size, P.shape[1])
            before = np.full(alive.size, spec.params.get("x0", 0.0)) if step == 0 else out[alive, step - 1]
            assert P[:, 0].tobytes() == before.tobytes()
            out[alive, step:step + P.shape[1] - 1] = P[:, 1:]
            blocks.append((step, P.shape[1] - 1))
            if retire_after is not None:
                retired[np.asarray(retire_after) == j] = True
    finally:
        experiments.Generator = saved
    drawn = np.array([gen.drawn for gen in gens]).reshape(rows, -1)
    return out, blocks, drawn


def _block_ends(n_steps, block):
    """Grid indices where the blocks end: every multiple of ``block``, and the end."""
    return sorted({min(b, n_steps) for b in range(block, n_steps + block, block)})


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 320))
def test_keyed_chunks_match_one_block_engine(rows, block):
    g = _WALK_GRID
    for spec, expected in zip(_WALK_SPECS, (brownian_rows(g, 31, 4, rows), bessel3_rows(g, 1.5, 31, 4, rows))):
        assert _walked(spec, rows, block)[0].tobytes() == expected[:, 1:].tobytes()
        # the last-visit walker's restart at every block keeps the values to rounding
        assert np.max(np.abs(_walked(spec, rows, block, restart=True)[0] - expected[:, 1:])) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 320), st.booleans())
def test_keyed_chunk_blocks_keep_every_position_bit(rows, block, restart):
    for spec in _WALK_SPECS:
        W, blocks, drawn = _walked(spec, rows, block, restart=restart)
        if not restart:
            assert W.tobytes() == _walked(spec, rows, _WALK_GRID.n_steps)[0].tobytes()
        ends = _block_ends(_WALK_GRID.n_steps, block)
        assert blocks == list(zip([0, *ends[:-1]], np.diff([0, *ends]).tolist()))
        assert (drawn == _WALK_GRID.n_steps).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 64), st.data())
def test_keyed_chunks_stop_drawing_retired_rows(block, data):
    g = _WALK_GRID
    ends = _block_ends(g.n_steps, block)
    retire_after = data.draw(st.lists(st.integers(0, len(ends)), min_size=1, max_size=6))
    rows = len(retire_after)
    W, _, drawn = _walked(_WALK_SPECS[0], rows, block, retire_after)
    walked = ~np.isnan(W)
    for i, j in enumerate(retire_after):
        assert walked[i].sum() == drawn[i, 0] == ends[min(j, len(ends) - 1)]
    assert W[walked].tobytes() == brownian_rows(g, 31, 4, rows)[:, 1:][walked].tobytes()


_TRIGGERS = {"levels": {"a": 0.8, "lower": -0.5}, "upper": {"a": 0.5}, "line": {"b": 0.5}}


def _walk_in_blocks(block, args):
    saved = experiments._WALK_BLOCK
    experiments._WALK_BLOCK = block
    try:
        return experiments._walk_brownian_batch(args)
    finally:
        experiments._WALK_BLOCK = saved


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6), st.sampled_from(sorted(_TRIGGERS)), st.integers(1, 400))
def test_one_chunk_walk_equals_stop_at_mask_rows(rows, seed, trigger, block):
    g = _WALK_GRID
    params = _TRIGGERS[trigger]
    stop_step, stop_value, run_min, censored = _walk_in_blocks(
        block, (2, rows, seed, g.horizon, g.n_steps, params))
    B = brownian_rows(g, seed, 2, rows)
    mask = np.zeros(B.shape, dtype=bool)
    if "a" in params:
        mask |= B >= params["a"]
    if "lower" in params:
        mask |= B <= params["lower"]
    if "b" in params:  # the times of the walker's grid, TimeGrid(horizon, n_steps)
        mask |= B + params["b"] * g.times >= 1.0
    frozen, stop = stop_at_mask_rows(B, mask)
    assert np.array_equal(censored, ~mask.any(axis=1))
    assert np.array_equal(np.where(censored, g.n_steps, stop_step), stop)
    assert stop_value.tobytes() == frozen[:, -1].tobytes()
    assert run_min.tobytes() == np.min(frozen, axis=1).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6), st.sampled_from(sorted(_TRIGGERS)), st.integers(1, 320))
def test_walk_blocks_match_one_block_per_chunk(rows, seed, trigger, block):
    g = _WALK_GRID
    args = (2, rows, seed, g.horizon, g.n_steps, _TRIGGERS[trigger])
    assert _bitwise_equal(_walk_in_blocks(block, args), _walk_in_blocks(g.n_steps, args))


_GEN_GRID = TimeGrid(4.0, 160)
_GEN_SPECS = {
    f"{family} {params}": GeneratorSpec(family, params, _GEN_GRID) for family, params in [
        ("brownian", {}), ("brownian_stopped_level", {"a": 0.5}),
        ("brownian_stopped_level", {"a": 0.5, "lower": -0.5}), ("brownian_drift_stopped_line", {"b": 0.5}),
        ("exp_martingale", {}), ("exp_martingale", {"stop_level": 0.5}),
        ("exp_martingale", {"stop_line_drift": 0.5}), ("bessel3", {"x0": 1.5}), ("scale_martingale", {"x0": 1.5})]}


def _engine_rows(spec, seed, first, rows, block, bound):
    """``generate_rows`` with draw block ``_WALK_BLOCK = block`` and row passes
    of at most ``bound`` rows.  Returns the rows, the row count of each engine
    pass, and the normals each stream drew (one column per component)."""
    passes, gens = [], []
    keyed_chunks = experiments._keyed_chunks

    def recording(spec, seed, first, rows, *rest):
        passes.append(rows)
        return keyed_chunks(spec, seed, first, rows, *rest)

    def counting(bitgen):
        gens.append(_CountingGenerator(bitgen))
        return gens[-1]

    names = ("_WALK_BLOCK", "_batch_rows", "_keyed_chunks", "Generator")
    saved = [getattr(experiments, name) for name in names]
    for name, value in zip(names, (block, lambda n_cols: bound, recording, counting)):
        setattr(experiments, name, value)
    try:
        out = generate_rows(spec, seed, first, rows)
    finally:
        for name, value in zip(names, saved):
            setattr(experiments, name, value)
    return out, passes, np.array([gen.drawn for gen in gens]).reshape(rows, -1)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_GEN_SPECS)), st.integers(1, 12), st.integers(0, 10**6), st.integers(0, 50),
       st.data())
def test_generate_rows_match_reference_generators(name, rows, seed, first, data):
    block = data.draw(st.integers(1, _GEN_GRID.n_steps), label="block")
    bound = data.draw(st.integers(1, rows), label="bound")
    spec = _GEN_SPECS[name]
    out = _engine_rows(spec, seed, first, rows, block, bound)[0]
    assert out.tobytes() == reference_rows(spec, seed, first, rows)[0].tobytes()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_GEN_SPECS)), st.integers(1, 12), st.integers(0, 10**6), st.data())
def test_stopped_rows_draw_to_the_end_of_their_stop_block(name, rows, seed, data):
    block = data.draw(st.integers(1, _GEN_GRID.n_steps), label="block")
    bound = data.draw(st.integers(1, rows), label="bound")
    spec, n = _GEN_SPECS[name], _GEN_GRID.n_steps
    _, stop = reference_rows(spec, seed, 0, rows)
    drawn = _engine_rows(spec, seed, 0, rows, block, bound)[2]
    if set(spec.params) & {"a", "b", "stop_level", "stop_line_drift"}:
        expected = np.minimum(((stop - 1) // block + 1) * block, n)
    else:
        expected = np.full(rows, n)
    assert drawn.shape[1] == (3 if "x0" in spec.params else 1)
    assert np.array_equal(drawn, np.repeat(expected[:, None], drawn.shape[1], axis=1))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(_GEN_SPECS)), st.integers(1, 40), st.integers(1, 40))
def test_generate_rows_passes_hold_at_most_the_row_bound(name, rows, bound):
    _, passes, _ = _engine_rows(_GEN_SPECS[name], 3, 0, rows, 50, bound)
    assert max(passes) <= bound and sum(passes) == rows and len(passes) == -(-rows // bound)


# The in-place full-row reductions against their one-array-per-step forms in
# ``tests/reference.py``: same bits, and the caller's array left as it was.

_ROW_SHAPES = hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=40)
_ROWS = st.one_of(
    hnp.arrays(np.float64, _ROW_SHAPES,
               elements=st.one_of(st.just(0.0), st.just(-0.0), st.floats(-4.0, 4.0, allow_subnormal=False))),
    hnp.arrays(np.int64, _ROW_SHAPES, elements=st.integers(-3, 3)))


@settings(max_examples=80, deadline=None)
@given(_ROWS)
def test_tanaka_raw_matches_reference(k):
    before = k.copy()
    out = tanaka_raw(k)
    assert out.dtype == np.float64 and out.shape == k.shape
    assert out.tobytes() == reference.tanaka_raw(k).tobytes()
    assert k.tobytes() == before.tobytes()


# The streamed class-(D) batch against the full-row reduction of the reference rows.  A stop level of
# 1e-9 stops about half the rows at step 1; at 0.3 some rows never stop on this grid.
_STREAM_SPECS = {
    f"{family} {params}": GeneratorSpec(family, params, TimeGrid(2.0, 96)) for family, params in [
        ("exp_martingale", {}), ("exp_martingale", {"stop_level": 0.3}), ("exp_martingale", {"stop_level": 1e-9}),
        ("exp_martingale", {"stop_line_drift": 0.5}), ("scale_martingale", {"x0": 1.5})]}


def _streamed_martingale_batch(spec, seed, first, rows, cuts, block):
    """``_martingale_batch`` with ``_WALK_BLOCK = block``, split into row
    batches at ``cuts`` and concatenated in path order, without the row of
    path 0."""
    saved = experiments._WALK_BLOCK
    experiments._WALK_BLOCK = block
    try:
        parts = [experiments._martingale_batch((first + a, b - a, spec, seed))[:-1]
                 for a, b in zip([0, *cuts], [*cuts, rows])]
    finally:
        experiments._WALK_BLOCK = saved
    return tuple(np.concatenate(v) for v in zip(*parts))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_STREAM_SPECS)), st.integers(1, 10), st.integers(0, 10**6), st.data())
def test_martingale_batch_streams_the_full_row_reduction(name, rows, seed, data):
    spec = _STREAM_SPECS[name]
    n = spec.grid.n_steps
    M, stop = reference_rows(spec, seed, 3, rows)
    # 1, a block that ends on some row's stop (n for rows that do not stop), one block, or any
    block = data.draw(st.one_of(st.just(1), st.sampled_from(sorted(set(stop.tolist()))), st.integers(n, 2 * n),
                                st.integers(2, n - 1)), label="block")
    cuts = data.draw(st.lists(st.integers(1, rows - 1), unique=True, max_size=3).map(sorted), label="cuts") \
        if rows > 1 else []
    streamed = _streamed_martingale_batch(spec, seed, 3, rows, cuts, block)
    assert _bitwise_equal(streamed, reference.class_d_path_stats(M))


@pytest.mark.parametrize("block", [1, 2, 3, 24, 91, 95, 96, 200])
def test_martingale_batch_streams_rows_that_stop_at_step_1_and_rows_that_never_stop(block):
    spec = _STREAM_SPECS["exp_martingale {'stop_level': 0.3}"]
    M, stop = reference_rows(spec, 5, 0, 12)
    assert stop[4] == 1 and stop[11] == spec.grid.n_steps and {2, 3, 24, 91} <= set(stop.tolist())
    for cuts in ([], [4, 5]):
        assert _bitwise_equal(_streamed_martingale_batch(spec, 5, 0, 12, cuts, block),
                              reference.class_d_path_stats(M))


_SHAPES = st.tuples(st.integers(1, 6), st.integers(2, 40))
# rows of any positive values, and rows of a few values, which tie at the running minimum and often set no
# new low after the first block
_POSITIVE_ROWS = st.one_of(hnp.arrays(np.float64, _SHAPES, elements=st.floats(1e-3, 1e3)),
                           hnp.arrays(np.float64, _SHAPES, elements=st.sampled_from([0.5, 0.75, 1.0, 2.0])))


@settings(max_examples=100, deadline=None)
@given(_POSITIVE_ROWS, st.data())
def test_class_d_carried_over_blocks_matches_one_block(M, data):
    M[:, 0] = 1.0
    last = M.shape[1] - 1
    # each row held from a drawn index on, as a stopped path is
    for row, held in zip(M, data.draw(st.lists(st.integers(0, last), min_size=len(M), max_size=len(M)))):
        row[held:] = row[held]
    ends = sorted({*data.draw(st.lists(st.integers(1, last), max_size=6)), last})
    before = M.copy()
    carry = class_d_start(len(M))
    terms = np.zeros((2, len(M), last))
    for a, b in zip([0, *ends[:-1]], ends):
        r, j, t = class_d_carried(M[:, a:b + 1], carry, np.empty(2 * M.size))
        terms[:, r, a + j] = t
    assert M.tobytes() == before.tobytes()  # M is only read
    assert _bitwise_equal(class_d_finish(carry, terms), reference.class_d_path_stats(M))


def test_balance_batches_hold_blocks_and_two_rows_of_terms():
    # 300 paths of the balance spec: a batch that held 255 full rows and the reduction's own two peaked
    # near 25 MiB
    spec = GeneratorSpec("exp_martingale", {"stop_level": 1.0}, TimeGrid(4.0, 4096))
    tracemalloc.start()
    try:
        experiments.lemma_balance_experiment(spec, 300, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * experiments._BATCH_VALUES * 8, peak



@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10**6), st.sampled_from([0.5, 1.0, 1.5, 3.0]),
       st.lists(st.integers(1, 128), min_size=1, max_size=5, unique=True).map(sorted))
def test_two_infinity_batch_matches_reference(rows, seed, level, h_indices):
    spec = GeneratorSpec("bessel3", {"x0": 1.0}, TimeGrid(8.0, 128))
    args = (2, rows, spec, seed, level, list(h_indices))
    expected = reference.two_infinity_reduce(generate_rows(spec, seed, 2, rows), level, h_indices)
    assert _bitwise_equal(experiments._two_infinity_batch(args), expected)
    assert args[5] == h_indices


@settings(max_examples=60, deadline=None)
@given(_ROWS.filter(lambda k: k.shape[-1] > 1), st.data())
def test_tanaka_carried_over_blocks_matches_one_block(k, data):
    last = k.shape[-1] - 1
    ends = sorted({*data.draw(st.lists(st.integers(1, last), max_size=6)), last})
    expected = tanaka_raw(k)
    base = np.abs(k[..., 0])
    carry = np.full(base.shape, -0.0)
    out = np.empty(k.shape)
    out[..., 0] = expected[..., 0]
    for a, b in zip([0, *ends[:-1]], ends):
        tanaka_carried(k[..., a:b + 1], base, carry, out[..., a + 1:b + 1], np.empty(out[..., a + 1:b + 1].shape))
    assert out.tobytes() == expected.tobytes()


_TWO_INF_GRID = TimeGrid(8.0, 96)
_TWO_INF_HORIZONS = [24, 48, 96]


def _two_infinity_in_blocks(x0, level, rows, cuts, block):
    """``_two_infinity_batch`` on ``_TWO_INF_GRID`` with ``_TERMINAL_BLOCK =
    block``, split into row batches at ``cuts`` and concatenated in path order."""
    spec = GeneratorSpec("bessel3", {"x0": x0}, _TWO_INF_GRID)
    saved = experiments._TERMINAL_BLOCK
    experiments._TERMINAL_BLOCK = block
    try:
        parts = [experiments._two_infinity_batch((4 + a, b - a, spec, 11, level, _TWO_INF_HORIZONS))
                 for a, b in zip([0, *cuts], [*cuts, rows])]
    finally:
        experiments._TERMINAL_BLOCK = saved
    return tuple(np.concatenate(v) for v in zip(*parts))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(1.0, 1.0), (1.0, 0.5), (2.0, 3.0)]),
       st.one_of(st.sampled_from([1, 24, 48, 96, 500]), st.integers(2, 95)),
       st.lists(st.integers(1, 8), unique=True, max_size=3).map(sorted))
def test_two_infinity_batch_ignores_blocks_and_row_splits(x0_level, block, cuts):
    # S_0 = 1 - level/x0 is 0 (sgn(0) = -1 from the first step), positive or negative; a block of
    # 24 or 48 ends exactly on a horizon index, and 96 or more is one block
    x0, level = x0_level
    rows = 9
    R = generate_rows(GeneratorSpec("bessel3", {"x0": x0}, _TWO_INF_GRID), 11, 4, rows)
    expected = reference.two_infinity_reduce(R, level, _TWO_INF_HORIZONS)
    assert _bitwise_equal(_two_infinity_in_blocks(x0, level, rows, cuts, block), expected)


def test_two_infinity_batches_hold_blocks_not_rows():
    # 130 paths on the default 16384-step grid: a batch that held full rows peaked near 40 MiB
    spec = GeneratorSpec("bessel3", {"x0": 1.0}, TimeGrid(64.0, 16384))
    tracemalloc.start()
    try:
        experiments.two_infinity_check(spec, [4.0, 8.0, 16.0, 32.0, 64.0], 130, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * experiments._BATCH_VALUES * 8, peak


@pytest.mark.parametrize("family", ["bessel3", "scale_martingale"])
def test_bessel_blocks_hold_the_norm_in_the_engine_block(family):
    # 200 rows over 4 blocks of 1000 steps: the 3-component engine block and one temporary of the norm's
    # squares; a norm buffer beside the engine's block would peak near 5.4 row-blocks
    spec = GeneratorSpec(family, {"x0": 1.0}, TimeGrid(4.0, 4000))
    tracemalloc.start()
    try:
        for _ in experiments._keyed_chunks(spec, 3, 0, 200, 1000):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 200 * 1000 * 8, peak


@pytest.mark.parametrize("run", [
    lambda: experiments.tail_experiment("T_a_heavy_tail", 1048, 3, horizon=4.0, dt=1e-3),
    lambda: experiments.saturation_probe("nonsaturated_zero_set", 1048, 3, horizon=4.0, dt=1e-3),
], ids=["tail T_a", "saturation nonsaturated"])
def test_walker_batches_hold_one_engine_block(run):
    # one walker batch of 1048 rows over 4000 steps: a second full-block buffer beside the engine's
    # would peak near 2.4 times _BATCH_VALUES float64s
    tracemalloc.start()
    try:
        run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * experiments._BATCH_VALUES * 8, peak
