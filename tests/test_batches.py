"""Property tests of the batch contract: per-path results do not depend on
how an ensemble is split into batches, tiles or workers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmapaths import experiments
from sigmapaths.decompose import class_d_from_batches, class_d_path_stats
from sigmapaths.generators import GeneratorSpec, generate_rows
from sigmapaths.grids import make_grid

_SPECS = {
    "exp_martingale stopped": GeneratorSpec("exp_martingale", {"stop_level": 0.5}, make_grid(4.0, 64)),
    "scale_martingale": GeneratorSpec("scale_martingale", {"x0": 2.0}, make_grid(1.0, 48)),
}
_ENSEMBLE = generate_rows(_SPECS["exp_martingale stopped"], 17, 0, 40)


def _bitwise_equal(a, b):
    return len(a) == len(b) and all(
        x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, _ENSEMBLE.shape[0] - 1), unique=True, max_size=8))
def test_class_d_from_batches_ignores_row_splits(cuts):
    grid = _SPECS["exp_martingale stopped"].grid
    whole = class_d_from_batches([_ENSEMBLE], grid).as_dict()
    pieces = np.split(_ENSEMBLE, sorted(cuts))
    assert class_d_from_batches(pieces, grid).as_dict() == whole


def _with_tile_values(tile_values, fn, args):
    saved = experiments._TILE_VALUES
    experiments._TILE_VALUES = tile_values
    try:
        return fn(args)
    finally:
        experiments._TILE_VALUES = saved


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_SPECS)), st.integers(0, 50), st.integers(1, 30), st.integers(1, 3000))
def test_tiled_martingale_batch_matches_one_block(name, first, rows, tile_values):
    spec = _SPECS[name]
    tiled = _with_tile_values(tile_values, experiments._martingale_batch, (spec.to_config(), 23, first, rows))
    assert isinstance(tiled, tuple)
    assert _bitwise_equal(tiled, class_d_path_stats(generate_rows(spec, 23, first, rows)))


def _batch_args(rows):
    """Small argument tuples for every batch function of ``experiments``."""
    bessel = GeneratorSpec("bessel3", {"x0": 1.0}, make_grid(8.0, 256)).to_config()
    expmart = GeneratorSpec("exp_martingale", {}, make_grid(4.0, 128)).to_config()
    return {
        "_martingale_batch": (expmart, 5, 3, rows),
        "_bessel_revisit_batch": (5, 3, rows, 1.0, 1.0, 1.0 / 32, 256, 32, 64, 8.0),
        "_expmart_revisit_batch": (expmart, 5, 3, rows, 0.5, 32),
        "_two_infinity_batch": (bessel, 5, 3, rows, 1.0, [128, 256]),
        "_walk_brownian_batch": (5, 3, rows, 1e-2, 400, 100, 1.0, -2.0, None, 1.0),
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
        for v in out:
            assert isinstance(v, np.ndarray) and v.shape[0] == rows, (name, type(v), np.shape(v))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["_expmart_revisit_batch", "_two_infinity_batch"]), st.integers(1, 12),
       st.integers(1, 3000))
def test_tiled_batches_ignore_tile_size(name, rows, tile_values):
    fn, args = getattr(experiments, name), _batch_args(rows)[name]
    one_block = _with_tile_values(1 << 40, fn, args)
    assert _bitwise_equal(_with_tile_values(tile_values, fn, args), one_block)
