"""Grid, path and estimate container contracts, and the row stop rule."""

import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sigmapaths import generators
from sigmapaths.grids import (
    McEstimate,
    Path,
    TimeGrid,
    median,
    quantile,
    read_paths_csv,
    write_paths_csv,
)


def test_make_grid_basic():
    g = TimeGrid(1.0, 4)
    assert np.array_equal(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.dt == 0.25


def test_make_grid_single_step():
    g = TimeGrid(2.0, 1)
    assert np.array_equal(g.times, [0.0, 2.0])


def test_make_grid_large_endpoint_exact():
    g = TimeGrid(1.0, 2**20)
    assert abs(g.times[-1] - 1.0) <= 1e-12
    assert g.times[-1] == 1.0


@pytest.mark.parametrize("horizon,n", [(0.0, 4), (-1.0, 4), (1.0, 0), (float("inf"), 4), (float("nan"), 4),
                                       (1.0, np.iinfo(np.intp).max // 8), (1.0, 2**63 - 1)])
def test_make_grid_rejects_bad_arguments(horizon, n):
    with pytest.raises(ValueError):
        TimeGrid(horizon, n)


def test_make_grid_holds_few_copies_of_its_grid():
    TimeGrid(1.0, 4)  # warm up
    tracemalloc.start()
    try:
        g = TimeGrid(64.0, 64000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * g.times.nbytes, peak / g.times.nbytes
    assert g.times.tobytes() == np.linspace(0.0, 64.0, 64001).tobytes()


def test_path_copies_the_caller_array():
    values = np.arange(5.0)
    p = Path(TimeGrid(1.0, 4), values)
    values[1] = -7.0
    assert p.values[1] == 1.0


def test_grid_is_immutable():
    g = TimeGrid(1.0, 4)
    with pytest.raises(ValueError):
        g.times[0] = 3.0


def test_path_rejects_nan_and_length_mismatch():
    g = TimeGrid(1.0, 3)
    with pytest.raises(ValueError, match="non-finite"):
        Path(g, [0.0, np.nan, 0.0, 0.0])
    with pytest.raises(ValueError, match="grid"):
        Path(g, [0.0, 1.0])


def _stop_row(values, level):
    """The shared stop rule at ``values >= level``, and the row frozen from there."""
    stop = generators._first_stop(np.array([values]), None, upper=level)
    return generators._hold(np.array([values]), stop)[0], int(stop[0])


def test_stop_path_first_crossing():
    v = np.array([0.0, 0.5, 1.2, 0.7])
    frozen, k = _stop_row(v, 1.0)
    assert k == 2
    assert np.array_equal(frozen, [0.0, 0.5, 1.2, 1.2])


def test_stop_path_never_triggers():
    v = np.array([0.0, 0.5, 1.2, 0.7])
    frozen, k = _stop_row(v, 5.0)
    assert k == -1  # not stopped
    assert np.array_equal(frozen, v)


def test_stop_path_immediate():
    v = np.array([0.5, 0.6, 0.7, 0.8])
    frozen, k = _stop_row(v, 0.0)
    assert k == 0
    assert np.array_equal(frozen, [0.5, 0.5, 0.5, 0.5])


def test_frozen_tail_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = np.cumsum(np.concatenate([[0.0], rng.standard_normal(64)]))
        level = rng.uniform(0.1, 1.5)
        frozen, k = _stop_row(v, level)
        assert np.all(frozen[k:] == frozen[k])
        assert np.array_equal(frozen[:k], v[:k])


def test_mc_estimate_matches_sample_stats():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    est = McEstimate.from_samples(x)
    assert est.mean == 2.5
    assert est.stderr == pytest.approx(x.std(ddof=1) / 2.0)
    assert est.n_samples == 4
    with pytest.raises(ValueError):
        McEstimate.from_samples([1.0])


# odd and even sizes, repeated values, both zeros, both infinities and NaN
_SAMPLES = st.one_of(
    hnp.arrays(np.float64, st.integers(1, 300), elements=st.sampled_from(
        [-0.0, 0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan])),
    hnp.arrays(np.float64, st.integers(1, 300), elements=st.floats(allow_nan=True, allow_infinity=True)))


@settings(max_examples=300, deadline=None)
@given(_SAMPLES)
def test_median_and_quantile_are_numpys_bit_for_bit(x):
    before = x.tobytes()
    with np.errstate(invalid="ignore"):
        assert np.float64(median(x)).tobytes() == np.float64(np.median(x)).tobytes()
        assert np.float64(quantile(x, 0.995)).tobytes() == np.float64(np.quantile(x, 0.995)).tobytes()
    assert x.tobytes() == before


def test_csv_format_and_roundtrip():
    g = TimeGrid(1.0, 2)
    p = Path(g, [0.0, 1.0 / 3.0, 2.0 / 3.0], label="p0")
    buf = io.StringIO()
    write_paths_csv([p], buf)
    text = buf.getvalue()
    lines = text.split("\n")
    assert lines[0] == "path_id,t,value"
    assert len(lines) == 5 and lines[-1] == ""  # LF endings, one row per point
    # 17 significant digits
    assert "0.33333333333333331" in text
    back = read_paths_csv(io.StringIO(text))
    assert len(back) == 1
    assert np.array_equal(back[0].values, p.values)
    assert back[0].label == "p0"


def test_csv_roundtrip_keeps_the_grid_exactly():
    g = TimeGrid(3.0, 7)
    buf = io.StringIO()
    write_paths_csv([Path(g, np.linspace(-1.0, 2.0, 8), label="p0")], buf)
    back = read_paths_csv(io.StringIO(buf.getvalue()))[0]
    assert back.grid.times.tobytes() == g.times.tobytes()


@pytest.mark.parametrize("times", [(0.0, 0.1, 0.5, 1.0), (0.0, 1.0, 0.5)], ids=["nonuniform", "unordered"])
def test_csv_rejects_a_time_column_off_the_grid(times):
    # the grid comes from the row count and the last time: 0, 1/3, 2/3, 1 and 0, 0.25, 0.5
    text = "path_id,t,value\n" + "".join(f"ok,{t!r},0\n" for t in (0.0, 0.5, 1.0))
    text += "".join(f"bad,{t!r},0\n" for t in times)
    with pytest.raises(ValueError, match="path 'bad'"):
        read_paths_csv(io.StringIO(text))


def test_csv_names_the_line_of_a_short_row():
    with pytest.raises(ValueError, match="line 3: 2 fields, expected 3"):
        read_paths_csv(io.StringIO("path_id,t,value\np0,0,1\np0,1\n"))


def test_csv_rejects_unknown_header():
    with pytest.raises(ValueError, match="header"):
        read_paths_csv(io.StringIO("a,b,c\n1,2,3\n"))


def test_csv_rejects_an_empty_file():
    with pytest.raises(ValueError, match="header"):
        read_paths_csv(io.StringIO(""))


@pytest.mark.parametrize("label", ["a,b", 'say "hi"', "a\rb", "a\nb"])
def test_csv_refuses_a_label_it_cannot_read_back(label):
    p = Path(TimeGrid(1.0, 2), [0.0, 1.0, 2.0], label=label)
    with pytest.raises(ValueError, match=re.escape(f"label {label!r}")):
        write_paths_csv([p], io.StringIO())
