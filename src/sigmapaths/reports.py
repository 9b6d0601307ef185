"""Report emission: canonical JSON, CSV tables, and self-contained SVG charts.

:func:`write_report` is the one renderer of experiment reports.  It knows no
experiment: each report object gives its JSON envelope (``as_report()``),
its CSV tables (``tables()``: table name -> rows, the header taken from the
row keys) and its ``chart``, a :class:`Chart` that draws columns of one of
those tables, or None.

Reports are byte-deterministic: keys are sorted, floats use ``repr``, and the
only non-reproducible content (wall-clock timestamp, library versions) lives
in a separate ``meta`` object that comparison helpers strip.  Reports are
strict JSON: a non-finite float (an undefined rate, say) is written as
``null``.
"""

from __future__ import annotations

import json
import math
import platform
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path as FsPath
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "report_json_bytes",
    "write_report",
    "strip_meta",
    "reports_equal_ignoring_meta",
    "svg_line_chart",
    "Chart",
]


def _meta() -> dict:
    return {
        "created_at": datetime.now(timezone.utc).isoformat(),
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def _finite_or_null(v):
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite_or_null(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def report_json_bytes(report: dict, with_meta: bool = True) -> bytes:
    doc = _finite_or_null(report)
    if with_meta:
        doc["meta"] = _meta()
    return (json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n").encode("utf-8")


def strip_meta(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k != "meta"}


def reports_equal_ignoring_meta(a: bytes | dict, b: bytes | dict) -> bool:
    da = json.loads(a) if isinstance(a, (bytes, str)) else a
    db = json.loads(b) if isinstance(b, (bytes, str)) else b
    return json.dumps(strip_meta(da), sort_keys=True) == json.dumps(strip_meta(db), sort_keys=True)


def write_csv_table(path: FsPath, rows: Iterable[dict]) -> None:
    """A CSV table of ``rows``, any non-empty iterable of row dicts, with the
    keys of the first row as its header; a generator is written as it goes."""
    rows = iter(rows)
    first = next(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(first) + "\n")
        for row in chain((first,), rows):
            fh.write(",".join(_csv_cell(v) for v in row.values()) + "\n")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


# ---------------------------------------------------------------------------
# minimal SVG line/scatter chart (no external assets)


class Chart(NamedTuple):
    """A report's chart: each ``(label, y column)`` of ``series`` drawn
    against column ``x`` of the report table named ``table``."""

    table: str
    x: str
    series: tuple
    title: str
    x_label: str
    y_label: str


def svg_line_chart(series: list[tuple[str, list[float], list[float]]], title: str, x_label: str,
                   y_label: str) -> str:
    width, height = 640, 400
    ml, mr, mt, mb = 60, 20, 34, 44
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + pw * (x - x0) / (x1 - x0)

    def py(y):
        return mt + ph * (1.0 - (y - y0) / (y1 - y0))

    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width/2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    for i in range(5):
        xv = x0 + (x1 - x0) * i / 4
        yv = y0 + (y1 - y0) * i / 4
        parts.append(
            f'<text x="{px(xv):.1f}" y="{height - mb + 16}" text-anchor="middle" fill="#444">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{py(yv) + 4:.1f}" text-anchor="end" fill="#444">{yv:.3g}</text>'
        )
        if i > 0:
            parts.append(
                f'<line x1="{ml}" y1="{py(yv):.1f}" x2="{ml + pw}" y2="{py(yv):.1f}" stroke="#ddd"/>'
            )
    parts.append(f'<text x="{ml + pw/2:.1f}" y="{height - 8}" text-anchor="middle">{x_label}</text>')
    parts.append(
        f'<text x="16" y="{mt + ph/2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {mt + ph/2:.1f})">{y_label}</text>'
    )
    for k, (label, xs, ys) in enumerate(series):
        color = palette[k % len(palette)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>')
        parts.append(
            f'<text x="{ml + pw - 6}" y="{mt + 16 + 15*k}" text-anchor="end" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_report(out_dir, name: str, report, formats: set[str]) -> list[str]:
    """Write one experiment report and return the file names: its JSON
    envelope, each non-empty table of ``report.tables()`` as CSV, and its
    ``report.chart``, when that names a non-empty table, as SVG."""
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = {t: rows for t, rows in report.tables().items() if rows}
    written = []
    if "json" in formats:
        p = out / f"{name}.json"
        p.write_bytes(report_json_bytes(report.as_report()))
        written.append(p.name)
    if "csv" in formats:
        for t, rows in tables.items():
            p = out / f"{name}_{t}.csv"
            write_csv_table(p, rows)
            written.append(p.name)
    chart = report.chart
    if "svg" in formats and chart is not None and chart.table in tables:
        rows = tables[chart.table]
        series = [(label, [r[chart.x] for r in rows], [r[y] for r in rows]) for label, y in chart.series]
        p = out / f"{name}_{chart.table}.svg"
        p.write_text(svg_line_chart(series, chart.title, chart.x_label, chart.y_label),
                     encoding="utf-8", newline="\n")
        written.append(p.name)
    return written
