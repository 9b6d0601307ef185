"""Report emission: canonical JSON, CSV tables, and self-contained SVG charts.

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
from pathlib import Path as FsPath

import numpy as np

__all__ = [
    "report_json_bytes",
    "write_report",
    "strip_meta",
    "reports_equal_ignoring_meta",
    "svg_line_chart",
    "tables_and_charts",
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


def write_csv_table(path: FsPath, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(fieldnames) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(row.get(k)) for k in fieldnames) + "\n")


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


def svg_line_chart(
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    x_label: str = "",
    y_label: str = "",
    width: int = 640,
    height: int = 400,
) -> str:
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
    if x_label:
        parts.append(
            f'<text x="{ml + pw/2:.1f}" y="{height - 8}" text-anchor="middle">{x_label}</text>'
        )
    if y_label:
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


# ---------------------------------------------------------------------------
# per-experiment tables and charts


def tables_and_charts(envelope: dict) -> tuple[dict, dict]:
    """CSV tables and SVG charts derived from a report envelope.

    Returns ``(tables, charts)``: table name -> (fieldnames, rows), chart
    name -> svg string.
    """
    kind = envelope.get("experiment", "")
    results = envelope.get("results", {})
    tables: dict = {}
    charts: dict = {}
    if kind == "lemma-balance":
        cd = results["classd"]
        rows = [
            {"estimate": name, **cd[name]}
            for name in ("e_mc", "e_int", "e_int_left", "e_log_inv_i", "e_qv_u")
        ]
        tables["estimates"] = (["estimate", "mean", "stderr", "n_samples"], rows)
    elif kind == "azema-law":
        rows = [
            {
                "lo": b["lo"],
                "hi": b["hi"],
                "center": b["center"],
                "empirical": b["empirical"]["mean"],
                "stderr": b["empirical"]["stderr"],
                "n": b["empirical"]["n_samples"],
                "formula": b["formula"],
            }
            for b in results["bins"]
        ]
        tables["bins"] = (["lo", "hi", "center", "empirical", "stderr", "n", "formula"], rows)
        centers = [r["center"] for r in rows]
        charts["bins"] = svg_line_chart(
            [
                ("empirical", centers, [r["empirical"] for r in rows]),
                ("formula", centers, [r["formula"] for r in rows]),
            ],
            title="conditional last-visit survival",
            x_label="state at t",
            y_label="P(g > t | state)",
        )
    elif kind == "two-infinity":
        rows = results["per_horizon"]
        tables["gaps"] = (["horizon", "median_gap"], rows)
        charts["gaps"] = svg_line_chart(
            [("median |M_T - 2 I_T|", [r["horizon"] for r in rows], [r["median_gap"] for r in rows])],
            title="terminal balance gap vs horizon",
            x_label="horizon",
            y_label="median gap",
        )
    elif kind in ("saturation", "tail"):
        rows = [
            {
                "at": r.get("at", r.get("level")),
                "empirical": r["empirical_survival"]["mean"],
                "stderr": r["empirical_survival"]["stderr"],
                "n": r["empirical_survival"]["n_samples"],
                "reference": r["reference"],
            }
            for r in results["levels"]
        ]
        if rows:
            tables["levels"] = (["at", "empirical", "stderr", "n", "reference"], rows)
            charts["levels"] = svg_line_chart(
                [
                    ("empirical", [r["at"] for r in rows], [r["empirical"] for r in rows]),
                    ("reference", [r["at"] for r in rows], [r["reference"] for r in rows]),
                ],
                title=f"{kind}: survival vs level/time",
                x_label="level / time",
                y_label="survival",
            )
    return tables, charts


def write_report(
    out_dir,
    name: str,
    envelope: dict,
    formats: set[str],
) -> list[str]:
    """Write the JSON/CSV/SVG artifacts for one report; returns filenames."""
    out = FsPath(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if "json" in formats:
        p = out / f"{name}.json"
        p.write_bytes(report_json_bytes(envelope))
        written.append(p.name)
    tables, charts = tables_and_charts(envelope)
    if "csv" in formats:
        for tname, (fields, rows) in tables.items():
            p = out / f"{name}_{tname}.csv"
            write_csv_table(p, fields, rows)
            written.append(p.name)
    if "svg" in formats:
        for cname, svg in charts.items():
            p = out / f"{name}_{cname}.svg"
            p.write_text(svg, encoding="utf-8", newline="\n")
            written.append(p.name)
    return written
