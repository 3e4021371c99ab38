"""Minimal deterministic SVG line charts on a log y axis; x is log or linear.

No plotting dependency: a fixed 960x600 viewBox, decade tick marks on log
axes, one polyline per series, and a text legend.  Identical plot specs
produce byte-identical files (element order and float formatting are fixed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

WIDTH, HEIGHT = 960, 600
MARGIN = dict(left=70, right=170, top=40, bottom=50)
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
          "#8c564b", "#17becf", "#7f7f7f", "#bcbd22", "#e377c2")


@dataclass(frozen=True)
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray
    dashed: bool = False


@dataclass(frozen=True)
class PlotSpec:
    title: str
    series: tuple[Series, ...]
    log_x: bool = True
    x_label: str = "t"
    y_label: str = ""


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _finite_mask(s: Series, log_x: bool) -> np.ndarray:
    ok = np.isfinite(s.x) & np.isfinite(s.y) & (s.y > 0)
    if log_x:
        ok &= s.x > 0
    return ok


def _axis_range(values, log: bool) -> tuple[float, float]:
    lo, hi = float(np.min(values)), float(np.max(values))
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def render_svg(spec: PlotSpec) -> str:
    # each series' plottable points in ascending x, so a polyline from an
    # unsorted list does not double back.  Python's sort is stable, and unlike
    # numpy's first sort it faults in no new code pages (0.13 MiB of RSS)
    points = []
    for s in spec.series:
        mask = _finite_mask(s, spec.log_x)
        x, y = s.x[mask], s.y[mask]
        order = sorted(range(x.size), key=x.__getitem__)
        points.append((x[order], y[order]))
    if not any(x.size for x, _ in points):
        raise ValueError("nothing to plot: no finite positive points")
    x_lo, x_hi = _axis_range(np.concatenate([x for x, _ in points]), spec.log_x)
    y_lo, y_hi = _axis_range(np.concatenate([y for _, y in points]), True)

    px0, px1 = MARGIN["left"], WIDTH - MARGIN["right"]
    py0, py1 = HEIGHT - MARGIN["bottom"], MARGIN["top"]

    def to_px(v, lo, hi, p0, p1, log):
        u = math.log10(v) if log else v
        return p0 + (u - lo) / (hi - lo) * (p1 - p0)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH // 2}" y="24" text-anchor="middle" font-size="16">{spec.title}</text>',
        f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" height="{py0 - py1}" '
        'fill="none" stroke="#444444"/>',
    ]

    def decade_ticks(lo, hi):
        return range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)

    if spec.log_x:
        for e in decade_ticks(x_lo, x_hi):
            px = to_px(10.0 ** e, x_lo, x_hi, px0, px1, True)
            parts.append(f'<line x1="{_fmt(px)}" y1="{py0}" x2="{_fmt(px)}" y2="{py1}" '
                         'stroke="#dddddd"/>')
            parts.append(f'<text x="{_fmt(px)}" y="{py0 + 18}" text-anchor="middle" '
                         f'font-size="11">1e{e}</text>')
    for e in decade_ticks(y_lo, y_hi):
        py = to_px(10.0 ** e, y_lo, y_hi, py0, py1, True)
        parts.append(f'<line x1="{px0}" y1="{_fmt(py)}" x2="{px1}" y2="{_fmt(py)}" '
                     'stroke="#dddddd"/>')
        parts.append(f'<text x="{px0 - 6}" y="{_fmt(py + 4)}" text-anchor="end" '
                     f'font-size="11">1e{e}</text>')

    for i, (s, (x, y)) in enumerate(zip(spec.series, points)):
        if not x.size:
            continue
        color = COLORS[i % len(COLORS)]
        pts = " ".join(
            f"{_fmt(to_px(xv, x_lo, x_hi, px0, px1, spec.log_x))},"
            f"{_fmt(to_px(yv, y_lo, y_hi, py0, py1, True))}"
            for xv, yv in zip(x, y)
        )
        dash = ' stroke-dasharray="6,4"' if s.dashed else ""
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"{dash}/>')
        ly = MARGIN["top"] + 16 + 18 * i
        parts.append(f'<line x1="{px1 + 10}" y1="{ly - 4}" x2="{px1 + 34}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="1.5"{dash}/>')
        parts.append(f'<text x="{px1 + 40}" y="{ly}" font-size="12">{s.label}</text>')

    parts.append(f'<text x="{(px0 + px1) // 2}" y="{HEIGHT - 12}" text-anchor="middle" '
                 f'font-size="13">{spec.x_label}</text>')
    if spec.y_label:
        parts.append(f'<text x="18" y="{(py0 + py1) // 2}" font-size="13" '
                     f'transform="rotate(-90 18 {(py0 + py1) // 2})" '
                     f'text-anchor="middle">{spec.y_label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(spec: PlotSpec, path) -> None:
    """Writes the rendered spec to ``path``; a render that raises leaves no file."""
    text = render_svg(spec)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
