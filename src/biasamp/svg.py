"""Minimal self-contained SVG 1.1 line plots for sweep outputs.

Theory series render dashed, empirical series solid with error bars when a
matching ``*_std`` column is present, and any amplification-ratio series
adds a horizontal reference line at 1.
"""

from __future__ import annotations

import math
from pathlib import Path

WIDTH, HEIGHT = 680, 460
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 160, 30, 55
PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        ticks.append(round(t, 12))
        t += step
    return ticks


def _log_ticks(lo: float, hi: float) -> list[float]:
    ticks = []
    k = math.floor(math.log10(lo))
    while 10.0 ** k <= hi * (1 + 1e-9):
        if 10.0 ** k >= lo * (1 - 1e-9):
            ticks.append(10.0 ** k)
        k += 1
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


class _Axis:
    def __init__(self, lo: float, hi: float, log: bool, px0: float, px1: float):
        if log:
            if hi <= 0:
                raise ValueError("log scale needs positive data")
            lo = max(lo, hi * 1e-12)
            self.lo, self.hi = math.log10(lo), math.log10(hi)
        else:
            self.lo, self.hi = lo, hi
        if self.hi <= self.lo:
            self.hi = self.lo + 1.0
        pad = 0.04 * (self.hi - self.lo)
        self.lo -= pad
        self.hi += pad
        self.log = log
        self.px0, self.px1 = px0, px1

    def to_px(self, v: float) -> float | None:
        if self.log:
            if v <= 0:
                return None
            v = math.log10(v)
        frac = (v - self.lo) / (self.hi - self.lo)
        return self.px0 + frac * (self.px1 - self.px0)

    def ticks(self) -> list[float]:
        if self.log:
            return _log_ticks(10.0 ** self.lo, 10.0 ** self.hi)
        return _nice_ticks(self.lo, self.hi)


def plottable(xv: float, yv: float, logx: bool, logy: bool) -> bool:
    """Whether a point can be drawn: finite, and positive on a log axis."""
    return (math.isfinite(xv) and math.isfinite(yv)
            and not (logx and xv <= 0) and not (logy and yv <= 0))


def render_plot(columns: dict[str, list[float]], x: str, ys: list[str], path,
                logx: bool = False, logy: bool = False, title: str = "") -> Path:
    """Write a line plot of the named y columns against the x column."""
    if x not in columns:
        raise KeyError(f"missing x column {x!r}")
    missing = [y for y in ys if y not in columns]
    if missing:
        raise KeyError(f"missing y columns: {missing}")
    if not ys:
        raise ValueError("need at least one y series")

    xs = columns[x]
    series = []
    for name in ys:
        # (x, y, std) triples, sorted together so error bars stay on their points
        emp = name.startswith("emp_") and name.endswith("_mean")
        sds = columns.get(name[:-5] + "_std" if emp else None, [math.nan] * len(xs))
        pts = sorted((xv, yv, sd) for xv, yv, sd in zip(xs, columns[name], sds)
                     if plottable(xv, yv, logx, logy))
        if not pts:
            raise ValueError(f"series {name!r} has no plottable points")
        series.append((name, pts))

    ref_line = any("add" in name for name in ys)
    all_x = [p[0] for _, pts in series for p in pts]
    all_y = [p[1] for _, pts in series for p in pts]
    if ref_line:
        all_y.append(1.0)
    ax_x = _Axis(min(all_x), max(all_x), logx, MARGIN_L, WIDTH - MARGIN_R)
    ax_y = _Axis(min(all_y), max(all_y), logy, HEIGHT - MARGIN_B, MARGIN_T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH-MARGIN_R-MARGIN_L}" '
        f'height="{HEIGHT-MARGIN_B-MARGIN_T}" fill="none" stroke="#333"/>',
    ]
    font = 'font-family="sans-serif" font-size="11"'
    for t in ax_x.ticks():
        px = ax_x.to_px(t)
        if px is None or not MARGIN_L - 1 <= px <= WIDTH - MARGIN_R + 1:
            continue
        parts.append(f'<line x1="{px:.1f}" y1="{HEIGHT-MARGIN_B}" x2="{px:.1f}" '
                     f'y2="{HEIGHT-MARGIN_B+5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{HEIGHT-MARGIN_B+18}" {font} '
                     f'text-anchor="middle">{_fmt(t)}</text>')
    for t in ax_y.ticks():
        py = ax_y.to_px(t)
        if py is None or not MARGIN_T - 1 <= py <= HEIGHT - MARGIN_B + 1:
            continue
        parts.append(f'<line x1="{MARGIN_L-5}" y1="{py:.1f}" x2="{MARGIN_L}" '
                     f'y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{MARGIN_L-8}" y="{py+4:.1f}" {font} '
                     f'text-anchor="end">{_fmt(t)}</text>')
    parts.append(f'<text x="{(MARGIN_L+WIDTH-MARGIN_R)/2}" y="{HEIGHT-15}" {font} '
                 f'text-anchor="middle">{x}</text>')
    if title:
        parts.append(f'<text x="{(MARGIN_L+WIDTH-MARGIN_R)/2}" y="18" {font} '
                     f'text-anchor="middle" font-size="13">{title}</text>')

    if ref_line:
        py = ax_y.to_px(1.0)
        if py is not None:
            parts.append(f'<line x1="{MARGIN_L}" y1="{py:.1f}" '
                         f'x2="{WIDTH-MARGIN_R}" y2="{py:.1f}" stroke="black" '
                         f'stroke-dasharray="4,4" stroke-width="1"/>')

    for i, (name, pts) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        dashed = name.startswith("theory_")
        coords = []
        for xv, yv, _ in pts:
            px, py = ax_x.to_px(xv), ax_y.to_px(yv)
            if px is not None and py is not None:
                coords.append(f"{px:.2f},{py:.2f}")
        dash = ' stroke-dasharray="7,4" opacity="0.75"' if dashed else ""
        parts.append(f'<polyline points="{" ".join(coords)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.6"{dash}/>')
        if not dashed:
            for xv, yv, sd in pts:
                if not math.isfinite(sd):
                    continue
                px = ax_x.to_px(xv)
                y_lo, y_hi = ax_y.to_px(max(yv - sd, 1e-300) if logy else yv - sd), \
                    ax_y.to_px(yv + sd)
                if px is None or y_lo is None or y_hi is None:
                    continue
                parts.append(f'<line x1="{px:.2f}" y1="{y_lo:.2f}" x2="{px:.2f}" '
                             f'y2="{y_hi:.2f}" stroke="{color}" stroke-width="1"/>')
        ly = MARGIN_T + 16 + 16 * i
        lx = WIDTH - MARGIN_R + 10
        line_dash = ' stroke-dasharray="7,4"' if dashed else ""
        parts.append(f'<line x1="{lx}" y1="{ly-4}" x2="{lx+22}" y2="{ly-4}" '
                     f'stroke="{color}" stroke-width="1.6"{line_dash}/>')
        parts.append(f'<text x="{lx+27}" y="{ly}" {font}>{name}</text>')

    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")
    return path


def emit_svg(result, path, x_axis: str, y_series: list[str],
             logx: bool = False, logy: bool = False, title: str = "") -> Path:
    """Plot sweep-result columns; see render_plot for the drawing rules."""
    columns = {x_axis: result.column(x_axis)}
    for name in y_series:
        columns[name] = result.column(name)
        if name.startswith("emp_") and name.endswith("_mean"):
            std = name[:-5] + "_std"
            columns[std] = result.column(std)
    return render_plot(columns, x_axis, y_series, path, logx=logx, logy=logy,
                       title=title)
