"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: identical data must produce byte-identical files, so
no plotting library, no timestamps, fixed viewport and fixed decimal
formatting throughout.
"""

from __future__ import annotations

import math

WIDTH = 640
HEIGHT = 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 72, 24, 36, 54
COLOR = "#1f77b4"


def _nice_ticks(lo, hi, target=5):
    """Tick positions on a 1-2-5 ladder covering [lo, hi]."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0]
    if hi <= lo:
        hi = lo + max(abs(lo), 1.0) * 1e-3
    raw = (hi - lo) / target
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 0.5 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _fmt_tick(v):
    s = f"{v:g}"
    return "0" if s == "-0" else s


def _px(v):
    return f"{v:.2f}"


def line_plot(path, xs, ys, label, xlabel="", ylabel="", title="", vlines=()):
    """Write a line plot of the points (xs, ys), named label in the legend.

    Non-finite points are dropped.  vlines are x positions drawn as dashed
    vertical markers (asymptotes).  Raises ValueError if no finite data.
    """
    pts = [(float(x), float(y)) for x, y in zip(xs, ys)
           if math.isfinite(x) and math.isfinite(y)]
    if not pts:
        raise ValueError("no finite data to plot")
    all_x = [p[0] for p in pts]
    all_y = [p[1] for p in pts]
    for v in vlines:
        all_x.append(float(v))
    x_lo, x_hi = min(all_x), max(all_x)
    y_lo, y_hi = min(all_y), max(all_y)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad_x = 0.04 * (x_hi - x_lo)
    pad_y = 0.06 * (y_hi - y_lo)
    x_lo, x_hi = x_lo - pad_x, x_hi + pad_x
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = []
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
               f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">')
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    if title:
        out.append(f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="14">{title}</text>')
    # frame
    out.append(f'<rect x="{_px(MARGIN_L)}" y="{_px(MARGIN_T)}" '
               f'width="{_px(plot_w)}" height="{_px(plot_h)}" '
               f'fill="none" stroke="black" stroke-width="1"/>')
    for t in _nice_ticks(x_lo, x_hi):
        if not (x_lo <= t <= x_hi):
            continue
        x = sx(t)
        out.append(f'<line x1="{_px(x)}" y1="{_px(MARGIN_T + plot_h)}" '
                   f'x2="{_px(x)}" y2="{_px(MARGIN_T + plot_h + 5)}" stroke="black"/>')
        out.append(f'<text x="{_px(x)}" y="{_px(MARGIN_T + plot_h + 18)}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="11">{_fmt_tick(t)}</text>')
    for t in _nice_ticks(y_lo, y_hi):
        if not (y_lo <= t <= y_hi):
            continue
        y = sy(t)
        out.append(f'<line x1="{_px(MARGIN_L - 5)}" y1="{_px(y)}" '
                   f'x2="{_px(MARGIN_L)}" y2="{_px(y)}" stroke="black"/>')
        out.append(f'<text x="{_px(MARGIN_L - 8)}" y="{_px(y + 4)}" '
                   f'text-anchor="end" font-family="sans-serif" '
                   f'font-size="11">{_fmt_tick(t)}</text>')
    if xlabel:
        out.append(f'<text x="{_px(MARGIN_L + plot_w / 2)}" y="{HEIGHT - 14}" '
                   f'text-anchor="middle" font-family="sans-serif" '
                   f'font-size="12">{xlabel}</text>')
    if ylabel:
        yc = MARGIN_T + plot_h / 2
        out.append(f'<text x="16" y="{_px(yc)}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12" '
                   f'transform="rotate(-90 16 {_px(yc)})">{ylabel}</text>')
    for v in vlines:
        if x_lo <= v <= x_hi:
            x = sx(v)
            out.append(f'<line x1="{_px(x)}" y1="{_px(MARGIN_T)}" '
                       f'x2="{_px(x)}" y2="{_px(MARGIN_T + plot_h)}" '
                       f'stroke="gray" stroke-width="1" stroke-dasharray="6,4"/>')
    coords = " ".join(f"{_px(sx(x))},{_px(sy(y))}" for x, y in pts)
    out.append(f'<polyline points="{coords}" fill="none" '
               f'stroke="{COLOR}" stroke-width="1.5"/>')
    if label:
        out.append(f'<text x="{_px(MARGIN_L + plot_w - 6)}" '
                   f'y="{_px(MARGIN_T + 16)}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="11" '
                   f'fill="{COLOR}">{label}</text>')
    out.append("</svg>")
    with open(path, "w") as f:
        f.write("\n".join(out))
        f.write("\n")
    return path
