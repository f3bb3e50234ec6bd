"""Native SVG polyline plots (no external renderer).

Deterministic output: coordinates are rounded to 0.01 px and series are
drawn in input order with a fixed palette, so identical data gives
byte-identical SVG.
"""

from __future__ import annotations

import math

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#17becf", "#7f7f7f")

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64, 16, 34, 44
#: canvas size in px
WIDTH, HEIGHT = 720, 440


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _ticks(lo: float, hi: float, n: int = 5):
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _label(v: float, log: bool) -> str:
    val = 10.0**v if log else v
    return f"{val:.3g}"


def polyline_plot(
    series,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
) -> str:
    """Render a list of {'label', 'x', 'y'} series to a WIDTH x HEIGHT SVG string."""

    def tx(vals, log):
        out = []
        for v in vals:
            if log:
                if v <= 0:
                    out.append(None)
                    continue
                out.append(math.log10(v))
            else:
                out.append(float(v))
        return out

    xs_all, ys_all = [], []
    txy = []
    for ser in series:
        xv = tx(ser["x"], logx)
        yv = tx(ser["y"], logy)
        pts = [(a, b) for a, b in zip(xv, yv) if a is not None and b is not None]
        txy.append(pts)
        xs_all += [p[0] for p in pts]
        ys_all += [p[1] for p in pts]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    iw = WIDTH - _MARGIN_L - _MARGIN_R
    ih = HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x):
        return _MARGIN_L + iw * (x - x_lo) / (x_hi - x_lo)

    def py(y):
        return _MARGIN_T + ih * (1.0 - (y - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{iw}" height="{ih}" '
        'fill="none" stroke="#222" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH/2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>'
        )
    for xt in _ticks(x_lo, x_hi):
        xp = px(xt)
        parts.append(
            f'<line x1="{_fmt(xp)}" y1="{_MARGIN_T + ih}" x2="{_fmt(xp)}" '
            f'y2="{_MARGIN_T + ih + 5}" stroke="#222"/>'
        )
        parts.append(
            f'<text x="{_fmt(xp)}" y="{_MARGIN_T + ih + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_label(xt, logx)}</text>'
        )
    for yt in _ticks(y_lo, y_hi):
        yp = py(yt)
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(yp)}" x2="{_MARGIN_L}" '
            f'y2="{_fmt(yp)}" stroke="#222"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(yp + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_label(yt, logy)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{WIDTH/2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="16" y="{HEIGHT/2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {HEIGHT/2:.1f})">{ylabel}</text>'
        )
    for i, (ser, pts) in enumerate(zip(series, txy)):
        color = PALETTE[i % len(PALETTE)]
        if pts:
            coords = " ".join(f"{_fmt(px(a))},{_fmt(py(b))}" for a, b in pts)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                'stroke-width="1.6"/>'
            )
        label = ser.get("label", "")
        if label:
            ly = _MARGIN_T + 16 + 15 * i
            parts.append(
                f'<line x1="{_MARGIN_L + iw - 120}" y1="{ly - 4}" '
                f'x2="{_MARGIN_L + iw - 100}" y2="{ly - 4}" stroke="{color}" '
                'stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{_MARGIN_L + iw - 94}" y="{ly}" '
                f'font-family="sans-serif" font-size="11">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
