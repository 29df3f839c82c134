"""Minimal deterministic SVG line plots.

Byte-identical output for identical input is part of the output
contract, so no plotting framework is used: floats are formatted with
a fixed precision and elements are emitted in a fixed order.
"""

from __future__ import annotations

import math

import numpy as np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 72
_MARGIN_R = 20
_MARGIN_T = 36
_MARGIN_B = 52


def escape(text: str) -> str:
    """Escape XML character data: `&` first, then `<` and `>`."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions using the usual 1-2-5 progression."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= target + 0.5:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks or [lo, hi]


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _fmt_tick(v: float) -> str:
    s = f"{v:.6g}"
    return "0" if s == "-0" else s


def line_plot(
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render named (x, y) series to one SVG document string."""
    xs = np.concatenate([np.asarray(x, dtype=float) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, _, y in series])
    x_lo, x_hi = float(np.min(xs)), float(np.max(xs))
    y_lo, y_hi = float(np.min(ys)), float(np.max(ys))
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title)}</text>',
    ]

    for t in _nice_ticks(x_lo, x_hi):
        if t < x_lo - 1e-12 or t > x_hi + 1e-12:
            continue
        x = px(t)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_MARGIN_T}" x2="{_fmt(x)}" '
            f'y2="{_HEIGHT - _MARGIN_B}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_HEIGHT - _MARGIN_B + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f"{escape(_fmt_tick(t))}</text>"
        )
    for t in _nice_ticks(y_lo, y_hi):
        if t < y_lo - 1e-12 or t > y_hi + 1e-12:
            continue
        y = py(t)
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(y)}" x2="{_WIDTH - _MARGIN_R}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">'
            f"{escape(_fmt_tick(t))}</text>"
        )

    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333" stroke-width="1"/>'
    )

    for i, (name, x_arr, y_arr) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{_fmt(px(float(x)))},{_fmt(py(float(y)))}"
            for x, y in zip(np.asarray(x_arr, float), np.asarray(y_arr, float))
            if math.isfinite(float(x)) and math.isfinite(float(y))
        )
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.6"/>'
        )
        lx = _WIDTH - _MARGIN_R - 150
        ly = _MARGIN_T + 16 + 18 * i
        out.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"/>'
        )
        out.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{escape(name)}</text>'
        )

    out.append(
        f'<text x="{_MARGIN_L + plot_w // 2}" y="{_HEIGHT - 12}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f"{escape(xlabel)}</text>"
    )
    out.append(
        f'<text x="18" y="{_MARGIN_T + plot_h // 2}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_MARGIN_T + plot_h // 2})">'
        f"{escape(ylabel)}</text>"
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_line_plot(
    path: str,
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(line_plot(series, title, xlabel, ylabel))
