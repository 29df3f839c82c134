"""Minimal deterministic SVG line plots.

Byte-identical output for identical input is part of the output
contract, so no plotting framework is used: floats are formatted with
a fixed precision and elements are emitted in a fixed order.  Polyline
coordinates are computed as arrays, by the same IEEE operations in the
same order as for one point at a time, and formatted a few thousand
points per call, so the bytes are those a per-point loop writes.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]

_WIDTH = 640
_HEIGHT = 420
_MARGIN_L = 72
_MARGIN_R = 20
_MARGIN_T = 36
_MARGIN_B = 52
_TICK_TARGET = 6  # about this many ticks per axis, at 1-2-5 steps


def escape(text: str) -> str:
    """Escape XML character data: `&` first, then `<` and `>`."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _widen(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi), or for an empty range one a unit wide.

    Where a unit is below the resolution of `lo` (|lo| >= 2**53) the range
    is a millionth of |lo| wide instead, on the side towards zero.
    """
    if hi > lo:
        return lo, hi
    if lo + 1.0 > lo:
        return lo, lo + 1.0
    d = abs(lo) * 2.0**-20
    return (lo - d, lo) if lo > 0 else (lo, lo + d)


def _nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions using the usual 1-2-5 progression."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return [0.0, 1.0]
    lo, hi = _widen(lo, hi)
    span = hi - lo
    raw = span / (_TICK_TARGET - 1)
    mag = 10.0 ** math.floor(math.log10(raw)) if 0.0 < raw < math.inf else 0.0
    if mag == 0.0:
        # the span overflows, or is a few subnormals wide: tick a copy
        # scaled by a power of two, then scale the ticks back
        s = 0.5 if raw == math.inf else 2.0**600
        return [t / s for t in _nice_ticks(lo * s, hi * s)]
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if span / step <= _TICK_TARGET + 0.5:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        nxt = t + step
        if not t < nxt < math.inf:
            break  # step is below half an ulp of t, or t overflows
        t = nxt
    return ticks or [lo, hi]


def _limits(v: np.ndarray, pad: float) -> tuple[float, float, float]:
    """(scale, lo, hi): the axis of the values v, `pad` of its span wider on
    each side, with lo and hi in units of v * scale.

    scale is 1, or a quarter where the limits or their span would overflow:
    a power of two, so scaled values and their differences are finite.
    """
    lo, hi = _widen(*_extent(v))
    for scale in (1.0, 0.25):
        lo_s, hi_s = lo * scale, hi * scale
        margin = pad * (hi_s - lo_s)
        if math.isfinite((hi_s + margin) - (lo_s - margin)):
            break
    return scale, lo_s - margin, hi_s + margin


def _axis_ticks(lo: float, hi: float, scale: float) -> list[float]:
    """Ticks, in data units, of the axis [lo, hi] given in units scaled by `scale`."""
    big = sys.float_info.max
    return _nice_ticks(max(lo / scale, -big), min(hi / scale, big))


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _drawn_within(p: float, start: int, size: int) -> bool:
    """Whether pixel coordinate p, as `_fmt` draws it, lies in [start, start + size]."""
    return start <= float(_fmt(p)) <= start + size


def _tick_marks(ticks: list[float], to_px, start: int, size: int) -> list[tuple[str, float]]:
    """(label, pixel) of each tick that `_fmt` draws within [start, start + size].

    An axis' labels have the fewest significant digits, at least 6, that
    tell adjacent ticks apart; 17 tell any two doubles apart.
    """
    drawn = [(t, p) for t, p in ((t, to_px(t)) for t in ticks) if _drawn_within(p, start, size)]
    for digits in range(6, 18):
        labels = [f"{t:.{digits}g}" for t, _ in drawn]
        if all(a != b for a, b in zip(labels, labels[1:])):
            break
    return [("0" if s == "-0" else s, p) for s, (_, p) in zip(labels, drawn)]


def _extent(v: np.ndarray) -> tuple[float, float]:
    return (float(np.min(v)), float(np.max(v))) if v.size else (0.0, 0.0)


_POINTS_PER_CALL = 2048


def _points(xs: np.ndarray, ys: np.ndarray) -> str:
    """Pixel pairs as "x,y x,y ...", each coordinate as `_fmt` writes it."""
    # a few thousand points per format call: as fast as one call for the
    # whole series, without holding all of its floats as a tuple at once
    xy = np.column_stack((xs, ys))
    blocks = []
    for start in range(0, len(xy), _POINTS_PER_CALL):
        block = xy[start:start + _POINTS_PER_CALL]
        fmt = " ".join(["%.2f,%.2f"] * len(block))
        blocks.append(fmt % tuple(block.ravel().tolist()))
    return " ".join(blocks)


def line_plot(
    series: list[tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render named (x, y) series to one SVG document string.

    A point whose x or y is not finite is left out of its polyline and of
    the axis limits; where no point is finite the axes span [0, 1].
    """
    finite = []
    for name, x, y in series:
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        finite.append((name, x[keep], y[keep]))
    x_scale, x_lo, x_hi = _limits(np.concatenate([x for _, x, _ in finite]), 0.0)
    y_scale, y_lo, y_hi = _limits(np.concatenate([y for _, _, y in finite]), 0.05)

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    # each takes a float or an array, with the same operations for both
    def px(x):
        return _MARGIN_L + (x * x_scale - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return _MARGIN_T + (y_hi - y * y_scale) / (y_hi - y_lo) * plot_h

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH // 2}" y="22" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title)}</text>',
    ]

    for label, x in _tick_marks(_axis_ticks(x_lo, x_hi, x_scale), px, _MARGIN_L, plot_w):
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_MARGIN_T}" x2="{_fmt(x)}" '
            f'y2="{_HEIGHT - _MARGIN_B}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_HEIGHT - _MARGIN_B + 18}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12">'
            f"{escape(label)}</text>"
        )
    for label, y in _tick_marks(_axis_ticks(y_lo, y_hi, y_scale), py, _MARGIN_T, plot_h):
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{_fmt(y)}" x2="{_WIDTH - _MARGIN_R}" '
            f'y2="{_fmt(y)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">'
            f"{escape(label)}</text>"
        )

    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#333333" stroke-width="1"/>'
    )

    for i, (name, x, y) in enumerate(finite):
        color = _PALETTE[i % len(_PALETTE)]
        out.append(
            f'<polyline points="{_points(px(x), py(y))}" fill="none" '
            f'stroke="{color}" stroke-width="1.6"/>'
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
