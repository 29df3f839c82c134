import copy
import json
import math
import os
import resource
import subprocess
import sys
import warnings
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape as sax_escape

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import phasemirror
from phasemirror import svgplot
from phasemirror.cli import main
from phasemirror.config import DEFAULT_CONFIG

_SVG = "{http://www.w3.org/2000/svg}"


@given(st.text(alphabet=st.sampled_from("&<>;amp lt\"'x")) | st.text())
def test_escape_matches_saxutils(text):
    assert svgplot.escape(text) == sax_escape(text)


def test_labels_are_escaped_once():
    svg = svgplot.line_plot(
        [("a<b & c>d", np.arange(3.0), np.arange(3.0))], "&amp;", "x", "y"
    )
    assert "a&lt;b &amp; c&gt;d" in svg
    assert ">&amp;amp;</text>" in svg


# --- polyline coordinates against the per-point formatter -------------------


def _oracle_limits(series):
    """Axis limits over the finite pairs, as `line_plot` documents them."""
    keep = [np.isfinite(x) & np.isfinite(y) for x, y in series]
    xs = np.concatenate([x[k] for (x, _), k in zip(series, keep)])
    ys = np.concatenate([y[k] for (_, y), k in zip(series, keep)])
    if not xs.size:
        return 0.0, 1.0, -0.05, 1.05
    x_lo, x_hi = svgplot._widen(float(np.min(xs)), float(np.max(xs)))
    y_lo, y_hi = svgplot._widen(float(np.min(ys)), float(np.max(ys)))
    pad = 0.05 * (y_hi - y_lo)
    return x_lo, x_hi, y_lo - pad, y_hi + pad


def _oracle_points(x_arr, y_arr, x_lo, x_hi, y_lo, y_hi):
    """The per-point polyline formatter `line_plot` used before it drew arrays."""
    plot_w = svgplot._WIDTH - svgplot._MARGIN_L - svgplot._MARGIN_R
    plot_h = svgplot._HEIGHT - svgplot._MARGIN_T - svgplot._MARGIN_B

    def px(x: float) -> float:
        return svgplot._MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return svgplot._MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    return " ".join(
        f"{px(float(x)):.2f},{py(float(y)):.2f}"
        for x, y in zip(np.asarray(x_arr, float), np.asarray(y_arr, float))
        if math.isfinite(float(x)) and math.isfinite(float(y))
    )


def _polylines(svg):
    return [p.get("points") for p in ET.fromstring(svg).iter(_SVG + "polyline")]


_FRAME_X = (svgplot._MARGIN_L, svgplot._WIDTH - svgplot._MARGIN_R)
_FRAME_Y = (svgplot._MARGIN_T, svgplot._HEIGHT - svgplot._MARGIN_B)


def _assert_drawn_in_frame(svg):
    """Every polyline point and grid line lies on the plot frame or within it."""
    root = ET.fromstring(svg)
    xs, ys = [], []
    for points in _polylines(svg):
        for pair in points.split():
            x, y = pair.split(",")
            xs.append(float(x))
            ys.append(float(y))
    for line in root.iter(_SVG + "line"):
        if line.get("stroke") == "#dddddd":
            xs += [float(line.get("x1")), float(line.get("x2"))]
            ys += [float(line.get("y1")), float(line.get("y2"))]
    assert all(_FRAME_X[0] <= x <= _FRAME_X[1] for x in xs), xs
    assert all(_FRAME_Y[0] <= y <= _FRAME_Y[1] for y in ys), ys


def _assert_matches_oracle(series):
    svg = svgplot.line_plot(
        [(f"s{i}", x, y) for i, (x, y) in enumerate(series)], "t", "x", "y"
    )
    _assert_drawn_in_frame(svg)
    got = _polylines(svg)
    limits = _oracle_limits(series)
    assert got == [_oracle_points(x, y, *limits) for x, y in series]
    for points, (x, y) in zip(got, series):
        assert len(points.split()) == np.count_nonzero(np.isfinite(x) & np.isfinite(y))


_FINITE = st.floats(-1e300, 1e300)  # includes +-0.0 and subnormals


@st.composite
def _xy(draw):
    """One (x, y) series of a drawn kind, magnitudes 1e-300 to 1e300."""
    kind = draw(st.sampled_from(["drawn", "constant", "zeros", "long", "ties"]))
    n = draw(st.integers(1, 40) if kind != "long" else st.integers(1, 4000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-300, 300))
    if kind == "drawn":
        x = np.array(draw(st.lists(_FINITE, min_size=n, max_size=n)))
        y = np.array(draw(st.lists(_FINITE, min_size=n, max_size=n)))
    elif kind == "constant":
        x = np.full(n, draw(_FINITE))
        y = np.full(n, draw(_FINITE))
    elif kind == "zeros":
        x = rng.choice([0.0, -0.0], n)
        y = rng.choice([0.0, -0.0], n)
    elif kind == "long":
        x = np.sort(rng.uniform(-1.0, 1.0, n)) * scale
        y = np.cumsum(rng.normal(size=n)) * scale
    else:
        # x from 0 to 548 in eighths maps to pixels on .xx5 ties
        x = np.concatenate([[0.0, 548.0], rng.integers(0, 548 * 8, n) / 8])
        y = rng.uniform(-1.0, 1.0, n + 2) * scale
    if draw(st.booleans()):
        bad = rng.integers(0, len(x), draw(st.integers(1, 3)))
        (x if draw(st.booleans()) else y)[bad] = rng.choice([np.nan, np.inf, -np.inf])
    return x, y


@given(st.lists(_xy(), min_size=1, max_size=3))
def test_polylines_match_the_per_point_formatter(series):
    _assert_matches_oracle(series)


@pytest.mark.parametrize("n", [1, 2047, 2048, 2049, 4097])
def test_polylines_across_format_blocks(n):
    rng = np.random.default_rng(n)
    _assert_matches_oracle([(np.arange(n, dtype=float), rng.normal(size=n))])


def test_pixel_ties_round_as_the_formatter_does():
    x = np.arange(0.0, 548.125, 0.125)
    (points,) = _polylines(svgplot.line_plot([("s", x, x)], "t", "x", "y"))
    xs = [p.split(",")[0] for p in points.split()]
    # 72.125 and 72.375 are exact binary ties: half to even
    assert xs[:4] == ["72.00", "72.12", "72.25", "72.38"]
    _assert_matches_oracle([(x, x)])


def test_axis_limits_come_from_finite_points():
    x = np.arange(5.0)
    y = np.array([1.0, 2.0, np.inf, 3.0, 4.0])
    keep = np.isfinite(y)
    svg = svgplot.line_plot([("s", x, y)], "t", "x", "y")
    assert "nan" not in svg
    assert svg == svgplot.line_plot([("s", x[keep], y[keep])], "t", "x", "y")
    assert _polylines(svg) == ["72.00,352.91 209.00,252.30 483.00,151.70 620.00,51.09"]


def test_no_finite_point_gives_default_axes_and_empty_polyline():
    nothing = [("s", np.array([np.nan, np.inf]), np.array([1.0, -np.inf]))]
    svg = svgplot.line_plot(nothing, "t", "x", "y")
    assert "nan" not in svg and "inf" not in svg
    assert _polylines(svg) == [""]
    assert svg == svgplot.line_plot([("s", np.array([]), np.array([]))], "t", "x", "y")
    labels = [t.text for t in ET.fromstring(svg).iter(_SVG + "text")]
    assert labels[1:7] == ["0", "0.2", "0.4", "0.6", "0.8", "1"]


# --- tick positions -----------------------------------------------------------


def _oracle_ticks(lo, hi, target=6, max_ticks=10_000):
    """The tick loop before it guarded its end: None where that never returned."""
    try:
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
    except (ValueError, OverflowError, ZeroDivisionError):
        return None
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        if len(ticks) == max_ticks:
            return None
        ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        t += step
    return ticks or [lo, hi]


# spans that hung (a step below half an ulp), overflowed, or were empty or
# a few subnormals wide once widened
_BAD_SPANS = [
    (1.0, 1.0 + 2.2e-16),
    (-1e308, 1e308),
    (-1.7976931348623157e308, 1.7976931348623157e308),
    (1e300, 1e300),
    (-2.0**60, -2.0**60),
    (0.0, 5e-324),
    (-5e-324, 1e-323),
]


def _spans(seed, n):
    rng = np.random.default_rng(seed)
    pairs = rng.integers(0, 2**64, (n, 2), dtype=np.uint64).view(np.float64)
    pairs = pairs[np.isfinite(pairs).all(axis=1)]
    lo = rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-320, 307, n)
    near = lo + np.abs(lo) * 10.0 ** -rng.integers(0, 18, n)
    near = np.column_stack([lo, near])
    return _BAD_SPANS + [tuple(p) for p in np.concatenate([pairs, near]).tolist()]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _in_child(code, stdin="", timeout=60):
    """Run `code` in a fresh interpreter, so a hang fails instead of blocking.

    The child may use 2 GiB, so a tick list that grows without end fails
    within seconds instead of filling the machine's memory; one BLAS thread
    keeps numpy's own reservations well inside that.
    """
    src = os.path.dirname(os.path.dirname(phasemirror.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code],
        input=stdin, env=env,
        capture_output=True, text=True, timeout=timeout, preexec_fn=_limit_memory,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def _child_ticks(pairs):
    code = (
        "import json, sys\n"
        "from phasemirror.svgplot import _nice_ticks\n"
        "print(json.dumps([_nice_ticks(lo, hi) for lo, hi in json.load(sys.stdin)]))"
    )
    return json.loads(_in_child(code, json.dumps(pairs)))


def test_nice_ticks_return_for_every_finite_span():
    pairs = _spans(0, 5000)
    got = _child_ticks(pairs)
    for (lo, hi), ticks in zip(pairs, got):
        assert 1 <= len(ticks) <= 20, (lo, hi, ticks)
        assert all(map(math.isfinite, ticks)), (lo, hi, ticks)
        assert ticks == sorted(ticks), (lo, hi, ticks)
    assert got[0] == [1.0 - 2.0**-53]
    assert got[1] == [-8e307, -4e307, 0.0, 4e307, 8e307]


def test_nice_ticks_keep_every_list_that_returned_before():
    pairs = _spans(1, 5000)
    kept = 0
    for (lo, hi), ticks in zip(pairs, _child_ticks(pairs)):
        before = _oracle_ticks(lo, hi)
        if before is not None:
            assert list(map(repr, ticks)) == list(map(repr, before)), (lo, hi)
            kept += 1
    assert kept > 5000


def test_line_plot_returns_on_spans_below_resolution():
    code = (
        "import numpy as np\n"
        "from phasemirror.svgplot import line_plot\n"
        "for y in ([1.0, 1.0 + 2.2e-16, 1.0], [1e300] * 3, [-2.0**60] * 3):\n"
        "    print(line_plot([('s', np.arange(3.0), np.array(y))], 't', 'x', 'y'))"
    )
    out = _in_child(code)
    assert out.count("</svg>") == 3
    assert "nan" not in out and "inf" not in out


# --- spans at the ends of the double range ----------------------------------

_MAX = sys.float_info.max


@pytest.mark.parametrize(
    "x, y",
    [
        ([-1e308, 0.0, 1e308], [0.0, 1.0, 2.0]),
        ([0.0, 1.0, 2.0], [-1e308, 0.0, 1e308]),
        ([-_MAX, 0.0, _MAX], [-_MAX, 0.0, _MAX]),
        # the span is finite, its 5% margins are not
        ([0.0, 1.0], [-0.85e308, 0.85e308]),
        ([0.0, 1.0], [0.5 * _MAX, _MAX]),
    ],
)
def test_spans_wider_than_the_double_range_stay_in_the_frame(x, y):
    x, y = np.array(x), np.array(y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = svgplot.line_plot([("s", x, y)], "t", "x", "y")
    assert "nan" not in svg and "inf" not in svg
    _assert_drawn_in_frame(svg)
    (points,) = _polylines(svg)
    px = [float(p.split(",")[0]) for p in points.split()]
    py = [float(p.split(",")[1]) for p in points.split()]
    # the ends of each axis map to the ends of the frame, in order
    assert px[0] == _FRAME_X[0] and px[-1] == _FRAME_X[1] and px == sorted(px)
    assert py == sorted(py, reverse=True) and py[0] > py[-1]


def test_ticks_outside_the_frame_are_dropped():
    # the only tick of this span, 0.9999999999999999, lies below the axis
    y = np.array([1.0, 1.0 + 2.2e-16, 1.0])
    svg = svgplot.line_plot([("s", np.arange(3.0), y)], "t", "x", "y")
    _assert_drawn_in_frame(svg)
    # y tick labels are the right-aligned texts
    texts = ET.fromstring(svg).iter(_SVG + "text")
    assert [t.text for t in texts if t.get("text-anchor") == "end"] == []


# --- tick labels ------------------------------------------------------------


def _y_labels(svg):
    # y tick labels are the right-aligned texts
    texts = ET.fromstring(svg).iter(_SVG + "text")
    return [t.text for t in texts if t.get("text-anchor") == "end"]


@pytest.mark.parametrize("n_holes", [None, 24])
def test_mirror_sweep_y_labels_are_distinct(tmp_path, n_holes):
    # deep in the stopband R spans a few 1e-6 (12 holes) or 1e-12 (24 holes)
    # below 1, where six significant digits gave adjacent ticks one label
    args = ["mirror", "--out", str(tmp_path / "out")]
    if n_holes is not None:
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        cfg["mirror"]["n_holes"] = n_holes
        (tmp_path / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
        args += ["--config", str(tmp_path / "cfg.json")]
    assert main(args) == 0
    labels = _y_labels((tmp_path / "out" / "mirror_sweep.svg").read_text(encoding="utf-8"))
    assert len(labels) >= 2
    assert all(a != b for a, b in zip(labels, labels[1:])), labels


def test_distinct_tick_labels_keep_six_digits():
    svg = svgplot.line_plot([("s", np.arange(3.0), np.array([0.0, 0.5, 1.0]))], "t", "x", "y")
    assert _y_labels(svg) == ["0", "0.2", "0.4", "0.6", "0.8", "1"]
    # a span of 1e-7 around 1 needs eight digits to tell its ticks apart
    y = 1.0 + np.array([0.0, 1e-7])
    labels = _y_labels(svgplot.line_plot([("s", np.arange(2.0), y)], "t", "x", "y"))
    assert labels == ["1", "1.00000002", "1.00000004", "1.00000006", "1.00000008", "1.0000001"]
