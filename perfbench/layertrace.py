"""Spans around the package's public functions, installed from outside.

``install()`` replaces each traced function by a wrapper that records a span
(name, start, end, parent) and, where the boundary carries a count (bytes,
fit iterations, grid points), adds it up; ``uninstall()`` puts the original
functions back, so untraced rounds run the package unchanged.  Nothing in the
package is edited.
"""

from __future__ import annotations

import collections
import os
import time

from phasemirror import cli, config, emission, inference, modesolver, opticalstack
from phasemirror import svgplot, synthlab


def _bytes_hashed(args, kwargs, result):
    return {"config.bytes_hashed": sum(os.path.getsize(p) for p in args[2].values())}


def _bytes_written(args, kwargs, result):
    return {"synthlab.bytes_written": os.path.getsize(args[1])}


def _sweep_points(args, kwargs, result):
    spec, lams = args
    return {
        "opticalstack.points": len(lams),
        "opticalstack.layer_products": len(lams) * 3 * spec.n_holes,
    }


def _fit(args, kwargs, result):
    return {"inference.fit_calls": 1, "inference.fit_iterations": result.n_iter}


def _estimate(args, kwargs, result):
    grid = kwargs.get("r_points", 101) * kwargs.get("y0_points", 201)
    return {
        "inference.estimate_calls": 1,
        "inference.grid_points": grid * kwargs.get("beta_points", 101),
    }


def _from_dict(args, kwargs, result):
    return {"config.from_dict_calls": 1}


# (owner, attribute, span name, count function).  cli imported write_manifest
# by name, so that binding is replaced as well.
TARGETS = [
    (config.RunConfig, "from_dict", "config.from_dict", _from_dict),
    (config, "write_manifest", "config.write_manifest", _bytes_hashed),
    (cli, "write_manifest", "config.write_manifest", _bytes_hashed),
    (modesolver, "solve_te0", "modesolver.solve_te0", None),
    (emission, "figure1c_curves", "emission.figure1c_curves", None),
    (emission, "figure1d_curves", "emission.figure1d_curves", None),
    (opticalstack, "reflectivity_sweep", "opticalstack.reflectivity_sweep", _sweep_points),
    (synthlab, "generate_sweep", "synthlab.generate_sweep", None),
    (synthlab, "write_sweep_csv", "synthlab.write_csv", _bytes_written),
    (synthlab, "write_histogram_csv", "synthlab.write_csv", _bytes_written),
    (synthlab, "read_sweep_csv", "synthlab.read_csv", None),
    (synthlab, "read_histogram_csv", "synthlab.read_csv", None),
    (inference, "fit_biexponential", "inference.fit_biexponential", _fit),
    (inference, "estimate_parameters", "inference.estimate_parameters", _estimate),
    (inference, "analyze_sweep", "inference.analyze_sweep", None),
    (svgplot, "write_line_plot", "svgplot.write_line_plot", None),
]

ROOT = "cli.main"
SPAN_NAMES = sorted({name for _, _, name, _ in TARGETS} | {ROOT})


class Tracer:
    """Spans and counts of one traced stretch, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index][1:3] = [start, end]
            if count is not None:
                self.counts.update(count(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, count in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, classmethod):
                func = original.__func__
                wrapped = classmethod(self.wrap(name, func, count))
            else:
                wrapped = self.wrap(name, original, count)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> dict[str, tuple[int, float]]:
    """{span name: (calls, total self seconds)}; self time excludes direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for (name, start, end, _), inner in zip(spans, child):
        entry = out.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += end - start - inner
    return {name: (calls, total) for name, (calls, total) in out.items()}
