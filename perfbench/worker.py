"""One benchmark process: set a workload up, run whole rounds of it, report.

Started by ``run.py`` with ``src`` on the path.  It prints ``READY`` once the
package is imported and the inputs are written (the end of set-up); a
measuring worker then waits for ``GO`` on its standard input and prints one
JSON line with the wall time of every operation and the scale of the
reference task run after it (see reference.py), the operation counts, the
peak resident memory and, when traced, the layer figures.

``shipped`` runs every command as a fresh ``python -m phasemirror``
subprocess, as a user at a shell does; ``study`` and ``design`` call
``phasemirror.cli.main`` in this process, one command at a time.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback

import phasemirror.cli  # the import is part of set-up

import layertrace
import reference
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(workloads.ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_subprocess(cmd: list[str], log: str) -> tuple[int, float, int]:
    """(exit code, wall seconds, peak RSS in KiB) of one child process."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=workloads.ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed, usage.ru_maxrss


class Runner:
    """Runs the operations of a workload and keeps their timings."""

    def __init__(self, workload: workloads.Workload, in_process: bool) -> None:
        self.workload = workload
        self.in_process = in_process
        self.times: dict[str, list[float]] = collections.defaultdict(list)
        # scale of the reference task run right after each untraced operation
        self.scales: dict[str, list[float]] = collections.defaultdict(list)
        self.reference = reference.matrix_loop if in_process else reference.fresh_interpreter
        self.slots: dict[str, tuple[str, float]] = {}  # slot -> (figure, work)
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.child_rss_kb = 0
        self.tracer = None  # layertrace.Tracer while a traced in-process round runs
        self.span_files: list[str] = []  # traced subprocess rounds write spans here

    def execute(self, argv: list[str], traced: bool) -> tuple[int, float]:
        """Run one command; return (exit code, wall seconds)."""
        log = os.path.join(self.workload.work, "stderr.log")
        if self.in_process:
            main = phasemirror.cli.main
            if traced:
                main = self.tracer.wrap(layertrace.ROOT, main)
            start = time.perf_counter()
            try:
                code = main(argv)
            except Exception:  # a crash is one failed operation, as it is at a shell
                traceback.print_exc()
                code = 1
            return code, time.perf_counter() - start
        cmd = [sys.executable, "-m", "phasemirror"]
        if traced:
            spans = os.path.join(self.workload.work, f"spans{len(self.span_files)}.json")
            self.span_files.append(spans)
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans]
        code, elapsed, rss = run_subprocess(cmd + argv, log)
        if not traced:
            self.child_rss_kb = max(self.child_rss_kb, rss)
        if code:
            with open(log, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read())
        return code, elapsed

    def run_round(self, k: int, traced: bool = False, times=None) -> None:
        times = self.times if times is None else times
        for op in self.workload.round(k):
            code, elapsed = self.execute(op.argv, traced)
            times[op.slot].append(elapsed)
            self.slots[op.slot] = (op.figure, op.work)
            try:
                problems = op.check() if code == 0 else [f"exit code {code}"]
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if not traced:
                self.scales[op.slot].append(self.reference())
            self.attempted += 1
            if problems:
                self.failed += 1
                other = [p for p in problems
                         if not (op.known_fault and p.startswith(op.known_fault))]
                if other:
                    self.unexpected.append(f"{op.slot} round {k}: {'; '.join(other)}")

    def peak_rss_kb(self) -> int:
        if self.in_process:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return self.child_rss_kb


def keep_going(start: float, rounds: int, seconds: float, least: int = 1) -> bool:
    """Whether to start another round: the run ends as close to `seconds` as whole rounds allow."""
    if rounds < least:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / rounds < seconds


def measure(runner: Runner, seconds: float) -> dict:
    start = time.perf_counter()
    k = 0
    while keep_going(start, k, seconds):
        runner.run_round(k)
        k += 1
    return {"rounds": k}


# ---------------------------------------------------------------------------
# traced runs


def import_times() -> dict[str, float]:
    """Median cumulative import time (ms) of phasemirror, scipy and jsonschema.

    From ``python -X importtime``: for each package, the cumulative times of
    its outermost entries (those not nested in another entry of the same
    package) are added up.
    """
    line = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| ( *)(\S+)")
    samples = collections.defaultdict(list)
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import phasemirror.cli"],
            cwd=workloads.ROOT, env=child_env(), capture_output=True, text=True,
            check=True,
        )
        entries = [
            (len(m.group(3)) // 2, m.group(4), int(m.group(2)))
            for m in map(line.match, proc.stderr.splitlines()) if m
        ]
        for package in ("phasemirror", "scipy", "jsonschema"):
            total, stack = 0, []  # stack of (depth, inside package)
            for depth, name, cumulative in reversed(entries):  # parents first
                while stack and stack[-1][0] >= depth:
                    stack.pop()
                inside = bool(stack) and stack[-1][1]
                match = name == package or name.startswith(package + ".")
                if match and not inside:
                    total += cumulative
                stack.append((depth, inside or match))
            samples[package].append(total / 1000.0)
    return {f"import.{p}_ms": statistics.median(v) for p, v in samples.items()}


def _add(stats: dict, more: dict) -> None:
    for name, (calls, seconds) in more.items():
        c, s = stats.get(name, (0, 0.0))
        stats[name] = (c + calls, s + seconds)


def layer_metrics(stats: dict, first: dict, points: int) -> dict[str, tuple[float, str]]:
    """Self time per call of each traced function, us per mirror point, counts of one round."""
    out = {}
    for name in layertrace.SPAN_NAMES:
        if name == layertrace.ROOT:
            key = "cli.self_ms"
        elif name == "inference.analyze_sweep":
            key = "inference.analyze_sweep_self_ms"
        else:
            key = name + "_ms"
        calls, seconds = stats[name]
        out[key] = (1000.0 * seconds / calls, "ms")
    out["opticalstack.us_per_point"] = (
        1e6 * stats["opticalstack.reflectivity_sweep"][1] / points, "us")
    for key in ("config.from_dict_calls", "inference.fit_calls", "inference.estimate_calls",
                "inference.fit_iterations", "inference.grid_points",
                "opticalstack.layer_products"):
        out[key] = (float(first.get(key, 0)), "count")
    for key in ("config.bytes_hashed", "synthlab.bytes_written"):
        out[key] = (float(first.get(key, 0)), "bytes")
    return out


def traced_round(runner: Runner, k: int, times: dict) -> tuple[dict, collections.Counter]:
    """Run round k with spans on; return ({span name: (calls, self s)}, counts)."""
    stats: dict[str, tuple[int, float]] = {}
    if runner.in_process:
        runner.tracer = layertrace.Tracer()
        runner.tracer.install()
        try:
            runner.run_round(k, traced=True, times=times)
        finally:
            runner.tracer.uninstall()
        return layertrace.self_times(runner.tracer.spans), runner.tracer.counts
    runner.span_files.clear()
    runner.run_round(k, traced=True, times=times)
    counts = collections.Counter()
    for path in runner.span_files:
        if not os.path.exists(path):  # the command crashed; its failure is counted
            continue
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        _add(stats, layertrace.self_times(doc["spans"]))
        counts.update(doc["counts"])
    return stats, counts


def traced_run(runner: Runner, seconds: float) -> dict:
    """Alternate traced and untraced rounds; report layer figures and overhead.

    Counts come from the first traced round, so they repeat exactly for a
    given seed.  A layer this workload never calls is timed on one traced
    in-process round of the shipped commands, so that every time reported is
    a measurement; its counts stay this workload's own.
    """
    stats: dict[str, tuple[int, float]] = {}
    first, points = None, 0
    traced_times = collections.defaultdict(list)
    start = time.perf_counter()
    k = 0
    while keep_going(start, k, seconds, least=2):
        if k % 2:  # round 0, which warms caches up, runs untraced
            more, counts = traced_round(runner, k, traced_times)
            _add(stats, more)
            first = counts if first is None else first
            points += counts["opticalstack.points"]
        else:
            runner.run_round(k)
        k += 1

    borrowed = [n for n in layertrace.SPAN_NAMES if n not in stats]
    if borrowed:
        work = os.path.join(runner.workload.work, "shipped")
        shipped = Runner(workloads.Shipped(runner.workload.seed, work), in_process=True)
        more, counts = traced_round(shipped, 0, collections.defaultdict(list))
        runner.unexpected += shipped.unexpected
        _add(stats, {n: more[n] for n in borrowed})
        if "opticalstack.reflectivity_sweep" in borrowed:
            points = counts["opticalstack.points"]

    metrics = layer_metrics(stats, first, points)
    metrics.update({name: (v, "ms") for name, v in import_times().items()})
    traced_s = sum(statistics.median(v) for v in traced_times.values())
    plain_s = sum(statistics.median(runner.times[slot]) for slot in traced_times)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    return {"rounds": k, "layers": metrics, "borrowed": borrowed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="directory for inputs and outputs")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.seed, args.work)
    print("READY", flush=True)
    if args.setup_only or sys.stdin.readline().strip() != "GO":
        return 0
    runner = Runner(workload, in_process=args.workload != "shipped")
    if args.trace:
        result = traced_run(runner, args.seconds)
    else:
        result = measure(runner, args.seconds)
    result.update(
        times=runner.times,
        scales=runner.scales,
        slots=runner.slots,
        attempted=runner.attempted,
        failed=runner.failed,
        unexpected=runner.unexpected,
        peak_rss_kb=runner.peak_rss_kb(),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
