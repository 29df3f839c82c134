"""Benchmark of the phasemirror command line, measured from outside the package.

usage: python3 perfbench/run.py --workload {shipped,study,design} --seed N
                                --seconds S --trace {0,1}

Run from the root of the repository.  The package is run from source, as
``python -m phasemirror`` with ``src`` on ``PYTHONPATH``.  Set-up is measured
five times, each in a fresh interpreter that imports the package and writes
the workload's inputs; the last of those processes then runs whole rounds of
the workload for about S seconds.  Times are normalised by a reference task
run right after each of them (reference.py).  Lines before the last one are
a readable report; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md next
to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import reference

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("shipped", "study", "design")
SETUPS = 5
# the worker must be done this long after its measuring time, or it is stopped
GRACE_S = 120


def start_worker(args: argparse.Namespace, work: str, setup_only: bool):
    """Start a worker and wait for its READY line; return (process, set-up seconds)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work,
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    # a session of its own, so that stopping it also stops a command it runs
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    ready = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if ready.strip() != "READY":
        stop(proc)
        raise RuntimeError(f"worker set-up failed (exit code {proc.returncode})")
    return proc, elapsed


def stop(proc: subprocess.Popen) -> None:
    """Kill a worker and everything it started, and wait for it."""
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise RuntimeError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def figures(slots: dict, times: dict) -> dict[str, float]:
    """Per-command figures: median seconds for *_s, work per second of command time for *_per_s."""
    grouped: dict[str, list[tuple[float, list[float]]]] = {}
    for slot, (figure, work) in slots.items():
        grouped.setdefault(figure, []).append((work, times[slot]))
    out = {}
    for figure, entries in grouped.items():
        if figure.endswith("_per_s"):
            done = sum(work * len(ts) for work, ts in entries)
            out[figure] = done / sum(sum(ts) for _, ts in entries)
        else:
            out[figure] = statistics.median(t for _, ts in entries for t in ts)
    return out


def report(args: argparse.Namespace, setups: list[float], result: dict) -> dict:
    """Print the readable report; return the metrics of the result line."""
    times, scales, slots = result["times"], result["scales"], result["slots"]
    print(f"workload {args.workload}, seed {args.seed}, {result['rounds']} rounds, "
          f"{result['attempted']} operations, {result['failed']} failed")
    print("set-up, normalised (s): " + ", ".join(f"{s:.4f}" for s in setups))
    norm = {slot: [t * k for t, k in zip(times[slot], scales[slot])] for slot in slots}
    for slot in slots:
        print(f"  {slot:<18} n={len(times[slot]):<3} median wall {statistics.median(times[slot]):.4f} s"
              f"  reference scale {statistics.median(scales[slot]):.3f}"
              f"  normalised {statistics.median(norm[slot]):.4f} s")
    for line in result["unexpected"]:
        print(f"FAILED {line}")
    if args.trace:
        for name, (value, unit) in sorted(result["layers"].items()):
            print(f"  {name:<36} {value:14.4f} {unit}")
        if result["borrowed"]:
            print("timed on a shipped round: " + ", ".join(result["borrowed"]))
        return {name: {"value": v, "unit": u} for name, (v, u) in result["layers"].items()}
    for name, value in figures(slots, norm).items():
        print(f"  {name:<24} {value:.4f} (normalised)")
    return {
        "round_norm_s": {"value": sum(statistics.median(norm[s]) for s in slots), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024.0, "unit": "MB"},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "phasemirror", "__init__.py")):
        print(f"error: no package source at {SRC}/phasemirror; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2

    work = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    procs = []
    try:
        setups = []
        for i in range(SETUPS):
            last = i == SETUPS - 1
            proc, elapsed = start_worker(args, os.path.join(work, f"setup{i}"), not last)
            procs.append(proc)
            if not last:
                finish(proc, GRACE_S)
            # the measuring worker waits for GO while the reference runs
            setups.append(elapsed * reference.fresh_interpreter())
        proc.stdin.write("GO\n")
        proc.stdin.flush()
        lines = finish(proc, args.seconds + GRACE_S).splitlines()
        result = json.loads(lines[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in procs:
            stop(proc)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    metrics = report(args, setups, result)
    print(json.dumps({
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
