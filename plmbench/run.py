#!/usr/bin/env python3
"""The plmoves benchmark: one command runs a workload, checks every output,
and prints every metric by name and unit.

    python3 plmbench/run.py --workload reduce-s3 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each run is a closed loop: one client, one thread, tasks back to
back.  Task inputs come from ``--seed`` only.

With ``--trace 0`` the tasks run for ``--seconds`` seconds after set-up,
split into BLOCKS consecutive blocks, each in a fresh process, and the last
line of standard output is the end-to-end result.  Its times are scaled to
a fixed speed of the host through a reference loop run between the tasks.
Throughput is the median over consecutive groups of GROUP tasks, so that
one rare slow search does not decide a run; slow tasks show in the tail.
Peak RSS is the median over the blocks, the footprint of a typical stretch
of the run; each block's peak is in the environment line.  With
``--trace 1`` the first PREFIX tasks of the seed run in this process
untraced, traced by the outside-in tracer, and untraced again; the last
line holds the per-layer metrics, and all three passes must produce
identical outputs.  The line before the result records the environment and
the digest of the prefix's outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"  # certify-cli's documents, one directory per process

# Tasks at the head of each seed's stream whose certificate lengths, solved
# share, outputs and layer counts must repeat exactly for that seed.
PREFIX = {"reduce-s3": 12, "search-flip": 4, "certify-cli": 6}
# Blocks per end-to-end run.  A rare large search raises its block's peak
# RSS by up to 2.4x, and a 40 s run holds a few; with 20 blocks these stay
# well short of half, so the median block is a typical one.
BLOCKS = 20
# Tasks per throughput sample: about 16-24 parts each.
GROUP = {"reduce-s3": 4, "search-flip": 2, "certify-cli": 4}
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Timings are reported at a fixed speed of the host: each measured time is
# scaled by REFERENCE_S over the median time of a reference loop run between
# the tasks of its block (or the repeats of set-up).  The host's speed drifts
# by up to 1.7x within seconds to minutes, while a task's time over the
# reference loop's stays within about 8% (NOTES.md).
REFERENCE_S = 0.020
# A runaway search fails its run with MemoryError instead of exhausting the
# host's memory.
MEMORY_CAP = 2 << 30


def _import_program():
    """Import plmoves from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "plmoves" / "__init__.py").is_file():
        sys.exit("plmbench: no program source at src/plmoves; run from a checkout")
    sys.path.insert(0, str(SRC))
    import plmoves

    if Path(plmoves.__file__).resolve().parent != (SRC / "plmoves").resolve():
        sys.exit("plmbench: plmoves imported from %s, not this checkout" % plmoves.__file__)
    sys.path.insert(0, str(HERE))
    return plmoves


def _fresh_import():
    """Import the program and the workloads again, from their compiled
    modules, as a new process would."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("plmoves", "workloads"):
            del sys.modules[name]
    import workloads

    return workloads


def _setup(name, seed, workdir):
    """Imports plus input generation, timed SETUP_REPEATS times.

    Returns (median seconds, workload, prefix inputs); every repeat must
    generate the same inputs.  The objects returned come from the last
    import, which is the one the tracer patches."""
    times, inputs, references = [], None, [_reference_loop()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = _fresh_import().make(name, seed, str(workdir))
        made = [workload.make_input(i) for i in range(PREFIX[name])]
        times.append(time.perf_counter() - t0)
        references.append(_reference_loop())
        if inputs is not None and made != inputs:
            raise AssertionError("input generation is not deterministic for seed %d" % seed)
        inputs = made
    return _at_reference_speed(statistics.median(times), references), workload, inputs


def _reference_loop():
    """Time fixed pure-Python work much like the program's own (tuples,
    sorting, frozensets, dict updates) that runs no program code and holds
    little memory, so that it leaves peak RSS alone.  The collector is off
    while it runs, since a collection would scan the program's heap."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts = {}
        for i in range(20000):
            key = frozenset(tuple(sorted((i * 7919 % 31, i % 7, i % 5))))
            counts[key] = counts.get(key, 0) + 1
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _at_reference_speed(seconds, references):
    """``seconds`` measured among reference loops that took ``references``,
    scaled to a host on which the loop takes REFERENCE_S."""
    return seconds * REFERENCE_S / statistics.median(references)


def _plain_call(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


class Loop:
    """Runs tasks back to back and keeps each one's time and outcome."""

    def __init__(self, workload, inputs=()):
        self.workload = workload
        self.inputs = inputs
        self.seconds = []
        self.outcomes = []
        self.failed = 0

    def run_one(self, i, timed=_plain_call):
        """Run task i through ``timed(fn, *args) -> (result, seconds)``."""
        wl = self.workload
        inp = self.inputs[i] if i < len(self.inputs) else wl.make_input(i)
        try:
            out, dt = timed(wl.task, wl.prepare(inp))
            outcome = wl.check(inp, out)
        except Exception:  # a wrong answer or a crash fails the run
            self.failed += 1
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            outcome, dt = None, 0.0
        self.seconds.append(dt)
        self.outcomes.append(outcome)


def _digest(outcomes):
    import workloads

    return workloads.digest(*("failed" if o is None else o.digest for o in outcomes))[:16]


def _tail(seconds):
    """(percentile, value) of the highest whole percentile that has at least
    TAIL_BEYOND tasks beyond it, by the nearest-rank rule."""
    ordered = sorted(seconds)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1]
    p = math.floor(100 * (n - TAIL_BEYOND) / n)
    return p, ordered[max(1, math.ceil(p * n / 100)) - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


# ------------------------------------------------------------- end to end


def run_block(name, seed, start, seconds, end_at_least, workdir):
    """One block, in its own process: tasks from index ``start`` until
    ``seconds`` have passed and index ``end_at_least`` is reached."""
    import workloads

    loop = Loop(workloads.make(name, seed, str(workdir)))
    t0 = time.perf_counter()
    i = start
    references = [_reference_loop() for _ in range(3)]
    while i < end_at_least or not loop.seconds or time.perf_counter() - t0 < seconds:
        loop.run_one(i)
        references.append(_reference_loop())
        i += 1
    outcomes = [
        None if o is None else [o.solved, o.parts, o.cert_moves, o.digest]
        for o in loop.outcomes
    ]
    result = {"seconds": loop.seconds, "references": references}
    print(json.dumps({**result, "outcomes": outcomes, "failed": loop.failed}))


def _spawn_block(args, start, seconds, end_at_least):
    """Run a block in a fresh interpreter; returns (its result, its peak RSS
    in MB), taken from the rusage of that process alone."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--seconds", repr(seconds), "--trace", "0"]
    argv += ["--block", str(start), "--end-at-least", str(end_at_least)]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError("block from task %d exited with %d" % (start, proc.returncode))
    return json.loads(out.splitlines()[-1]), usage.ru_maxrss / 1024


def run_end_to_end(args, workdir):
    import workloads

    start = time.perf_counter()
    setup_s, _, _ = _setup(args.workload, args.seed, workdir)
    n = PREFIX[args.workload]
    seconds, raw, references, outcomes, failed, peaks = [], [], [], [], 0, []
    # Each block gets an equal share of the time left, so that process
    # start-up and a block's last task running over do not lengthen the run.
    deadline = time.perf_counter() + args.seconds
    for b in range(BLOCKS):
        share = max(deadline - time.perf_counter(), 0.0) / (BLOCKS - b)
        block, peak = _spawn_block(args, len(seconds), share, n)
        seconds += [_at_reference_speed(t, block["references"]) for t in block["seconds"]]
        raw += block["seconds"]
        references += block["references"]
        outcomes += [None if o is None else workloads.Outcome(*o) for o in block["outcomes"]]
        failed += block["failed"]
        peaks.append(peak)
    size = GROUP[args.workload]
    groups = [seconds[i : i + size] for i in range(0, len(seconds) - size + 1, size)]
    rates = [size / max(sum(g), 1e-9) for g in groups]
    head = outcomes[:n]
    done = [o for o in head if o is not None]
    p, tail = _tail(seconds)
    info = {
        "tasks": len(seconds),
        "tail_percentile": p,
        "max_task_ms": 1000 * max(seconds),
        "measured_task_p50_ms": 1000 * statistics.median(raw),
        "reference_loop_ms": 1000 * statistics.median(references),
        "block_peak_rss_mb": [round(mb, 1) for mb in peaks],
        "wall_s": time.perf_counter() - start,
        "prefix_tasks": n,
        "prefix_digest": _digest(head),
    }
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "tasks_per_s": _metric(statistics.median(rates or [len(seconds) / sum(seconds)]), "1/s"),
        "task_p50_ms": _metric(1000 * statistics.median(seconds), "ms"),
        "task_tail_ms": _metric(1000 * tail, "ms"),
        "solved_frac": _metric(
            sum(o.solved for o in done) / max(1, sum(o.parts for o in done)), "ratio"
        ),
        "cert_moves": _metric(sum(o.cert_moves for o in done), "count"),
        "peak_rss_mb": _metric(statistics.median(peaks), "MB"),
    }
    return len(seconds), failed, info, metrics


# ----------------------------------------------------------------- traced


def run_traced(args, workdir):
    from tracer import Tracer

    _, workload, inputs = _setup(args.workload, args.seed, workdir)
    n = len(inputs)
    # untraced passes before and after the traced one, so that warm-up
    # does not count as tracing overhead
    plain = [Loop(workload, inputs), Loop(workload, inputs)]
    traced = Loop(workload, inputs)
    tracer = Tracer()
    for i in range(n):
        plain[0].run_one(i)
    tracer.install()
    try:
        for i in range(n):
            traced.run_one(i, tracer.run_task)
    finally:
        tracer.uninstall()
    for i in range(n):
        plain[1].run_one(i)
    failed = sum(loop.failed for loop in (*plain, traced))
    if len({_digest(loop.outcomes) for loop in (*plain, traced)}) != 1:
        failed += 1
        print("plmbench: traced outputs differ from untraced ones", file=sys.stderr)
    phase = sum(traced.seconds)
    untraced = min(sum(loop.seconds) for loop in plain)
    metrics = {k: _metric(v, u) for k, (v, u) in tracer.layer_metrics().items()}
    metrics["trace.overhead_ratio"] = _metric(phase / untraced, "ratio")
    metrics["trace.phase_s"] = _metric(phase, "s")
    metrics["trace.self_sum_s"] = _metric(tracer.self_time_sum(), "s")
    info = {"tasks": n, "prefix_tasks": n, "prefix_digest": _digest(traced.outcomes)}
    return n, failed, info, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PREFIX))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--block", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--end-at-least", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))

    plmoves = _import_program()
    workdir = WORKDIR / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.block is not None:
            run_block(args.workload, args.seed, args.block, args.seconds, args.end_at_least, workdir)
            return 0
        run = run_traced if args.trace else run_end_to_end
        attempted, failed, info, metrics = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()

    info.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        backend=plmoves._kernel.BACKEND,
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
    )
    print(json.dumps({"environment": info}, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
