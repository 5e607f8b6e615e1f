"""Benchmark for dsconflict: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pairs-wide --seed 1 --seconds 36 --trace 0

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
the end-to-end ones; with ``--trace 1`` wrappers time every layer and the
per-layer metrics are reported instead (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-up (inputs, program objects, one warm-up operation) is repeated this
#: often, at even points across the untraced run, and its median reported.
SETUP_REPEATS = 5
#: Child interpreters started for the interp.* and import.* spans.
START_SAMPLES = 5


def _limit_blas_threads() -> None:
    """At most one BLAS thread per usable core, here and in every child."""
    cores = str(len(os.sched_getaffinity(0)))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = cores


def _time_children(tracer, env: dict) -> None:
    """interp.start (bare interpreter) and import.* (from -X importtime) spans."""
    for _ in range(START_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        tracer.add("interp.start", start, perf_counter())
    for sample in range(START_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import dsconflict"],
                              env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        if sample == 0:
            continue  # the first child may write bytecode caches
        cumulative = {}
        for line in done.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
        parent = tracer.add("import.dsconflict", 0.0, cumulative["dsconflict"])
        tracer.add("import.numpy", 0.0, cumulative.get("numpy", 0.0), parent)


def _loop(ops, seconds: float, between_rounds=None):
    """Whole rounds until ``seconds`` of operation time; returns the record.

    ``times[i]`` holds the durations of operation ``i``, one per round in
    which it succeeded.  ``between_rounds(measured)``, if given, runs untimed
    after every round.
    """
    times: list[list[float]] = [[] for _ in ops]
    attempted = failed = 0
    measured = 0.0
    repeatable = True
    first = None  # digests of the first round, checked after the loop
    while first is None or measured < seconds:
        digests = []
        for op, samples in zip(ops, times):
            attempted += 1
            start = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # counted, reported, and the run goes on
                failed += 1
                measured += perf_counter() - start
                print(f"operation failed: {exc!r}", file=sys.stderr)
                digests.append(None)
                continue
            samples.append(perf_counter() - start)
            measured += samples[-1]
            digests.append(op.digest(result))
        if first is None:
            first = digests
        elif digests != first:
            repeatable = False
        if between_rounds is not None:
            between_rounds(measured)
        if failed == attempted:
            break  # nothing works; main reports the run as failed
    return times, attempted, failed, first, repeatable


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "dsconflict", "__init__.py")):
        print(f"error: no dsconflict sources under {SRC}", file=sys.stderr)
        return 2
    _limit_blas_threads()
    sys.path.insert(0, SRC)
    import refcheck
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    cli = args.workload in workloads.CLI_WORKLOADS
    if cli:
        missing = [p for p in workloads.example_paths(ROOT) if not os.path.isfile(p)]
        if missing:
            print(f"error: missing example documents {missing}", file=sys.stderr)
            return 2
    traced = bool(args.trace)
    if traced or not cli:
        import dsconflict
        if not os.path.abspath(dsconflict.__file__).startswith(SRC + os.sep):
            print(f"error: imported dsconflict from {dsconflict.__file__}", file=sys.stderr)
            return 2

    work = os.path.join(ROOT, "perfbench", ".work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = workloads.Context(ROOT, work, args.seed, traced)
    build = workloads.WORKLOADS[args.workload]

    setups = []

    def set_up():
        start = perf_counter()
        ops, warmups = build(ctx)
        for op in warmups:
            op.call()
        setups.append(perf_counter() - start)
        return ops

    def more_setups(measured: float) -> None:
        # A shared machine changes speed in phases of seconds; set-ups spread
        # over the run keep the median of setup_s off any single phase.  The
        # repeats build fresh inputs and objects; the loop keeps the first.
        while (len(setups) < SETUP_REPEATS
               and measured >= args.seconds * len(setups) / SETUP_REPEATS):
            set_up()

    ops = set_up()
    tracer = spans.Tracer() if traced else None
    if traced:
        _time_children(tracer, ctx.env)
        tracer.install()
    try:
        # set-up is not reported by the traced run, and its spans would mix
        # with the operations'
        times, attempted, failed, first, repeatable = _loop(
            ops, args.seconds, None if traced else more_setups)
    finally:
        if traced:
            tracer.remove()

    correct = repeatable
    if not repeatable:
        print("check failed: outputs changed from one round to the next", file=sys.stderr)
    try:
        for op, digest in zip(ops, first):
            if digest is not None:
                op.check(digest)
    except refcheck.CheckFailed as exc:
        correct = False
        print(f"check failed: {exc}", file=sys.stderr)

    own = resource.RUSAGE_CHILDREN if cli and not traced else resource.RUSAGE_SELF
    # Each operation's fastest time over the rounds.  A shared 2-core host
    # slows the same code by up to 1.9x, in phases from seconds to minutes
    # long, which moved medians of 15-s runs by a third and lower quartiles of
    # 25-s runs by a fifth; the fastest time is what the operation costs when
    # nothing slows it, and a slower program moves it too.
    fastest = [min(samples) for samples in times if samples]
    if not fastest:
        print("error: every operation failed", file=sys.stderr)
        return 1
    print(f"{args.workload}: {attempted - failed} operations in {len(times[0])} rounds, "
          f"{sum(map(sum, times)):.2f} s measured, fastest (ms) "
          f"{[round(1e3 * m, 3) for m in fastest]}", file=sys.stderr)
    if traced:
        tracer.write(os.path.join(work, "trace.json"))
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_ms": (1e3 * statistics.mean(fastest), "ms"),
            "peak_rss_mb": (resource.getrusage(own).ru_maxrss / 1024, "MB"),
        }
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
