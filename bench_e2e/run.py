"""bench_e2e: real Fractal sessions at zero emulated RTT, one workload per run.

    python3 bench_e2e/run.py --workload direct_tcp --seed 7 --seconds 10 --trace 0
    python3 bench_e2e/run.py --workload direct_tcp --seed 7 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` spends half the time on an unwrapped reference window and
half on a wrapped one, prints the per-layer metrics and writes the spans
to ``bench_e2e/out/trace-<workload>.json``.  ``--sessions N`` replaces
the clock by an exact session count (the counts in ``metrics.EXACT``
then repeat run to run).  Every metric is printed by name with its
unit; the last line of output is the result as one JSON object.  The
exit code is non-zero if any session or correctness gate failed.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import signal
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))  # run from a bare checkout

import harness  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, schedule_sha1  # noqa: E402

SETUP_REPEATS = 3  # setup_s is the median of this many set-ups


async def measure_end_to_end(w, seed, seconds, sessions):
    """Set up SETUP_REPEATS times, keep the last system, run the window."""
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        env = await harness.setup(w, seed)
        setups.append(env.setup_s)
        await harness.teardown(env)
        del env
        gc.collect()  # a system is cyclic garbage; start each set-up from a clean heap
    env = await harness.setup(w, seed)
    setups.append(env.setup_s)
    try:
        window = await harness.drive(env, seconds=seconds, sessions=sessions)
        problems = harness.gates(env, window)
    finally:
        await harness.teardown(env)
    # After teardown, so the pool's ended workers are in the RSS figure.
    return window, problems, metrics.end_to_end(window, statistics.median(setups))


async def measure_per_layer(w, seed, seconds, sessions):
    """An unwrapped reference window, then the same again under the wrappers."""
    half = dict(
        seconds=seconds / 2 if seconds else None,
        sessions=sessions // 2 if sessions else None,
    )
    env = await harness.setup(w, seed)
    try:
        untraced = await harness.drive(env, **half)
    finally:
        await harness.teardown(env)
    rec = spans.Recorder()
    env = await harness.setup(w, seed, rec)
    try:
        window = await harness.drive(env, rec=rec, **half)
        problems = harness.gates(env, window) + list(untraced.errors)
    finally:
        await harness.teardown(env)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    rec.write(out / f"trace-{w.name}.json")
    return window, problems, metrics.per_layer(window, rec, untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2005)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--sessions", type=int, help="exact session count instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = WORKLOADS[args.workload]
    seconds = None if args.sessions else args.seconds
    measure = measure_per_layer if args.trace else measure_end_to_end
    print(f"workload {w.name} seed {args.seed} schedule sha1 {schedule_sha1(w, args.seed)}")
    print("host " + json.dumps(metrics.host_block()))
    # A polite kill must unwind through the teardowns too, not skip them.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        window, problems, measured = asyncio.run(measure(w, args.seed, seconds, args.sessions))
    finally:
        harness.stop_children()  # nothing this run started may outlive it

    print(f"sessions {window.attempted} attempted, {window.failed} failed, "
          f"{len(window.latencies_s)} timed, window {window.wall_s:.3f} s")
    for name, (value, unit) in measured.items():
        print(f"{name:36s} {value:16.6f} {unit}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
