"""Run every workload on several seeds and keep every run's metrics.

    python3 bench_e2e/sweep.py --out bench_e2e/out/A.json [--seeds 10] [--seconds 10]
                               [--sessions N] [--trace] [--workload NAME ...]

Each run is its own ``run.py`` process, as the driver runs it.  The
output file holds every value of every metric, per workload, and is
what ``compare.py`` reads.  The table printed at the end gives each
end-to-end metric's median and its spread: the distance between the
first and third quartile of the runs as a share of their median, which
has to stay under the metric's bound for the benchmark to resolve a
change of that size.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, the driver's measure of run-to-run noise."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def run_once(command: list, workload: str, seed: int, trace: int, args) -> dict:
    size = ["--sessions", str(args.sessions)] if args.sessions else ["--seconds", str(args.seconds)]
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--trace", str(trace), *size]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=180)
    if proc.returncode:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload, seeds 1..N")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--sessions", type=int)
    parser.add_argument("--trace", action="store_true", help="also make the traced runs")
    parser.add_argument("--workload", action="append", choices=workloads)
    args = parser.parse_args(argv)

    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    names = args.workload or workloads
    sys.path.insert(0, str(HERE.parent / "src"))
    from metrics import host_block

    result = {"host": host_block(), "seconds": args.seconds, "sessions": args.sessions,
              "seeds": seeds, "runs": {}}
    for name in names:
        kinds = {"end_to_end": 0, **({"per_layer": 1} if args.trace else {})}
        runs = result["runs"][name] = {kind: {} for kind in kinds}
        for seed in seeds:
            for kind, trace in kinds.items():
                for metric, m in run_once(benchmark["command"], name, seed, trace, args)["metrics"].items():
                    runs[kind].setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed} done", file=sys.stderr)
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1))

    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    print(f"{'workload':18s} {'metric':24s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name, runs in result["runs"].items():
        for metric, values in runs["end_to_end"].items():
            shown = f"{spread(values):8.4f}" if len(values) > 1 else "       -"
            print(f"{name:18s} {metric:24s} {statistics.median(values):14.4f} "
                  f"{shown} {bounds[metric]:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
