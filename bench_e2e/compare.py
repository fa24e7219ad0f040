"""Compare two sweep files, each end-to-end metric against its bound.

    python3 bench_e2e/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two sets of runs
of one commit) and ``B`` the candidate.  One row per (workload, metric):
both medians, ``B / A``, how much worse ``B`` is as a share of ``A``,
the bound, and the verdict.  A metric is *unresolved* when ``A``'s own
run-to-run spread is wider than its bound.  Exits non-zero if any
metric is worse by more than its bound, or if two sets made with the
same ``--sessions`` and seeds disagree on a count that must repeat.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from metrics import END_TO_END, EXACT  # noqa: E402
from sweep import spread  # noqa: E402


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    return (new - base) / base if better == "lower" else (base - new) / base


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__)
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    breaches = 0
    print(f"{'workload':18s} {'metric':24s} {'A median':>13s} {'B median':>13s} "
          f"{'B/A':>7s} {'worse':>8s} {'bound':>6s}  verdict")
    for name in a["runs"]:
        if name not in b["runs"]:
            continue
        for metric, (_, better, bound) in END_TO_END.items():
            va = a["runs"][name]["end_to_end"][metric]
            vb = b["runs"][name]["end_to_end"][metric]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = worse_by(ma, mb, better)
            if worse > bound:
                verdict = "BREACH"
                breaches += 1
            elif len(va) > 1 and spread(va) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{name:18s} {metric:24s} {ma:13.4f} {mb:13.4f} {mb / ma:7.4f} "
                  f"{worse:+8.4f} {bound:6.2f}  {verdict}")

    same_inputs = a["sessions"] and (a["sessions"], a["seeds"]) == (b["sessions"], b["seeds"])
    if same_inputs:
        for name in a["runs"]:
            for kind, metrics_a in a["runs"][name].items():
                metrics_b = b["runs"].get(name, {}).get(kind, {})
                for metric in EXACT:
                    if metric in metrics_a and metrics_a[metric] != metrics_b.get(metric):
                        print(f"{name:18s} {metric:24s} differs between two runs of one seed")
                        breaches += 1
        print("exact counts: compared" + ("" if breaches else ", identical"))
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
