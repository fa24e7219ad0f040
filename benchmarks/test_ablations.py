"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation varies one knob and prints the resulting series/rows, with
an assertion pinning the direction of the effect.
"""

import pytest
from conftest import emit

from repro.bench.capacity import (
    ProxyServiceTimes,
    negotiation_time_experiment,
    retrieval_time_experiment,
)
from repro.bench.experiments import env_meta, measure_traffic
from repro.bench.reporting import render_series, render_table
from repro.core.era import era_overheads
from repro.core.overhead import OverheadModel, paper_case_study_matrices
from repro.core.search import find_adaptation_path
from repro.core.pat import PAT
from repro.core.metadata import AppMeta, PADMeta
from repro.protocols import run_exchange
from repro.protocols.vary_blocking import VaryBlockingProtocol
from repro.simnet.stats import Series
from repro.workload.profiles import LAPTOP_WLAN, PDA_BLUETOOTH


def test_ablation_adaptation_cache(benchmark):
    """Disable the adaptation cache: every negotiation pays the search."""
    service = ProxyServiceTimes(cache_miss_s=0.004, cache_hit_s=0.0005)

    def run():
        with_cache = negotiation_time_experiment((100, 300), service=service)
        no_cache = negotiation_time_experiment(
            (100, 300), service=service, n_environment_kinds=10_000
        )  # effectively every client is a distinct environment
        return with_cache, no_cache

    with_cache, no_cache = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [n, f"{w * 1000:.2f}", f"{nc * 1000:.2f}"]
        for n, w, nc in zip(with_cache.xs, with_cache.ys, no_cache.ys)
    ]
    emit(
        "Ablation: adaptation cache on/off (mean negotiation ms)",
        render_table("", ["clients", "cache on", "cache off"], rows),
    )
    assert all(nc > w for w, nc in zip(with_cache.ys, no_cache.ys))


def test_ablation_rho_sweep(benchmark, era_system, measured):
    """Sweep the application-level bandwidth efficiency rho (paper: 0.6-0.8)."""
    a, b, r = paper_case_study_matrices()
    pat = era_system.proxy.negotiation.pat(era_system.appserver.app_id)
    dev, ntwk = env_meta(PDA_BLUETOOTH)

    def run():
        rows = []
        for rho in (0.6, 0.7, 0.8, 0.9, 1.0):
            model = OverheadModel(cpu_matrix=a, os_matrix=b, net_matrix=r, rho=rho)
            result = find_adaptation_path(pat, model, dev, ntwk)
            rows.append([rho, result.path[-1].pad_id,
                         f"{result.total_overhead_s * 1000:.0f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation: rho sweep, PDA/Bluetooth (winner and total ms)",
        render_table("", ["rho", "winner", "total ms"], rows),
    )
    # Lower rho = slower effective network = totals strictly decrease as
    # rho rises.
    totals = [float(r[2]) for r in rows]
    assert totals == sorted(totals, reverse=True)


def test_ablation_vary_chunk_size(benchmark, corpus):
    """Expected CDC chunk size: traffic vs boundary-detection trade-off."""
    old = corpus.evolved(0, 0)
    new = corpus.evolved(0, 1)
    pairs = list(zip([old.text, *old.images], [new.text, *new.images]))

    def run():
        rows = []
        for mask_bits in (8, 9, 10, 11, 12, 13):
            proto = VaryBlockingProtocol(mask_bits=mask_bits)
            traffic = sum(
                run_exchange(proto, o, n).traffic_bytes for o, n in pairs
            )
            rows.append([1 << mask_bits, traffic])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation: vary-sized blocking expected chunk size vs traffic",
        render_table("", ["expected chunk B", "traffic B"], rows),
    )
    # Coarse chunks drag in more collateral data around each edit.
    assert rows[-1][1] > rows[1][1]


def test_ablation_edge_count(benchmark):
    """CDN edge count sweep: more edges flatten retrieval further."""

    def run():
        out = []
        for n_edges in (1, 5, 10, 20, 40):
            _central, dist = retrieval_time_experiment(
                (300,), n_edges=n_edges
            )
            out.append([n_edges, f"{dist.ys[0] * 1000:.1f}"])
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        "Ablation: edge count vs mean retrieval ms (300-client burst)",
        render_table("", ["edges", "retrieval ms"], rows),
    )
    assert float(rows[-1][1]) < float(rows[0][1]) / 5


def test_ablation_fifth_pad_rsync(benchmark, corpus):
    """Extension: where the rsync-style fix-sized blocking PAD lands.

    The related-work section positions rsync's algorithm between the
    paper's four; measured traffic should fall between gzip and the
    content-defined differencers, tolerating shifts unlike Bitmap.
    """

    def run():
        return measure_traffic(
            corpus, ("direct", "gzip", "fixed", "bitmap", "vary"),
            page_ids=(0, 1),
        )

    m = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[pad, f"{m[pad]['traffic'] / 1024:.1f}"]
            for pad in ("direct", "gzip", "fixed", "bitmap", "vary")]
    emit(
        "Ablation: five-PAD traffic comparison (KB/page, incl. rsync ext.)",
        render_table("", ["PAD", "KB transferred"], rows),
    )
    t = {pad: m[pad]["traffic"] for pad in m}
    assert t["direct"] > t["gzip"] > t["fixed"]
    assert t["vary"] < t["fixed"]


def test_ablation_proactive_vs_reactive(benchmark, corpus):
    """§3.1's trade-off, measured on the real server: proactive encoding
    removes per-request server compute at the cost of response-cache
    memory."""
    from repro.core.system import build_case_study
    from repro.core import inp
    from repro.core.inp import INPMessage, MsgType

    def serve(system, pad_ids):
        old = system.corpus.evolved(0, 0)
        body = {
            "pad_ids": pad_ids,
            "page_id": 0,
            "old_version": 0,
            "new_version": 1,
            "part_requests": [b""] * 5,
        }
        msg = INPMessage(MsgType.APP_REQ, "bench", 0, body)
        system.appserver.handle(inp.encode(msg))
        return system.appserver.stats.encode_time_s

    def run():
        reactive = build_case_study(corpus=corpus, calibrate=False)
        t_reactive = serve(reactive, ["vary"])
        proactive = build_case_study(corpus=corpus, calibrate=False,
                                     proactive=True)
        proactive.appserver.precompute(["vary"], 0, 0, 1)
        t_proactive = serve(proactive, ["vary"])
        cache_entries = len(proactive.appserver._response_cache)
        return t_reactive, t_proactive, cache_entries

    t_reactive, t_proactive, cache_entries = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    emit(
        "Ablation: reactive vs proactive adaptive content (vary PAD)",
        render_table(
            "",
            ["mode", "per-request server encode ms", "cached responses"],
            [
                ["reactive", f"{t_reactive * 1000:.1f}", 0],
                ["proactive", f"{t_proactive * 1000:.2f}", cache_entries],
            ],
        ),
    )
    assert t_proactive < t_reactive / 10
    assert cache_entries == 5
