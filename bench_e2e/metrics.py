"""Turn a driven window (and, for the traced run, its spans) into named metrics.

The names, units and bounds here are the ones ``BENCHMARK.json`` lists;
``tests/test_contract.py`` holds the two to each other.  Each metric is
``(value, unit)``.
"""

from __future__ import annotations

import os
import platform
import time
from collections import Counter, defaultdict

from repro.core.kernelpool import run_kernel
from repro.simnet.stats import percentile
from repro.telemetry import Telemetry

import spans as spans_mod
from harness import Window, peak_rss_mb

__all__ = ["END_TO_END", "PER_LAYER", "end_to_end", "per_layer", "host_block"]

# name -> (unit, better, bound).  failed_share is not here: the contract
# wants metrics that are never 0, so failures travel as the result's
# "failed"/"attempted"/"correct" and any failure fails the run.
END_TO_END = {
    "session_p50_ms": ("ms", "lower", 0.10),
    "session_p90_ms": ("ms", "lower", 0.10),
    "sessions_per_s": ("1/s", "higher", 0.10),
    "cpu_ms_per_session": ("ms", "lower", 0.10),
    "wire_bytes_per_session": ("B", "lower", 0.01),
    "peak_rss_mb": ("MB", "lower", 0.10),
    "setup_s": ("s", "lower", 0.25),
}

# name -> (unit, better).  Times are self times per traced session.
PER_LAYER = {
    "client.self_ms": ("ms", "lower"),
    "client.session_p99_ms": ("ms", "lower"),
    "client.protocol_cache_hit_ratio": ("ratio", "higher"),
    "inp.encode_ms": ("ms", "lower"),
    "inp.decode_ms": ("ms", "lower"),
    "inp.b64_ms": ("ms", "lower"),
    "inp.messages_per_session": ("count", "lower"),
    "inp.bytes_per_message": ("B", "lower"),
    "inp.envelope_overhead_ratio": ("ratio", "lower"),
    "simnet.request_self_ms": ("ms", "lower"),
    "simnet.connect_ms": ("ms", "lower"),
    "simnet.requests_per_session": ("count", "lower"),
    "simnet.connects_per_session": ("count", "lower"),
    "proxy.handle_self_ms": ("ms", "lower"),
    "proxy.cache_hit_ratio": ("ratio", "higher"),
    "proxy.search_ms_per_miss": ("ms", "lower"),
    "proxy.sessions_dropped": ("count", "lower"),
    "cdn.fetch_ms": ("ms", "lower"),
    "cdn.fetches_per_session": ("count", "lower"),
    "cdn.bytes_per_fetch": ("B", "lower"),
    "mobilecode.verify_ms": ("ms", "lower"),
    "mobilecode.deploy_ms": ("ms", "lower"),
    "mobilecode.deploys_per_session": ("count", "lower"),
    "protocols.client_request_ms": ("ms", "lower"),
    "protocols.server_respond_ms": ("ms", "lower"),
    "protocols.client_reconstruct_ms": ("ms", "lower"),
    "protocols.app_bytes_per_session": ("B", "lower"),
    "protocols.savings_ratio": ("ratio", "higher"),
    "appserver.handle_self_ms": ("ms", "lower"),
    "appserver.parts_per_session": ("count", "lower"),
    "appserver.precompute_hits": ("count", "higher"),
    "store.lookup_self_ms": ("ms", "lower"),
    "store.hit_ratio": ("ratio", "higher"),
    "store.computes_per_session": ("count", "lower"),
    "store.inserts_per_session": ("count", "lower"),
    "store.evictions_per_session": ("count", "lower"),
    "store.coalesced": ("count", "higher"),
    "store.bytes_cached_end": ("B", "lower"),
    "kernelpool.call_ms_per_task": ("ms", "lower"),
    "kernelpool.tasks_per_session": ("count", "lower"),
    "kernelpool.ipc_ms_per_task": ("ms", "lower"),
    "kernelpool.restarts": ("count", "lower"),
    "telemetry.spans_per_session": ("count", "lower"),
    "telemetry.counter_incs_per_session": ("count", "lower"),
    "telemetry.est_ms": ("ms", "lower"),
    "trace.closure_error": ("ratio", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

# Counts that are a pure function of (workload, seed, session count): two
# runs with one --seed and one --sessions must print them identically.
# (store.bytes_cached_end is a state, not a count: which records the LRU
# still holds at the end depends on how the two clients interleaved.)
EXACT = (
    "wire_bytes_per_session",
    "inp.messages_per_session",
    "store.hit_ratio",
    "store.computes_per_session",
    "store.inserts_per_session",
    "store.evictions_per_session",
    "kernelpool.tasks_per_session",
)

P99_MIN_SAMPLES = 1000


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(window: Window, setup_s: float) -> dict:
    """The metrics a user of the system would see, wrappers off."""
    ms = [s * 1000.0 for s in window.latencies_s]
    c = window.counts
    values = {
        "session_p50_ms": percentile(ms, 50),
        "session_p90_ms": percentile(ms, 90),
        "sessions_per_s": window.verified / window.wall_s,
        "cpu_ms_per_session": window.cpu_s * 1000.0 / window.attempted,
        "wire_bytes_per_session": (c["wire.client_sent"] + c["wire.client_received"])
        / window.attempted,
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": setup_s,
    }
    return {name: (values[name], unit) for name, (unit, _, _) in END_TO_END.items()}


def _telemetry_costs(n: int = 20000) -> tuple[float, float]:
    """Seconds per tracer span and per counter increment, on a fresh bundle."""
    telemetry = Telemetry()
    tracer, registry = telemetry.tracer, telemetry.registry
    with tracer.span("root"):
        t0 = time.perf_counter()
        for _ in range(n):
            with tracer.span("child"):
                pass
        span_s = (time.perf_counter() - t0) / n
    t0 = time.perf_counter()
    for _ in range(n):
        registry.counter("bench.probe").inc()
    return span_s, (time.perf_counter() - t0) / n


def _pool_ipc_ms(rec: spans_mod.Recorder) -> float:
    """Mean of (time in the pool - the same task run inline), sampled calls."""
    extra = []
    for task, args, pooled_s in rec.pool_samples:
        t0 = time.perf_counter()
        run_kernel(task, *args)
        extra.append(pooled_s - (time.perf_counter() - t0))
    return _ratio(sum(extra) * 1000.0, len(extra))


def per_layer(window: Window, rec: spans_mod.Recorder, untraced: Window) -> dict:
    """Where the traced window's session time went, layer by layer."""
    n = window.attempted
    c = window.counts
    finished = rec.finished()
    selfs = spans_mod.self_times(finished)
    self_s, calls, size = defaultdict(float), Counter(), Counter()
    for s in finished:
        self_s[s.name] += selfs[s.id]
        calls[s.name] += 1
        size[s.name] += s.n

    def ms(*names: str) -> float:
        return sum(self_s[x] for x in names) * 1000.0 / n

    wire = c["wire.client_sent"] + c["wire.client_received"]
    span_s, counter_s = _telemetry_costs()
    untraced_ms = [s * 1000.0 for s in untraced.latencies_s]
    traced_ms = [s * 1000.0 for s in window.latencies_s]
    proxy_lookups = c.get("proxy.cache.hits", 0) + c.get("proxy.cache.misses", 0)
    store = [x for x in self_s if x.startswith("store.")]
    values = {
        "client.self_ms": ms(spans_mod.ROOT),
        "client.session_p99_ms": percentile(untraced_ms, 99)
        if len(untraced_ms) >= P99_MIN_SAMPLES else 0.0,
        "client.protocol_cache_hit_ratio": c.get("client.protocol_cache.hits", 0) / n,
        "inp.encode_ms": ms("inp.encode"),
        "inp.decode_ms": ms("inp.decode"),
        "inp.b64_ms": ms("inp.b64e", "inp.b64d"),
        "inp.messages_per_session": calls["inp.encode"] / n,
        "inp.bytes_per_message": _ratio(size["inp.encode"], calls["inp.encode"]),
        "inp.envelope_overhead_ratio": _ratio(wire, window.app_bytes),
        "simnet.request_self_ms": ms("simnet.request", "simnet.connect"),
        "simnet.connect_ms": ms("simnet.connect"),
        "simnet.requests_per_session": calls["simnet.request"] / n,
        "simnet.connects_per_session": calls["simnet.connect"] / n,
        "proxy.handle_self_ms": ms("proxy.handle"),
        "proxy.cache_hit_ratio": _ratio(c.get("proxy.cache.hits", 0), proxy_lookups),
        "proxy.search_ms_per_miss": _ratio(
            c["proxy.search_seconds"] * 1000.0, c.get("proxy.cache.misses", 0)
        ),
        "proxy.sessions_dropped": c.get("proxy.sessions.dropped", 0),
        "cdn.fetch_ms": ms("cdn.fetch"),
        "cdn.fetches_per_session": calls["cdn.fetch"] / n,
        "cdn.bytes_per_fetch": _ratio(size["cdn.fetch"], calls["cdn.fetch"]),
        "mobilecode.verify_ms": ms("mobilecode.from_wire", "mobilecode.verify"),
        "mobilecode.deploy_ms": ms("mobilecode.deploy"),
        "mobilecode.deploys_per_session": calls["mobilecode.deploy"] / n,
        "protocols.client_request_ms": ms("protocols.client_request"),
        "protocols.server_respond_ms": ms("protocols.server_respond"),
        "protocols.client_reconstruct_ms": ms("protocols.client_reconstruct"),
        "protocols.app_bytes_per_session": window.app_bytes / n,
        "protocols.savings_ratio": 1.0 - _ratio(window.app_bytes, window.raw_bytes),
        "appserver.handle_self_ms": ms("appserver.handle"),
        "appserver.parts_per_session": c.get("appserver.parts_encoded", 0) / n,
        "appserver.precompute_hits": c.get("appserver.precompute_hits", 0),
        "store.lookup_self_ms": ms(*store),
        "store.hit_ratio": _ratio(
            c.get("store.hits", 0) + c.get("store.coalesced", 0), c.get("store.lookups", 0)
        ),
        "store.computes_per_session": c.get("store.computes", 0) / n,
        "store.inserts_per_session": c.get("store.inserts", 0) / n,
        "store.evictions_per_session": c.get("store.evictions", 0) / n,
        "store.coalesced": c.get("store.coalesced", 0),
        "store.bytes_cached_end": c.get("store.bytes_cached", 0),
        "kernelpool.call_ms_per_task": _ratio(
            self_s["kernelpool.call"] * 1000.0, calls["kernelpool.call"]
        ),
        "kernelpool.tasks_per_session": calls["kernelpool.call"] / n,
        "kernelpool.ipc_ms_per_task": _pool_ipc_ms(rec),
        "kernelpool.restarts": c.get("kernelpool.restarts", 0),
        "telemetry.spans_per_session": rec.tracer_spans / n,
        "telemetry.counter_incs_per_session": rec.counter_calls / n,
        "telemetry.est_ms": (rec.tracer_spans * span_s + rec.counter_calls * counter_s)
        * 1000.0 / n,
        "trace.closure_error": spans_mod.closure_error(finished),
        "trace.overhead_ratio": _ratio(percentile(traced_ms, 50), percentile(untraced_ms, 50)),
    }
    return {name: (values[name], unit) for name, (unit, _) in PER_LAYER.items()}


def host_block() -> dict:
    """What a reader needs to put these numbers next to another host's."""
    data = bytes(range(256)) * 256
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for b in data:  # pure Python on purpose: tracks interpreter speed
            acc = (acc * 31 + b) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - t0)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "calibration_s": best,
    }
