"""Closed-loop multi-worker load harness (``fractal-bench load``).

The capacity experiments in :mod:`repro.bench.capacity` replay a
*serialized* arrival process on the discrete-event simulator; this
harness instead drives **real threads** against one shared
proxy + CDN + application-server instance, which is what the
thread-safety work on the serving path exists for.  Each worker owns one
:class:`~repro.core.client.FractalClient` and runs sessions back-to-back
(closed loop: a worker's next session starts when its previous one
finishes) until the deadline:

1. forced negotiation with the adaptation proxy (so the proxy's
   adaptation cache sees sustained traffic and the hit ratio means
   something),
2. PAD retrieval/verify/deploy on the first visit to an environment
   (cached per client afterwards, exactly like a real device),
3. one full page exchange through the negotiated protocol.

Two transports are supported: ``simnet`` (the in-process transport) and
``tcp`` (:class:`~repro.simnet.realnet.TcpTransport`, loopback sockets).
The in-process transport completes a request in zero network time, which
would make a *concurrency* benchmark measure nothing but the GIL — so
the harness wraps whichever transport it uses in
:class:`LatencyTransport`, which sleeps a configurable WAN round-trip
per request the way a remote client would spend it on the wire.  Sleeps
release the GIL, so worker overlap is real.

Every run reports throughput, p50/p95/p99 negotiation latency, the
proxy's adaptation-cache hit ratio, and a **ledger reconciliation**: the
per-worker tallies (kept in plain thread-local lists, no shared state)
must sum to exactly what the shared telemetry registry counted.  A lost
update anywhere in the locked serving path shows up here as a mismatch.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

from ..core.system import CaseStudySystem, build_case_study
from ..drive import Steps, blocking, call, on_loop, run, run_async, sleep
from ..simnet.realnet import TcpTransport
from ..simnet.stats import percentile
from ..workload.pages import Corpus
from ..workload.profiles import PAPER_ENVIRONMENTS

__all__ = [
    "LatencyTransport",
    "AsyncLatencyTransport",
    "WorkerTally",
    "LoadPoint",
    "run_load_point",
    "run_async_load_point",
    "run_load_sweep",
    "run_async_pool_sweep",
    "run_dedup_sweep",
    "sweep_worker_counts",
]

DEFAULT_RTT_MS = 4.0
DEFAULT_DURATION_S = 2.0
# Small pages keep per-session compute well under the emulated RTT so
# the harness measures serving-path concurrency, not codec speed.
LOAD_CORPUS_KWARGS = dict(
    n_pages=2, text_bytes=600, image_bytes=2000, images_per_page=1
)


class LatencyTransport:
    """Transport wrapper that charges a WAN round-trip per request.

    ``request()`` sleeps ``rtt_s`` (half before the call, half after,
    like propagation each way) and then delegates.  ``time.sleep``
    releases the GIL, so N workers overlap their network time — the
    in-process transport alone would serialize everything behind the
    interpreter lock and report meaningless scaling.
    """

    def __init__(self, inner, rtt_s: float) -> None:
        if rtt_s < 0:
            raise ValueError(f"rtt_s must be >= 0, got {rtt_s}")
        self.inner = inner
        self.rtt_s = rtt_s

    def _request_steps(self, src: str, dst: str, payload: bytes) -> Steps:
        if self.rtt_s > 0:
            yield sleep(self.rtt_s / 2)
        response = yield call(self.inner.request, src, dst, payload)
        if self.rtt_s > 0:
            yield sleep(self.rtt_s / 2)
        return response

    request = blocking(_request_steps)


class AsyncLatencyTransport(LatencyTransport):
    """:class:`LatencyTransport` over an asyncio transport.

    ``asyncio.sleep`` suspends only the calling task, so concurrent
    client tasks overlap their emulated propagation time exactly like
    the threaded workers overlap their ``time.sleep``.
    """

    request = on_loop(LatencyTransport._request_steps)


@dataclass
class WorkerTally:
    """One worker's private ledger (no shared mutable state)."""

    worker: int
    sessions: int = 0
    errors: int = 0
    negotiations: int = 0
    pad_download_bytes: int = 0
    app_bytes: int = 0
    negotiation_times_s: list[float] = field(default_factory=list)
    first_error: Optional[str] = None

    def record_success(self, result) -> None:
        self.sessions += 1
        self.negotiations += 1  # force_negotiation: one per session
        self.pad_download_bytes += result.pad_download_bytes
        self.app_bytes += result.app_traffic_bytes
        self.negotiation_times_s.append(result.negotiation_time_s)

    def record_error(self, exc: BaseException) -> None:
        self.errors += 1
        if self.first_error is None:
            self.first_error = f"{type(exc).__name__}: {exc}"


@dataclass
class LoadPoint:
    """Aggregate result of one (worker count, transport) run."""

    workers: int
    transport: str
    duration_s: float          # requested run length
    elapsed_s: float           # measured wall time, start barrier -> last exit
    sessions: int
    errors: int
    throughput_rps: float
    p50_negotiation_s: float
    p95_negotiation_s: float
    p99_negotiation_s: float
    proxy_hit_ratio: float
    per_worker: list[WorkerTally]
    ledger: dict[str, tuple[float, float]]  # name -> (workers' sum, registry)
    reconciled: bool
    mode: str = "threads"      # "threads" or "async"
    pool_workers: int = 0      # kernel-pool processes (async mode only)
    dedup: str = ""            # "", "off", "cold", or "warm"
    store: Optional[dict] = None  # fleet-store window deltas (dedup runs)

    def speedup_vs(self, baseline: "LoadPoint") -> float:
        if baseline.throughput_rps <= 0:
            return float("nan")
        return self.throughput_rps / baseline.throughput_rps


def _build_load_system(
    corpus: Optional[Corpus] = None, *, dedup: bool = False
) -> CaseStudySystem:
    corpus = corpus or Corpus(**LOAD_CORPUS_KWARGS)
    overrides = None
    if dedup:
        # The fleet store makes per-message compression a one-time cost,
        # and the shared pre-trained dictionary keeps even the cold path
        # off per-message Huffman tree construction.
        overrides = {"gzip": {"backend": "pure", "dictionary": "text"}}
    return build_case_study(
        corpus=corpus, calibrate=False, dedup=dedup, pad_init_overrides=overrides
    )


def _worker_steps(
    client,
    app_id: str,
    corpus: Corpus,
    duration_s: float,
    start,
    tally: WorkerTally,
) -> Steps:
    """One worker's closed loop, for a thread or a task: ``start`` is a
    ``threading.Event`` or an ``asyncio.Event`` and ``client`` the
    blocking or the asyncio client to match."""
    environments = PAPER_ENVIRONMENTS
    # Stagger environment order per worker so cold-cache misses spread
    # across keys instead of stampeding the same one.
    offset = tally.worker
    old_pages = [corpus.evolved(p, 0) for p in range(corpus.n_pages)]
    yield call(start.wait)
    deadline = time.perf_counter() + duration_s
    i = 0
    while time.perf_counter() < deadline:
        env = environments[(offset + i) % len(environments)]
        page_id = i % corpus.n_pages
        old = old_pages[page_id]
        client.set_environment(env)
        try:
            result = yield call(
                client.request_page,
                app_id,
                page_id,
                old_parts=[old.text, *old.images],
                old_version=0,
                new_version=1,
                force_negotiation=True,
            )
        except Exception as exc:  # noqa: BLE001 - the harness must finish
            tally.record_error(exc)
        else:
            tally.record_success(result)
        i += 1


def _wire_symmetry_snapshot(transport, client_names: list[str]) -> dict:
    """On-wire byte symmetry: what every client meter sent must equal
    what the endpoint meters received, and vice versa.  Works for both
    :class:`TcpTransport` and ``AsyncTcpTransport`` (same meter API);
    holds exactly because both record only completed frames, at on-wire
    (header-included) sizes — the metering fix this PR's tests pin down.
    """
    cli_sent = sum(transport.meter(n).bytes_sent for n in client_names)
    cli_recv = sum(transport.meter(n).bytes_received for n in client_names)
    ep_sent = sum(
        transport.endpoint_meter(e).bytes_sent for e in transport.endpoints()
    )
    ep_recv = sum(
        transport.endpoint_meter(e).bytes_received for e in transport.endpoints()
    )
    return {
        "wire bytes (clients sent vs endpoints recv)": (cli_sent, ep_recv),
        "wire bytes (endpoints sent vs clients recv)": (ep_sent, cli_recv),
    }


def _rows_balanced(rows: dict) -> bool:
    return all(a == b for a, b in rows.values())


def _wire_symmetry_steps(
    transport, client_names: list[str], settle_s: float = 2.0
) -> Steps:
    """Snapshot the symmetry rows, absorbing endpoint metering lag.

    An endpoint records its send-side meter just *after* the response
    bytes hit the socket (threaded) or in the continuation after its
    ``drain()`` (asyncio), so a client can observe the meters in the
    instant before that update lands.  The convention is right — a
    failed send must count nothing — so the reader absorbs the lag:
    poll until the rows balance, bounded by ``settle_s``, sleeping
    through the driver so an event loop keeps running the very
    continuation being waited for.  A genuine asymmetry still surfaces
    as a stable mismatch once the deadline passes.
    """
    deadline = time.perf_counter() + settle_s
    rows = _wire_symmetry_snapshot(transport, client_names)
    while not _rows_balanced(rows) and time.perf_counter() < deadline:
        yield sleep(0.001)
        rows = _wire_symmetry_snapshot(transport, client_names)
    return rows


def run_load_point(
    workers: int,
    duration_s: float = DEFAULT_DURATION_S,
    *,
    transport: str = "simnet",
    rtt_ms: float = DEFAULT_RTT_MS,
    corpus: Optional[Corpus] = None,
    system: Optional[CaseStudySystem] = None,
    dedup: str = "",
    expect_zero_computes: bool = False,
) -> LoadPoint:
    """Drive ``workers`` concurrent clients against one fresh system.

    A fresh system per point keeps the telemetry ledger attributable: at
    the end, per-worker sums must equal the registry counters *exactly*.
    When a ``system`` is reused across points (the dedup warm pass), the
    counter base is snapshotted before the run, so every ledger row
    reconciles over *this run's window* only.  ``expect_zero_computes``
    adds the warm-path gate: the store must have performed zero
    chunk/compress computes during the window.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if transport not in ("simnet", "tcp"):
        raise ValueError(f"transport must be 'simnet' or 'tcp', got {transport!r}")
    system = system or _build_load_system(corpus)
    app_id = system.appserver.app_id
    base_counters = dict(system.telemetry.registry.snapshot()["counters"])

    tcp: Optional[TcpTransport] = None
    if transport == "tcp":
        tcp = TcpTransport()
        tcp.bind("proxy", system.proxy.handle)
        tcp.bind("appserver", system.appserver.handle)
        base = tcp
    else:
        base = system.transport
    wire = LatencyTransport(base, rtt_ms / 1000.0)

    clients = [
        system.make_client(
            PAPER_ENVIRONMENTS[i % len(PAPER_ENVIRONMENTS)],
            name=f"load-w{i:02d}",
            transport=wire,
        )
        for i in range(workers)
    ]
    tallies = [WorkerTally(worker=i) for i in range(workers)]
    start = threading.Event()
    threads = []
    try:
        for client, tally in zip(clients, tallies):
            t = threading.Thread(
                target=run,
                args=(
                    _worker_steps(
                        client, app_id, system.corpus, duration_s, start, tally
                    ),
                ),
                name=f"load-worker-{tally.worker}",
                daemon=True,
            )
            t.start()
            threads.append(t)
        t0 = time.perf_counter()
        start.set()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        extra_ledger = (
            run(_wire_symmetry_steps(tcp, [c.name for c in clients]))
            if tcp is not None
            else None
        )
    finally:
        if tcp is not None:
            tcp.close()

    return _aggregate(
        system, transport, workers, duration_s, elapsed, tallies,
        extra_ledger=extra_ledger, base_counters=base_counters,
        dedup=dedup, expect_zero_computes=expect_zero_computes,
    )


def _aggregate(
    system: CaseStudySystem,
    transport: str,
    workers: int,
    duration_s: float,
    elapsed_s: float,
    tallies: list[WorkerTally],
    *,
    extra_ledger: Optional[dict] = None,
    mode: str = "threads",
    pool_workers: int = 0,
    base_counters: Optional[dict[str, float]] = None,
    dedup: str = "",
    expect_zero_computes: bool = False,
) -> LoadPoint:
    registry = system.telemetry.registry
    sessions = sum(t.sessions for t in tallies)
    errors = sum(t.errors for t in tallies)
    times = sorted(x for t in tallies for x in t.negotiation_times_s)
    base = base_counters or {}

    def ctr(name: str) -> float:
        # Window delta: counters accumulated before this run (a reused
        # system's cold pass, prewarming) are subtracted out.
        return registry.counter(name).value - base.get(name, 0.0)

    # Exact cross-worker reconciliation: private per-worker sums on the
    # left, the shared locked registry on the right.
    ledger: dict[str, tuple[float, float]] = {
        "negotiations (workers vs proxy)": (
            sum(t.negotiations for t in tallies), ctr("proxy.negotiations")
        ),
        "negotiations (workers vs client ctr)": (
            sum(t.negotiations for t in tallies), ctr("client.negotiations")
        ),
        "cache hits+misses vs negotiations": (
            ctr("proxy.cache.hits") + ctr("proxy.cache.misses"),
            ctr("proxy.negotiations"),
        ),
        "app sessions (workers vs appserver)": (
            sessions, ctr("appserver.requests")
        ),
        "pad bytes (workers vs client ctr)": (
            sum(t.pad_download_bytes for t in tallies),
            ctr("client.pad_download_bytes"),
        ),
        "app bytes (workers vs client ctrs)": (
            sum(t.app_bytes for t in tallies),
            ctr("client.app_request_bytes") + ctr("client.app_response_bytes"),
        ),
    }
    store_dict: Optional[dict] = None
    if system.chunk_store is not None:
        name = system.chunk_store.name
        # The store's own invariants, over this run's window.  The
        # warm-path gate pins the headline claim: a second pass over the
        # same page versions performs zero CDC/compress computes.
        ledger["store lookups vs hits+misses+coalesced"] = (
            ctr(f"store.{name}.lookups"),
            ctr(f"store.{name}.hits")
            + ctr(f"store.{name}.misses")
            + ctr(f"store.{name}.coalesced"),
        )
        ledger["store computes vs misses"] = (
            ctr(f"store.{name}.computes"), ctr(f"store.{name}.misses")
        )
        ledger["parts via store (appserver vs responder)"] = (
            ctr("appserver.store_requests"), ctr(f"store.{name}.responses")
        )
        if expect_zero_computes:
            ledger["warm store computes vs zero"] = (
                ctr(f"store.{name}.computes"), 0.0
            )
        stats = system.chunk_store.stats
        store_dict = {
            "name": name,
            "lookups": ctr(f"store.{name}.lookups"),
            "hits": ctr(f"store.{name}.hits"),
            "misses": ctr(f"store.{name}.misses"),
            "coalesced": ctr(f"store.{name}.coalesced"),
            "computes": ctr(f"store.{name}.computes"),
            "evictions": ctr(f"store.{name}.evictions"),
            "bytes_saved": ctr(f"store.{name}.bytes_saved"),
            "entries": len(system.chunk_store),
            "bytes_cached": system.chunk_store.used_bytes,
            "lifetime_hit_ratio": stats.hit_ratio,
        }
    if extra_ledger:
        ledger.update(extra_ledger)
    reconciled = errors == 0 and all(a == b for a, b in ledger.values())

    return LoadPoint(
        workers=workers,
        transport=transport,
        duration_s=duration_s,
        elapsed_s=elapsed_s,
        sessions=sessions,
        errors=errors,
        throughput_rps=sessions / elapsed_s if elapsed_s > 0 else 0.0,
        p50_negotiation_s=percentile(times, 50) if times else 0.0,
        p95_negotiation_s=percentile(times, 95) if times else 0.0,
        p99_negotiation_s=percentile(times, 99) if times else 0.0,
        proxy_hit_ratio=system.proxy.stats.hit_ratio,
        per_worker=tallies,
        ledger=ledger,
        reconciled=reconciled,
        mode=mode,
        pool_workers=pool_workers,
        dedup=dedup,
        store=store_dict,
    )


def sweep_worker_counts(max_workers: int) -> list[int]:
    """1, 2, 4, ... doubling up to and always including ``max_workers``."""
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    counts = []
    w = 1
    while w < max_workers:
        counts.append(w)
        w *= 2
    counts.append(max_workers)
    return counts


def run_load_sweep(
    max_workers: int = 8,
    duration_s: float = DEFAULT_DURATION_S,
    *,
    transport: str = "simnet",
    rtt_ms: float = DEFAULT_RTT_MS,
) -> list[LoadPoint]:
    """One :func:`run_load_point` per worker count, shared corpus."""
    corpus = Corpus(**LOAD_CORPUS_KWARGS)
    return [
        run_load_point(
            w, duration_s, transport=transport, rtt_ms=rtt_ms, corpus=corpus
        )
        for w in sweep_worker_counts(max_workers)
    ]


def _prewarm_store(system: CaseStudySystem) -> None:
    """Deterministically touch every (environment, page) pair once.

    The timed cold pass is closed-loop, so with a short duration it may
    not visit every environment x page combination; this sweep fills the
    store's remaining corners so the warm point's zero-compute gate is a
    property of the store, not of scheduling luck.
    """
    client = system.make_client(PAPER_ENVIRONMENTS[0], name="prewarm")
    app_id = system.appserver.app_id
    for env in PAPER_ENVIRONMENTS:
        client.set_environment(env)
        for page_id in range(system.corpus.n_pages):
            old = system.corpus.evolved(page_id, 0)
            client.request_page(
                app_id,
                page_id,
                old_parts=[old.text, *old.images],
                old_version=0,
                new_version=1,
                force_negotiation=True,
            )


def run_dedup_sweep(
    workers: int = 4,
    duration_s: float = DEFAULT_DURATION_S,
    *,
    rtt_ms: float = DEFAULT_RTT_MS,
) -> list[LoadPoint]:
    """The warm-vs-cold fleet-dedup comparison (``fractal-bench load --dedup``).

    Three points, same worker count and schedule:

    * ``off``  — fresh system, no store: the baseline.
    * ``cold`` — fresh system with the fleet store and the shared gzip
      dictionary: every first sight of a page version computes (and
      inserts); repeats within the run already hit.
    * ``warm`` — the *same* system run again: every response comes from
      the store.  The ledger gains a hard gate — zero store computes in
      the warm window — plus the store's own lookups/computes
      reconciliation rows, all measured as window deltas against a
      counter snapshot taken between the passes.
    """
    corpus = Corpus(**LOAD_CORPUS_KWARGS)
    off = run_load_point(
        workers, duration_s, rtt_ms=rtt_ms,
        system=_build_load_system(corpus), dedup="off",
    )
    dedup_system = _build_load_system(corpus, dedup=True)
    cold = run_load_point(
        workers, duration_s, rtt_ms=rtt_ms, system=dedup_system, dedup="cold",
    )
    _prewarm_store(dedup_system)
    warm = run_load_point(
        workers, duration_s, rtt_ms=rtt_ms, system=dedup_system,
        dedup="warm", expect_zero_computes=True,
    )
    return [off, cold, warm]


# -- async mode ----------------------------------------------------------------


def run_async_load_point(
    workers: int,
    duration_s: float = DEFAULT_DURATION_S,
    *,
    pool_workers: int = 0,
    rtt_ms: float = DEFAULT_RTT_MS,
    corpus: Optional[Corpus] = None,
) -> LoadPoint:
    """Drive ``workers`` concurrent client *tasks* on one event loop.

    The serving side is the asyncio TCP transport; the application
    server's kernel work goes to a :class:`~repro.core.kernelpool
    .KernelPool` with ``pool_workers`` processes (0 = inline on the
    loop, the scaling baseline).  Same closed-loop schedule, same
    6-way ledger as the threaded harness, plus the on-wire symmetry
    rows — counters are shared between the sync and async paths, so
    reconciliation is apples-to-apples.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if pool_workers < 0:
        raise ValueError(f"pool_workers must be >= 0, got {pool_workers}")
    return asyncio.run(
        _async_load_point(workers, duration_s, pool_workers, rtt_ms, corpus)
    )


async def _async_load_point(
    workers: int,
    duration_s: float,
    pool_workers: int,
    rtt_ms: float,
    corpus: Optional[Corpus],
) -> LoadPoint:
    from ..core.asyncclient import AsyncFractalClient
    from ..core.kernelpool import KernelPool
    from ..core.system import bind_async_endpoints
    from ..simnet.asyncnet import AsyncTcpTransport

    system = _build_load_system(corpus)
    app_id = system.appserver.app_id
    # Pool startup (spawn + warm-up pings) happens before the timed
    # window so the scaling numbers measure serving, not process boot.
    pool = KernelPool(workers=pool_workers)
    try:
        async with AsyncTcpTransport() as net:
            await bind_async_endpoints(system, net, kernel_pool=pool)
            wire = AsyncLatencyTransport(net, rtt_ms / 1000.0)
            clients = [
                system.make_client(
                    PAPER_ENVIRONMENTS[i % len(PAPER_ENVIRONMENTS)],
                    name=f"load-w{i:02d}",
                    transport=wire,
                    client_cls=AsyncFractalClient,
                )
                for i in range(workers)
            ]
            tallies = [WorkerTally(worker=i) for i in range(workers)]
            start = asyncio.Event()
            tasks = [
                asyncio.create_task(
                    run_async(
                        _worker_steps(
                            client, app_id, system.corpus, duration_s, start, tally
                        )
                    )
                )
                for client, tally in zip(clients, tallies)
            ]
            t0 = time.perf_counter()
            start.set()
            await asyncio.gather(*tasks)
            elapsed = time.perf_counter() - t0
            extra_ledger = await run_async(
                _wire_symmetry_steps(net, [c.name for c in clients])
            )
    finally:
        pool.close()
        system.appserver.kernel_pool = None
    return _aggregate(
        system, "async", workers, duration_s, elapsed, tallies,
        extra_ledger=extra_ledger, mode="async", pool_workers=pool_workers,
    )


def run_async_pool_sweep(
    max_pool_workers: int = 4,
    workers: int = 8,
    duration_s: float = DEFAULT_DURATION_S,
    *,
    rtt_ms: float = DEFAULT_RTT_MS,
) -> list[LoadPoint]:
    """The pool scaling curve: 0 (inline), 1, 2, ... pool processes.

    ``workers`` concurrent client tasks stay fixed; only the kernel
    pool grows.  Point 0 is the event-loop-only baseline every speedup
    is quoted against.  Scaling beyond 1× needs real CPUs — on a
    single-core host the curve is flat and says so honestly.
    """
    corpus = Corpus(**LOAD_CORPUS_KWARGS)
    counts = [0]
    if max_pool_workers >= 1:
        counts.extend(sweep_worker_counts(max_pool_workers))
    return [
        run_async_load_point(
            workers, duration_s, pool_workers=pw, rtt_ms=rtt_ms, corpus=corpus
        )
        for pw in counts
    ]
