"""Build one workload's system, drive real sessions through it, check them.

Closed loop: a client asks for its next page only when the previous one
has been rebuilt and compared with the corpus.  One process generates
the load; the sync workloads use one client, the async ones two client
tasks on one event loop.  Everything runs inside a coroutine so the two
shapes share one driver: a sync ``request_page`` simply never awaits.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import resource
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

from repro.core.asyncclient import AsyncFractalClient
from repro.core.client import FractalClient
from repro.core.kernelpool import KernelPool
from repro.core.system import (
    APP_ID,
    APPSERVER_ENDPOINT,
    PROXY_ENDPOINT,
    bind_async_endpoints,
    build_case_study,
)
from repro.simnet.asyncnet import AsyncTcpTransport
from repro.simnet.realnet import TcpTransport
from repro.workload.pages import Corpus
from repro.workload.profiles import DESKTOP_LAN

import spans
from workloads import POOL_WORKERS, Session, Workload

__all__ = [
    "Env", "Window", "setup", "teardown", "stop_children", "drive", "gates", "peak_rss_mb",
]

ENDPOINTS = (PROXY_ENDPOINT, APPSERVER_ENDPOINT)
CLIENT_RETENTION = 1000  # make_client keeps every client; drop them this often
_CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass
class Env:
    """One built system with its clients warm and its schedules positioned."""

    workload: Workload
    system: object
    transport: object
    pool: Optional[KernelPool]
    clients: list
    schedules: list
    setup_s: float = 0.0
    patches: list = field(default_factory=list)

    @property
    def is_async(self) -> bool:
        return self.workload.transport == "async"


@dataclass
class Window:
    """What one driven stretch of sessions did."""

    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # first few, for the report
    wall_s: float = 0.0
    cpu_s: float = 0.0
    app_bytes: int = 0  # protocol payload bytes, both directions
    raw_bytes: int = 0  # bytes of the pages delivered
    counts: dict = field(default_factory=dict)  # program counters, window delta

    @property
    def verified(self) -> int:
        return self.attempted - self.failed

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)


def parts_of(corpus: Corpus, page: int, version: int) -> list:
    p = corpus.evolved(page, version)
    return [p.text, *p.images]


# -- set-up and teardown ------------------------------------------------------------


async def setup(w: Workload, seed: int, rec: Optional[spans.Recorder] = None) -> Env:
    """Everything before the first timed session; its wall time is ``setup_s``."""
    t0 = time.perf_counter()
    corpus = Corpus(**w.corpus)
    for page in range(corpus.n_pages):
        # evolved() builds and caches every version below the one asked for.
        corpus.evolved(page, w.versions - 1)
    system = build_case_study(corpus=corpus, **w.system)
    pool = None
    transport = system.transport
    if w.transport == "tcp":
        transport = TcpTransport()
        transport.bind(PROXY_ENDPOINT, system.proxy.handle)
        transport.bind(APPSERVER_ENDPOINT, system.appserver.handle)
    elif w.transport == "async":
        pool = KernelPool(workers=POOL_WORKERS)
        transport = AsyncTcpTransport()
        await bind_async_endpoints(system, transport, kernel_pool=pool)
    if w.fill_store:
        store = system.chunk_store
        for i in range(store.max_entries):
            store.put(f"fill:{i}", b"\0")
    env = Env(
        w, system, transport, pool, clients=[],
        schedules=[w.schedule(seed, c) for c in range(w.clients)],
    )
    try:
        if rec is not None:
            env.patches = await spans.install(rec, system, transport, pool)
        if not w.new_client_per_session:
            env.clients = [
                system.make_client(
                    DESKTOP_LAN,
                    transport=transport,
                    client_cls=AsyncFractalClient if env.is_async else FractalClient,
                )
                for _ in range(w.clients)
            ]
        warm = Window()
        if w.prewarm_store:
            every_page = [Session(p, 0, 1, None) for p in range(corpus.n_pages)]
            await _client_loop(env, 0, iter(every_page), len(every_page), None, warm, None)
        for c in range(w.clients):
            await _client_loop(env, c, env.schedules[c], w.warmup, None, warm, None)
        if warm.failed:
            raise RuntimeError(f"warm-up failed: {warm.errors}")
    except BaseException:
        await teardown(env)
        raise
    env.setup_s = time.perf_counter() - t0
    return env


async def teardown(env: Env) -> None:
    """Undo the wrappers and stop every thread and process set-up started."""
    spans.undo(env.patches)
    if env.transport is not env.system.transport:
        closing = env.transport.close()
        if env.is_async:
            await closing
            # close() returns before the endpoints' connection tasks have seen
            # their closed sockets; until they end they keep the whole system
            # alive.  Nothing else is running by now.
            others = asyncio.all_tasks() - {asyncio.current_task()}
            if others:
                await asyncio.wait(others, timeout=1.0)
    if env.pool is not None:
        env.pool.close()
        env.system.appserver.kernel_pool = None


def _child_pids() -> list[int]:
    """Every live or unreaped process whose parent is this one."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue  # ended while we were looking
        if ppid == me:
            found.append(int(entry))
    return found


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``teardown`` ends the pool's workers, but a pool also makes
    multiprocessing start its resource tracker, which otherwise ends only
    once it sees this process gone and so outlives the run.  Its pipe and
    pid are private to multiprocessing, hence ``_stop``; whatever is left
    after that (a worker of a pool whose set-up raised) is killed.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except (OSError, ChildProcessError):
            pass
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # ended since the scan
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # multiprocessing reaped it meanwhile


# -- the driver -------------------------------------------------------------------------


def cpu_seconds() -> float:
    """CPU of this process plus its live children (the pool's workers).

    ``os.times()`` counts a child only once it has been waited for, so
    live workers are read from ``/proc``.
    """
    total = time.process_time()
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK  # utime + stime
    return total


def peak_rss_mb() -> float:
    """High-water RSS of this process plus that of its largest ended child."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def read_counts(env: Env) -> dict:
    """The program's own public counters the metrics and gates read."""
    system = env.system
    snapshot = system.telemetry.registry.snapshot()
    counts = dict(snapshot["counters"])
    counts["proxy.search_seconds"] = system.proxy.stats.total_search_time_s
    meters = env.transport.meters
    counts["wire.client_sent"] = sum(
        m.bytes_sent for name, m in meters.items() if name not in ENDPOINTS
    )
    counts["wire.client_received"] = sum(
        m.bytes_received for name, m in meters.items() if name not in ENDPOINTS
    )
    if system.chunk_store is not None:
        for name, value in system.chunk_store.stats.to_dict().items():
            counts[f"store.{name}"] = value
    if env.pool is not None:
        counts["kernelpool.restarts"] = env.pool.health()["restarts_total"]
    return counts


async def _client_loop(env, index, schedule, limit, deadline, window, rec) -> None:
    """Run ``schedule``: ``limit`` sessions of it (None: all), or until ``deadline``."""
    system, corpus, w = env.system, env.system.corpus, env.workload
    clock = time.perf_counter
    for s in itertools.islice(schedule, limit):
        if w.new_client_per_session:
            if len(system.clients) >= CLIENT_RETENTION:
                system.clients.clear()
            client = system.make_client(s.env)
        else:
            client = env.clients[index]
        old = parts_of(corpus, s.page, s.old_version)
        truth = parts_of(corpus, s.page, s.new_version)
        window.attempted += 1
        result = None
        root = rec.begin("core.client", spans.ROOT) if rec is not None else None
        t0 = clock()
        try:
            result = client.request_page(
                APP_ID, s.page, old_parts=old,
                old_version=s.old_version, new_version=s.new_version,
            )
            if env.is_async:
                result = await result
        except Exception:  # a failed session is a result, not a crash
            window.fail(f"{s}: {traceback.format_exc(limit=3)}")
        finally:
            t1 = clock()
            if rec is not None:
                rec.end(root)
        if result is not None:
            if result.parts != truth:
                window.fail(f"{s}: rebuilt page differs from the corpus")
            else:
                window.latencies_s.append(t1 - t0)
                window.app_bytes += result.app_traffic_bytes
                window.raw_bytes += sum(map(len, truth))
        if deadline is not None and t1 >= deadline:
            break


async def drive(
    env: Env,
    *,
    seconds: Optional[float] = None,
    sessions: Optional[int] = None,
    rec: Optional[spans.Recorder] = None,
) -> Window:
    """The measured window: for ``seconds``, or exactly ``sessions`` sessions."""
    window = Window()
    n = env.workload.clients
    limit = sessions // n if sessions else None
    if rec is not None:
        rec.clear()  # set-up and warm-up ran under the wrappers too
    before = read_counts(env)
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    deadline = t0 + seconds if seconds else None
    loops = [
        _client_loop(env, c, env.schedules[c], limit, deadline, window, rec)
        for c in range(n)
    ]
    # gather() runs the loops as tasks and raises what any of them raises.
    await asyncio.gather(*loops)
    window.wall_s = time.perf_counter() - t0
    window.cpu_s = cpu_seconds() - cpu0
    after = await _settled_counts(env)
    window.counts = {k: v - before.get(k, 0) for k, v in after.items()}
    # Ends, not deltas: what the store holds when the window closes.
    window.counts["store.bytes_cached"] = after.get("store.bytes_cached", 0)
    return window


# -- correctness gates ------------------------------------------------------------------


def _wire_asymmetry(env: Env, counts: dict) -> Optional[str]:
    """Client frames sent must be endpoint frames received, and back."""
    if env.workload.transport == "inproc":
        return None
    meters = [env.transport.endpoint_meter(e) for e in ENDPOINTS]
    pairs = {
        "client sent vs endpoints received": (
            counts["wire.client_sent"], sum(m.bytes_received for m in meters)),
        "endpoints sent vs client received": (
            sum(m.bytes_sent for m in meters), counts["wire.client_received"]),
    }
    bad = {k: v for k, v in pairs.items() if v[0] != v[1]}
    return f"wire asymmetry: {bad}" if bad else None


async def _settled_counts(env: Env, settle_s: float = 2.0) -> dict:
    """Counters once the endpoints' meters have caught up.

    An endpoint records a sent frame just after the bytes leave, so the
    client can read the meters one scheduling step early; wait that out
    (bounded) and a real asymmetry is still there afterwards.
    """
    give_up = time.perf_counter() + settle_s
    counts = read_counts(env)
    while _wire_asymmetry(env, counts) and time.perf_counter() < give_up:
        await asyncio.sleep(0.001)
        counts = read_counts(env)
    return counts


def gates(env: Env, window: Window) -> list[str]:
    """Every reason this window's numbers must not be trusted."""
    w, c, problems = env.workload, window.counts, list(window.errors)
    if window.failed:
        problems.append(f"{window.failed} of {window.attempted} sessions failed")
    asymmetry = _wire_asymmetry(env, read_counts(env))
    if asymmetry:
        problems.append(asymmetry)
    if env.system.chunk_store is not None:
        if c["store.lookups"] != c["store.hits"] + c["store.misses"] + c["store.coalesced"]:
            problems.append("store ledger: lookups != hits + misses + coalesced")
        if c["store.computes"] != c["store.misses"]:
            problems.append("store ledger: computes != misses")
        if w.prewarm_store and c["store.computes"]:
            problems.append(f"{c['store.computes']} store computes in an all-hit window")
        if w.fill_store and not c["store.evictions"]:
            problems.append("no store eviction in the churn window")
    return problems
