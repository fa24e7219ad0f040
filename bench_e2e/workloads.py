"""The five workloads: what system each builds and which sessions it runs.

A workload is data (:class:`Workload`) plus a schedule: an iterator of
:class:`Session` that is a pure function of ``(seed, client index)``.
The corpus is the paper's fixed one (its own seed, 2005); ``--seed``
decides only which page, version pair and environment each session
asks for, and in what order.

Every schedule is built from whole *blocks* in which each combination
the workload mixes appears exactly once, shuffled by the seed.  A run
that covers whole blocks therefore moves the same bytes whatever the
seed, which is what lets ``wire_bytes_per_session`` carry a 1 % bound.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, NamedTuple, Optional

from repro.workload.profiles import PAPER_ENVIRONMENTS, ClientEnvironment

__all__ = ["Session", "Workload", "WORKLOADS", "schedule_sha1"]

PAPER_PAGES = 75
# 75 pages x 80 steps = 6000 never-requested pairs: twice what a 10 s window
# gets through on the 2-core host the counts were sized on (~300 sessions/s).
# A faster host that runs out of pairs ends its window early.
CHURN_VERSIONS = 81
# The issue sizes the pool as nproc - 1 on its 2-core host.  Fixed here so
# the workload is the same program on every host.
POOL_WORKERS = 1


class Session(NamedTuple):
    page: int
    old_version: int
    new_version: int
    env: Optional[ClientEnvironment]  # set only where each session is a new client


def _rng(seed: int, *salt) -> random.Random:
    # A str seed is hashed with SHA-512: stable across processes.
    return random.Random(":".join(map(str, (seed, *salt))))


def _warm_pages(n_pages: int) -> Callable[[int, int], Iterator[Session]]:
    """Every page 0 -> 1 once per block, in seeded order, without end."""

    def schedule(seed: int, client: int) -> Iterator[Session]:
        rng = _rng(seed, "pages", client)
        while True:
            for page in rng.sample(range(n_pages), n_pages):
                yield Session(page, 0, 1, None)

    return schedule


def _first_contact(seed: int, client: int) -> Iterator[Session]:
    """Blocks of 12: {known, never-seen} x three environments x two pages.

    A never-seen environment is a paper one whose ``cpu_mhz`` is nudged
    by a few millionths: a new adaptation-cache key at the proxy (hit
    ratio 0.5 by construction) that still negotiates the PADs of its
    base environment, so the bytes moved do not drift as the run goes on.
    """
    rng = _rng(seed, "first_contact", client)
    combos = list(itertools.product((False, True), PAPER_ENVIRONMENTS, (0, 1)))
    nudges = itertools.count(1)
    while True:
        for fresh, env, page in rng.sample(combos, len(combos)):
            if fresh:
                mhz = env.device.cpu_mhz + next(nudges) * 1e-6
                env = replace(env, device=replace(env.device, cpu_mhz=mhz))
            yield Session(page, 0, 1, env)


def _churn(seed: int, client: int) -> Iterator[Session]:
    """Each client walks its own pages one version step at a time.

    Every pair is requested once, ever.  A page's records are needed
    again one round later (about 75 sessions, far inside the store's
    4096-entry LRU horizon) and then never, so which lookups hit does
    not depend on how the two clients' sessions interleave and the
    store's counts repeat exactly from run to run.
    """
    rng = _rng(seed, "churn", client)
    pages = range(client, PAPER_PAGES, 2)
    for version in range(CHURN_VERSIONS - 1):
        for page in rng.sample(pages, len(pages)):
            yield Session(page, version, version + 1, None)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    schedule: Callable[[int, int], Iterator[Session]]
    transport: str  # "inproc", "tcp" (realnet) or "async" (asyncnet + pool)
    corpus: dict = field(default_factory=dict)  # Corpus kwargs; {} = the paper's
    system: dict = field(default_factory=dict)  # build_case_study kwargs
    versions: int = 2  # corpus versions materialised during set-up
    clients: int = 1
    new_client_per_session: bool = False
    warmup: int = 0  # untimed sessions per client, from the head of its schedule
    # Request every page 0 -> 1 once during set-up.  The window then asks
    # for nothing else, and the run fails if the store computes anything.
    prewarm_store: bool = False
    # Start from a store already at its entry bound (as after hours of
    # serving), so inserts evict from the first session to the last and the
    # window is one regime however long it runs; the run fails if none does.
    fill_store: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "first_contact",
            "Fig. 9: a new client every session negotiates, fetches, verifies and "
            "deploys its PADs; loads core.proxy, cdn, mobilecode and per-message "
            "costs, with kernels and page codec near zero",
            _first_contact,
            "inproc",
            corpus=dict(n_pages=2, text_bytes=600, image_bytes=2000, images_per_page=1),
            new_client_per_session=True,
            warmup=120,
        ),
        Workload(
            "direct_tcp",
            "one ~180 KB APP_REQ/APP_REP per session over loopback TCP and nothing "
            "else: loads core.inp (JSON + base64) and simnet.realnet; bypasses "
            "kernels, proxy, cdn and mobilecode",
            _warm_pages(PAPER_PAGES),
            "tcp",
            system=dict(pad_ids=("direct",)),
            warmup=75,
        ),
        Workload(
            "gzip_inproc",
            "the paper-shaped pure-Python gzip pipeline in process: kernel-bound "
            "(server compress, client decompress); codec and transport are a few "
            "percent, so codec changes must not move it",
            _warm_pages(PAPER_PAGES),
            "inproc",
            system=dict(pad_ids=("gzip",), era=True),
            warmup=4,
        ),
        Workload(
            "store_hit_async",
            "read side of the store: every response is a ChunkStore hit, zero "
            "computes, pool idle; loads simnet.asyncnet and the async "
            "client/appserver twins",
            _warm_pages(PAPER_PAGES),
            "async",
            system=dict(pad_ids=("vary",), dedup=True),
            clients=2,
            warmup=25,
            prewarm_store=True,
        ),
        Workload(
            "store_churn_async",
            "write side of the same layers: every pair is new, so response records "
            "miss, inserts overflow the LRU and evict, and cdc.record_batch work "
            "crosses core.kernelpool IPC",
            _churn,
            "async",
            system=dict(pad_ids=("vary",), dedup=True),
            versions=CHURN_VERSIONS,
            clients=2,
            warmup=38,  # round 0 (v0 -> v1 chunks both versions): the window starts at round 1
            fill_store=True,
        ),
    )
}


def schedule_sha1(workload: Workload, seed: int, sessions: int = 1024) -> str:
    """SHA-1 over the head of every client's schedule, for the run log."""
    h = hashlib.sha1()
    for client in range(workload.clients):
        for s in itertools.islice(workload.schedule(seed, client), sessions):
            label = s.env.label if s.env else "-"
            mhz = s.env.device.cpu_mhz if s.env else 0
            h.update(f"{client}:{s.page}:{s.old_version}:{s.new_version}:{label}:{mhz!r};".encode())
    return h.hexdigest()
