"""Overload-control proof harness (`fractal-bench overload`).

Four phases, each proving one overload-control mechanism end to end on
the real serving path (in-process transport by default, real loopback
TCP with ``transport="tcp"``), each closing an **exact ledger** — local
tallies against registry counter deltas, the discipline every bench in
this repo follows:

1. **Admission** — a burst of raw ``INIT_REQ`` packets against a
   token-bucket-guarded proxy under a :class:`~repro.overload.ManualClock`
   (no refill until the script says so): exactly ``burst`` admitted, the
   rest shed with a ``retry_after_ms`` hint, a real client sees a typed
   :class:`~repro.core.errors.ServerOverloadedError`, and one scripted
   clock advance proves recovery.
2. **Deadline propagation** — an expired ``"dl"`` budget is shed at the
   proxy *and* appserver entry without any work; a generous budget
   completes byte-exactly; and under a
   :class:`~repro.overload.TickingClock` the appserver sheds mid-request
   after a *provable* number of per-part checks (exact ``parts_shed``).
3. **Circuit breaker** — a proxy outage trips the breaker after exactly
   ``failure_threshold`` wire failures; every later session fails fast
   (zero wire traffic) yet still completes via degradation; rebinding
   the proxy plus one scripted clock advance half-opens the breaker and
   one successful probe re-closes it.
4. **Kernel-pool supervision** — a worker-killing poison kernel yields a
   typed :class:`~repro.core.kernelpool.KernelPoolError` after exactly
   two worker restarts per attempt (never an inline re-execution), and
   the healed pool's output is byte-identical to the inline baseline.

Nothing here sleeps on results and no wall-clock number enters the
payload, so the same ``(seed, transport, events)`` produces the same
payload on any machine — the property the CI smoke gate pins.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import inp
from ..core.errors import ServerOverloadedError
from ..core.inp import INPMessage, MsgType
from ..core.kernelpool import KernelPool, KernelPoolError, run_kernel
from ..core.system import (
    APP_ID,
    APPSERVER_ENDPOINT,
    PROXY_ENDPOINT,
    build_case_study,
)
from ..overload import (
    DEADLINE_PREFIX,
    OVERLOADED_PREFIX,
    AdmissionController,
    BreakerBoard,
    ManualClock,
    TickingClock,
)
from ..telemetry import Telemetry
from ..workload.profiles import DESKTOP_LAN

__all__ = [
    "OverloadReport",
    "run_overload_experiment",
    "report_to_payload",
    "render_report",
]

# Token-bucket refill rate for the admission phase.  One scripted
# 1-second advance therefore refills min(burst, 8) tokens.
_RATE_PER_S = 8.0
# Breaker shape: trips after 3 consecutive wire failures, recovers
# (half-opens) after a scripted 30 s advance.
_FAILURE_THRESHOLD = 3
_RECOVERY_TIMEOUT_S = 30.0
# Poison-kernel attempts in the supervision phase; each costs exactly
# two worker restarts (the crash and the one retry on a fresh worker).
_POOL_KILLS = 2


@dataclass
class OverloadReport:
    """One `fractal-bench overload` run: four phase ledgers."""

    seed: int
    transport: str
    events: int
    admission: dict
    deadline: dict
    breaker: dict
    pool: dict
    reconciled: bool


def _raw(system, src: str, msg: INPMessage) -> INPMessage:
    """One raw INP round trip over whatever transport is installed."""
    return inp.decode(system.transport.request(src, PROXY_ENDPOINT, inp.encode(msg)))


def _raw_to(system, src: str, dst: str, msg: INPMessage) -> INPMessage:
    return inp.decode(system.transport.request(src, dst, inp.encode(msg)))


def _deltas(registry, names):
    """Counter snapshot for exact before/after reconciliation."""
    return {n: int(registry.counter(n).value) for n in names}


def run_overload_experiment(
    *, seed: int = 0, transport: str = "inproc", events: int = 12
) -> OverloadReport:
    """Run all four phases against one freshly built system.

    ``events`` scales both the admission burst (``burst = events // 2``
    tokens) and the breaker outage (``events`` sessions against a dead
    proxy).  Everything is event-counted; ``seed`` picks the victim
    page, so the payload is a pure function of the arguments.
    """
    if transport not in ("inproc", "tcp"):
        raise ValueError(f"transport must be 'inproc' or 'tcp', got {transport!r}")
    if events < _FAILURE_THRESHOLD + 1:
        raise ValueError(
            f"events must be >= {_FAILURE_THRESHOLD + 1} "
            "(the breaker phase needs sessions beyond the trip point)"
        )
    telemetry = Telemetry()
    registry = telemetry.registry
    admission_clock = ManualClock()
    burst = max(2, events // 2)
    admission = AdmissionController(
        "proxy-admission",
        rate_per_s=_RATE_PER_S,
        burst=burst,
        registry=registry,
        clock=admission_clock,
    )
    system = build_case_study(telemetry=telemetry, proxy_admission=admission)
    import random

    page = random.Random(seed).randrange(system.corpus.n_pages)

    tcp = None
    if transport == "tcp":
        from ..simnet.realnet import TcpTransport

        tcp = TcpTransport(idle_timeout_s=1.0)
        tcp.bind(PROXY_ENDPOINT, system.proxy.handle)
        tcp.bind(APPSERVER_ENDPOINT, system.appserver.handle)
        system.transport = tcp
    try:
        admission_ledger = _phase_admission(
            system, admission, admission_clock, registry, seed, events, burst
        )
        # Later phases negotiate through the same admission-guarded
        # proxy; a scripted advance refills the bucket to ``burst`` so
        # phase boundaries never leak token debt into each other.
        admission_clock.advance(1.0)
        deadline_ledger = _phase_deadline(system, registry, seed, page)
        admission_clock.advance(1.0)
        breaker_ledger = _phase_breaker(system, registry, events, page)
        pool_ledger = _phase_pool(system, registry, page)
    finally:
        if tcp is not None:
            tcp.close()
    reconciled = all(
        ledger["ledger_exact"]
        for ledger in (
            admission_ledger,
            deadline_ledger,
            breaker_ledger,
            pool_ledger,
        )
    )
    return OverloadReport(
        seed=seed,
        transport=transport,
        events=events,
        admission=admission_ledger,
        deadline=deadline_ledger,
        breaker=breaker_ledger,
        pool=pool_ledger,
        reconciled=reconciled,
    )


# -- phase 1: admission control ----------------------------------------------------


def _phase_admission(
    system, admission, clock, registry, seed, events, burst
) -> dict:
    names = (
        "overload.proxy-admission.admitted",
        "overload.proxy-admission.rejected.rate",
    )
    base = _deltas(registry, names)
    admitted = rejected = 0
    hint_seen = False
    for i in range(events):
        msg = INPMessage(
            MsgType.INIT_REQ, f"adm-{seed}-{i}", 0, {"app_id": APP_ID}
        )
        rep = _raw(system, "burster", msg)
        if rep.msg_type is MsgType.INIT_REP:
            admitted += 1
        elif rep.msg_type is MsgType.INP_ERROR and str(
            rep.body.get("error", "")
        ).startswith(OVERLOADED_PREFIX):
            rejected += 1
            if isinstance(rep.body.get("retry_after_ms"), (int, float)):
                hint_seen = True

    # A real client sees the shed as a *typed* retryable error carrying
    # the server's hint, not a generic protocol failure.
    client = system.make_client(DESKTOP_LAN)
    typed_rejection = False
    try:
        client.negotiate(APP_ID)
    except ServerOverloadedError as exc:
        typed_rejection = (
            exc.retry_after_s is not None and exc.retry_after_s > 0
        )

    # Recovery is just time passing: one scripted refill re-admits.
    clock.advance(1.0)
    rep = _raw(
        system,
        "burster",
        INPMessage(MsgType.INIT_REQ, f"adm-{seed}-refill", 0, {"app_id": APP_ID}),
    )
    refill_admitted = rep.msg_type is MsgType.INIT_REP

    after = _deltas(registry, names)
    offered = events + 2  # burst + typed-client probe + refill probe
    snap = admission.snapshot()
    ledger_exact = (
        admitted == burst
        and rejected == events - burst
        and hint_seen
        and typed_rejection
        and refill_admitted
        and admission.offered == offered
        and snap["admitted"] == admitted + 1  # + the refill admit
        and snap["rejected_rate"] == rejected + 1  # + the typed-client shed
        and after[names[0]] - base[names[0]] == snap["admitted"]
        and after[names[1]] - base[names[1]] == snap["rejected_rate"]
    )
    return {
        "burst": burst,
        "offered": offered,
        "admitted": snap["admitted"],
        "rejected": snap["rejected_rate"],
        "retry_after_hint": hint_seen,
        "typed_rejection": typed_rejection,
        "refill_admitted": refill_admitted,
        "ledger_exact": ledger_exact,
    }


# -- phase 2: deadline propagation -------------------------------------------------


def _phase_deadline(system, registry, seed, page) -> dict:
    import time as _time

    total_parts = 1 + system.corpus.images_per_page
    names = (
        "proxy.overload.deadline_expired",
        "appserver.overload.deadline_entry",
        "appserver.overload.deadline_midrequest",
        "appserver.overload.parts_shed",
    )
    base = _deltas(registry, names)

    # (a) Already-expired budget: shed at the proxy door, no work done.
    msg = INPMessage(
        MsgType.INIT_REQ, f"dl-{seed}-proxy", 0, {"app_id": APP_ID}
    ).with_deadline(0.0)
    rep = _raw(system, "expired", msg)
    proxy_entry_shed = rep.msg_type is MsgType.INP_ERROR and str(
        rep.body.get("error", "")
    ).startswith(DEADLINE_PREFIX)

    app_body = {
        "pad_ids": ["direct"],
        "page_id": page,
        "old_version": -1,
        "new_version": 1,
        "part_requests": [b""] * total_parts,
    }
    msg = INPMessage(
        MsgType.APP_REQ, f"dl-{seed}-app", 0, dict(app_body)
    ).with_deadline(0.0)
    rep = _raw_to(system, "expired", APPSERVER_ENDPOINT, msg)
    appserver_entry_shed = rep.msg_type is MsgType.INP_ERROR and str(
        rep.body.get("error", "")
    ).startswith(DEADLINE_PREFIX)

    # (b) A generous budget completes byte-exactly (deadline plumbing
    # costs correctness nothing).
    client = system.make_client(DESKTOP_LAN, deadline_s=30.0)
    result = client.request_page(APP_ID, page)
    expected = system.corpus.evolved(page, 1)
    completed = (
        not result.degraded
        and result.parts == [expected.text, *expected.images]
    )

    # (c) Mid-request shedding, provable to the exact part: under a
    # TickingClock (1 s per read) a 2.5 s wire budget survives the entry
    # check and the part-0 check, then expires on the part-1 check —
    # shedding exactly total_parts - 1 parts.
    system.appserver.deadline_clock = TickingClock(1.0)
    try:
        msg = INPMessage(
            MsgType.APP_REQ, f"dl-{seed}-mid", 0, dict(app_body)
        ).with_deadline(2500.0)
        rep = _raw_to(system, "ticking", APPSERVER_ENDPOINT, msg)
    finally:
        system.appserver.deadline_clock = _time.monotonic
    shed_parts = total_parts - 1
    midrequest_shed = rep.msg_type is MsgType.INP_ERROR and (
        f"shed {shed_parts} of {total_parts} parts"
        in str(rep.body.get("error", ""))
    )

    after = _deltas(registry, names)
    ledger_exact = (
        proxy_entry_shed
        and appserver_entry_shed
        and completed
        and midrequest_shed
        and after[names[0]] - base[names[0]] == 1
        and after[names[1]] - base[names[1]] == 1
        and after[names[2]] - base[names[2]] == 1
        and after[names[3]] - base[names[3]] == shed_parts
    )
    return {
        "proxy_entry_shed": proxy_entry_shed,
        "appserver_entry_shed": appserver_entry_shed,
        "completed_within_budget": completed,
        "midrequest_shed": midrequest_shed,
        "parts_shed": after[names[3]] - base[names[3]],
        "total_parts": total_parts,
        "ledger_exact": ledger_exact,
    }


# -- phase 3: circuit breaker ------------------------------------------------------


def _phase_breaker(system, registry, events, page) -> dict:
    clock = ManualClock()
    board = BreakerBoard(
        failure_threshold=_FAILURE_THRESHOLD,
        recovery_timeout_s=_RECOVERY_TIMEOUT_S,
        clock=clock,
        registry=registry,
    )
    client = system.make_client(
        DESKTOP_LAN, breaker_board=board, degrade_to_direct=True
    )
    fast_fail_name = "client.breaker.fast_fail"
    base_fast = int(registry.counter(fast_fail_name).value)

    # Outage: the proxy vanishes from the transport.  Every session
    # still completes — degraded to the direct protocol — and after
    # `failure_threshold` wire failures the breaker stops touching the
    # wire at all.
    system.transport.unbind(PROXY_ENDPOINT)
    degraded = 0
    try:
        for _ in range(events):
            res = client.request_page(APP_ID, page)
            degraded += 1 if res.degraded else 0
    finally:
        system.transport.bind(PROXY_ENDPOINT, system.proxy.handle)
    fast_failed = int(registry.counter(fast_fail_name).value) - base_fast
    breaker = board.breaker(PROXY_ENDPOINT)
    opened_state = breaker.state

    # Healing: the scripted recovery window elapses, one probe succeeds,
    # the breaker re-closes, and the next session negotiates normally.
    clock.advance(_RECOVERY_TIMEOUT_S)
    res = client.request_page(APP_ID, page)
    recovered = not res.degraded
    snap = breaker.snapshot()

    ledger_exact = (
        degraded == events
        and opened_state == "open"
        and fast_failed == events - _FAILURE_THRESHOLD
        and snap["opened"] == 1
        and snap["reclosed"] == 1
        and snap["rejected"] == fast_failed
        and snap["state"] == "closed"
        and recovered
    )
    return {
        "sessions": events,
        "degraded": degraded,
        "fast_failed": fast_failed,
        "opened": snap["opened"],
        "reclosed": snap["reclosed"],
        "probes": snap["probes"],
        "recovered": recovered,
        "ledger_exact": ledger_exact,
    }


# -- phase 4: kernel-pool supervision ----------------------------------------------


def _phase_pool(system, registry, page) -> dict:
    data = system.corpus.page(page).text
    args = (data, "pure", 64, None)
    inline = run_kernel("gziplike.compress", *args)
    rerouted_base = int(registry.counter("kernelpool.rerouted").value)
    pool = KernelPool(workers=2, registry=registry)
    try:
        baseline = pool.run("gziplike.compress", *args, shard_key="victim")
        poison_errors = 0
        for _ in range(_POOL_KILLS):
            try:
                pool.run("chaos.exit", 3, shard_key="victim")
            except KernelPoolError:
                poison_errors += 1
        # Two poison attempts cost 4 restarts on the victim shard —
        # past the default budget of 3 — so the shard is *disabled*
        # and everything below is served by the rerouted survivor.
        healed = pool.run("gziplike.compress", *args, shard_key="victim")
        boom_propagated = False
        try:
            pool.run("chaos.boom", "deliberate", shard_key="victim")
        except KernelPoolError:
            boom_propagated = False  # must NOT be treated as a crash
        except RuntimeError:
            boom_propagated = True
        health = pool.health()
    finally:
        pool.close()
    rerouted = int(registry.counter("kernelpool.rerouted").value) - rerouted_base
    healed_identical = healed == baseline == inline
    ledger_exact = (
        poison_errors == _POOL_KILLS
        and health["restarts_total"] == 2 * _POOL_KILLS
        and len(health["disabled"]) == 1
        and rerouted == 2  # the healed run and the boom run, one each
        and healed_identical
        and boom_propagated
    )
    return {
        "kills": _POOL_KILLS,
        "poison_errors": poison_errors,
        "restarts_total": health["restarts_total"],
        "shards_disabled": len(health["disabled"]),
        "rerouted": rerouted,
        "healed_identical": healed_identical,
        "boom_propagated": boom_propagated,
        "ledger_exact": ledger_exact,
    }


# -- reporting ---------------------------------------------------------------------


def report_to_payload(report: OverloadReport) -> dict:
    return {
        "seed": report.seed,
        "transport": report.transport,
        "events": report.events,
        "admission": report.admission,
        "deadline": report.deadline,
        "breaker": report.breaker,
        "pool": report.pool,
        "reconciled": report.reconciled,
    }


def render_report(report: OverloadReport) -> str:
    from .reporting import render_table

    a, d, b, p = report.admission, report.deadline, report.breaker, report.pool
    rows = [
        [
            "admission",
            f"burst {a['burst']}",
            f"{a['offered']} offered: {a['admitted']} admitted, "
            f"{a['rejected']} shed (hint), refill re-admits",
            "exact" if a["ledger_exact"] else "MISMATCH",
        ],
        [
            "deadline",
            f"{d['total_parts']} parts",
            "entry shed at proxy+appserver; mid-request shed "
            f"{d['parts_shed']}/{d['total_parts']} parts; "
            "generous budget byte-exact",
            "exact" if d["ledger_exact"] else "MISMATCH",
        ],
        [
            "breaker",
            f"{b['sessions']} sessions",
            f"{b['degraded']} degraded, {b['fast_failed']} fast-failed, "
            f"opened {b['opened']}x, reclosed {b['reclosed']}x",
            "exact" if b["ledger_exact"] else "MISMATCH",
        ],
        [
            "pool",
            f"{p['kills']} kills",
            f"{p['poison_errors']} poison errors, "
            f"{p['restarts_total']} restarts, {p['shards_disabled']} shard "
            "disabled, rerouted, healed byte-identical",
            "exact" if p["ledger_exact"] else "MISMATCH",
        ],
    ]
    title = (
        f"Overload: admission + deadlines + breaker + pool supervision "
        f"(seed {report.seed}, {report.events} events, "
        f"transport {report.transport})"
    )
    table = render_table(title, ["phase", "scale", "outcome", "ledger"], rows)
    summary = (
        "all four ledgers reconciled exactly"
        if report.reconciled
        else "LEDGER MISMATCH — see phase rows"
    )
    return f"{table}\n\n{summary}"
