"""Overload control on the real serving path: wire-level proofs.

Every test here drives the assembled case-study system through its
transport — raw INP frames or real clients — and checks both the wire
behaviour and the registry counters, mirroring the ledger discipline of
``fractal-bench overload`` at unit-test scale.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core import inp
from repro.core.asyncclient import AsyncFractalClient
from repro.core.errors import (
    DeadlineExceededError,
    ProtocolMismatchError,
    ServerOverloadedError,
)
from repro.core.inp import INPMessage, MsgType
from repro.core.system import (
    APP_ID,
    APPSERVER_ENDPOINT,
    PROXY_ENDPOINT,
    build_case_study,
)
from repro.overload import (
    DEADLINE_PREFIX,
    OVERLOADED_PREFIX,
    AdmissionController,
    BreakerBoard,
    Deadline,
    ManualClock,
    TickingClock,
)
from repro.telemetry import Telemetry
from repro.workload.pages import Corpus
from repro.workload.profiles import DESKTOP_LAN


def small_system(**kwargs):
    # Small byte sizes for speed, but the paper's 1-text + 4-image page
    # layout: FractalClient probes part counts from the corpus constant.
    corpus = Corpus(n_pages=2, text_bytes=800, image_bytes=2000)
    return build_case_study(corpus=corpus, calibrate=False, **kwargs)


def raw(system, dst, msg):
    return inp.decode(system.transport.request("raw", dst, inp.encode(msg)))


def app_req_body(corpus, page):
    total_parts = 1 + corpus.images_per_page
    return {
        "pad_ids": ["direct"],
        "page_id": page,
        "old_version": -1,
        "new_version": 1,
        "part_requests": [b""] * total_parts,
    }


class TestWireDeadlineField:
    def test_dl_round_trips_and_is_omitted_when_unset(self):
        msg = INPMessage(MsgType.INIT_REQ, "s", 0, {"app_id": APP_ID})
        stamped = msg.with_deadline(1500.0)
        decoded = inp.decode(inp.encode(stamped))
        assert decoded.deadline_ms == 1500.0
        # No deadline -> no "dl" key: deadline-free traffic stays
        # byte-identical to the pre-overload wire format.
        assert b'"dl"' not in inp.encode(msg)
        assert inp.decode(inp.encode(msg)).deadline_ms is None

    def test_replies_never_carry_the_budget(self):
        msg = INPMessage(MsgType.INIT_REQ, "s", 0, {}).with_deadline(500.0)
        assert msg.reply(MsgType.INIT_REP, {}).deadline_ms is None

    def test_decode_rejects_malformed_dl(self):
        good = inp.encode(INPMessage(MsgType.INIT_REQ, "s", 0, {}))
        import json

        envelope = json.loads(good)
        for bad in (True, "100", float("inf")):
            envelope["dl"] = bad
            with pytest.raises(ProtocolMismatchError):
                inp.decode(json.dumps(envelope).encode())


class TestServerAdmissionGate:
    def test_proxy_sheds_with_hint_and_client_sees_typed_error(self):
        telemetry = Telemetry()
        registry = telemetry.registry
        clock = ManualClock()
        admission = AdmissionController(
            "proxy-admission", rate_per_s=4.0, burst=2,
            registry=registry, clock=clock,
        )
        system = small_system(telemetry=telemetry, proxy_admission=admission)
        replies = [
            raw(system, PROXY_ENDPOINT,
                INPMessage(MsgType.INIT_REQ, f"s{i}", 0, {"app_id": APP_ID}))
            for i in range(4)
        ]
        assert [r.msg_type for r in replies[:2]] == [MsgType.INIT_REP] * 2
        for r in replies[2:]:
            assert r.msg_type is MsgType.INP_ERROR
            assert str(r.body["error"]).startswith(OVERLOADED_PREFIX)
            assert r.body["retry_after_ms"] > 0
        # The typed-client view of the same shed.
        client = system.make_client(DESKTOP_LAN)
        with pytest.raises(ServerOverloadedError) as exc_info:
            client.negotiate(APP_ID)
        assert exc_info.value.retry_after_s > 0
        # Recovery is just time passing.
        clock.advance(1.0)
        rep = raw(system, PROXY_ENDPOINT,
                  INPMessage(MsgType.INIT_REQ, "s9", 0, {"app_id": APP_ID}))
        assert rep.msg_type is MsgType.INIT_REP
        assert registry.counter("overload.proxy-admission.admitted").value == 3
        assert registry.counter("overload.proxy-admission.rejected.rate").value == 3

    def test_appserver_admission_guards_encode_work(self):
        telemetry = Telemetry()
        admission = AdmissionController(
            "app-admission", rate_per_s=1.0, burst=1,
            registry=telemetry.registry, clock=ManualClock(),
        )
        system = small_system(telemetry=telemetry, appserver_admission=admission)
        body = app_req_body(system.corpus, 0)
        first = raw(system, APPSERVER_ENDPOINT,
                    INPMessage(MsgType.APP_REQ, "a0", 0, dict(body)))
        assert first.msg_type is MsgType.APP_REP
        second = raw(system, APPSERVER_ENDPOINT,
                     INPMessage(MsgType.APP_REQ, "a1", 0, dict(body)))
        assert second.msg_type is MsgType.INP_ERROR
        assert str(second.body["error"]).startswith(OVERLOADED_PREFIX)
        # The shed request did no encode work.
        total_parts = 1 + system.corpus.images_per_page
        assert (
            telemetry.registry.counter("appserver.parts_encoded").value
            == total_parts
        )


class TestServerDeadlineGates:
    def test_expired_budget_is_shed_at_both_doors(self):
        system = small_system()
        registry = system.telemetry.registry
        rep = raw(
            system, PROXY_ENDPOINT,
            INPMessage(MsgType.INIT_REQ, "d0", 0, {"app_id": APP_ID})
            .with_deadline(0.0),
        )
        assert rep.msg_type is MsgType.INP_ERROR
        assert str(rep.body["error"]).startswith(DEADLINE_PREFIX)
        assert registry.counter("proxy.overload.deadline_expired").value == 1

        body = app_req_body(system.corpus, 0)
        rep = raw(
            system, APPSERVER_ENDPOINT,
            INPMessage(MsgType.APP_REQ, "d1", 0, body).with_deadline(-5.0),
        )
        assert rep.msg_type is MsgType.INP_ERROR
        assert str(rep.body["error"]).startswith(DEADLINE_PREFIX)
        assert registry.counter("appserver.overload.deadline_entry").value == 1
        assert registry.counter("appserver.requests").value == 0

    def test_midrequest_shed_counts_exact_parts(self):
        # TickingClock, 1 s per read.  The appserver reads it once to
        # anchor the wire budget and once for the entry check; each part
        # then costs one read.  A 2.5 s budget therefore survives the
        # part-0 check (t=3.0 < 3.5) and expires on the part-1 check
        # (t=4.0), shedding exactly parts 1..N.
        system = small_system()
        registry = system.telemetry.registry
        total_parts = 1 + system.corpus.images_per_page
        system.appserver.deadline_clock = TickingClock(1.0)
        try:
            rep = raw(
                system, APPSERVER_ENDPOINT,
                INPMessage(MsgType.APP_REQ, "mid", 0,
                           app_req_body(system.corpus, 0))
                .with_deadline(2500.0),
            )
        finally:
            system.appserver.deadline_clock = time.monotonic
        assert rep.msg_type is MsgType.INP_ERROR
        assert f"shed {total_parts - 1} of {total_parts} parts" in str(
            rep.body["error"]
        )
        assert (
            registry.counter("appserver.overload.parts_shed").value
            == total_parts - 1
        )
        assert registry.counter("appserver.overload.deadline_midrequest").value == 1
        # Part 0 was encoded before the budget ran out; nothing after.
        assert registry.counter("appserver.parts_encoded").value == 1


class TestClientDeadline:
    def test_deadline_stamping_costs_correctness_nothing(self):
        system = small_system()
        client = system.make_client(DESKTOP_LAN, deadline_s=30.0)
        result = client.request_page(APP_ID, 0)
        expected = system.corpus.evolved(0, 1)
        assert not result.degraded
        assert result.parts == [expected.text, *expected.images]

    def test_exhausted_local_budget_never_touches_the_wire(self):
        system = small_system()
        registry = system.telemetry.registry
        client = system.make_client(DESKTOP_LAN)

        def tripwire(request):
            raise AssertionError("expired budget must not reach the wire")

        system.transport.unbind(PROXY_ENDPOINT)
        system.transport.bind(PROXY_ENDPOINT, tripwire)
        clock = ManualClock()
        deadline = Deadline.after(1.0, clock)
        clock.advance(2.0)
        msg = INPMessage(MsgType.INIT_REQ, "local", 0, {"app_id": APP_ID})
        with pytest.raises(DeadlineExceededError):
            client._rpc(PROXY_ENDPOINT, msg, deadline=deadline)
        assert registry.counter("client.deadline.expired_local").value == 1


class TestClientBreakerGauntlet:
    def test_outage_trips_fast_fail_degrade_and_scripted_recovery(self):
        system = small_system()
        registry = system.telemetry.registry
        clock = ManualClock()
        board = BreakerBoard(
            failure_threshold=2, recovery_timeout_s=10.0,
            clock=clock, registry=registry,
        )
        client = system.make_client(
            DESKTOP_LAN, breaker_board=board, degrade_to_direct=True
        )
        system.transport.unbind(PROXY_ENDPOINT)
        try:
            sessions = 5
            degraded = sum(
                1 if client.request_page(APP_ID, 0).degraded else 0
                for _ in range(sessions)
            )
        finally:
            system.transport.bind(PROXY_ENDPOINT, system.proxy.handle)
        assert degraded == sessions  # every session still served
        breaker = board.breaker(PROXY_ENDPOINT)
        assert breaker.state == "open"
        fast_failed = registry.counter("client.breaker.fast_fail").value
        assert fast_failed == sessions - 2  # only the first two hit the wire
        clock.advance(10.0)
        result = client.request_page(APP_ID, 0)
        assert not result.degraded
        assert breaker.state == "closed"
        assert breaker.snapshot()["reclosed"] == 1

    def test_server_overload_rejections_feed_the_breaker(self):
        telemetry = Telemetry()
        registry = telemetry.registry
        # Negotiation costs two proxy round trips; a burst of exactly two
        # tokens (and no refill on the manual clock) admits one full
        # negotiation, then sheds everything after it.
        admission = AdmissionController(
            "proxy-admission", rate_per_s=2.0, burst=2,
            registry=registry, clock=ManualClock(),
        )
        system = small_system(telemetry=telemetry, proxy_admission=admission)
        board = BreakerBoard(
            failure_threshold=2, recovery_timeout_s=10.0,
            clock=ManualClock(), registry=registry,
        )
        client = system.make_client(DESKTOP_LAN, breaker_board=board)
        client.negotiate(APP_ID)  # consumes both tokens
        for _ in range(2):
            client._protocol_cache.clear()
            with pytest.raises(ServerOverloadedError):
                client.negotiate(APP_ID)
        assert board.breaker(PROXY_ENDPOINT).state == "open"
        assert registry.counter("client.overload.rejections").value == 2


class _OnLoop:
    """The in-process transport behind an awaitable ``request``, keeping
    every frame sent: what an ``AsyncFractalClient`` needs and no more."""

    def __init__(self, inner):
        self.inner = inner
        self.sent = []

    async def request(self, src, dst, payload):
        self.sent.append(payload)
        return self.inner.request(src, dst, payload)


def async_client(system, **knobs):
    wire = _OnLoop(system.transport)
    client = system.make_client(
        DESKTOP_LAN, transport=wire, client_cls=AsyncFractalClient, **knobs
    )
    return client, wire


class TestAsyncClientGauntlet:
    """The asyncio client runs the same RPC gauntlet as the blocking one
    (it is the same steps): one test per counter the old coroutine copy
    never moved."""

    def test_admission_shed_counts_client_rejections(self):
        telemetry = Telemetry()
        registry = telemetry.registry
        admission = AdmissionController(
            "proxy-admission", rate_per_s=2.0, burst=2,
            registry=registry, clock=ManualClock(),
        )
        system = small_system(telemetry=telemetry, proxy_admission=admission)
        client, _ = async_client(system)

        async def main():
            await client.negotiate(APP_ID)  # consumes both tokens
            client._protocol_cache.clear()
            with pytest.raises(ServerOverloadedError):
                await client.negotiate(APP_ID)

        asyncio.run(main())
        assert registry.counter("client.overload.rejections").value == 1

    def test_deadline_is_stamped_and_expires_locally(self):
        system = small_system()
        registry = system.telemetry.registry
        client, wire = async_client(system, deadline_s=30.0)
        result = asyncio.run(client.request_page(APP_ID, 0))
        expected = system.corpus.evolved(0, 1)
        assert result.parts == [expected.text, *expected.images]
        assert wire.sent and all(b'"dl":' in frame for frame in wire.sent)

        clock = ManualClock()
        deadline = Deadline.after(1.0, clock)
        clock.advance(2.0)
        sent_before = len(wire.sent)
        msg = INPMessage(MsgType.INIT_REQ, "local", 0, {"app_id": APP_ID})
        with pytest.raises(DeadlineExceededError):
            asyncio.run(client._rpc(PROXY_ENDPOINT, msg, deadline=deadline))
        assert len(wire.sent) == sent_before  # never touched the wire
        assert registry.counter("client.deadline.expired_local").value == 1

    def test_breaker_trips_fast_fails_degrades_and_recloses(self):
        system = small_system()
        registry = system.telemetry.registry
        clock = ManualClock()
        board = BreakerBoard(
            failure_threshold=2, recovery_timeout_s=10.0,
            clock=clock, registry=registry,
        )
        client, _ = async_client(
            system, breaker_board=board, degrade_to_direct=True
        )

        async def sessions(n):
            return [await client.request_page(APP_ID, 0) for _ in range(n)]

        system.transport.unbind(PROXY_ENDPOINT)
        try:
            outage = asyncio.run(sessions(5))
        finally:
            system.transport.bind(PROXY_ENDPOINT, system.proxy.handle)
        assert all(r.degraded for r in outage)  # every session still served
        breaker = board.breaker(PROXY_ENDPOINT)
        assert breaker.state == "open"
        # Only the first two sessions hit the wire.
        assert registry.counter("client.breaker.fast_fail").value == 3
        assert registry.counter("client.degradations").value == 5
        clock.advance(10.0)
        (recovered,) = asyncio.run(sessions(1))
        assert not recovered.degraded
        assert breaker.state == "closed"
        assert breaker.snapshot()["reclosed"] == 1
