"""The negotiation + session flow on the asyncio serving core.

Covers the tentpole end to end: async TCP transport, coroutine client,
async application server, and the kernel pool — with the pooled path
required to produce byte-identical responses to the inline path.
"""

import asyncio
import dataclasses
import itertools

import pytest

from repro.core import client as client_mod
from repro.core.asyncclient import AsyncFractalClient
from repro.core.client import FractalClient
from repro.core.errors import ProtocolMismatchError
from repro.core.kernelpool import KernelPool
from repro.core.retry import RetryPolicy
from repro.core.system import (
    APP_ID,
    APPSERVER_ENDPOINT,
    PROXY_ENDPOINT,
    bind_async_endpoints,
    build_case_study,
)
from repro.faults import FaultInjector, FaultPlan, FaultRule, FaultingTransport
from repro.simnet.asyncnet import AsyncTcpTransport
from repro.workload.profiles import DESKTOP_LAN, PAPER_ENVIRONMENTS, PDA_BLUETOOTH


def run(coro):
    return asyncio.run(coro)


async def _make_system(small_corpus, *, kernel_pool=None):
    system = build_case_study(corpus=small_corpus, calibrate=False)
    transport = AsyncTcpTransport()
    await bind_async_endpoints(system, transport, kernel_pool=kernel_pool)
    return system, transport


def _make_client(system, transport, env, name):
    return system.make_client(
        env, name=name, transport=transport, client_cls=AsyncFractalClient
    )


class _Tap:
    """Transport wrapper keeping every APP_REQ/APP_REP frame pair."""

    def __init__(self, inner, frames):
        self.inner, self.frames = inner, frames

    def _keep(self, dst, payload, reply):
        if dst == APPSERVER_ENDPOINT:
            self.frames.append((payload, reply))
        return reply

    def request(self, src, dst, payload):
        return self._keep(dst, payload, self.inner.request(src, dst, payload))


class _AsyncTap(_Tap):
    async def request(self, src, dst, payload):
        return self._keep(dst, payload, await self.inner.request(src, dst, payload))


_TIMINGS = ("negotiation_time_s", "pad_retrieval_time_s", "client_compute_s")


def _differential_run(corpus, monkeypatch, *, on_loop):
    """Eight sessions of one client under one seeded fault plan."""
    # Session ids come from a process-wide counter and travel in every
    # frame; both runs start it at the same place.
    monkeypatch.setattr(client_mod, "_session_counter", itertools.count(1))
    system = build_case_study(corpus=corpus, calibrate=False)
    site = system.deployment.client_sites[0]
    edge = system.deployment.redirector.resolve(site).name
    # Links are named by destination here.  A lost APP_REQ is only ever
    # retried (never degraded), so those losses are scheduled singly;
    # negotiation losses are drawn, and some exhaust the two attempts.
    plan = FaultPlan.of(
        FaultRule.frame_loss(PROXY_ENDPOINT, probability=0.4),
        FaultRule.frame_loss(APPSERVER_ENDPOINT, after=1, duration=1),
        FaultRule.frame_loss(APPSERVER_ENDPOINT, after=5, duration=1),
        FaultRule.tamper_digest(edge, duration=1),
    )
    injector = FaultInjector(plan, seed=20).install(system)
    frames, results = [], []

    def client_over(wire):
        return system.make_client(
            DESKTOP_LAN,
            site=site,
            name="diff",
            transport=FaultingTransport(wire, injector),
            client_cls=AsyncFractalClient if on_loop else FractalClient,
            retry_policy=RetryPolicy(max_attempts=2),
            degrade_to_direct=True,
        )

    def sessions(client):
        for i in range(8):
            client.set_environment(PAPER_ENVIRONMENTS[i % 3])
            old = system.corpus.evolved(i % 3, 0)
            yield client.request_page(
                APP_ID, i % 3,
                old_parts=[old.text, *old.images],
                old_version=0, new_version=1,
                force_negotiation=bool(i % 2),
            )

    if on_loop:

        async def main():
            async with AsyncTcpTransport() as net:
                await bind_async_endpoints(system, net)
                for pending in sessions(client_over(_AsyncTap(net, frames))):
                    results.append(await pending)

        run(main())
    else:
        # Under the injector's own FaultingTransport sits the in-process one.
        results.extend(sessions(client_over(_Tap(system.transport.inner, frames))))
    new_pages = [system.corpus.evolved(p, 1) for p in range(3)]
    for i, result in enumerate(results):
        assert result.parts == [new_pages[i % 3].text, *new_pages[i % 3].images]
    counters = system.telemetry.registry.snapshot()["counters"]
    return {
        "results": [
            {k: v for k, v in dataclasses.asdict(r).items() if k not in _TIMINGS}
            for r in results
        ],
        "counters": {
            k: v for k, v in counters.items()
            if k.startswith(("client.", "appserver.", "faults."))
        },
        "frames": frames,
    }


class TestAsyncEndToEnd:
    def test_negotiation_over_async_sockets(self, small_corpus):
        async def main():
            system, t = await _make_system(small_corpus)
            async with t:
                client = _make_client(system, t, DESKTOP_LAN, "async-cli-1")
                outcome = await client.negotiate(APP_ID)
                assert outcome.pads
                assert outcome.negotiation_time_s > 0
                # Second negotiation hits the client's protocol cache.
                again = await client.negotiate(APP_ID)
                assert again.from_cache

        run(main())

    def test_full_session_over_async_sockets(self, small_corpus):
        async def main():
            system, t = await _make_system(small_corpus)
            async with t:
                client = _make_client(system, t, PDA_BLUETOOTH, "async-cli-2")
                old_page = system.corpus.evolved(0, 0)
                result = await client.request_page(
                    APP_ID, 0,
                    old_parts=[old_page.text, *old_page.images],
                    old_version=0, new_version=1,
                )
                new_page = system.corpus.evolved(0, 1)
                assert result.parts == [new_page.text, *new_page.images]
                assert result.app_traffic_bytes > 0

        run(main())

    def test_inp_errors_cross_the_async_socket(self, small_corpus):
        async def main():
            system, t = await _make_system(small_corpus)
            async with t:
                client = _make_client(system, t, DESKTOP_LAN, "async-cli-3")
                with pytest.raises(ProtocolMismatchError):
                    await client.negotiate("no-such-application")

        run(main())

    def test_concurrent_sessions_share_one_loop(self, small_corpus):
        async def main():
            system, t = await _make_system(small_corpus)
            async with t:
                clients = [
                    _make_client(
                        system, t, PAPER_ENVIRONMENTS[i % 3], f"async-cc-{i}"
                    )
                    for i in range(6)
                ]
                old = system.corpus.evolved(0, 0)
                results = await asyncio.gather(
                    *(
                        c.request_page(
                            APP_ID, 0,
                            old_parts=[old.text, *old.images],
                            old_version=0, new_version=1,
                        )
                        for c in clients
                    )
                )
                new_page = system.corpus.evolved(0, 1)
                for r in results:
                    assert r.parts == [new_page.text, *new_page.images]

        run(main())

    def test_wire_meters_reconcile(self, small_corpus):
        async def main():
            system, t = await _make_system(small_corpus)
            async with t:
                client = _make_client(system, t, DESKTOP_LAN, "async-cli-m")
                old = system.corpus.evolved(0, 0)
                await client.request_page(
                    APP_ID, 0,
                    old_parts=[old.text, *old.images],
                    old_version=0, new_version=1,
                )
                cli = t.meter("async-cli-m")
                # The endpoint records its send in the continuation after
                # drain(); yield to the loop until the meters settle.
                for _ in range(100):
                    ep_sent = sum(
                        t.endpoint_meter(e).bytes_sent for e in t.endpoints()
                    )
                    if ep_sent == cli.bytes_received:
                        break
                    await asyncio.sleep(0.001)
                ep_recv = sum(
                    t.endpoint_meter(e).bytes_received for e in t.endpoints()
                )
                assert cli.bytes_sent == ep_recv
                assert cli.bytes_received == ep_sent

        run(main())

    def test_sync_async_differential_under_faults(self, small_corpus, monkeypatch):
        """One core, two drivers: the same seeded faults (frame loss
        towards proxy and appserver, one digest-tampered PAD download) with retry and
        degradation armed must produce the same sessions, the same
        counters and the same APP_REQ/APP_REP bytes whichever driver
        runs the client and the application server."""
        sync = _differential_run(small_corpus, monkeypatch, on_loop=False)
        aio = _differential_run(small_corpus, monkeypatch, on_loop=True)
        assert sync["counters"]["faults.injected.frame_loss"] > 0
        assert sync["counters"]["faults.injected.pad_tamper_digest"] == 1
        assert sync["counters"]["client.retries"] > 0
        assert sync["counters"]["client.degradations"] > 0
        assert aio["results"] == sync["results"]
        assert aio["counters"] == sync["counters"]
        assert aio["frames"] == sync["frames"]
        assert len(sync["frames"]) >= len(sync["results"])


class TestPooledServingByteIdentity:
    def test_pool_and_inline_sessions_are_byte_identical(self, small_corpus):
        """The acceptance bar: APP_REP bytes with pool workers must equal
        the inline (workers=0) bytes for identical requests."""

        async def session(kernel_pool):
            system, t = await _make_system(small_corpus, kernel_pool=kernel_pool)
            async with t:
                client = _make_client(system, t, PDA_BLUETOOTH, "async-golden")
                old = system.corpus.evolved(0, 0)
                cold = await client.request_page(APP_ID, 0, new_version=0)
                warm = await client.request_page(
                    APP_ID, 0,
                    old_parts=[old.text, *old.images],
                    old_version=0, new_version=1,
                )
                return cold, warm

        inline_cold, inline_warm = run(session(None))
        with KernelPool(workers=2) as pool:
            pool_cold, pool_warm = run(session(pool))
        assert pool_cold.parts == inline_cold.parts
        assert pool_warm.parts == inline_warm.parts
        # Byte identity on the wire, not just after reconstruction.
        assert pool_cold.app_response_bytes == inline_cold.app_response_bytes
        assert pool_warm.app_response_bytes == inline_warm.app_response_bytes
        assert pool_cold.app_request_bytes == inline_cold.app_request_bytes
        assert pool_warm.app_request_bytes == inline_warm.app_request_bytes
