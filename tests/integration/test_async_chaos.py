"""Chaos on the asyncio serving path: the fault injector's transport
facade over ``AsyncTcpTransport``, with the same ledger the blocking
acceptance run closes."""

import asyncio

import pytest

from repro.core.asyncclient import AsyncFractalClient
from repro.core.retry import RetryPolicy
from repro.core.system import APP_ID, bind_async_endpoints, build_case_study
from repro.faults import AsyncFaultingTransport, FaultInjector, FaultPlan, FaultRule
from repro.simnet.asyncnet import AsyncTcpTransport
from repro.workload.profiles import PAPER_ENVIRONMENTS

FAST_RETRIES = RetryPolicy(max_attempts=8, base_delay_s=0.001, max_delay_s=0.01)


@pytest.mark.chaos
def test_async_sessions_survive_frame_loss_and_corruption(small_corpus):
    """10 % frame loss plus 10 % reply corruption on every exchange of 60
    sessions over real asyncio sockets: every page is rebuilt right, and
    every injected fault is answered by exactly one client retry."""
    system = build_case_study(corpus=small_corpus, calibrate=False)
    registry = system.telemetry.registry
    plan = FaultPlan.of(
        FaultRule.frame_loss(probability=0.1),
        FaultRule.frame_corrupt(probability=0.1),
    )
    injector = FaultInjector(plan, seed=2026, registry=registry)

    async def main():
        async with AsyncTcpTransport() as net:
            await bind_async_endpoints(system, net)
            wire = AsyncFaultingTransport(net, injector)
            for i in range(60):
                client = system.make_client(
                    PAPER_ENVIRONMENTS[i % len(PAPER_ENVIRONMENTS)],
                    transport=wire,
                    client_cls=AsyncFractalClient,
                    retry_policy=FAST_RETRIES,
                )
                page_id = i % system.corpus.n_pages
                result = await client.request_page(APP_ID, page_id, new_version=0)
                page = system.corpus.evolved(page_id, 0)
                assert result.parts == [page.text, *page.images]

    asyncio.run(main())
    counters = registry.snapshot()["counters"]
    losses = counters["faults.injected.frame_loss"]
    corruptions = counters["faults.injected.frame_corrupt"]
    assert losses > 0 and corruptions > 0
    assert counters["faults.injected"] == losses + corruptions
    assert counters["client.retries"] == losses + corruptions
    assert counters.get("client.degradations", 0) == 0
