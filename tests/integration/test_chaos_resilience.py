"""Chaos acceptance: sessions survive injected faults, ledgers reconcile.

Three pillars:

* the issue's acceptance run — ≥5% Bluetooth frame loss plus a mid-run
  edge outage over a 100-client case study must complete every session
  through retry/failover/degradation, with the telemetry counters
  accounting for every injected fault;
* a disabled injector is indistinguishable from no injector — same
  session bytes, same counter snapshot;
* graceful degradation — a client that cannot negotiate at all still
  serves the page over the ``direct`` protocol.
"""

import itertools
from collections import Counter as TallyCounter

import pytest

from repro.core import client as client_mod
from repro.core.retry import RetryPolicy
from repro.core.system import (
    APP_ID,
    APPSERVER_ENDPOINT,
    PROXY_ENDPOINT,
    build_case_study,
)
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.simnet.realnet import TcpTransport
from repro.simnet.transport import TransportError
from repro.workload.profiles import DESKTOP_LAN, PAPER_ENVIRONMENTS

FAST_RETRIES = RetryPolicy(max_attempts=6, base_delay_s=0.02, max_delay_s=0.5)


def busiest_edge(system) -> str:
    redirector = system.deployment.redirector
    tally = TallyCounter()
    for site in system.deployment.client_sites:
        tally[redirector.resolve(site).name] += 1
    return tally.most_common(1)[0][0]


class TestAcceptanceRun:
    def test_100_clients_survive_frame_loss_and_edge_outage(self, small_corpus):
        system = build_case_study(corpus=small_corpus, calibrate=False)
        plan = FaultPlan.of(
            FaultRule.frame_loss("Bluetooth", probability=0.08),
            FaultRule.edge_outage(busiest_edge(system), after=3, duration=40),
        )
        injector = FaultInjector(plan, seed=2026).install(system)

        completed = 0
        for i in range(100):
            env = PAPER_ENVIRONMENTS[i % len(PAPER_ENVIRONMENTS)]
            client = system.make_client(
                env,
                retry_policy=FAST_RETRIES,
                degrade_to_direct=True,
                failover_fetch=True,
            )
            page_id = i % system.corpus.n_pages
            result = client.request_page(APP_ID, page_id, new_version=0)
            page = system.corpus.evolved(page_id, 0)
            assert result.parts == [page.text, *page.images]
            completed += 1
        assert completed == 100  # zero unhandled exceptions

        counters = system.telemetry.registry.snapshot()["counters"]
        injected = counters.get("faults.injected", 0)
        losses = counters.get("faults.injected.frame_loss", 0)
        outages = counters.get("faults.injected.edge_outage", 0)
        retries = counters.get("client.retries", 0)
        failovers = counters.get("cdn.failovers", 0)
        degradations = counters.get("client.degradations", 0)

        # Both planned fault kinds actually occurred...
        assert losses > 0 and outages > 0
        # ...and the ledger closes: every fault is either an edge outage
        # absorbed by exactly one CDN failover, or a wire fault absorbed
        # by a client retry (or, on exhaustion, the final degradation).
        assert injected == losses + outages
        assert failovers == outages
        assert retries + degradations == losses

    @pytest.mark.chaos
    def test_sweep_survives_every_fault_rate(self, small_corpus):
        """Heavier sweep through the bench harness itself."""
        from repro.bench.chaos import chaos_experiment

        result = chaos_experiment(
            (0.0, 0.2), n_clients=30, seed=7, corpus=small_corpus
        )
        for summary in result.summaries:
            assert summary.unhandled_errors == 0
            assert summary.success_rate == 1.0
            assert summary.faults_injected == sum(
                summary.faults_by_kind.values()
            )
        # The lossy rate must actually have injected wire faults.
        assert result.summaries[-1].faults_injected > 0
        assert result.summaries[-1].retries > 0


class TestCorruptDirectResponse:
    """Direct has no integrity check of its own, and its APP_REP is all
    but entirely raw attachment bytes: the frame CRC is what turns a
    flipped page byte into a retry instead of a wrong page."""

    @pytest.mark.parametrize("over_tcp", [False, True], ids=["inproc", "tcp"])
    def test_corrupt_app_rep_is_counted_retried_and_served_right(
        self, small_corpus, over_tcp
    ):
        system = build_case_study(
            corpus=small_corpus, calibrate=False, pad_ids=("direct",)
        )
        tcp = None
        if over_tcp:
            tcp = system.transport = TcpTransport()
            tcp.bind(PROXY_ENDPOINT, system.proxy.handle)
            tcp.bind(APPSERVER_ENDPOINT, system.appserver.handle)
        try:
            # Links named by destination: the one hit lands on the first
            # app exchange and negotiation stays clean.
            plan = FaultPlan.of(FaultRule.frame_corrupt(APPSERVER_ENDPOINT, duration=1))
            FaultInjector(plan, seed=12).install(system, link_of=lambda src, dst: dst)
            client = system.make_client(DESKTOP_LAN, retry_policy=FAST_RETRIES)
            result = client.request_page(APP_ID, 1, new_version=0)
        finally:
            if tcp is not None:
                tcp.close()
        page = system.corpus.evolved(1, 0)
        assert result.pad_ids == ("direct",)
        assert result.parts == [page.text, *page.images]
        counters = system.telemetry.registry.snapshot()["counters"]
        assert counters["faults.injected.frame_corrupt"] == 1
        assert counters["faults.injected"] == 1
        assert counters["client.retries.app"] == 1
        assert counters["client.retries"] == 1
        assert counters["appserver.requests"] == 2


NOISY_PLAN = FaultPlan.of(
    FaultRule.frame_loss("Bluetooth", probability=0.5),
    FaultRule.frame_corrupt(probability=0.25),
    FaultRule.tamper_signature(probability=0.5),
    FaultRule.proxy_restart(after=2),
)


class TestDisabledInjectorIsInert:
    def _run_sessions(self, system):
        outputs = []
        for env in PAPER_ENVIRONMENTS:
            client = system.make_client(env)
            for page_id in (0, 1):
                result = client.request_page(APP_ID, page_id, new_version=0)
                outputs.append(result.content)
        return outputs

    def test_disabled_injector_changes_nothing(self, small_corpus):
        """Same corpus, same workload: a run with the injector installed
        but disabled must be byte-identical — same session content, same
        counter snapshot — to a run that never saw ``repro.faults``."""
        runs = []
        for with_injector in (False, True):
            # Pin the module-global session counter so INP session ids
            # (whose digit counts feed byte counters) align across runs.
            client_mod._session_counter = itertools.count(10_000)
            system = build_case_study(corpus=small_corpus, calibrate=False)
            if with_injector:
                FaultInjector(NOISY_PLAN, seed=1, enabled=False).install(system)
            outputs = self._run_sessions(system)
            runs.append((outputs, system.telemetry.registry.snapshot()["counters"]))
        (plain_out, plain_counters), (chaos_out, chaos_counters) = runs
        assert plain_out == chaos_out
        assert plain_counters == chaos_counters
        assert "faults.injected" not in chaos_counters

    def test_uninstall_restores_the_original_components(self, small_corpus):
        system = build_case_study(corpus=small_corpus, calibrate=False)
        transport = system.transport
        edges = list(system.deployment.edges)
        injector = FaultInjector(NOISY_PLAN, seed=1).install(system)
        assert system.transport is not transport
        injector.uninstall()
        assert system.transport is transport
        assert list(system.deployment.edges) == edges
        assert system.deployment.redirector.edges()[0] is sorted(
            edges, key=lambda e: e.name
        )[0]

    def test_double_install_rejected(self, small_corpus):
        system = build_case_study(corpus=small_corpus, calibrate=False)
        injector = FaultInjector(NOISY_PLAN, seed=1).install(system)
        with pytest.raises(RuntimeError, match="already installed"):
            injector.install(system)
        injector.uninstall()


class TestGracefulDegradation:
    def test_dead_proxy_degrades_to_direct(self, small_corpus):
        system = build_case_study(corpus=small_corpus, calibrate=False)
        client = system.make_client(
            DESKTOP_LAN,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            degrade_to_direct=True,
        )
        system.transport.unbind("proxy")
        result = client.request_page(APP_ID, 0, new_version=0)
        assert result.degraded is True
        assert result.pad_ids == ("direct",)
        page = system.corpus.evolved(0, 0)
        assert result.parts == [page.text, *page.images]
        counters = system.telemetry.registry.snapshot()["counters"]
        assert counters["client.degradations"] == 1
        assert counters["client.retries"] == 1  # max_attempts=2 -> one retry

    def test_without_degradation_the_error_still_propagates(self, small_corpus):
        system = build_case_study(corpus=small_corpus, calibrate=False)
        client = system.make_client(
            DESKTOP_LAN,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
        )
        system.transport.unbind("proxy")
        with pytest.raises(TransportError):
            client.request_page(APP_ID, 0, new_version=0)

    def test_degraded_session_recovers_on_next_request(self, small_corpus):
        """Degradation is per-session: once the proxy is back, the next
        request negotiates a real protocol again."""
        system = build_case_study(corpus=small_corpus, calibrate=False)
        client = system.make_client(
            DESKTOP_LAN,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=0.0),
            degrade_to_direct=True,
        )
        handler = system.proxy.handle
        system.transport.unbind("proxy")
        degraded = client.request_page(APP_ID, 0, new_version=0)
        assert degraded.degraded is True
        system.transport.bind("proxy", handler)
        recovered = client.request_page(APP_ID, 0, new_version=0)
        assert recovered.degraded is False
        assert client.negotiations == 2  # the failed one, then the real one
