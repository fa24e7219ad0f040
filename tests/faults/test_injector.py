"""FaultInjector decision core + the faulting facades."""

import json

import pytest

from repro import drive
from repro.faults.injector import (
    AsyncFaultingTransport,
    FaultingChannel,
    FaultingEdge,
    FaultingTransport,
    FaultInjector,
    InjectedFault,
)
from repro.faults.plan import (
    EDGE_OUTAGE,
    EDGE_SLOW,
    FRAME_CORRUPT,
    FRAME_LOSS,
    FaultPlan,
    FaultRule,
)
from repro.simnet.transport import TransportError
from repro.telemetry import MetricsRegistry

LOSSY = FaultPlan.of(FaultRule.frame_loss("Bluetooth", probability=0.5))


class TestFireDeterminism:
    def test_same_seed_same_decisions(self):
        a = FaultInjector(LOSSY, seed=42)
        b = FaultInjector(LOSSY, seed=42)
        decisions_a = [a.fire(FRAME_LOSS, "Bluetooth") is not None for _ in range(200)]
        decisions_b = [b.fire(FRAME_LOSS, "Bluetooth") is not None for _ in range(200)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)

    def test_different_seed_different_decisions(self):
        a = FaultInjector(LOSSY, seed=1)
        b = FaultInjector(LOSSY, seed=2)
        decisions_a = [a.fire(FRAME_LOSS, "Bluetooth") is not None for _ in range(200)]
        decisions_b = [b.fire(FRAME_LOSS, "Bluetooth") is not None for _ in range(200)]
        assert decisions_a != decisions_b

    def test_probability_zero_never_fires(self):
        inj = FaultInjector(FaultPlan.of(FaultRule.frame_loss(probability=0.0)))
        assert all(inj.fire(FRAME_LOSS, "x") is None for _ in range(100))

    def test_probability_one_always_fires(self):
        inj = FaultInjector(FaultPlan.of(FaultRule.frame_loss(probability=1.0)))
        assert all(inj.fire(FRAME_LOSS, "x") is not None for _ in range(10))


class TestScheduleWindows:
    def test_outage_window_fires_exact_events(self):
        plan = FaultPlan.of(FaultRule.edge_outage("edge00", after=2, duration=3))
        inj = FaultInjector(plan)
        fired = [
            i for i in range(10) if inj.fire(EDGE_OUTAGE, "edge00") is not None
        ]
        assert fired == [2, 3, 4]

    def test_event_streams_are_per_kind_and_target(self):
        plan = FaultPlan.of(FaultRule.edge_outage("edge00", after=1, duration=1))
        inj = FaultInjector(plan)
        # Events on a different edge must not advance edge00's stream.
        for _ in range(5):
            inj.fire(EDGE_OUTAGE, "edge01")
        assert inj.fire(EDGE_OUTAGE, "edge00") is None  # event 0
        assert inj.fire(EDGE_OUTAGE, "edge00") is not None  # event 1
        assert inj.events_observed(EDGE_OUTAGE, "edge01") == 5


class TestEnabledToggle:
    def test_disabled_injector_never_fires_or_counts(self):
        inj = FaultInjector(
            FaultPlan.of(FaultRule.frame_loss(probability=1.0)), enabled=False
        )
        assert all(inj.fire(FRAME_LOSS, "x") is None for _ in range(50))
        assert inj.events_observed(FRAME_LOSS, "x") == 0

    def test_disabled_window_does_not_consume_events(self):
        plan = FaultPlan.of(FaultRule.edge_outage("e", after=0, duration=1))
        inj = FaultInjector(plan, enabled=False)
        inj.fire(EDGE_OUTAGE, "e")
        inj.enabled = True
        # The disabled call did not burn event 0, so the rule still fires.
        assert inj.fire(EDGE_OUTAGE, "e") is not None


class TestRegistryAccounting:
    def test_counters_per_kind_and_total(self):
        registry = MetricsRegistry()
        plan = FaultPlan.of(
            FaultRule.frame_loss(probability=1.0),
            FaultRule.edge_slow("e", 0.25),
        )
        inj = FaultInjector(plan, registry=registry)
        inj.fire(FRAME_LOSS, "x")
        inj.fire(FRAME_LOSS, "x")
        inj.fire(EDGE_SLOW, "e")
        counters = registry.snapshot()["counters"]
        assert counters["faults.injected"] == 3
        assert counters["faults.injected.frame_loss"] == 2
        assert counters["faults.injected.edge_slow"] == 1
        assert inj.injected() == 3
        assert inj.injected(FRAME_LOSS) == 2


class TestCorrupt:
    def test_corrupt_always_changes_bytes(self):
        inj = FaultInjector(FaultPlan())
        blob = bytes(range(64))
        for _ in range(20):
            mangled = inj.corrupt(blob)
            assert mangled != blob
            assert len(mangled) == len(blob)

    def test_corrupt_empty_blob(self):
        assert FaultInjector(FaultPlan()).corrupt(b"") == b"\xff"


class _FakeTransport:
    def __init__(self):
        self.calls = []

    def request(self, src, dst, payload):
        self.calls.append((src, dst, payload))
        return b"reply:" + payload

    def endpoints(self):
        return ["proxy"]


class TestFaultingTransport:
    def test_frame_loss_raises_transport_error(self):
        inner = _FakeTransport()
        inj = FaultInjector(FaultPlan.of(FaultRule.frame_loss("svc")))
        wrapped = FaultingTransport(inner, inj)
        with pytest.raises(TransportError, match="injected frame loss"):
            wrapped.request("cli", "svc", b"hi")
        assert inner.calls == []  # the frame never arrived

    def test_frame_corrupt_flips_response(self):
        inner = _FakeTransport()
        inj = FaultInjector(FaultPlan.of(FaultRule.frame_corrupt("svc")))
        wrapped = FaultingTransport(inner, inj)
        assert wrapped.request("cli", "svc", b"hi") != b"reply:hi"
        assert inner.calls  # request went through; the reply was mangled

    def test_link_of_names_the_link(self):
        inner = _FakeTransport()
        inj = FaultInjector(FaultPlan.of(FaultRule.frame_loss("Bluetooth")))
        wrapped = FaultingTransport(
            inner, inj, link_of=lambda src, dst: "Bluetooth"
        )
        with pytest.raises(TransportError, match="Bluetooth"):
            wrapped.request("cli", "svc", b"hi")

    def test_clean_plan_is_passthrough_and_delegates(self):
        inner = _FakeTransport()
        wrapped = FaultingTransport(inner, FaultInjector(FaultPlan()))
        assert wrapped.request("cli", "svc", b"hi") == b"reply:hi"
        assert wrapped.endpoints() == ["proxy"]  # __getattr__ delegation

    def test_proxy_restart_fires_on_scheduled_request(self):
        class _FakeProxy:
            restarts = 0

            def restart(self):
                self.restarts += 1

        inner, proxy = _FakeTransport(), _FakeProxy()
        inj = FaultInjector(FaultPlan.of(FaultRule.proxy_restart(after=1)))
        wrapped = FaultingTransport(inner, inj, proxy=proxy)
        wrapped.request("cli", "proxy", b"0")
        assert proxy.restarts == 0
        wrapped.request("cli", "proxy", b"1")
        assert proxy.restarts == 1
        wrapped.request("cli", "proxy", b"2")
        assert proxy.restarts == 1  # duration=1: fired exactly once

    def test_same_rules_over_an_asyncio_transport(self):
        """The reply is awaited before a corruption rule touches it, and
        the two drivers draw the same faults from the same seed."""
        import asyncio

        class _AsyncFake(_FakeTransport):
            async def request(self, src, dst, payload):
                return _FakeTransport.request(self, src, dst, payload)

        plan = FaultPlan.of(
            FaultRule.frame_loss("svc", probability=0.3),
            FaultRule.frame_corrupt("svc", probability=0.3),
        )

        def outcomes(transport):
            seen = []
            for _ in range(40):
                try:
                    seen.append((yield drive.call(transport.request, "cli", "svc", b"hi")))
                except TransportError as exc:
                    seen.append(str(exc))
            return seen

        sync = FaultingTransport(_FakeTransport(), FaultInjector(plan, seed=5))
        aio = AsyncFaultingTransport(_AsyncFake(), FaultInjector(plan, seed=5))
        blocking = drive.run(outcomes(sync))
        on_loop = asyncio.run(drive.run_async(outcomes(aio)))
        assert on_loop == blocking
        kinds = {o if isinstance(o, str) else (o == b"reply:hi") for o in on_loop}
        assert len(kinds) == 3  # lost, corrupted and clean all occurred


def _edge_with_two_objects():
    from repro.cdn.edge import EdgeServer
    from repro.cdn.origin import OriginServer
    from repro.mobilecode.module import MobileCodeModule
    from repro.mobilecode.rsa import generate_keypair
    from repro.mobilecode.signing import Signer

    signer = Signer("pub", generate_keypair(768))
    origin = OriginServer()
    for name in ("alpha", "beta"):
        module = MobileCodeModule(
            name=name, version="1", source=f"X = {name!r}\n", entry_point="str"
        )
        origin.publish(f"{name}/1", signer.sign(module).to_wire())
    return EdgeServer("edge00", origin), signer


class TestFaultingEdge:
    def test_outage_raises_injected_fault(self):
        edge, _ = _edge_with_two_objects()
        inj = FaultInjector(FaultPlan.of(FaultRule.edge_outage("edge00")))
        with pytest.raises(InjectedFault, match="edge00"):
            FaultingEdge(edge, inj).serve("alpha/1")

    def test_slow_is_accounted_not_slept(self):
        edge, _ = _edge_with_two_objects()
        registry = MetricsRegistry()
        inj = FaultInjector(
            FaultPlan.of(FaultRule.edge_slow("edge00", 0.25)), registry=registry
        )
        wrapped = FaultingEdge(edge, inj)
        assert wrapped.serve("alpha/1") == edge.serve("alpha/1")
        assert wrapped.injected_latency_s == pytest.approx(0.25)
        histos = registry.snapshot()["histograms"]
        assert "faults.edge_slow_latency_s" in histos

    def test_tamper_digest_serves_another_validly_signed_object(self):
        from repro.mobilecode.signing import SignedModule, TrustStore

        edge, signer = _edge_with_two_objects()
        inj = FaultInjector(FaultPlan.of(FaultRule.tamper_digest("edge00")))
        blob = FaultingEdge(edge, inj).serve("alpha/1")
        assert blob == edge.origin.fetch("beta/1")  # the wrong object...
        store = TrustStore()
        store.trust("pub", signer.public_key)
        store.verify(SignedModule.from_wire(blob))  # ...but validly signed

    def test_tamper_signature_breaks_verification_only(self):
        from repro.mobilecode.module import MobileCodeError
        from repro.mobilecode.signing import SignedModule, TrustStore

        edge, signer = _edge_with_two_objects()
        inj = FaultInjector(FaultPlan.of(FaultRule.tamper_signature("edge00")))
        blob = FaultingEdge(edge, inj).serve("alpha/1")
        envelope = json.loads(blob)  # still a well-formed envelope
        signed = SignedModule.from_wire(blob)
        assert signed.module.name == "alpha"
        store = TrustStore()
        store.trust("pub", signer.public_key)
        with pytest.raises(Exception) as err:
            store.verify(signed)
        assert not isinstance(err.value, MobileCodeError)
        assert envelope["signer"] == "pub"

    def test_stale_replay_serves_first_version_validly_signed(self):
        from repro.mobilecode.module import MobileCodeModule
        from repro.mobilecode.signing import SignedModule, TrustStore

        edge, signer = _edge_with_two_objects()
        module = MobileCodeModule(
            name="alpha", version="2", source="X = 'alpha2'\n", entry_point="str"
        )
        edge.origin.publish("alpha/2", signer.sign(module).to_wire())
        inj = FaultInjector(
            FaultPlan.of(FaultRule.stale_replay("edge00")),
            registry=MetricsRegistry(),
        )
        wrapped = FaultingEdge(edge, inj)
        v1 = wrapped.serve("alpha/1")  # snapshot: first version seen
        assert v1 == edge.origin.fetch("alpha/1")
        replayed = wrapped.serve("alpha/2")
        assert replayed == v1  # the stale version, not the requested one
        store = TrustStore()
        store.trust("pub", signer.public_key)
        signed = SignedModule.from_wire(replayed)
        store.verify(signed)  # still validly signed — only the digest tells
        assert signed.module.version == "1"
        assert inj.injected("pad_stale_replay") == 1

    def test_stale_replay_without_a_snapshot_never_counts(self):
        edge, _ = _edge_with_two_objects()
        inj = FaultInjector(
            FaultPlan.of(FaultRule.stale_replay("edge00")),
            registry=MetricsRegistry(),
        )
        wrapped = FaultingEdge(edge, inj)
        # Different PADs, each seen once: nothing older to replay, so the
        # counter must equal the number of stale blobs actually served (0).
        assert wrapped.serve("alpha/1") == edge.origin.fetch("alpha/1")
        assert wrapped.serve("beta/1") == edge.origin.fetch("beta/1")
        assert inj.injected("pad_stale_replay") == 0

    def test_delegation_and_name(self):
        edge, _ = _edge_with_two_objects()
        wrapped = FaultingEdge(edge, FaultInjector(FaultPlan()))
        assert wrapped.name == "edge00"
        assert wrapped.has_cached("alpha/1") is False
        wrapped.serve("alpha/1")
        assert wrapped.has_cached("alpha/1") is True


class TestFaultingChannel:
    def _channel(self, plan):
        from repro.simnet.kernel import Simulator
        from repro.simnet.link import LINK_PRESETS, NetworkType
        from repro.simnet.transport import SimChannel

        sim = Simulator()
        link = LINK_PRESETS[NetworkType.BLUETOOTH]
        channel = SimChannel(sim, link, name="Bluetooth")
        return sim, FaultingChannel(channel, FaultInjector(plan))

    def test_frame_loss_spends_serialize_time_then_fails(self):
        sim, channel = self._channel(FaultPlan.of(FaultRule.frame_loss("Bluetooth")))
        errors = []

        def proc():
            try:
                yield from channel.transfer(10_000)
            except TransportError as exc:
                errors.append(exc)

        sim.process(proc())
        sim.run()
        assert errors, "the loss must surface as TransportError"
        assert sim.now == pytest.approx(channel.link.transfer_time(10_000))

    def test_clean_channel_is_passthrough(self):
        sim, channel = self._channel(FaultPlan())
        done = []

        def proc():
            yield from channel.round_trip(1000, 5000)
            done.append(sim.now)

        sim.process(proc())
        sim.run()
        assert done and done[0] > 0.0
        assert channel.name == "Bluetooth"  # delegation
