"""The fault injector: seeded execution of a :class:`FaultPlan`.

The injector never patches library code — it wraps *instances* (a
transport, the CDN edges, a proxy reference) with thin faulting facades
that delegate everything except the moments a rule fires.  All
randomness comes from one ``random.Random(seed)`` owned by the injector,
and schedule windows count events, not wall time, so a chaos run is a
pure function of (plan, seed, workload).

``injector.enabled = False`` short-circuits every wrapper before any RNG
draw or event count, which is what makes a disabled chaos system
byte-identical to one that never imported this package.
"""

from __future__ import annotations

import json
import random
from typing import Callable, Optional

from ..drive import Steps, blocking, call, on_loop
from ..simnet.transport import TransportError
from ..telemetry import DEFAULT_TIME_BUCKETS_S, MetricsRegistry
from .plan import (
    EDGE_OUTAGE,
    EDGE_SLOW,
    FRAME_CORRUPT,
    FRAME_LOSS,
    PAD_STALE_REPLAY,
    PAD_TAMPER_DIGEST,
    PAD_TAMPER_SIGNATURE,
    PROXY_RESTART,
    FaultPlan,
    FaultRule,
)

__all__ = [
    "InjectedFault",
    "FaultInjector",
    "FaultingTransport",
    "AsyncFaultingTransport",
    "FaultingEdge",
    "FaultingChannel",
]


class InjectedFault(Exception):
    """An error manufactured by the injector (e.g. an edge outage)."""


class FaultInjector:
    """Decides, deterministically, whether a fault fires at each hook point.

    One injector serves a whole testbed; every hook calls
    :meth:`fire` with its fault kind and target name, and acts on the
    returned rule (or ``None``).  :meth:`install` wires the standard
    case-study hooks in one call.
    """

    def __init__(
        self,
        plan: FaultPlan,
        *,
        seed: int = 0,
        registry: Optional[MetricsRegistry] = None,
        enabled: bool = True,
    ) -> None:
        self.plan = plan
        self.seed = seed
        self.enabled = enabled
        self._rng = random.Random(seed)
        self._registry = registry
        self._events: dict[tuple[str, str], int] = {}
        self._installed: Optional[dict] = None

    # -- the decision core ----------------------------------------------------

    def fire(self, kind: str, target: str) -> Optional[FaultRule]:
        """Observe one event on (kind, target); return the rule that fires.

        Disabled injectors return ``None`` before counting or drawing,
        so toggling ``enabled`` mid-run does not perturb the RNG stream
        of later events.
        """
        if not self.enabled:
            return None
        key = (kind, target)
        index = self._events.get(key, 0)
        self._events[key] = index + 1
        for rule in self.plan.for_kind(kind, target):
            if not rule.in_window(index):
                continue
            if rule.probability < 1.0 and self._rng.random() >= rule.probability:
                continue
            self._record(kind, rule)
            return rule
        return None

    def _record(self, kind: str, rule: FaultRule) -> None:
        if self._registry is None:
            return
        self._registry.counter("faults.injected").inc()
        self._registry.counter(f"faults.injected.{kind}").inc()
        if kind == EDGE_SLOW:
            self._registry.histogram(
                "faults.edge_slow_latency_s", DEFAULT_TIME_BUCKETS_S
            ).observe(rule.extra_latency_s)

    def events_observed(self, kind: str, target: str) -> int:
        return self._events.get((kind, target), 0)

    def injected(self, kind: Optional[str] = None) -> int:
        """Total faults fired (optionally of one kind), from the registry."""
        if self._registry is None:
            return 0
        name = "faults.injected" if kind is None else f"faults.injected.{kind}"
        return int(self._registry.counter(name).value)

    # -- standard case-study wiring --------------------------------------------

    def install(self, system, *, link_of: Optional[Callable[[str, str], str]] = None):
        """Hook a :class:`~repro.core.system.CaseStudySystem` end to end.

        Replaces ``system.transport`` with a :class:`FaultingTransport`
        (install *before* creating clients so they bind to the wrapper)
        and swaps every CDN edge for a :class:`FaultingEdge` in place, so
        the redirector — and every already-created fetch closure — routes
        through the wrappers.  Returns ``self`` for chaining.
        """
        if self._installed is not None:
            raise RuntimeError("injector is already installed")
        if self._registry is None:
            self._registry = system.telemetry.registry
        if link_of is None:
            link_of = _case_study_link_of(system)
        original_transport = system.transport
        system.transport = FaultingTransport(
            original_transport,
            self,
            link_of=link_of,
            proxy=system.proxy,
        )
        original_edges = list(system.deployment.edges)
        wrapped = [FaultingEdge(edge, self) for edge in original_edges]
        for w in wrapped:
            system.deployment.redirector.replace_edge(w)
        system.deployment.edges[:] = wrapped
        self._installed = {
            "system": system,
            "transport": original_transport,
            "edges": original_edges,
        }
        return self

    def uninstall(self) -> None:
        """Undo :meth:`install`, restoring the unwrapped components."""
        if self._installed is None:
            return
        state = self._installed
        system = state["system"]
        system.transport = state["transport"]
        for edge in state["edges"]:
            system.deployment.redirector.replace_edge(edge)
        system.deployment.edges[:] = state["edges"]
        self._installed = None

    # -- byte corruption helper --------------------------------------------------

    def corrupt(self, blob: bytes) -> bytes:
        """Flip one deterministic-random byte (never a no-op)."""
        if not blob:
            return b"\xff"
        data = bytearray(blob)
        pos = self._rng.randrange(len(data))
        data[pos] ^= 0xFF
        return bytes(data)


def _case_study_link_of(system) -> Callable[[str, str], str]:
    """Map a transport (src, dst) pair to the client's access-link name.

    Client-to-infrastructure requests traverse the client's access
    network (LAN/WLAN/Bluetooth), so frame-level rules target those
    names; traffic with no client on either side targets the destination
    endpoint name.
    """

    def link_of(src: str, dst: str) -> str:
        clients = {c.name: c for c in system.clients}
        for side in (src, dst):
            client = clients.get(side)
            if client is not None:
                return client.environment.link.network_type.value
        return dst

    return link_of


class FaultingTransport:
    """A transport facade that loses/corrupts frames and restarts the proxy.

    Wraps any object with the ``bind/unbind/request/meter`` interface.
    ``link_of(src, dst)`` names the link a request crosses (defaults to
    the destination endpoint name); :data:`~repro.faults.plan.FRAME_LOSS`
    and :data:`~repro.faults.plan.FRAME_CORRUPT` rules target that name.
    ``proxy`` enables :data:`~repro.faults.plan.PROXY_RESTART` rules,
    scheduled on the count of requests addressed to ``proxy_endpoint``.
    """

    def __init__(
        self,
        inner,
        injector: FaultInjector,
        *,
        link_of: Optional[Callable[[str, str], str]] = None,
        proxy=None,
        proxy_endpoint: str = "proxy",
    ) -> None:
        self.inner = inner
        self._injector = injector
        self._link_of = link_of
        self._proxy = proxy
        self._proxy_endpoint = proxy_endpoint

    def _request_steps(self, src: str, dst: str, payload: bytes) -> Steps:
        injector = self._injector
        if not injector.enabled:
            return (yield call(self.inner.request, src, dst, payload))
        if self._proxy is not None and dst == self._proxy_endpoint:
            if injector.fire(PROXY_RESTART, dst) is not None:
                # The restart lands *before* this request is served: any
                # pending session (including the caller's own) is gone.
                self._proxy.restart()
        link = self._link_of(src, dst) if self._link_of is not None else dst
        if injector.fire(FRAME_LOSS, link) is not None:
            raise TransportError(
                f"injected frame loss on link {link!r} ({src} -> {dst})"
            )
        corrupting = injector.fire(FRAME_CORRUPT, link) is not None
        response = yield call(self.inner.request, src, dst, payload)
        if corrupting:
            response = injector.corrupt(response)
        return response

    request = blocking(_request_steps)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class AsyncFaultingTransport(FaultingTransport):
    """:class:`FaultingTransport` over an asyncio transport: the same
    rules fire at the same points, and the reply is awaited before a
    corruption rule touches it."""

    request = on_loop(FaultingTransport._request_steps)


class FaultingEdge:
    """An edgeserver facade: outages, latency spikes, and tampered PADs.

    * :data:`EDGE_OUTAGE` — ``serve`` raises :class:`InjectedFault`; the
      redirector's failover walks to the next-ranked edge.
    * :data:`EDGE_SLOW` — the spike is *accounted* (``injected_latency_s``
      and the ``faults.edge_slow_latency_s`` histogram), never slept, so
      experiments stay fast and deterministic.
    * :data:`PAD_TAMPER_DIGEST` — serves a different (still validly
      signed) object from the same origin, which passes the signature
      check and fails the client's negotiated-digest check: the
      stale/wrong-object CDN failure mode.
    * :data:`PAD_TAMPER_SIGNATURE` — flips the signature on the wire, so
      the client's trust-list verification rejects it.
    * :data:`PAD_STALE_REPLAY` — a byzantine edge replays the *first*
      version it ever served of a PAD (keys look like ``pad_id/version``)
      instead of the requested one.  The stale blob is still validly
      signed — only the negotiated digest check exposes the swap, which
      is the supply-chain threat the attack harness exercises.
    """

    def __init__(self, inner, injector: FaultInjector) -> None:
        self.inner = inner
        self._injector = injector
        self.injected_latency_s = 0.0
        # First blob served per PAD prefix ("pad_id" of "pad_id/version"):
        # the stale-replay rule serves this when a *newer* version of the
        # same PAD is requested.
        self._first_served: dict[str, tuple[str, bytes]] = {}

    @property
    def name(self) -> str:
        return self.inner.name

    def serve(self, key: str) -> bytes:
        injector = self._injector
        if not injector.enabled:
            return self.inner.serve(key)
        if injector.fire(EDGE_OUTAGE, self.name) is not None:
            raise InjectedFault(f"edge {self.name!r} is down (injected outage)")
        slow = injector.fire(EDGE_SLOW, self.name)
        if slow is not None:
            self.injected_latency_s += slow.extra_latency_s
        blob = self.inner.serve(key)
        stale = self._stale_snapshot(key, blob)
        if stale is not None:
            # Only count a stale-replay event when a replay is actually
            # possible (an older version of this PAD was seen), so the
            # faults.injected.pad_stale_replay counter equals the number
            # of stale blobs really served.
            if injector.fire(PAD_STALE_REPLAY, self.name) is not None:
                blob = stale
        if injector.fire(PAD_TAMPER_DIGEST, self.name) is not None:
            blob = self._wrong_object(key, blob)
        if injector.fire(PAD_TAMPER_SIGNATURE, self.name) is not None:
            blob = self._break_signature(blob)
        return blob

    def _stale_snapshot(self, key: str, blob: bytes) -> Optional[bytes]:
        """Remember the first version of each PAD; return the stale blob
        when ``key`` names a different (newer) version of it."""
        prefix = key.split("/", 1)[0]
        first_key, first_blob = self._first_served.setdefault(
            prefix, (key, blob)
        )
        if first_key == key:
            return None
        return first_blob

    def _wrong_object(self, key: str, blob: bytes) -> bytes:
        """Another validly-signed blob from the same origin, if any."""
        try:
            others = sorted(k for k in self.inner.origin.keys() if k != key)
        except Exception:  # noqa: BLE001 - origin without keys(): fall back
            others = []
        if not others:
            return self._break_signature(blob)
        pick = others[self._injector._rng.randrange(len(others))]
        return self.inner.origin.fetch(pick)

    def _break_signature(self, blob: bytes) -> bytes:
        """Flip one signature nibble, keeping the envelope well-formed."""
        try:
            envelope = json.loads(blob.decode("utf-8"))
            signature = envelope["signature"]
            flipped = ("0" if signature[0] != "0" else "1") + signature[1:]
            envelope["signature"] = flipped
            return json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode()
        except Exception:  # noqa: BLE001 - not a signed envelope: corrupt raw
            return self._injector.corrupt(blob)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class FaultingChannel:
    """A :class:`~repro.simnet.transport.SimChannel` facade for the simulator.

    :data:`FRAME_LOSS` rules targeting the channel's link name make the
    request serialize onto the link and then vanish (the time is spent,
    the reply never comes — ``TransportError`` is raised *in simulated
    time*); :data:`EDGE_SLOW` rules add their latency spike as an extra
    simulated delay before the exchange.
    """

    def __init__(self, channel, injector: FaultInjector) -> None:
        self.channel = channel
        self._injector = injector

    @property
    def name(self) -> str:
        return self.channel.name

    def transfer(self, size_bytes: int):
        inner = self.channel
        injector = self._injector

        def proc():
            slow = injector.fire(EDGE_SLOW, inner.name)
            if slow is not None:
                yield inner.sim.timeout(slow.extra_latency_s)
            if injector.fire(FRAME_LOSS, inner.name) is not None:
                yield inner.sim.timeout(inner.link.transfer_time(size_bytes))
                raise TransportError(
                    f"injected frame loss on link {inner.name!r}"
                )
            yield from inner.transfer(size_bytes)

        return proc()

    def round_trip(self, request_bytes: int, response_bytes: int, **kwargs):
        inner = self.channel
        injector = self._injector

        def proc():
            slow = injector.fire(EDGE_SLOW, inner.name)
            if slow is not None:
                yield inner.sim.timeout(slow.extra_latency_s)
            if injector.fire(FRAME_LOSS, inner.name) is not None:
                yield inner.sim.timeout(inner.link.transfer_time(request_bytes))
                raise TransportError(
                    f"injected frame loss on link {inner.name!r}"
                )
            yield from inner.round_trip(request_bytes, response_bytes, **kwargs)

        return proc()

    def __getattr__(self, name: str):
        return getattr(self.channel, name)
