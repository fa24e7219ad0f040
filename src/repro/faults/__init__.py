"""Fault injection for the Fractal testbed (chaos engineering, seeded).

Pervasive environments fail in specific, repeatable ways — a Bluetooth
link drops frames, an edgeserver goes dark mid-download, a proxy restart
forgets every pending negotiation, a cache serves bytes that no longer
match the negotiated digest.  This package turns those scenarios into a
declarative, deterministic :class:`FaultPlan` executed by a
:class:`FaultInjector` that wraps the live components (transport, CDN
edges, proxy) *without touching their fault-free code paths*: nothing in
``repro.core``/``repro.cdn``/``repro.simnet`` imports this package, and
an uninstalled (or disabled) injector leaves behaviour byte-identical.

Every fault the injector fires is counted in the shared telemetry
registry under ``faults.injected.*``, so an experiment can reconcile
injected faults against the recovery actions the resilience layer
(client retries, CDN failover, graceful degradation) reports.
"""

from .plan import (
    EDGE_OUTAGE,
    EDGE_SLOW,
    FRAME_CORRUPT,
    FRAME_LOSS,
    PAD_STALE_REPLAY,
    PAD_TAMPER_DIGEST,
    PAD_TAMPER_SIGNATURE,
    PROXY_RESTART,
    RULE_KINDS,
    FaultPlan,
    FaultRule,
)
from .injector import (
    AsyncFaultingTransport,
    FaultInjector,
    FaultingChannel,
    FaultingEdge,
    FaultingTransport,
    InjectedFault,
)

__all__ = [
    "FRAME_LOSS",
    "FRAME_CORRUPT",
    "EDGE_OUTAGE",
    "EDGE_SLOW",
    "PAD_TAMPER_DIGEST",
    "PAD_TAMPER_SIGNATURE",
    "PAD_STALE_REPLAY",
    "PROXY_RESTART",
    "RULE_KINDS",
    "FaultPlan",
    "FaultRule",
    "FaultInjector",
    "FaultingChannel",
    "FaultingEdge",
    "FaultingTransport",
    "AsyncFaultingTransport",
    "InjectedFault",
]
