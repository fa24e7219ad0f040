"""End-to-end system assembly: the Fig. 1 architecture in one call.

:func:`build_case_study` wires the whole paper testbed together —
application server + adaptation proxy (same administrative domain), CDN
origin + edges with PADs pushed, trust relationships, and a factory for
clients at arbitrary sites/environments — over any transport with the
``bind``/``request`` interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional
from weakref import WeakSet

from ..cdn import Deployment, FailoverFetcher, build_deployment, push_all
from ..mobilecode import Signer, TrustStore, generate_keypair
from ..protocols.padlib import PAD_SPECS
from ..simnet.transport import InProcessTransport
from ..store.chunkstore import ChunkStore
from ..telemetry import Telemetry
from ..workload.pages import Corpus
from ..workload.profiles import ClientEnvironment
from .appserver import ApplicationServer, default_pad_overheads
from .calibration import calibrate_overheads
from .client import FractalClient
from .era import era_overheads, era_pad_init_overrides
from .metadata import PADMeta, PADOverhead
from .overhead import OverheadModel, paper_case_study_matrices
from .proxy import AdaptationProxy
from .retry import RetryPolicy

__all__ = [
    "CaseStudySystem",
    "bind_async_endpoints",
    "build_case_study",
    "case_study_app_meta_pads",
]

APP_ID = "medical-web"
PROXY_ENDPOINT = "proxy"
APPSERVER_ENDPOINT = "appserver"
SIGNER_NAME = "appserver-signer"
_RSA_BITS = 768  # plenty for a simulation; keygen stays fast


def case_study_app_meta_pads(
    overheads: dict[str, PADOverhead],
    pad_ids: Iterable[str] = ("direct", "gzip", "vary", "bitmap"),
    pad_init_overrides: Optional[dict[str, dict]] = None,
) -> list[PADMeta]:
    """The one-level PAT of Fig. 8: every PAD a child of the root.

    ``pad_init_overrides`` merges extra constructor kwargs into a PAD's
    defaults (``{"gzip": {"backend": "pure", "dictionary": "text"}}``)
    — the override reaches both the server-side stacks and the modules
    pushed to the CDN, since everything downstream reads
    ``PADMeta.init_kwargs``.
    """
    overrides = pad_init_overrides or {}
    pads = []
    for pad_id in pad_ids:
        spec = PAD_SPECS[pad_id]
        from ..protocols.padlib import build_pad_module

        init_kwargs = {**spec.init_kwargs, **overrides.get(pad_id, {})}
        module = build_pad_module(pad_id, **overrides.get(pad_id, {}))
        pads.append(
            PADMeta(
                pad_id=pad_id,
                size_bytes=module.size,
                overhead=overheads[pad_id],
                init_kwargs=init_kwargs,
            )
        )
    return pads


@dataclass
class CaseStudySystem:
    """Everything Fig. 1 shows, live and wired."""

    corpus: Corpus
    appserver: ApplicationServer
    proxy: AdaptationProxy
    deployment: Deployment
    transport: InProcessTransport
    trust_store: TrustStore
    overheads: dict[str, PADOverhead]
    telemetry: Telemetry = field(default_factory=Telemetry)
    chunk_store: Optional[ChunkStore] = None
    # Live clients, for the fault injector's name lookup; held weakly so a
    # first-contact population does not grow the process.
    clients: WeakSet[FractalClient] = field(default_factory=WeakSet)
    _client_counter: int = 0

    def make_client(
        self,
        environment: ClientEnvironment,
        *,
        site: Optional[str] = None,
        name: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        degrade_to_direct: bool = False,
        failover_fetch: bool = False,
        transport: Optional[object] = None,
        client_cls: type = FractalClient,
        breaker_board=None,
        deadline_s: Optional[float] = None,
    ) -> FractalClient:
        """A new client host at ``site`` (defaults round-robin over sites).

        The three resilience knobs all default off, preserving the exact
        fault-free behaviour: ``retry_policy`` arms backoff-retry around
        negotiation, PAD retrieval, and the app exchange;
        ``degrade_to_direct`` lets a session that ultimately cannot
        negotiate/deploy complete over the null protocol; and
        ``failover_fetch`` swaps the single-edge CDN fetch for a
        :class:`~repro.cdn.redirector.FailoverFetcher` that walks the
        redirector's ranked edge list past outages and poisoned edges.

        ``transport`` overrides the system's in-process transport for
        this client — the load harness uses it to route sessions over
        real TCP or through a latency-emulating wrapper while the same
        proxy/appserver/CDN instances stay shared.  ``client_cls``
        selects the client implementation (the async load path passes
        :class:`~repro.core.asyncclient.AsyncFractalClient` together
        with an asyncio transport).

        The overload knobs also default off: ``breaker_board`` arms
        per-destination circuit breakers (share one board across
        clients to model a host-wide view of dependency health) and
        ``deadline_s`` gives each session a total budget propagated on
        the INP ``"dl"`` field (see :mod:`repro.overload`).
        """
        sites = self.deployment.client_sites
        if site is None:
            site = sites[self._client_counter % len(sites)]
        if name is None:
            name = f"client{self._client_counter:03d}"
        self._client_counter += 1
        redirector = self.deployment.redirector

        if failover_fetch:
            cdn_fetch = FailoverFetcher(
                redirector, site, registry=self.telemetry.registry
            )
        else:

            def cdn_fetch(key: str, _site=site) -> bytes:
                blob, _edge = redirector.fetch(_site, key)
                return blob

        client = client_cls(
            name,
            environment,
            transport=transport if transport is not None else self.transport,
            proxy_endpoint=PROXY_ENDPOINT,
            appserver_endpoint=APPSERVER_ENDPOINT,
            cdn_fetch=cdn_fetch,
            trust_store=self.trust_store,
            telemetry=self.telemetry,
            retry_policy=retry_policy,
            degrade_to_direct=degrade_to_direct,
            breaker_board=breaker_board,
            deadline_s=deadline_s,
        )
        self.clients.add(client)
        return client


async def bind_async_endpoints(
    system: CaseStudySystem, transport, *, kernel_pool=None
) -> None:
    """Serve an existing case-study system over an asyncio transport.

    The proxy handler is synchronous and cheap (pure negotiation logic),
    so it binds as-is; the application server binds its coroutine
    handler, optionally dispatching kernel work to ``kernel_pool``
    (sharded by INP session id).  The in-process bindings from
    :func:`build_case_study` stay live — the async transport serves the
    same proxy/appserver instances to async clients.
    """
    if kernel_pool is not None:
        system.appserver.kernel_pool = kernel_pool
    await transport.bind(PROXY_ENDPOINT, system.proxy.handle)
    await transport.bind(APPSERVER_ENDPOINT, system.appserver.handle_async)


def build_case_study(
    *,
    corpus: Optional[Corpus] = None,
    pad_ids: Iterable[str] = ("direct", "gzip", "vary", "bitmap"),
    calibrate: bool = False,
    calibration_pages: int = 2,
    era: bool = False,
    proactive: bool = False,
    n_edges: int = 20,
    rho: float = 0.8,
    seed: int = 2005,
    telemetry: Optional[Telemetry] = None,
    dedup: bool = False,
    pad_init_overrides: Optional[dict[str, dict]] = None,
    proxy_max_sessions: int = AdaptationProxy.DEFAULT_MAX_SESSIONS,
    proxy_dist_max_entries: int = 4096,
    proxy_admission=None,
    appserver_admission=None,
) -> CaseStudySystem:
    """Assemble the full case-study system.

    ``calibrate=True`` measures real PAD overheads on this host (slower;
    the capacity/figure benches use it); ``False`` uses representative
    defaults (fast; most tests use it).  ``era=True`` additionally
    replaces the compute terms with the era-calibrated model (see
    :mod:`repro.core.era`), which the figure reproductions use so
    negotiation crossovers land where the paper's 2005 testbed put them.
    ``era=True`` also pins the gzip PAD to the pure-Python backend and
    raises on an explicit ``{"gzip": {"backend": "zlib"}}`` override —
    the zlib fast path is benchmark-only and its payloads are equivalent
    but not byte-identical, so it may not feed the paper-shape model.

    ``dedup=True`` attaches a fleet-level
    :class:`~repro.store.ChunkStore` to the application server: each
    page version is chunked/compressed once and later sessions are
    served byte-identical responses straight from the store (the
    ``store.fleet.*`` counters ledger every hit).
    ``pad_init_overrides`` tweaks PAD constructor kwargs fleet-wide —
    e.g. ``{"gzip": {"backend": "pure", "dictionary": "text"}}`` turns
    on the shared pre-trained Huffman dictionary.
    ``proxy_max_sessions`` sizes the proxy's LRU-bounded pending-session
    table; the adversarial harness shrinks it to make slowloris floods
    observable at test scale.  ``proxy_dist_max_entries`` likewise sizes
    the distribution manager's adaptation cache (attacker-controlled
    metadata keys) so negotiation storms hit the LRU bound.

    ``proxy_admission`` / ``appserver_admission`` attach optional
    :class:`~repro.overload.AdmissionController` instances (token
    bucket + max-inflight) consulted before any negotiation or encode
    work; ``None`` (the default) admits everything, preserving
    pre-overload-control behaviour exactly.
    """
    pad_ids = tuple(pad_ids)
    # One shared bundle for the whole testbed: client spans and proxy
    # spans land on the same tracer, counters in the same registry.
    telemetry = telemetry or Telemetry()
    corpus = corpus or Corpus()
    key = generate_keypair(_RSA_BITS)
    signer = Signer(SIGNER_NAME, key)
    trust_store = TrustStore()
    trust_store.trust(SIGNER_NAME, key.public)

    if era:
        # The era model is pure-python ground truth: reject an explicit
        # zlib gzip backend and pin the PAD's default back to pure so
        # both the served stacks and the calibration pass below measure
        # the paper-shaped pipeline.
        pad_init_overrides = era_pad_init_overrides(pad_init_overrides)
    if calibrate:
        overheads = calibrate_overheads(
            corpus,
            pad_ids,
            n_pages=calibration_pages,
            pad_init_overrides=pad_init_overrides,
        )
    else:
        defaults = default_pad_overheads()
        overheads = {p: defaults[p] for p in pad_ids}
    if era:
        overheads = era_overheads(overheads)

    chunk_store = (
        ChunkStore(name="fleet", registry=telemetry.registry) if dedup else None
    )
    appserver = ApplicationServer(
        APP_ID,
        corpus,
        signer,
        proactive=proactive,
        telemetry=telemetry,
        chunk_store=chunk_store,
        admission=appserver_admission,
    )
    for meta in case_study_app_meta_pads(overheads, pad_ids, pad_init_overrides):
        appserver.deploy_pad(meta)

    a, b, r = paper_case_study_matrices()
    model = OverheadModel(cpu_matrix=a, os_matrix=b, net_matrix=r, rho=rho)
    proxy = AdaptationProxy(
        model,
        telemetry=telemetry,
        max_sessions=proxy_max_sessions,
        dist_max_entries=proxy_dist_max_entries,
        admission=proxy_admission,
    )

    deployment = build_deployment(
        n_edges=n_edges, seed=seed, registry=telemetry.registry
    )
    appserver.publish(proxy, deployment.origin)
    push_all(deployment.origin, deployment.edges)

    transport = InProcessTransport(registry=telemetry.registry)
    transport.bind(PROXY_ENDPOINT, proxy.handle)
    transport.bind(APPSERVER_ENDPOINT, appserver.handle)

    return CaseStudySystem(
        corpus=corpus,
        appserver=appserver,
        proxy=proxy,
        deployment=deployment,
        transport=transport,
        trust_store=trust_store,
        overheads=overheads,
        telemetry=telemetry,
        chunk_store=chunk_store,
    )
