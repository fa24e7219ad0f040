"""The Fractal client host.

Implements the client side of Fig. 4: check the local protocol cache,
negotiate with the adaptation proxy (INIT_REQ → INIT_REP/CLI_META_REQ →
CLI_META_REP → PAD_META_REP), download the negotiated PADs from the CDN,
verify (digest + signature) and deploy them in the sandbox, then run the
application session with the server using the negotiated protocol stack.

The client probes its own ``DevMeta``/``NtwkMeta`` from its
:class:`~repro.workload.profiles.ClientEnvironment`; mobility is a call to
:meth:`set_environment`, after which the next request re-negotiates (the
protocol cache keeps per-environment entries, so returning to a previously
seen environment skips the proxy entirely — the paper's client cache).

Observability: each :meth:`request_page` call records a ``session`` span
tree on the client's tracer — ``negotiate``, ``pad_retrieval`` (with
per-PAD ``retrieve → verify → deploy`` children), ``client.encode``,
``app_exchange``, ``client.reconstruct`` — and the timing fields of
:class:`SessionResult` are read straight off those spans, so the bench
figures and the JSON trace export can never disagree.

Everything that crosses the wire is written as step generators
(``_rpc_steps``, ``_negotiate_steps``, ``_request_page_steps``; see
:mod:`repro.drive`): :class:`FractalClient` declares the blocking
drivers over them, :class:`~repro.core.asyncclient.AsyncFractalClient`
the asyncio ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from ..drive import Steps, blocking, call
from ..mobilecode import (
    MobileCodeError,
    ModuleLoader,
    SignedModule,
    SigningError,
    TrustStore,
)
from ..overload import DEADLINE_PREFIX, OVERLOADED_PREFIX, Deadline, deadline_error_text
from ..overload.breaker import BreakerBoard
from ..protocols import CommProtocol
from ..protocols.direct import DirectProtocol
from ..protocols.stack import ProtocolStack
from ..simnet.transport import TransportError
from ..telemetry import Telemetry
from ..workload.profiles import ClientEnvironment
from . import inp
from .appserver import url_key
from .errors import (
    DeadlineExceededError,
    FractalError,
    NegotiationError,
    ProtocolMismatchError,
    ServerOverloadedError,
)
from .inp import INPMessage, MsgType
from .metadata import DevMeta, NtwkMeta, PADMeta
from .retry import RetryPolicy

__all__ = ["FractalClient", "SessionResult", "NegotiationOutcome", "check_reply"]

DEGRADED_PAD_ID = "direct"

# Errors worth a retry: the transport lost/garbled a frame, the peer
# answered out-of-protocol (e.g. a proxy restart wiped our session), the
# negotiation reply was unusable, or the server shed us at admission
# (retryable by design — the rejection carries a retry_after hint).
# DeadlineExceededError and BreakerOpenError are deliberately absent:
# an exhausted budget cannot be retried into existence, and an open
# breaker exists to *stop* traffic.  Anything else is a local bug and
# propagates immediately.
_RETRYABLE_WIRE = (
    TransportError,
    ProtocolMismatchError,
    NegotiationError,
    ServerOverloadedError,
)
_RETRYABLE_PAD = (MobileCodeError, SigningError)

_session_counter = itertools.count(1)

Transport = Callable[[str, str, bytes], bytes]  # (src, dst, payload) -> reply
CdnFetch = Callable[[str], bytes]  # object key -> blob


def check_reply(request: INPMessage, reply: INPMessage) -> INPMessage:
    """INP header integrity (Fig. 4): a reply must stay in our session
    and advance the sequence number.  Error packets from handlers that
    never saw a valid header are exempt.

    Overload rejections are re-raised as their typed errors here — an
    admission shed becomes :class:`ServerOverloadedError` (retryable,
    carrying the server's ``retry_after_ms`` hint) and a deadline shed
    becomes :class:`DeadlineExceededError` (not retryable) — so every
    caller sees one vocabulary whether the budget died locally or at
    the server.  Other error replies pass through for ``expect()`` to
    report as before.
    """
    if reply.msg_type is MsgType.INP_ERROR:
        err = reply.body.get("error")
        if isinstance(err, str):
            if err.startswith(OVERLOADED_PREFIX):
                hint = reply.body.get("retry_after_ms")
                retry_after_s = (
                    hint / 1000.0
                    if isinstance(hint, (int, float)) and not isinstance(hint, bool)
                    else None
                )
                raise ServerOverloadedError(err, retry_after_s=retry_after_s)
            if err.startswith(DEADLINE_PREFIX):
                raise DeadlineExceededError(err)
        return reply
    if reply.session_id != request.session_id:
        raise ProtocolMismatchError(
            f"reply session {reply.session_id!r} does not match "
            f"request session {request.session_id!r}"
        )
    if reply.seq != request.seq + 1:
        raise ProtocolMismatchError(
            f"reply seq {reply.seq} is not request seq {request.seq} + 1"
        )
    return reply


@dataclass
class NegotiationOutcome:
    """What one negotiation produced, with timing for Fig. 9(a)."""

    pads: tuple[PADMeta, ...]
    negotiation_time_s: float
    from_cache: bool


@dataclass
class SessionResult:
    """One full page retrieval through the negotiated protocol."""

    page_id: int
    new_version: int
    pad_ids: tuple[str, ...]
    parts: list[bytes]
    app_request_bytes: int
    app_response_bytes: int
    pad_download_bytes: int
    negotiation_time_s: float
    pad_retrieval_time_s: float
    client_compute_s: float
    negotiated_from_cache: bool
    degraded: bool = False  # fell back to the direct protocol

    @property
    def app_traffic_bytes(self) -> int:
        return self.app_request_bytes + self.app_response_bytes

    @property
    def content(self) -> bytes:
        return b"".join(self.parts)


class FractalClient:
    def __init__(
        self,
        name: str,
        environment: ClientEnvironment,
        *,
        transport: object,
        proxy_endpoint: str,
        appserver_endpoint: str,
        cdn_fetch: CdnFetch,
        trust_store: TrustStore,
        telemetry: Optional[Telemetry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        degrade_to_direct: bool = False,
        breaker_board: Optional[BreakerBoard] = None,
        deadline_s: Optional[float] = None,
    ):
        self.name = name
        self.environment = environment
        self._transport = transport
        self.proxy_endpoint = proxy_endpoint
        self.appserver_endpoint = appserver_endpoint
        self.cdn_fetch = cdn_fetch
        self.loader = ModuleLoader(trust_store)
        self.telemetry = telemetry or Telemetry()
        # Resilience knobs.  Both default off: a client without a retry
        # policy behaves exactly like the pre-faults implementation (one
        # attempt, first error propagates), which the failure-injection
        # tests and the byte-identical-baseline chaos check rely on.
        self.retry_policy = retry_policy
        self.degrade_to_direct = degrade_to_direct
        # Overload-control knobs, also both off by default.  A breaker
        # board trips per-destination circuit breakers on transport and
        # overload failures (an open breaker fails sessions fast — and
        # with degrade_to_direct, degrades them — without touching the
        # wire).  ``deadline_s`` gives every request_page() call a total
        # budget, stamped on each RPC as the INP ``"dl"`` field so the
        # proxy and appserver can shed work the client stopped waiting
        # for.
        self.breaker_board = breaker_board
        self.deadline_s = deadline_s
        # Protocol cache: (app_id, dev key, ntwk key) -> PADMeta tuple.
        self._protocol_cache: dict[tuple, tuple[PADMeta, ...]] = {}
        # Deployed stacks: same key -> live protocol instance.
        self._stacks: dict[tuple, CommProtocol] = {}
        self._pad_bytes: dict[str, int] = {}  # resolved pad id -> blob size

    @property
    def protocol_cache_hits(self) -> int:
        return self.telemetry.registry.counter("client.protocol_cache.hits").value

    @property
    def negotiations(self) -> int:
        return self.telemetry.registry.counter("client.negotiations").value

    # -- environment probing ("system calls", Fig. 4) ---------------------------

    def probe_dev_meta(self) -> DevMeta:
        dev = self.environment.device
        return DevMeta(
            os_type=dev.os_type,
            cpu_type=dev.cpu_type,
            cpu_mhz=dev.cpu_mhz,
            memory_mb=dev.memory_mb,
        )

    def probe_ntwk_meta(self) -> NtwkMeta:
        link = self.environment.link
        return NtwkMeta(
            network_type=link.network_type.value,
            bandwidth_kbps=link.bandwidth_bps / 1000.0,
        )

    def set_environment(self, environment: ClientEnvironment) -> None:
        """Mobility: the device moved to a different network/device combo."""
        self.environment = environment

    def _cache_key(self, app_id: str) -> tuple:
        return (
            app_id,
            self.probe_dev_meta().cache_key(),
            self.probe_ntwk_meta().cache_key(),
        )

    # -- negotiation --------------------------------------------------------------

    def _rpc_steps(
        self, dst: str, msg: INPMessage, *, deadline: Optional[Deadline] = None
    ) -> Steps:
        """One wire exchange, through the overload-control gauntlet.

        Order matters: the local deadline check is free and means an
        exhausted budget never consumes a breaker probe; the breaker
        check is next so an open breaker costs no wire traffic; only
        then does the request (stamped with the remaining budget) go
        out.  Transport failures and admission sheds feed the breaker;
        other errors are neutral for it.
        """
        registry = self.telemetry.registry
        if deadline is not None:
            remaining_s = deadline.remaining_s()
            if remaining_s <= 0:
                registry.counter("client.deadline.expired_local").inc()
                raise DeadlineExceededError(
                    deadline_error_text(f"client budget before RPC to {dst}")
                )
            msg = msg.with_deadline(remaining_s * 1000.0)
        breaker = (
            self.breaker_board.breaker(dst)
            if self.breaker_board is not None
            else None
        )
        if breaker is not None and not breaker.allow():
            registry.counter("client.breaker.fast_fail").inc()
            raise breaker.reject()
        try:
            reply_bytes = yield call(
                self._transport.request, self.name, dst, inp.encode(msg)
            )
            reply = check_reply(msg, inp.decode(reply_bytes))
        except (TransportError, ServerOverloadedError) as exc:
            if isinstance(exc, ServerOverloadedError):
                registry.counter("client.overload.rejections").inc()
            if breaker is not None:
                breaker.record_failure()
            raise
        except BaseException:
            if breaker is not None:
                breaker.release_probe()
            raise
        if breaker is not None:
            breaker.record_success()
        return reply

    _rpc = blocking(_rpc_steps)

    def _count_retry(self, stage: str) -> None:
        registry = self.telemetry.registry
        registry.counter("client.retries").inc()
        registry.counter(f"client.retries.{stage}").inc()

    def _negotiate_steps(
        self,
        app_id: str,
        *,
        force: bool = False,
        deadline: Optional[Deadline] = None,
    ) -> Steps:
        """Protocol-cache-first negotiation with the adaptation proxy.

        With a :class:`RetryPolicy`, a failed wire exchange is re-run
        from ``INIT_REQ`` with a fresh session id (a restarted proxy has
        forgotten the old one) under exponential backoff.
        """
        registry = self.telemetry.registry
        key = self._cache_key(app_id)
        if not force:
            cached = self._protocol_cache.get(key)
            if cached is not None:
                registry.counter("client.protocol_cache.hits").inc()
                return NegotiationOutcome(cached, 0.0, from_cache=True)
        registry.counter("client.negotiations").inc()
        if self.retry_policy is None:
            pads, duration_s = yield from self._negotiate_once_steps(
                app_id, deadline=deadline
            )
        else:
            pads, duration_s = yield from self.retry_policy.steps(
                lambda: self._negotiate_once_steps(app_id, deadline=deadline),
                retryable=_RETRYABLE_WIRE,
                key=f"{self.name}:negotiate:{app_id}",
                on_retry=lambda *_: self._count_retry("negotiate"),
            )
        self._protocol_cache[key] = pads
        return NegotiationOutcome(pads, duration_s, from_cache=False)

    negotiate = blocking(_negotiate_steps)

    def _negotiate_once_steps(
        self, app_id: str, *, deadline: Optional[Deadline] = None
    ) -> Steps:
        """One full INIT_REQ → PAD_META_REP exchange in its own session;
        returns ``(pads, seconds)``."""
        session_id = f"{self.name}-{next(_session_counter)}"
        with self.telemetry.tracer.span(
            "negotiate", trace=session_id, client=self.name, app=app_id
        ) as span:
            init = INPMessage(MsgType.INIT_REQ, session_id, 0, {"app_id": app_id})
            init_rep = (
                yield from self._rpc_steps(self.proxy_endpoint, init, deadline=deadline)
            ).expect(MsgType.INIT_REP)
            if "cli_meta_req" not in init_rep.body:
                raise ProtocolMismatchError("INIT_REP did not carry CLI_META_REQ")
            cli_meta = init_rep.reply(
                MsgType.CLI_META_REP,
                {
                    "dev_meta": self.probe_dev_meta().to_wire(),
                    "ntwk_meta": self.probe_ntwk_meta().to_wire(),
                },
            )
            pad_rep = (
                yield from self._rpc_steps(
                    self.proxy_endpoint, cli_meta, deadline=deadline
                )
            ).expect(MsgType.PAD_META_REP)
            pads_wire = pad_rep.body.get("pads")
            if not isinstance(pads_wire, list) or not pads_wire:
                raise NegotiationError("PAD_META_REP carried no PAD metadata")
            pads = tuple(PADMeta.from_wire(p) for p in pads_wire)
        return pads, span.duration_s

    # -- PAD download + deployment ---------------------------------------------------

    def _fetch_and_verify(self, meta: PADMeta):
        """Download one PAD blob and verify signature + digest.

        Returns ``(blob, module)``.  Download failures are normalized to
        :class:`MobileCodeError`; verification failures keep their typed
        errors (:class:`SigningError` vs digest :class:`MobileCodeError`)
        so callers can distinguish tampering from a missing object.
        """
        registry = self.telemetry.registry
        tracer = self.telemetry.tracer
        with tracer.span("retrieve", pad=meta.resolved_id):
            try:
                blob = self.cdn_fetch(url_key(meta.url))
            except Exception as exc:
                # Normalize CDN failures (e.g. a withdrawn object
                # after a PAD upgrade) so the caller's single retry
                # path handles them uniformly.
                raise MobileCodeError(
                    f"download of {meta.url!r} failed: {exc}"
                ) from exc
        self._pad_bytes[meta.resolved_id] = len(blob)
        registry.counter("client.pad_download_bytes").inc(len(blob))
        with tracer.span("verify", pad=meta.resolved_id):
            signed = SignedModule.from_wire(blob)
            module = self.loader.verify(signed, expected_digest=meta.digest)
        return blob, module

    def _on_pad_retry(self, meta: PADMeta):
        """Retry hook for one PAD: count it and poison the bad edge."""

        def hook(attempt: int, delay_s: float, exc: BaseException) -> None:
            self._count_retry("pad")
            # A fetcher with failover memory (duck-typed) should avoid
            # the edge that served unverifiable bytes on the re-download.
            mark_bad = getattr(self.cdn_fetch, "mark_bad", None)
            if mark_bad is not None and isinstance(exc, _RETRYABLE_PAD):
                mark_bad(url_key(meta.url))

        return hook

    def _deploy_stack(self, key: tuple, pads: tuple[PADMeta, ...]) -> tuple[CommProtocol, int, float]:
        """Download/verify/deploy each PAD; returns (stack, bytes, seconds).

        With a :class:`RetryPolicy`, an unverifiable download (edge
        outage, digest mismatch, bad signature) is re-fetched — after
        marking the serving edge bad so a failover-aware fetcher picks
        the next-ranked edge — and re-verified from scratch.
        """
        existing = self._stacks.get(key)
        if existing is not None:
            return existing, 0, 0.0
        tracer = self.telemetry.tracer
        total_bytes = 0
        protocols: list[CommProtocol] = []
        with tracer.span("pad_retrieval", client=self.name) as retrieval_span:
            for meta in pads:
                if meta.url is None or meta.digest is None:
                    raise NegotiationError(
                        f"PADMeta for {meta.pad_id!r} lacks distribution info"
                    )
                if self.retry_policy is None:
                    blob, module = self._fetch_and_verify(meta)
                else:
                    blob, module = self.retry_policy.call(
                        lambda meta=meta: self._fetch_and_verify(meta),
                        retryable=_RETRYABLE_PAD,
                        key=f"{self.name}:pad:{meta.resolved_id}",
                        on_retry=self._on_pad_retry(meta),
                    )
                total_bytes += len(blob)
                with tracer.span("deploy", pad=meta.resolved_id):
                    init_kwargs = dict(module.metadata.get("init_kwargs", {}))
                    loaded = self.loader.deploy(module, init_kwargs=init_kwargs)
                protocols.append(loaded.instance)
            stack: CommProtocol = (
                protocols[0] if len(protocols) == 1 else ProtocolStack(protocols)
            )
        self._stacks[key] = stack
        return stack, total_bytes, retrieval_span.duration_s

    # -- the application session ---------------------------------------------------------

    def _request_page_steps(
        self,
        app_id: str,
        page_id: int,
        *,
        old_parts: Optional[list[bytes]] = None,
        old_version: int = -1,
        new_version: int = 1,
        force_negotiation: bool = False,
    ) -> Steps:
        """Retrieve one page through the negotiated protocol.

        ``old_parts`` is what the client already holds (None on first
        contact); ``old_version`` tells the server which version that is.
        """
        tracer = self.telemetry.tracer
        trace_id = f"{self.name}-p{next(_session_counter)}"
        degraded = False
        deadline = (
            Deadline.after(self.deadline_s) if self.deadline_s is not None else None
        )
        with tracer.span(
            "session", trace=trace_id, client=self.name, app=app_id, page=page_id
        ) as session_span:
            try:
                outcome = yield from self._negotiate_steps(
                    app_id, force=force_negotiation, deadline=deadline
                )
                key = self._cache_key(app_id)
                try:
                    stack, pad_bytes, retrieval_s = self._deploy_stack(
                        key, outcome.pads
                    )
                except MobileCodeError:
                    # Stale protocol-cache entry after a PAD upgrade: the CDN
                    # served a newer module than our cached digest.  Drop the
                    # cached negotiation and retry once against the proxy.
                    self._protocol_cache.pop(key, None)
                    self._stacks.pop(key, None)
                    outcome = yield from self._negotiate_steps(
                        app_id, force=True, deadline=deadline
                    )
                    stack, pad_bytes, retrieval_s = self._deploy_stack(
                        key, outcome.pads
                    )
                pad_ids = tuple(m.resolved_id for m in outcome.pads)
            except (TransportError, FractalError, MobileCodeError, SigningError):
                if not self.degrade_to_direct:
                    raise
                # Graceful degradation: negotiation or deployment failed
                # for good even after retries.  The session still
                # completes over the null protocol, which every
                # application server pre-deploys (the paper's baseline),
                # at baseline traffic cost instead of an error.
                degraded = True
                self.telemetry.registry.counter("client.degradations").inc()
                session_span.tag(degraded=DEGRADED_PAD_ID)
                outcome = NegotiationOutcome((), 0.0, from_cache=False)
                stack = DirectProtocol()
                pad_bytes, retrieval_s = 0, 0.0
                pad_ids = (DEGRADED_PAD_ID,)

            n_parts = (
                len(old_parts)
                if old_parts is not None
                else self._probe_part_count(app_id, page_id, new_version)
            )
            part_requests = []
            with tracer.span("client.encode") as encode_span:
                for idx in range(n_parts):
                    old = old_parts[idx] if old_parts is not None else None
                    part_requests.append(stack.client_request(old))

            session_id = f"{self.name}-{next(_session_counter)}"
            req = INPMessage(
                MsgType.APP_REQ,
                session_id,
                0,
                {
                    "pad_ids": list(pad_ids),
                    "page_id": page_id,
                    "old_version": old_version,
                    "new_version": new_version,
                    "part_requests": part_requests,
                },
            )
            with tracer.span("app_exchange"):
                if self.retry_policy is None:
                    rep = yield from self._app_exchange_steps(req, deadline)
                else:
                    rep = yield from self.retry_policy.steps(
                        lambda: self._app_exchange_steps(req, deadline),
                        retryable=(
                            TransportError,
                            ProtocolMismatchError,
                            ServerOverloadedError,
                        ),
                        key=f"{self.name}:app:{page_id}",
                        on_retry=lambda *_: self._count_retry("app"),
                    )
            responses = inp.attachments(rep.body, "part_responses")

            parts: list[bytes] = []
            req_bytes = sum(map(len, part_requests))
            resp_bytes = sum(map(len, responses))
            with tracer.span("client.reconstruct") as reconstruct_span:
                for idx, response in enumerate(responses):
                    old = (
                        old_parts[idx]
                        if old_parts is not None and idx < len(old_parts)
                        else None
                    )
                    parts.append(stack.client_reconstruct(old, response))
            registry = self.telemetry.registry
            registry.counter("client.app_request_bytes").inc(req_bytes)
            registry.counter("client.app_response_bytes").inc(resp_bytes)

        return SessionResult(
            page_id=page_id,
            new_version=new_version,
            pad_ids=pad_ids,
            parts=parts,
            app_request_bytes=req_bytes,
            app_response_bytes=resp_bytes,
            pad_download_bytes=pad_bytes,
            negotiation_time_s=outcome.negotiation_time_s,
            pad_retrieval_time_s=retrieval_s,
            client_compute_s=encode_span.duration_s + reconstruct_span.duration_s,
            negotiated_from_cache=outcome.from_cache,
            degraded=degraded,
        )

    def _app_exchange_steps(
        self, req: INPMessage, deadline: Optional[Deadline]
    ) -> Steps:
        rep = yield from self._rpc_steps(
            self.appserver_endpoint, req, deadline=deadline
        )
        return rep.expect(MsgType.APP_REP)

    request_page = blocking(_request_page_steps)

    def _probe_part_count(self, app_id: str, page_id: int, version: int) -> int:
        """First contact: the client doesn't know the page structure yet.

        The corpus layout is fixed (text + images), so the client sends a
        single empty request per expected part; the server validates the
        count.  Real deployments would carry the count in INIT_REP — we
        keep the paper's message set instead and default to the corpus
        layout.
        """
        from ..workload.pages import IMAGES_PER_PAGE

        return 1 + IMAGES_PER_PAGE
