"""The application server.

Responsibilities per the paper:

* Hold all PADs pre-deployed (server side never downloads mobile code).
* Sign PADs and publish them to the CDN origin; register digests/URLs with
  the adaptation proxy's distribution manager.
* Push ``AppMeta`` (the adaptation topology) to the proxy when it is first
  created or later changed.
* Serve application sessions: for an ``APP_REQ`` carrying the negotiated
  protocol identifications, run the server half of each per-part exchange
  against the versioned page corpus.

Adaptive content is generated **reactively** (encode on demand — cheap in
memory, pays compute per request) or **proactively** (pre-encode and cache
— the §3.1 trade-off and the Fig. 10(d)/11(c) variant).  Proactive mode
only applies to protocols whose response is independent of the client
request payload; request-dependent protocols (Bitmap, Fixed) fall back to
reactive with a cache keyed on the request digest.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Callable, Optional

from ..cdn.origin import OriginServer
from ..drive import Steps, blocking, layer, on_loop
from ..mobilecode import Signer
from ..overload import Deadline, deadline_error_text, overload_reply
from ..protocols import CommProtocol, build_pad_module, instantiate
from ..store.chunkstore import ChunkStore
from ..telemetry import MetricsRegistry, Telemetry
from ..workload.pages import Corpus
from . import inp
from .errors import (
    DeadlineExceededError,
    NegotiationError,
    ProtocolMismatchError,
    ServerOverloadedError,
)
from .inp import INPMessage, MsgType
from .kernelpool import (
    KernelPool,
    KernelPoolError,
    StackSpec,
    _stack_for_spec,
    stack_spec,
)
from .metadata import AppMeta, PADMeta, PADOverhead
from .proxy import AdaptationProxy

__all__ = ["ApplicationServer", "ServerStats", "pad_url", "url_key"]

_URL_SCHEME = "cdn://"

# Degenerate pool for servers with no kernel_pool attached: kernels run
# inline (on the calling thread / event loop), byte-identically.
_INLINE_POOL = KernelPool(workers=0)


class _NullToken:
    """Stand-in admission token when no controller is configured."""

    def __enter__(self) -> "_NullToken":
        return self

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_TOKEN = _NullToken()


def pad_url(pad_id: str, version: str) -> str:
    """The PADMeta download URL: the CDN resolves it to the closest edge."""
    return f"{_URL_SCHEME}{pad_id}/{version}"


def url_key(url: str) -> str:
    """The CDN object key inside a PAD URL."""
    if not url.startswith(_URL_SCHEME):
        raise NegotiationError(f"unsupported PAD URL scheme: {url!r}")
    return url[len(_URL_SCHEME) :]


class ServerStats:
    """Read-only attribute view over the server's registry metrics."""

    __slots__ = ("_registry",)

    def __init__(self, registry: MetricsRegistry) -> None:
        self._registry = registry

    @property
    def app_requests(self) -> int:
        return self._registry.counter("appserver.requests").value

    @property
    def parts_encoded(self) -> int:
        return self._registry.counter("appserver.parts_encoded").value

    @property
    def precompute_hits(self) -> int:
        return self._registry.counter("appserver.precompute_hits").value

    @property
    def encode_time_s(self) -> float:
        return self._registry.histogram("appserver.encode_seconds").total

    @property
    def bytes_in(self) -> int:
        return self._registry.counter("appserver.bytes_in").value

    @property
    def bytes_out(self) -> int:
        return self._registry.counter("appserver.bytes_out").value


class ApplicationServer:
    """One application (the case study's medical web server) plus its PADs."""

    def __init__(
        self,
        app_id: str,
        corpus: Corpus,
        signer: Signer,
        *,
        proactive: bool = False,
        telemetry: Optional[Telemetry] = None,
        kernel_pool: Optional[KernelPool] = None,
        chunk_store: Optional[ChunkStore] = None,
        admission=None,
        deadline_clock: Callable[[], float] = time.monotonic,
    ):
        self.app_id = app_id
        self.corpus = corpus
        self.signer = signer
        self.proactive = proactive
        self.telemetry = telemetry or Telemetry()
        # Where encode kernels run; None means the inline fallback
        # (on the calling thread / event loop).
        self.kernel_pool = kernel_pool
        # Fleet-level content-addressed store: when set, part encoding
        # goes through a StoreBackedResponder so equal content is
        # chunked/compressed once across all sessions.
        self.chunk_store = chunk_store
        # Optional AdmissionController consulted before any encode work;
        # None (the default) admits everything.  ``deadline_clock`` is
        # the monotonic clock propagated ``"dl"`` budgets anchor to —
        # injectable so tests make mid-request expiry deterministic.
        self.admission = admission
        self.deadline_clock = deadline_clock
        self._responder: Optional[StoreBackedResponder] = None
        self.stats = ServerStats(self.telemetry.registry)
        self._protocols: dict[str, CommProtocol] = {}
        self._pad_meta: dict[str, PADMeta] = {}
        self._pad_order: list[str] = []
        # Proactive/response cache: (pad ids, page, oldv, newv, part, reqhash)
        # Guarded by a lock: concurrent APP_REQ workers read and (in
        # proactive mode) write it; protocol instances themselves are
        # stateless per exchange and safe to share.
        self._response_cache: dict[tuple, bytes] = {}
        self._cache_lock = threading.Lock()

    # -- PAD deployment ----------------------------------------------------------

    def deploy_pad(self, meta: PADMeta) -> None:
        """Pre-deploy one PAD server-side (instantiates the real protocol)."""
        if meta.pad_id in self._pad_meta:
            raise NegotiationError(f"PAD {meta.pad_id!r} already deployed")
        self._pad_meta[meta.pad_id] = meta
        self._pad_order.append(meta.pad_id)
        if meta.alias_of is None:
            self._protocols[meta.pad_id] = instantiate(
                meta.resolved_id, **meta.init_kwargs
            )

    def app_meta(self) -> AppMeta:
        return AppMeta(
            app_id=self.app_id,
            pads=tuple(self._pad_meta[p] for p in self._pad_order),
        )

    def publish(self, proxy: AdaptationProxy, origin: OriginServer) -> None:
        """Push AppMeta to the proxy; sign + publish PAD blobs to the CDN.

        Also registers each PAD's digest and URL with the distribution
        manager, which inserts them into client-bound PADMeta.
        """
        proxy.push_app_meta(self.app_meta())
        published: set[str] = set()
        for pad_id in self._pad_order:
            meta = self._pad_meta[pad_id]
            real = meta.resolved_id
            if real in published:
                continue
            published.add(real)
            module = build_pad_module(real, **self._pad_meta.get(real, meta).init_kwargs)
            signed = self.signer.sign(module)
            version = module.version
            origin.publish(url_key(pad_url(real, version)), signed.to_wire())
            proxy.register_distribution(
                real, module.digest(), pad_url(real, version)
            )

    def upgrade_pad(
        self,
        pad_id: str,
        proxy: AdaptationProxy,
        origin: OriginServer,
        edges,
        *,
        version: str,
    ) -> str:
        """Publish a new version of one PAD; returns its new digest.

        The upgrade path: re-package + re-sign the module, publish it to
        the origin under a versioned key, purge the stale object from
        every edge, register the new digest/URL with the distribution
        manager, and invalidate the adaptation cache so subsequent
        negotiations hand out the new metadata.  Clients holding stale
        protocol-cache entries recover on their next download (the digest
        check fails and they renegotiate).
        """
        if pad_id not in self._pad_meta:
            raise NegotiationError(f"PAD {pad_id!r} is not deployed here")
        old_key = None
        for key in origin.keys():
            if key.startswith(f"{pad_id}/"):
                old_key = key
        module = build_pad_module(
            pad_id, version=version, **self._pad_meta[pad_id].init_kwargs
        )
        signed = self.signer.sign(module)
        new_key = url_key(pad_url(pad_id, version))
        origin.publish(new_key, signed.to_wire())
        if old_key is not None and old_key != new_key:
            origin.withdraw(old_key)
        for edge in edges:
            if old_key is not None:
                edge.invalidate(old_key)
            edge.preload(new_key)
        proxy.register_distribution(pad_id, module.digest(), pad_url(pad_id, version))
        proxy.distribution.invalidate_app(self.app_id)
        return module.digest()

    # -- application sessions -------------------------------------------------------

    def _page_parts(self, page_id: int, version: int) -> list[bytes]:
        page = self.corpus.evolved(page_id, version)
        return [page.text, *page.images]

    def precompute(self, pad_ids: list[str], page_id: int, old_version: int,
                   new_version: int) -> int:
        """Proactively encode every part for request-independent PADs.

        Returns the number of parts pre-encoded.  This is the paper's
        proactive adaptive content: spend memory now, skip server compute
        at request time.
        """
        stack = _stack_for_spec(self._stack_spec_for(pad_ids))
        old_parts = self._page_parts(page_id, old_version) if old_version >= 0 else None
        new_parts = self._page_parts(page_id, new_version)
        count = 0
        for part_idx, new in enumerate(new_parts):
            old = old_parts[part_idx] if old_parts and part_idx < len(old_parts) else None
            request = stack.client_request(old)
            key = self._cache_key(pad_ids, page_id, old_version, new_version,
                                  part_idx, request)
            with self._cache_lock:
                cached = key in self._response_cache
            if not cached:
                response = stack.server_respond(request, old, new)
                with self._cache_lock:
                    self._response_cache[key] = response
                count += 1
        return count

    @staticmethod
    def _cache_key(pad_ids, page_id, old_version, new_version, part_idx,
                   request: bytes) -> tuple:
        req_hash = hashlib.sha1(request).hexdigest() if request else ""
        return (tuple(pad_ids), page_id, old_version, new_version, part_idx, req_hash)

    def _parse_app_req(self, body: dict) -> tuple:
        """Validate an APP_REQ body; returns the decoded request fields
        plus the old/new page parts."""
        pad_ids = body.get("pad_ids")
        page_id = body.get("page_id")
        old_version = body.get("old_version", -1)
        new_version = body.get("new_version")
        if (
            not isinstance(pad_ids, list)
            or not isinstance(page_id, int)
            or not isinstance(new_version, int)
        ):
            raise ProtocolMismatchError("malformed APP_REQ body")
        part_requests = inp.attachments(body, "part_requests")
        has_old = isinstance(old_version, int) and old_version >= 0
        old_parts = self._page_parts(page_id, old_version) if has_old else None
        new_parts = self._page_parts(page_id, new_version)
        if len(part_requests) != len(new_parts):
            raise ProtocolMismatchError(
                f"client sent {len(part_requests)} part requests, page has "
                f"{len(new_parts)} parts"
            )
        return pad_ids, page_id, old_version, new_version, part_requests, old_parts, new_parts

    def _store_responder(self):
        """The (pool-current) responder over this server's chunk store.

        Rebuilt whenever :attr:`kernel_pool` changes, so cold-path
        kernels always dispatch to whatever pool is attached right now
        — sharded by content digest, not by session.
        """
        # Imported here, not at module top: repro.store.serving imports
        # this package for the kernel pool, so a top-level import would
        # be circular when ``repro.store`` loads first.
        from ..store.serving import StoreBackedResponder

        assert self.chunk_store is not None
        pool = self.kernel_pool if self.kernel_pool is not None else _INLINE_POOL
        responder = self._responder
        if responder is None or responder.pool is not pool:
            responder = StoreBackedResponder(
                self.chunk_store,
                pool=pool,
                registry=self.telemetry.registry,
                timer_name="appserver.encode_seconds",
            )
            self._responder = responder
        return responder

    def _check_part_deadline(
        self, deadline: Optional[Deadline], part_idx: int, total_parts: int
    ) -> None:
        """Shed the remaining parts when the propagated budget is gone.

        Encoding work already done is sunk cost; everything after this
        check would be wasted on a client that has stopped waiting, so
        the request fails here with an exact count of the parts shed.
        """
        if deadline is None or not deadline.expired:
            return
        remaining = total_parts - part_idx
        registry = self.telemetry.registry
        registry.counter("appserver.overload.parts_shed").inc(remaining)
        registry.counter("appserver.overload.deadline_midrequest").inc()
        raise DeadlineExceededError(
            deadline_error_text(
                f"shed {remaining} of {total_parts} parts mid-request"
            )
        )

    def _stack_spec_for(self, pad_ids: list[str]) -> StackSpec:
        """The declarative (picklable) spec from which a kernel — in a
        pool worker or inline — rebuilds the negotiated stack."""
        pads = []
        for pid in pad_ids:
            meta = self._pad_meta.get(pid)
            if meta is None or pid not in self._protocols:
                raise ProtocolMismatchError(
                    f"client negotiated PAD {pid!r} which is not deployed here"
                )
            pads.append((meta.resolved_id, dict(meta.init_kwargs)))
        return stack_spec(pads)

    def _serve_steps(
        self,
        body: dict,
        *,
        shard_key: Optional[str] = None,
        deadline: Optional[Deadline] = None,
    ) -> Steps:
        """The server half of an APP_REQ: encode every requested part.

        Each encode is an effect on the next layer down: the store
        responder when a chunk store is attached (it wraps only real
        computes in the encode timer; store hits cost no encode time,
        and cold-path kernels shard by content digest), else
        ``stack.respond`` on the kernel pool — the attached one
        (``shard_key``, typically the INP session id, pins a session to
        one worker process) or the inline ``workers=0`` fallback, which
        runs the kernel on the calling thread / event loop.
        """
        registry = self.telemetry.registry
        registry.counter("appserver.requests").inc()
        (
            pad_ids,
            page_id,
            old_version,
            new_version,
            part_requests,
            old_parts,
            new_parts,
        ) = self._parse_app_req(body)
        spec = self._stack_spec_for(pad_ids)
        responder = self._store_responder() if self.chunk_store is not None else None
        pool = self.kernel_pool if self.kernel_pool is not None else _INLINE_POOL
        responses = []
        with self.telemetry.tracer.span("server.encode", app=self.app_id):
            for part_idx, (request, new) in enumerate(zip(part_requests, new_parts)):
                self._check_part_deadline(deadline, part_idx, len(new_parts))
                registry.counter("appserver.bytes_in").inc(len(request))
                old = (
                    old_parts[part_idx]
                    if old_parts and part_idx < len(old_parts)
                    else None
                )
                key = self._cache_key(pad_ids, page_id, old_version, new_version,
                                      part_idx, request)
                with self._cache_lock:
                    cached = self._response_cache.get(key)
                if cached is not None:
                    registry.counter("appserver.precompute_hits").inc()
                    response = cached
                else:
                    if responder is not None:
                        registry.counter("appserver.store_requests").inc()
                        response = yield from layer(
                            responder, "respond", spec, request, old, new
                        )
                    else:
                        with registry.timer("appserver.encode_seconds"):
                            response = yield from layer(
                                pool, "run",
                                "stack.respond", spec, request, old, new,
                                shard_key=shard_key,
                            )
                    if self.proactive:
                        with self._cache_lock:
                            self._response_cache[key] = response
                registry.counter("appserver.parts_encoded").inc()
                registry.counter("appserver.bytes_out").inc(len(response))
                responses.append(response)
        return {
            "page_id": page_id,
            "new_version": new_version,
            "pad_ids": pad_ids,
            "part_responses": responses,
        }

    serve_app_request = blocking(_serve_steps)
    serve_app_request_async = on_loop(_serve_steps)

    # -- INP transport handler ---------------------------------------------------

    def _admission_gate(self, msg: INPMessage):
        """Entry overload checks, cheapest first: expired propagated
        deadline (nobody is waiting), then admission.  Returns
        ``(reject_bytes, None, None)`` on a shed, else
        ``(None, token, deadline)`` where ``token`` releases the
        inflight slot (a no-op context when admission is off) and the
        caller serves inside ``with token:``."""
        deadline = Deadline.from_wire_ms(msg.deadline_ms, clock=self.deadline_clock)
        if deadline is not None and deadline.expired:
            self.telemetry.registry.counter(
                "appserver.overload.deadline_entry"
            ).inc()
            return (
                inp.encode(inp.error_reply(msg, deadline_error_text("appserver entry"))),
                None,
                None,
            )
        if self.admission is not None:
            try:
                token = self.admission.admit()
            except ServerOverloadedError as exc:
                return inp.encode(overload_reply(msg, exc)), None, None
            return None, token, deadline
        return None, _NULL_TOKEN, deadline

    def _handle_steps(self, request: bytes) -> Steps:
        """The INP handler: one APP_REQ frame in, one reply frame out."""
        try:
            msg = inp.decode(request)
        except Exception as exc:
            err = INPMessage(MsgType.INP_ERROR, "unknown", 0, {"error": str(exc)})
            return inp.encode(err)
        if msg.msg_type is not MsgType.APP_REQ:
            return inp.encode(
                inp.error_reply(msg, f"appserver cannot handle {msg.msg_type.value}")
            )
        rejected, token, deadline = self._admission_gate(msg)
        if rejected is not None:
            return rejected
        try:
            # The session id shards this session's kernel work onto one
            # worker process (stable placement, warm stack cache there).
            with token:
                body = yield from self._serve_steps(
                    msg.body, shard_key=msg.session_id, deadline=deadline
                )
        except (ProtocolMismatchError, NegotiationError, DeadlineExceededError,
                KernelPoolError, IndexError, ValueError) as exc:
            return inp.encode(inp.error_reply(msg, str(exc)))
        return inp.encode(msg.reply(MsgType.APP_REP, body))

    handle = blocking(_handle_steps)
    handle_async = on_loop(_handle_steps)  # bind directly on an asyncio transport


def default_pad_overheads() -> dict[str, PADOverhead]:
    """Placeholder Eq.-1 vectors; calibrate_overheads() replaces them.

    Values are rough per-page expectations used only until a measurement
    pass runs (tests that don't care about absolute costs use these).
    """
    return {
        "direct": PADOverhead(traffic_std_bytes=135_000, client_comp_std_s=0.0,
                              server_comp_s=0.0),
        "gzip": PADOverhead(traffic_std_bytes=110_000, client_comp_std_s=0.01,
                            server_comp_s=0.005),
        "vary": PADOverhead(traffic_std_bytes=10_000, client_comp_std_s=0.005,
                            server_comp_s=0.2),
        "bitmap": PADOverhead(traffic_std_bytes=14_000, client_comp_std_s=0.005,
                              server_comp_s=0.001),
        "fixed": PADOverhead(traffic_std_bytes=18_000, client_comp_std_s=0.05,
                             server_comp_s=0.02),
    }


__all__.append("default_pad_overheads")
