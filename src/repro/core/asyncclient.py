"""The Fractal client host on an asyncio event loop.

:class:`AsyncFractalClient` speaks the identical INP exchanges as the
synchronous :class:`~repro.core.client.FractalClient` — same message
bodies, same counters, same protocol-cache behaviour — but its
negotiation and page-retrieval paths are coroutines driving an
``AsyncTcpTransport``-style transport (``await request(src, dst,
payload)``).  Thousands of client sessions can then interleave on one
loop instead of one thread each.

Deliberate differences from the sync client:

* **No retry policy / degradation.**  Those knobs wrap blocking calls
  with backoff sleeps; the async load path measures the clean serving
  core.  Constructing with either enabled raises immediately rather
  than silently not retrying.

Tracer spans are the same as the sync client's (``session`` →
``negotiate`` / ``client.encode`` / ``app_exchange`` /
``client.reconstruct``): the span stack is a ``contextvars`` variable,
so spans stay correctly nested across ``await`` boundaries and
interleaved tasks each build their own tree.
"""

from __future__ import annotations

import time
from typing import Optional

from ..mobilecode import MobileCodeError
from . import inp
from .client import FractalClient, NegotiationOutcome, SessionResult, _session_counter, check_reply
from .errors import NegotiationError, ProtocolMismatchError
from .inp import INPMessage, MsgType
from .metadata import PADMeta

__all__ = ["AsyncFractalClient"]


class AsyncFractalClient(FractalClient):
    """Async sibling of :class:`FractalClient` (see module docstring)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.retry_policy is not None or self.degrade_to_direct:
            raise ValueError(
                "AsyncFractalClient does not support retry_policy or "
                "degrade_to_direct; use the synchronous client for "
                "resilience experiments"
            )
        if self.breaker_board is not None or self.deadline_s is not None:
            raise ValueError(
                "AsyncFractalClient does not support breaker_board or "
                "deadline_s; use the synchronous client for overload "
                "experiments (server-side admission and deadline "
                "enforcement still apply to async traffic)"
            )

    async def _rpc_async(self, dst: str, msg: INPMessage) -> INPMessage:
        reply_bytes = await self._transport.request(self.name, dst, inp.encode(msg))
        return check_reply(msg, inp.decode(reply_bytes))

    # -- negotiation --------------------------------------------------------------

    async def negotiate(self, app_id: str, *, force: bool = False) -> NegotiationOutcome:
        registry = self.telemetry.registry
        key = self._cache_key(app_id)
        if not force:
            cached = self._protocol_cache.get(key)
            if cached is not None:
                registry.counter("client.protocol_cache.hits").inc()
                return NegotiationOutcome(cached, 0.0, from_cache=True)
        registry.counter("client.negotiations").inc()
        pads, duration_s = await self._negotiate_once(app_id)
        self._protocol_cache[key] = pads
        return NegotiationOutcome(pads, duration_s, from_cache=False)

    async def _negotiate_once(self, app_id: str) -> tuple[tuple[PADMeta, ...], float]:
        session_id = f"{self.name}-{next(_session_counter)}"
        t0 = time.perf_counter()
        with self.telemetry.tracer.span(
            "negotiate", trace=session_id, client=self.name, app=app_id
        ):
            init = INPMessage(MsgType.INIT_REQ, session_id, 0, {"app_id": app_id})
            init_rep = (await self._rpc_async(self.proxy_endpoint, init)).expect(
                MsgType.INIT_REP
            )
            if "cli_meta_req" not in init_rep.body:
                raise ProtocolMismatchError("INIT_REP did not carry CLI_META_REQ")
            cli_meta = init_rep.reply(
                MsgType.CLI_META_REP,
                {
                    "dev_meta": self.probe_dev_meta().to_wire(),
                    "ntwk_meta": self.probe_ntwk_meta().to_wire(),
                },
            )
            pad_rep = (await self._rpc_async(self.proxy_endpoint, cli_meta)).expect(
                MsgType.PAD_META_REP
            )
            pads_wire = pad_rep.body.get("pads")
            if not isinstance(pads_wire, list) or not pads_wire:
                raise NegotiationError("PAD_META_REP carried no PAD metadata")
            pads = tuple(PADMeta.from_wire(p) for p in pads_wire)
        return pads, time.perf_counter() - t0

    # -- the application session ---------------------------------------------------------

    async def request_page(
        self,
        app_id: str,
        page_id: int,
        *,
        old_parts: Optional[list[bytes]] = None,
        old_version: int = -1,
        new_version: int = 1,
        force_negotiation: bool = False,
    ) -> SessionResult:
        tracer = self.telemetry.tracer
        trace_id = f"{self.name}-p{next(_session_counter)}"
        with tracer.span(
            "session", trace=trace_id, client=self.name, app=app_id, page=page_id
        ):
            outcome = await self.negotiate(app_id, force=force_negotiation)
            key = self._cache_key(app_id)
            try:
                # PAD download/verify/deploy is synchronous CPU+memory work
                # with no awaits inside, so the inherited implementation
                # (spans included) is safe on the loop.
                stack, pad_bytes, retrieval_s = self._deploy_stack(key, outcome.pads)
            except MobileCodeError:
                # Stale protocol-cache entry after a PAD upgrade (same
                # recovery as the sync client): renegotiate once.
                self._protocol_cache.pop(key, None)
                self._stacks.pop(key, None)
                outcome = await self.negotiate(app_id, force=True)
                stack, pad_bytes, retrieval_s = self._deploy_stack(key, outcome.pads)
            pad_ids = tuple(m.resolved_id for m in outcome.pads)

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
                rep = (await self._rpc_async(self.appserver_endpoint, req)).expect(
                    MsgType.APP_REP
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
            encode_s = encode_span.duration_s
            reconstruct_s = reconstruct_span.duration_s

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
            client_compute_s=encode_s + reconstruct_s,
            negotiated_from_cache=outcome.from_cache,
            degraded=False,
        )
