"""The Fractal client host on an asyncio event loop.

:class:`AsyncFractalClient` *is* the synchronous
:class:`~repro.core.client.FractalClient` — every protocol step
(RPC gauntlet, negotiation, page session) is the same step generator —
driven by :func:`repro.drive.run_async` instead of :func:`repro.drive.run`
over an ``AsyncTcpTransport``-style transport (``await request(src,
dst, payload)``).  Thousands of client sessions can then interleave on
one loop instead of one thread each, with the same retry, degradation,
deadline and breaker behaviour, counters and tracer spans (the span
stack is a ``contextvars`` variable, so interleaved tasks each build
their own tree).

PAD download/verify/deploy is synchronous CPU+memory work with no
effects inside, so it runs on the loop.
"""

from __future__ import annotations

from ..drive import on_loop
from .client import FractalClient

__all__ = ["AsyncFractalClient"]


class AsyncFractalClient(FractalClient):
    """The asyncio drivers of :class:`FractalClient`'s steps."""

    _rpc = on_loop(FractalClient._rpc_steps)
    negotiate = on_loop(FractalClient._negotiate_steps)
    request_page = on_loop(FractalClient._request_page_steps)
