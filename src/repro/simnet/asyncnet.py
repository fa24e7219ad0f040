"""Asyncio-native TCP transport — the event-loop adapter of ``tcp``.

Protocol, wire format and guarantees are :mod:`repro.simnet.tcp`'s, so
they are ``realnet``'s byte for byte: a client built on one transport
can talk to an endpoint served by the other (the test suite crosses a
blocking-socket client with an asyncio server).  What changes is the
serving model: one event loop owns every endpoint and every client
connection, with no thread per connection, so tens of thousands of
concurrent sessions fit in one process.
"""

from __future__ import annotations

import asyncio
from typing import Optional

from ..drive import on_loop, run_async
from .tcp import Endpoint, StreamTimeout, TcpTransportCore
from .transport import TransportError

__all__ = ["AsyncTcpEndpoint", "AsyncTcpTransport"]


class _LoopStream:
    """An asyncio reader/writer pair as a ``tcp`` stream.

    The timeout is a watchdog, not a ``wait_for`` around each read:
    ``wait_for`` costs a task per call before Python 3.12 (a tenth of a
    whole stored-page session, measured), while one ``call_later`` that
    aborts the connection — a timed-out connection is dropped anyway —
    costs nothing measurable.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self._reader, self._writer = reader, writer
        self._watchdog: Optional[asyncio.TimerHandle] = None
        self._expired = False

    def set_timeout(self, seconds: Optional[float]) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            self._watchdog = None
        if seconds is not None:
            loop = asyncio.get_running_loop()
            self._watchdog = loop.call_later(seconds, self._expire)

    def _expire(self) -> None:
        self._expired = True
        self._writer.transport.abort()  # wakes the pending read or drain

    def _failure(self, exc: Exception) -> TransportError:
        if self._expired:
            return StreamTimeout("timed out")
        return TransportError(str(exc) or "connection closed mid-frame")

    async def read_exactly(self, n: int) -> bytes:
        try:
            return await self._reader.readexactly(n)
        except (asyncio.IncompleteReadError, OSError) as exc:
            raise self._failure(exc) from exc

    async def write(self, data: bytes) -> None:
        try:
            self._writer.write(data)
            await self._writer.drain()
        except OSError as exc:
            raise self._failure(exc) from exc
        if self._expired:  # an aborted drain() returns as if it had finished
            raise StreamTimeout("timed out")

    def close(self) -> None:
        self.set_timeout(None)
        self._writer.close()


class AsyncTcpEndpoint(Endpoint):
    """An :class:`~repro.simnet.tcp.Endpoint` on 127.0.0.1 with an
    ephemeral port, serving between ``start()`` and ``close()``."""

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._accepted, "127.0.0.1", 0)
        self.address: tuple[str, int] = self._server.sockets[0].getsockname()

    async def _accepted(self, reader, writer) -> None:
        # Admission is the task's first act, before anything it awaits.
        stream = _LoopStream(reader, writer)
        await run_async(self.accepted_steps(stream, self.admit(stream)))

    async def close(self) -> None:
        self._server.close()
        # Wait the hung-up connections out, as 3.12's wait_closed() does:
        # else the closing loop cancels their tasks, one traceback each.
        gone = [stream._writer.wait_closed() for stream in self.hang_up()]
        await asyncio.gather(self._server.wait_closed(), *gone, return_exceptions=True)


class AsyncTcpTransport(TcpTransportCore):
    """:class:`~repro.simnet.tcp.TcpTransportCore` on one event loop:
    ``bind``/``unbind``/``request``/``close`` are coroutines and
    everything runs on the calling task's loop."""

    _endpoint_cls = AsyncTcpEndpoint

    async def _connect(self, address: tuple[str, int]) -> _LoopStream:
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(*address), self.connect_timeout_s
            )
        except (asyncio.TimeoutError, OSError) as exc:
            raise TransportError(str(exc) or type(exc).__name__) from exc
        return _LoopStream(reader, writer)

    bind = on_loop(TcpTransportCore._bind_steps)
    unbind = on_loop(TcpTransportCore._unbind_steps)
    request = on_loop(TcpTransportCore._request_steps)
    close = on_loop(TcpTransportCore._close_steps)

    async def __aenter__(self) -> "AsyncTcpTransport":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()
