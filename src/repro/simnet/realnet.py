"""Real TCP loopback transport — the blocking-socket adapter of ``tcp``.

The negotiation protocol is byte-framed, so running it over actual sockets
costs nothing extra and proves the codec survives a real network stack.
The protocol is :mod:`repro.simnet.tcp`'s; this module is what is
particular to blocking sockets: the stream, the connect (both ends with
a pinned receive buffer), and an accept loop with one server thread per
endpoint and one worker thread per open connection.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Optional

from ..drive import blocking, run
from .tcp import (
    Endpoint,
    StreamTimeout,
    TcpTransportCore,
    recv_frame_steps,
    send_frame_steps,
)
from .transport import TransportError

__all__ = ["TcpEndpoint", "TcpTransport", "send_frame", "recv_frame"]

_RCVBUF = 64 * 1024  # one loopback segment: what a new connection starts with


def _failure(exc: OSError) -> TransportError:
    kind = StreamTimeout if isinstance(exc, socket.timeout) else TransportError
    return kind(str(exc) or type(exc).__name__)


class _SocketStream:
    """A connected blocking socket as a ``tcp`` stream."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock

    def set_timeout(self, seconds: Optional[float]) -> None:
        # A socket timeout runs only inside a socket call, so with no IO
        # pending (``None``) there is nothing to stop.
        try:
            if seconds is not None:
                self._sock.settimeout(seconds)
        except OSError as exc:  # hung up meanwhile, from another thread
            raise _failure(exc) from exc

    def read_exactly(self, n: int) -> bytes:
        chunks = []
        try:
            while n:
                chunk = self._sock.recv(n)
                if not chunk:
                    raise TransportError("connection closed mid-frame")
                chunks.append(chunk)
                n -= len(chunk)
        except OSError as exc:
            raise _failure(exc) from exc
        return b"".join(chunks)

    def write(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise _failure(exc) from exc

    def close(self) -> None:
        try:  # close() alone does not wake a thread blocked reading
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # the peer hung up first
        self._sock.close()


def send_frame(sock: socket.socket, payload: bytes) -> None:
    run(send_frame_steps(_SocketStream(sock), payload))


def recv_frame(sock: socket.socket) -> bytes:
    return run(recv_frame_steps(_SocketStream(sock)))


class TcpEndpoint(Endpoint):
    """An :class:`~repro.simnet.tcp.Endpoint` on 127.0.0.1 with an
    ephemeral port, serving between ``start()`` and ``close()``."""

    def start(self) -> None:
        self._workers: list[threading.Thread] = []
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        # Pinned, so not autotuned, and inherited by accepted connections.
        # An autotuned window lets a frame of several segments leave as one
        # burst that races the reader thread's wake-up; who wins is settled
        # per process, and whole runs differed by 10 %.  One segment per
        # window: the reader pulls the rest by acknowledging (DESIGN §11).
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _RCVBUF)
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(16)
        # Set the accept timeout before the thread starts so close() can
        # never race the thread's first socket operation.
        self._server.settimeout(0.1)
        self.address: tuple[str, int] = self._server.getsockname()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._serve, name=f"tcp-endpoint-{self.name}", daemon=True
        )
        self._thread.start()

    def _serve(self) -> None:
        # Reap finished workers on every accept-loop iteration (including
        # idle timeouts): a long-lived endpoint serving many short-lived
        # connections would otherwise grow the worker list without bound
        # and pay an O(connections-ever) join at close.
        while not self._stop.is_set():
            self._workers = [w for w in self._workers if w.is_alive()]
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            stream = _SocketStream(conn)
            admitted = self.admit(stream)
            steps = self.accepted_steps(stream, admitted)
            if admitted:
                worker = threading.Thread(target=run, args=(steps,), daemon=True)
                worker.start()
                self._workers.append(worker)
            else:
                # Shed inline: a thread per rejection would be the very
                # growth the cap exists to stop.  The shed read timeout
                # is short, so a client that connected but sends nothing
                # (slowloris) stalls accepts only briefly.
                run(steps)
        # Bounded shutdown: only still-live workers remain, and the total
        # join budget is capped rather than 1s per thread.
        deadline = time.monotonic() + 1.0
        for w in self._workers:
            w.join(timeout=max(0.0, deadline - time.monotonic()))
        self._workers = [w for w in self._workers if w.is_alive()]

    @property
    def worker_count(self) -> int:
        """Connection-worker threads not yet reaped (bounded under load)."""
        return len(self._workers)

    def close(self) -> None:
        self._stop.set()
        try:
            self._server.close()
        except OSError:
            pass
        self.hang_up()
        self._thread.join(timeout=2.0)


class TcpTransport(TcpTransportCore):
    """:class:`~repro.simnet.tcp.TcpTransportCore` on blocking sockets."""

    _endpoint_cls = TcpEndpoint

    def _connect(self, address: tuple[str, int]) -> _SocketStream:
        try:
            sock = socket.create_connection(address, timeout=self.connect_timeout_s)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _RCVBUF)  # as start()
        except OSError as exc:
            raise _failure(exc) from exc
        return _SocketStream(sock)

    bind = blocking(TcpTransportCore._bind_steps)
    unbind = blocking(TcpTransportCore._unbind_steps)
    request = blocking(TcpTransportCore._request_steps)
    close = blocking(TcpTransportCore._close_steps)

    def __enter__(self) -> "TcpTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
