"""The TCP transport, written once and sans IO.

INP rides on one byte-framed request/reply protocol: a frame is
``[4-byte big-endian length][payload]`` and a reply's payload opens with
a status byte (``0x01`` ok, ``0x00`` then ``ERR <text>``).  Everything
about it that is not a socket call is here, as :mod:`repro.drive` steps
and plain classes.  ``realnet`` (blocking sockets, a thread per
connection) and ``asyncnet`` (asyncio, a task per connection) supply
only a *stream*, a connect and an accept loop, so neither can have a
guarantee the other lacks.  A stream is one connected socket:
``read_exactly(n)`` and ``write(data)`` are effects whose every failure
is a :class:`TransportError` (a timeout a :class:`StreamTimeout`);
``set_timeout(seconds)`` bounds the IO that follows, ``None`` while none
is pending; ``close()`` hangs up, idempotent, from any thread or task.

Byte accounting convention (ledger truth): every meter counts **on-wire
frame sizes** — the 4-byte header plus the payload, status byte
included — and records a frame only *after* it was sent or fully
received.  A refused connection counts nothing.  The client counts the
request frame of the one attempt the endpoint can have read: the attempt
that is not retried, even when its reply then times out — never the
frame written into a parked connection the endpoint had already closed.
So client ``bytes_sent`` == endpoint ``bytes_received`` and vice versa,
which the load harness asserts in its ledger.
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict
from typing import Any, Callable, Optional

from ..drive import Steps, call, invoked
from .transport import TrafficMeter, TransportError

__all__ = [
    "MAX_FRAME",
    "MAX_PARKED",
    "Endpoint",
    "StreamTimeout",
    "TcpTransportCore",
    "recv_frame_steps",
    "send_frame_steps",
]

_LEN = struct.Struct(">I")
MAX_FRAME = 64 * 1024 * 1024  # sanity bound; PADs and pages are far smaller
MAX_PARKED = 256  # idle client connections kept, over all peers of a transport
SHED_TIMEOUT_S = 0.5  # for a shed connection's one frame; short: realnet sheds inline
_OK, _ERR = b"\x01", b"\x00ERR "


class StreamTimeout(TransportError):
    """The stream's timeout ran out; the connection is unusable."""


def _framed(payload: bytes) -> bytes:
    if len(payload) > MAX_FRAME:
        raise TransportError(f"frame too large: {len(payload)} bytes")
    return _LEN.pack(len(payload)) + payload


def send_frame_steps(stream: Any, payload: bytes) -> Steps:
    yield call(stream.write, _framed(payload))


def recv_frame_steps(stream: Any) -> Steps:
    (length,) = _LEN.unpack((yield call(stream.read_exactly, _LEN.size)))
    if length > MAX_FRAME:
        raise TransportError(f"incoming frame too large: {length} bytes")
    return (yield call(stream.read_exactly, length))


def _validate(max_conns: Optional[int], *timeouts: Optional[float]) -> None:
    if any(seconds is not None and seconds <= 0 for seconds in timeouts):
        raise ValueError(f"timeouts must be positive, got {timeouts}")
    if max_conns is not None and max_conns < 1:
        raise ValueError(f"max_conns must be >= 1, got {max_conns}")


def _overloaded(_request: bytes) -> bytes:
    raise TransportError("overloaded: connection limit reached")


class Endpoint:
    """A request/response server: one handler behind an accept loop.

    The subclass owns the listening socket (``start()`` / ``close()``);
    for each connection it accepts it calls :meth:`admit` at once, then
    runs :meth:`accepted_steps` on a worker of its kind.  The handler may
    be a plain callable, return an awaitable (asyncio driver only — how
    the application server offloads kernel work to a process pool without
    blocking the loop) or return further steps.

    ``idle_timeout_s`` bounds how long a connection may sit between
    frames, and how long one frame may take to arrive or leave, before
    the endpoint hangs up.  ``max_conns`` caps open connections, idle
    ones included: a client's parked connection holds its slot until it
    is idle-closed.  A connection accepted past the cap is *shed*, not
    silently dropped: the endpoint reads its first request frame (short
    timeout), replies with a framed ``overloaded: connection limit
    reached`` error, and closes — so the client sees a typed rejection
    instead of a hang, and the byte meters stay symmetric (both the
    request and the rejection frame are recorded).  ``conns_shed``
    ledgers every shed connection, ``connections_served`` every admitted
    one (the reuse tests read it).
    """

    def __init__(
        self,
        name: str,
        handler: Callable[[bytes], Any],
        *,
        idle_timeout_s: float = 5.0,
        max_conns: Optional[int] = None,
    ) -> None:
        _validate(max_conns, idle_timeout_s)
        self.name = name
        self.handler = handler
        self.idle_timeout_s = idle_timeout_s
        self.max_conns = max_conns
        self.conns_shed = 0
        self.connections_served = 0
        self.meter = TrafficMeter()
        self._open: set[Any] = set()
        self._lock = threading.Lock()

    @property
    def open_connections(self) -> int:
        """Admitted connections not yet closed (what ``max_conns`` caps)."""
        return len(self._open)

    def admit(self, stream: Any) -> bool:
        """Count a just-accepted connection, before any worker runs for
        it; false means it is over ``max_conns`` and is to be shed."""
        with self._lock:
            admitted = self.max_conns is None or len(self._open) < self.max_conns
            if admitted:
                self._open.add(stream)
                self.connections_served += 1
            else:
                self.conns_shed += 1
        return admitted

    def accepted_steps(self, stream: Any, admitted: bool) -> Steps:
        """One connection's whole life: frames served in order until
        either side hangs up — or, not admitted, the one rejection."""
        timeout_s, handler = self.idle_timeout_s, self.handler
        if not admitted:
            timeout_s, handler = min(timeout_s, SHED_TIMEOUT_S), _overloaded
        try:
            while True:
                stream.set_timeout(timeout_s)
                request = yield from recv_frame_steps(stream)
                stream.set_timeout(None)  # the handler's time is its own
                self.meter.record_receive(_LEN.size + len(request))
                try:
                    response = _OK + (yield from invoked(lambda: handler(request)))
                except Exception as exc:  # noqa: BLE001 - report to caller
                    response = _ERR + str(exc).encode("utf-8", "replace")
                stream.set_timeout(timeout_s)
                yield from send_frame_steps(stream, response)
                self.meter.record_send(_LEN.size + len(response))
                if not admitted:
                    break
        except TransportError:
            pass  # hung up, idle too long, or broken: this connection is over
        finally:
            with self._lock:
                self._open.discard(stream)
            stream.close()

    def hang_up(self) -> list[Any]:
        """Close every open connection and return their streams (the
        subclass's ``close`` does): a parked idle one would otherwise keep
        its worker, and teardown, waiting out ``idle_timeout_s``."""
        with self._lock:
            streams = list(self._open)
        for stream in streams:
            stream.close()
        return streams


class TcpTransportCore:
    """Transport facade matching :class:`InProcessTransport`'s interface.

    Endpoints live in the same process but all traffic crosses the
    kernel's loopback TCP stack.  The subclass names its ``_endpoint_cls``
    and supplies ``_connect(address)`` (an effect: a connected stream, or
    :class:`TransportError`), and declares its public ``bind`` /
    ``unbind`` / ``request`` / ``close`` from the steps here.

    ``connect_timeout_s`` bounds connection establishment and
    ``request_timeout_s`` each exchange once connected; a dead or wedged
    endpoint surfaces as :class:`TransportError` instead of hanging the
    caller forever.  ``idle_timeout_s`` and ``max_conns`` are those of
    the endpoints bound here (see :class:`Endpoint`); the former defaults
    to ``request_timeout_s`` so a transport configured for slow requests
    does not have its server side hang up early.

    Client connections are **persistent per (src, dst) peer**: a request
    takes its peer's parked connection or opens one, and parks it again
    afterwards — at most one idle connection per peer and
    :data:`MAX_PARKED` in all, least recently used closed first.  A
    taken connection belongs to that request alone (a concurrent request
    of the same peer opens another), so nothing is locked across IO.
    """

    def __init__(
        self,
        *,
        connect_timeout_s: float = 5.0,
        request_timeout_s: float = 5.0,
        idle_timeout_s: Optional[float] = None,
        max_conns: Optional[int] = None,
    ) -> None:
        _validate(max_conns, connect_timeout_s, request_timeout_s, idle_timeout_s)
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self.idle_timeout_s = (
            idle_timeout_s if idle_timeout_s is not None else request_timeout_s
        )
        self.max_conns = max_conns
        self._endpoints: dict[str, Endpoint] = {}
        self.meters: dict[str, TrafficMeter] = {}
        self._parked: OrderedDict[tuple[str, str], Any] = OrderedDict()
        self._lock = threading.Lock()

    def _bind_steps(self, endpoint: str, handler: Callable[[bytes], Any]) -> Steps:
        """Serve ``handler`` under the name ``endpoint``."""
        ep = self._endpoint_cls(
            endpoint,
            handler,
            idle_timeout_s=self.idle_timeout_s,
            max_conns=self.max_conns,
        )
        yield call(ep.start)
        with self._lock:
            taken = self._endpoints.setdefault(endpoint, ep) is not ep
        if taken:
            yield call(ep.close)
            raise TransportError(f"endpoint already bound: {endpoint!r}")
        self.meter(endpoint)

    def _unbind_steps(self, endpoint: str) -> Steps:
        """Stop serving ``endpoint`` and hang up on its clients."""
        with self._lock:
            ep = self._endpoints.pop(endpoint, None)
            parked = [
                self._parked.pop(key) for key in list(self._parked) if key[1] == endpoint
            ]
        for stream in parked:  # a rebind must not be handed a stale socket
            stream.close()
        if ep is not None:
            yield call(ep.close)

    def _close_steps(self) -> Steps:
        for endpoint in self.endpoints():
            yield from self._unbind_steps(endpoint)

    def endpoints(self) -> list[str]:
        with self._lock:
            return sorted(self._endpoints)

    def meter(self, endpoint: str) -> TrafficMeter:
        with self._lock:
            return self.meters.setdefault(endpoint, TrafficMeter())

    def endpoint_meter(self, endpoint: str) -> TrafficMeter:
        """The server-side meter of a bound endpoint (ledger symmetry)."""
        return self._bound(endpoint).meter

    def _bound(self, endpoint: str) -> Endpoint:
        ep = self._endpoints.get(endpoint)
        if ep is None:
            raise TransportError(f"no handler bound for endpoint {endpoint!r}")
        return ep

    def _request_steps(self, src: str, dst: str, payload: bytes) -> Steps:
        """``dst``'s reply to ``payload``; any failure a ``TransportError``."""
        ep, frame, meter = self._bound(dst), _framed(payload), self.meter(src)
        with self._lock:
            stream = self._parked.pop((src, dst), None)
        while True:
            reused, sent = stream is not None, False
            try:
                if not reused:
                    stream = yield call(self._connect, ep.address)
                stream.set_timeout(self.request_timeout_s)
                yield call(stream.write, frame)
                sent = True
                framed = yield from recv_frame_steps(stream)
                stream.set_timeout(None)
                break
            except TransportError as exc:
                if stream is not None:
                    stream.close()
                if reused and not isinstance(exc, StreamTimeout):
                    # The endpoint idle-closed this connection while it
                    # was parked: it read nothing of this frame, so the
                    # frame is not counted.  Retry exactly once, on a
                    # fresh connection — which is never itself retried,
                    # and nothing is after a timeout.
                    stream = None
                    continue
                if sent:
                    meter.record_send(len(frame))
                raise TransportError(
                    f"exchange with endpoint {dst!r} at {ep.address} failed: {exc}"
                ) from exc
        meter.record_send(len(frame))
        meter.record_receive(_LEN.size + len(framed))
        self._park((src, dst), ep, stream)
        if framed[:1] != _OK:
            raise TransportError(
                framed[1:].decode("utf-8", "replace") if framed else "empty response frame"
            )
        return framed[1:]

    def _park(self, key: tuple[str, str], ep: Endpoint, stream: Any) -> None:
        extra = stream
        with self._lock:
            if self._endpoints.get(key[1]) is ep:  # not unbound mid-request
                # A concurrent request of this peer may have parked first.
                extra = self._parked.pop(key, None)
                self._parked[key] = stream
                if extra is None and len(self._parked) > MAX_PARKED:
                    _, extra = self._parked.popitem(last=False)
        if extra is not None:
            extra.close()
