"""The TCP transport's steps, driven with no sockets and no sleeps.

``repro.simnet.tcp`` does no IO, so everything it guarantees can be
checked against an in-memory stream: framing, the serve loop and its
shed reply, the client's park / reconnect-once / metering rules.  The
last class then plays one seeded script through both real adapters and
demands the same results, the same error text and the same ledgers.
"""

from __future__ import annotations

import random
import re
import struct
import zlib

import pytest

from repro import drive
from repro.drive import call, sleep
from repro.simnet import realnet, tcp
from repro.simnet.tcp import Endpoint, StreamTimeout, TcpTransportCore
from repro.simnet.transport import TransportError

from .test_tcp_transports import ADAPTERS, Net, until


def frame(payload: bytes) -> bytes:
    return struct.pack(">I", len(payload)) + payload


class FakeSocket:
    """What ``realnet`` needs of a socket, fed from a byte string;
    ``recv`` hands out at most ``chunk`` bytes, then b"" (peer closed)."""

    def __init__(self, incoming: bytes = b"", chunk: int = 1 << 20):
        self.incoming, self.chunk, self.sent = incoming, chunk, b""

    def gettimeout(self):
        return None

    def recv(self, n: int) -> bytes:
        out = self.incoming[: min(n, self.chunk)]
        self.incoming = self.incoming[len(out):]
        return out

    def sendall(self, data: bytes) -> None:
        self.sent += data


class FakeStream:
    """A ``tcp`` stream over a byte string.  Reading past the end raises
    ``at_end`` — by default what a closed connection raises."""

    def __init__(self, incoming: bytes = b"", at_end: Exception | None = None):
        self.incoming, self.written = incoming, b""
        self.at_end = at_end or TransportError("connection closed mid-frame")
        self.timeouts: list = []
        self.closed = False

    def set_timeout(self, seconds) -> None:
        self.timeouts.append(seconds)

    def read_exactly(self, n: int) -> bytes:
        if len(self.incoming) < n:
            raise self.at_end
        out, self.incoming = self.incoming[:n], self.incoming[n:]
        return out

    def write(self, data: bytes) -> None:
        if self.closed:
            raise TransportError("write on a closed stream")
        self.written += data

    def close(self) -> None:
        self.closed = True


class TestFraming:
    def test_byte_at_a_time_reads_assemble_the_frame(self):
        sock = FakeSocket(frame(b"hello world"), chunk=1)
        assert realnet.recv_frame(sock) == b"hello world"

    def test_zero_length_frame(self):
        sock = FakeSocket(frame(b""))
        assert realnet.recv_frame(sock) == b""
        realnet.send_frame(sock, b"")
        assert sock.sent == b"\x00\x00\x00\x00"

    @pytest.mark.parametrize("cut", [2, 4 + 3], ids=["in-header", "in-body"])
    def test_close_inside_a_frame(self, cut):
        sock = FakeSocket(frame(b"hello world")[:cut], chunk=1)
        with pytest.raises(TransportError, match="closed mid-frame"):
            realnet.recv_frame(sock)

    def test_oversize_frames_are_refused_in_both_directions(self, monkeypatch):
        monkeypatch.setattr(tcp, "MAX_FRAME", 8)
        sock = FakeSocket(frame(b"123456789"))
        with pytest.raises(TransportError, match="incoming frame too large: 9"):
            realnet.recv_frame(sock)
        with pytest.raises(TransportError, match="frame too large: 9"):
            realnet.send_frame(sock, b"123456789")
        assert sock.sent == b""
        realnet.send_frame(sock, b"12345678")  # exactly MAX_FRAME passes
        assert sock.sent == frame(b"12345678")


def serve(ep: Endpoint, stream: FakeStream) -> None:
    drive.run(ep.accepted_steps(stream, ep.admit(stream)))


class TestEndpointSteps:
    def test_frames_are_served_in_order_until_the_peer_hangs_up(self):
        ep = Endpoint("svc", lambda p: p[::-1])
        stream = FakeStream(frame(b"abc") + frame(b"") + frame(b"xy"))
        serve(ep, stream)
        assert stream.written == frame(b"\x01cba") + frame(b"\x01") + frame(b"\x01yx")
        assert stream.closed and ep.open_connections == 0
        assert ep.connections_served == 1
        assert ep.meter.messages_received == ep.meter.messages_sent == 3
        assert ep.meter.bytes_received == 3 * 4 + 5
        assert ep.meter.bytes_sent == 3 * 4 + 3 + 5

    def test_the_timeout_is_off_while_the_handler_runs(self):
        stream = FakeStream(frame(b"x"))
        ep = Endpoint("svc", lambda p: stream.timeouts.append("handler") or p)
        serve(ep, stream)
        assert stream.timeouts[:4] == [5.0, None, "handler", 5.0]

    def test_handler_raising_becomes_an_error_reply_and_the_loop_goes_on(self):
        def handler(p):
            if p == b"boom":
                raise RuntimeError("server-side failure")
            return p

        ep = Endpoint("svc", handler)
        stream = FakeStream(frame(b"boom") + frame(b"ok"))
        serve(ep, stream)
        assert stream.written == (
            frame(b"\x00ERR server-side failure") + frame(b"\x01ok")
        )

    def test_handlers_may_return_steps(self):
        def handler(p):
            yield sleep(0)
            return p * 2

        stream = FakeStream(frame(b"ab"))
        serve(Endpoint("svc", handler), stream)
        assert stream.written == frame(b"\x01abab")

    def test_a_coroutine_handler_under_the_blocking_driver_is_an_error_reply(self):
        async def handler(p):
            return p

        stream = FakeStream(frame(b"ab"))
        serve(Endpoint("svc", handler), stream)
        assert stream.written[4:].startswith(b"\x00ERR a coroutine callback")

    def test_a_timed_out_connection_is_dropped_without_a_reply(self):
        ep = Endpoint("svc", lambda p: p)
        stream = FakeStream(frame(b"x")[:3], at_end=StreamTimeout("timed out"))
        serve(ep, stream)
        assert stream.written == b"" and stream.closed
        assert ep.meter.messages_received == 0

    def test_over_cap_connection_is_shed_and_metered_both_ways(self):
        ep = Endpoint("svc", lambda p: p, max_conns=1)
        holder, extra = FakeStream(), FakeStream(frame(b"req") + frame(b"more"))
        assert ep.admit(holder) is True
        serve(ep, extra)
        rejection = b"\x00ERR overloaded: connection limit reached"
        assert extra.written == frame(rejection)  # one reply, then hung up
        assert extra.closed and extra.timeouts[0] == tcp.SHED_TIMEOUT_S
        assert (ep.conns_shed, ep.connections_served, ep.open_connections) == (1, 1, 1)
        assert (ep.meter.messages_received, ep.meter.bytes_received) == (1, 4 + 3)
        assert (ep.meter.messages_sent, ep.meter.bytes_sent) == (1, 4 + len(rejection))
        drive.run(ep.accepted_steps(holder, True))  # the holder hangs up
        assert ep.admit(FakeStream()) is True

    def test_hang_up_closes_every_open_connection(self):
        ep = Endpoint("svc", lambda p: p)
        streams = [FakeStream() for _ in range(3)]
        for stream in streams:
            ep.admit(stream)
        ep.hang_up()
        assert all(s.closed for s in streams)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Endpoint("svc", lambda p: p, idle_timeout_s=0)
        with pytest.raises(ValueError, match="max_conns"):
            Endpoint("svc", lambda p: p, max_conns=0)


class ListenerlessEndpoint(Endpoint):
    address = ("fake", 0)

    def start(self):
        pass

    close = start


class ScriptedTransport(TcpTransportCore):
    """The client core over scripted streams: ``_connect`` hands out the
    next one, and no endpoint is ever really served."""

    _endpoint_cls = ListenerlessEndpoint

    def __init__(self, *streams: FakeStream, **kwargs):
        super().__init__(**kwargs)
        self.streams = list(streams)
        self.connects = 0
        drive.run(self._bind_steps("svc", lambda p: p))

    def _connect(self, address):
        self.connects += 1
        if not self.streams:
            raise TransportError("connection refused")
        return self.streams.pop(0)

    request = drive.blocking(TcpTransportCore._request_steps)
    unbind = drive.blocking(TcpTransportCore._unbind_steps)


def ledger(meter):
    return (
        meter.messages_sent, meter.bytes_sent,
        meter.messages_received, meter.bytes_received,
    )


class TestClientSteps:
    def test_a_peers_connection_is_parked_and_reused(self):
        stream = FakeStream(frame(b"\x01one") + frame(b"\x01two"))
        t = ScriptedTransport(stream)
        assert t.request("cli", "svc", b"a") == b"one"
        assert t.request("cli", "svc", b"bc") == b"two"
        assert t.connects == 1 and not stream.closed
        assert stream.written == frame(b"a") + frame(b"bc")
        assert stream.timeouts == [5.0, None, 5.0, None]  # parked: no timeout
        assert ledger(t.meter("cli")) == (2, 8 + 3, 2, 8 + 8)

    def test_reconnects_once_when_a_reused_connection_turns_out_closed(self):
        stale, fresh = FakeStream(frame(b"\x01one")), FakeStream(frame(b"\x01two"))
        t = ScriptedTransport(stale, fresh)
        assert t.request("cli", "svc", b"a") == b"one"
        assert t.request("cli", "svc", b"b") == b"two"  # stale read fails inside
        assert t.connects == 2 and stale.closed
        # The frame written into the dead connection is not counted.
        assert ledger(t.meter("cli")) == (2, 10, 2, 16)

    def test_the_retry_itself_is_not_retried(self):
        t = ScriptedTransport(FakeStream(frame(b"\x01one")), FakeStream())
        t.request("cli", "svc", b"a")
        with pytest.raises(TransportError, match="exchange with endpoint 'svc'"):
            t.request("cli", "svc", b"b")
        assert t.connects == 2
        assert t.streams == [] and t._parked == {}

    def test_a_fresh_connection_that_fails_is_not_retried(self):
        t = ScriptedTransport(FakeStream(), FakeStream(frame(b"\x01never")))
        with pytest.raises(TransportError, match="closed mid-frame"):
            t.request("cli", "svc", b"abc")
        assert t.connects == 1
        # The frame went out on the attempt that was not retried: counted.
        assert ledger(t.meter("cli")) == (1, 7, 0, 0)

    def test_never_reconnects_after_a_timeout(self):
        wedged = FakeStream(frame(b"\x01one"), at_end=StreamTimeout("timed out"))
        t = ScriptedTransport(wedged, FakeStream(frame(b"\x01never")))
        t.request("cli", "svc", b"a")
        with pytest.raises(TransportError, match="exchange with endpoint 'svc'.*failed: timed out"):
            t.request("cli", "svc", b"b")
        assert t.connects == 1 and wedged.closed and t._parked == {}
        assert ledger(t.meter("cli")) == (2, 10, 1, 8)

    def test_failed_connect_counts_nothing(self):
        t = ScriptedTransport()
        with pytest.raises(TransportError, match="exchange with endpoint 'svc'.*refused"):
            t.request("cli", "svc", b"abc")
        assert ledger(t.meter("cli")) == (0, 0, 0, 0)

    def test_status_byte_and_empty_reply(self):
        t = ScriptedTransport(
            FakeStream(frame(b"\x00ERR nope") + frame(b"") + frame(b"\x01"))
        )
        with pytest.raises(TransportError, match="^ERR nope$"):
            t.request("cli", "svc", b"a")
        with pytest.raises(TransportError, match="empty response frame"):
            t.request("cli", "svc", b"a")
        assert t.request("cli", "svc", b"a") == b""
        assert t.connects == 1  # an error *reply* leaves the connection good
        assert t.meter("cli").messages_received == 3

    def test_oversize_request_touches_no_connection(self, monkeypatch):
        monkeypatch.setattr(tcp, "MAX_FRAME", 8)
        t = ScriptedTransport(FakeStream())
        with pytest.raises(TransportError, match="frame too large"):
            t.request("cli", "svc", b"123456789")
        assert t.connects == 0

    def test_parked_table_is_lru_bounded(self, monkeypatch):
        monkeypatch.setattr(tcp, "MAX_PARKED", 3)
        streams = [FakeStream(frame(b"\x01r") * 2) for _ in range(5)]
        t = ScriptedTransport(*streams)
        for i in range(3):
            t.request(f"cli{i}", "svc", b"x")
        t.request("cli0", "svc", b"x")  # cli0 becomes the most recent
        t.request("cli3", "svc", b"x")  # evicts cli1, the least recent
        assert list(t._parked) == [("cli2", "svc"), ("cli0", "svc"), ("cli3", "svc")]
        assert [s.closed for s in streams[:4]] == [False, True, False, False]

    def test_unbind_drops_that_endpoints_parked_connections(self):
        stream = FakeStream(frame(b"\x01r"))
        t = ScriptedTransport(stream)
        t.request("cli", "svc", b"x")
        t.unbind("svc")
        assert stream.closed and t._parked == {}
        with pytest.raises(TransportError, match="no handler bound"):
            t.request("cli", "svc", b"x")

    def test_validation(self):
        for bad in (
            {"request_timeout_s": 0.0},
            {"connect_timeout_s": -1.0},
            {"idle_timeout_s": 0.0},
        ):
            with pytest.raises(ValueError, match="positive"):
                TcpTransportCore(**bad)
        with pytest.raises(ValueError, match="max_conns"):
            TcpTransportCore(max_conns=0)
        assert TcpTransportCore(request_timeout_s=42.0).idle_timeout_s == 42.0


# -- one script, both adapters -------------------------------------------------------


def _handler(payload: bytes) -> bytes:
    if payload.startswith(b"boom"):
        raise RuntimeError(f"cannot serve {len(payload)} bytes")
    return payload[::-1]


def _script(t, seed: int) -> drive.Steps:
    """Requests of seeded sizes, a handler error, an unknown endpoint, a
    reconnect after the endpoint hung up, an over-cap shed; returns what
    a caller can observe, addresses masked."""
    rng = random.Random(seed)
    seen: list = []

    def attempt(src, dst, payload):
        try:
            reply = yield call(t.request, src, dst, payload)
            seen.append((src, len(reply), zlib.crc32(reply)))
        except TransportError as exc:
            seen.append((src, re.sub(r"\('127\.0\.0\.1', \d+\)", "<addr>", str(exc))))

    yield call(t.bind, "svc", _handler)
    ep = t._endpoints["svc"]
    sizes = [0, 1, 1 << 20] + [rng.randrange(2, 1 << 16) for _ in range(5)]
    rng.shuffle(sizes)
    for size in sizes:
        yield from attempt("a", "svc", rng.randbytes(size))
    yield from attempt("a", "svc", b"boom" + rng.randbytes(9))
    yield from attempt("a", "ghost", b"anyone?")
    seen.append(("served", ep.connections_served))
    # The endpoint hangs up, as it does on an idle connection: the next
    # request finds its parked connection closed and reopens it.
    ep.hang_up()
    yield from until(lambda: ep.open_connections == 0, "hung up")
    yield from attempt("a", "svc", b"again")
    seen.append(("served", ep.connections_served))
    # max_conns=2: a's parked connection holds one slot, b takes the other.
    yield from attempt("b", "svc", b"second slot")
    yield from attempt("c", "svc", b"one too many")
    seen.append(("shed", ep.conns_shed, ep.open_connections))
    clients = [t.meter(name) for name in "abc"]
    yield from until(
        lambda: ep.meter.bytes_sent == sum(m.bytes_received for m in clients),
        "endpoint send meter settles",
    )
    sums = [sum(column) for column in zip(*(ledger(m) for m in clients))]
    assert ledger(ep.meter) == (sums[2], sums[3], sums[0], sums[1])
    seen.append(("ledger", *sums))
    return seen


class TestAdaptersAgree:
    @pytest.mark.parametrize("seed", [1, 2005])
    def test_same_script_same_results_errors_and_ledgers(self, seed):
        blocking, on_loop = (
            Net(*adapter, None).play(lambda t: _script(t, seed), max_conns=2)
            for adapter in ADAPTERS.values()
        )
        assert on_loop == blocking
        kinds = [row[0] for row in blocking]
        assert kinds.count("a") == 11 and ("shed", 1, 2) in blocking
        assert ("c", "ERR overloaded: connection limit reached") in blocking
        assert ("a", "ERR cannot serve 13 bytes") in blocking
        assert ("a", "no handler bound for endpoint 'ghost'") in blocking
        assert [row[1] for row in blocking if row[0] == "served"] == [1, 2]
