"""Every transport guarantee, against both TCP adapters.

Each test body is written once, as :mod:`repro.drive` steps over the
public transport API, and played on ``TcpTransport`` by ``drive.run`` and
on ``AsyncTcpTransport`` by ``drive.run_async`` — the same way the
transports themselves are one set of steps under two drivers.
"""

from __future__ import annotations

import asyncio
import socket
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import drive
from repro.drive import call, sleep
from repro.simnet import realnet, tcp
from repro.simnet.asyncnet import AsyncTcpTransport
from repro.simnet.realnet import TcpTransport
from repro.simnet.transport import TransportError


class Net:
    """One adapter under its driver, plus a thread for raw-socket helpers."""

    def __init__(self, cls, driver, pool):
        self.cls, self.driver, self.pool = cls, driver, pool

    def offload(self, fn, *args) -> drive.Effect:
        """A raw-socket helper's result, computed off the calling thread
        — or a body on the event loop would stall the very endpoint the
        helper is talking to."""
        return drive.wait_future(self.pool.submit(fn, *args), 5.0)

    def play(self, body, **kwargs):
        """Run ``body(transport)`` and close the transport whatever happens."""
        transport = self.cls(**kwargs)

        def steps():
            try:
                return (yield from body(transport))
            finally:
                yield call(transport.close)

        return self.driver(steps())


ADAPTERS = {
    "blocking": (TcpTransport, drive.run),
    "asyncio": (AsyncTcpTransport, lambda steps: asyncio.run(drive.run_async(steps))),
}


@pytest.fixture(scope="module")
def raw_socket_pool():
    with ThreadPoolExecutor(max_workers=1) as pool:
        yield pool


@pytest.fixture(params=list(ADAPTERS))
def net(request, raw_socket_pool):
    return Net(*ADAPTERS[request.param], raw_socket_pool)


def until(done, what: str) -> drive.Steps:
    """Poll (through the driver, so an event loop keeps running) for
    something another thread or task is about to do."""
    for _ in range(3000):
        if done():
            return
        yield sleep(0.001)
    raise AssertionError(f"never happened: {what}")


def together(steps_list) -> drive.Effect:
    """Run several step generators at once: on threads, or as tasks."""

    def effect(on_loop):
        if on_loop:
            return asyncio.gather(*(drive.run_async(s) for s in steps_list))
        with ThreadPoolExecutor(len(steps_list)) as pool:
            futures = [pool.submit(drive.run, s) for s in steps_list]
            return [f.result(timeout=60.0) for f in futures]

    return effect


def meters_mirror(t, clients, endpoint="svc") -> drive.Steps:
    """Client meters and the endpoint's meter agree frame for frame."""
    ep = t.endpoint_meter(endpoint)
    cli = [t.meter(name) for name in clients]
    # The endpoint records a send just after the bytes hit the socket.
    yield from until(
        lambda: ep.messages_sent == sum(m.messages_received for m in cli),
        "endpoint send meter settles",
    )
    assert ep.messages_received == sum(m.messages_sent for m in cli)
    assert ep.bytes_received == sum(m.bytes_sent for m in cli)
    assert ep.bytes_sent == sum(m.bytes_received for m in cli)


def wedged(_payload):
    """A handler that answers far too late (steps: either driver)."""
    yield sleep(1.0)
    return b"too late"


class TestConnectionCap:
    def test_invalid_max_conns_rejected(self, net):
        with pytest.raises(ValueError):
            net.cls(max_conns=0)

    def test_parked_idle_connection_holds_its_slot_and_the_next_is_shed(self, net):
        """The cap counts open connections, idle ones included, and sheds
        with a framed error, not a silent drop."""

        def body(t):
            yield call(t.bind, "svc", lambda p: p)
            assert (yield call(t.request, "cli0", "svc", b"hold")) == b"hold"
            ep = t._endpoints["svc"]
            assert ep.open_connections == 1  # cli0's, parked
            with pytest.raises(TransportError, match="overloaded: connection limit"):
                yield call(t.request, "cli1", "svc", b"rejected")
            assert (ep.conns_shed, ep.connections_served) == (1, 1)
            # The slot's owner is still served, on the same connection.
            assert (yield call(t.request, "cli0", "svc", b"again")) == b"again"
            assert ep.connections_served == 1
            # Meter symmetry survives the shed: the rejected request frame
            # was recorded received and the rejection recorded sent.
            yield from meters_mirror(t, ["cli0", "cli1"])
            assert t.meter("cli1").messages_sent == 1
            assert t.meter("cli1").messages_received == 1

        net.play(body, max_conns=1)

    def test_slot_is_free_again_once_the_holder_is_idle_closed(self, net):
        def body(t):
            yield call(t.bind, "svc", lambda p: p)
            ep = t._endpoints["svc"]
            yield call(t.request, "cli0", "svc", b"x")
            with pytest.raises(TransportError, match="overloaded"):
                yield call(t.request, "cli1", "svc", b"x")
            yield from until(lambda: ep.open_connections == 0, "idle close")
            assert (yield call(t.request, "cli1", "svc", b"y")) == b"y"
            assert ep.conns_shed == 1

        net.play(body, max_conns=1, idle_timeout_s=0.2)

    def test_the_cap_is_exact_under_a_burst(self, net):
        """Ten raw connections at once against ``max_conns=3``: exactly
        three are admitted, seven are shed with the typed error."""

        def exchange(sock):
            realnet.send_frame(sock, b"ping")
            return realnet.recv_frame(sock)

        def body(t):
            yield call(t.bind, "svc", lambda p: p)
            ep = t._endpoints["svc"]
            socks = [
                socket.create_connection(ep.address, timeout=5.0) for _ in range(10)
            ]
            try:
                replies = []
                for sock in socks:
                    replies.append((yield net.offload(exchange, sock)))
            finally:
                for sock in socks:
                    sock.close()
            assert replies.count(b"\x01ping") == 3
            assert replies.count(b"\x00ERR overloaded: connection limit reached") == 7
            assert (ep.connections_served, ep.conns_shed) == (3, 7)

        net.play(body, max_conns=3)


class TestWorkerReaping:
    def test_short_lived_connections_leave_nothing_open(self, net):
        """Regression: 100 connections that come and go must not leave
        100 workers (threads, or tasks) behind."""

        def one_shot(address, i):
            with socket.create_connection(address, timeout=5.0) as sock:
                realnet.send_frame(sock, b"%d" % i)
                return realnet.recv_frame(sock)

        def body(t):
            yield call(t.bind, "svc", lambda p: p)
            ep = t._endpoints["svc"]
            for i in range(100):
                reply = yield net.offload(one_shot, ep.address, i)
                assert reply == b"\x01%d" % i
            yield from until(lambda: ep.open_connections == 0, "all hung up")
            assert ep.connections_served == 100
            # Tasks are gone as they finish; threads are reaped by the
            # accept loop on its next pass (<= 0.1 s accept timeout).
            yield from until(
                lambda: getattr(ep, "worker_count", 0) == 0, "workers reaped"
            )

        net.play(body)

    def test_parked_table_is_bounded_and_the_endpoint_follows(self, net, monkeypatch):
        """2 x bound distinct peers: at most ``bound`` connections stay
        parked, and the evicted ones are really closed — the endpoint's
        open-connection count comes down with the table."""
        monkeypatch.setattr(tcp, "MAX_PARKED", 8)

        def body(t):
            yield call(t.bind, "svc", lambda p: p)
            ep = t._endpoints["svc"]
            for i in range(16):
                assert (yield call(t.request, f"peer{i}", "svc", b"x")) == b"x"
                assert len(t._parked) <= 8
            assert list(t._parked) == [(f"peer{i}", "svc") for i in range(8, 16)]
            assert ep.connections_served == 16
            yield from until(lambda: ep.open_connections == 8, "evicted ones closed")
            yield call(t.unbind, "svc")
            assert len(t._parked) == 0
            yield from until(lambda: ep.open_connections == 0, "all hung up")

        net.play(body)


class TestTimeouts:
    def test_invalid_timeouts_rejected(self, net):
        for bad in (
            {"request_timeout_s": 0.0},
            {"connect_timeout_s": -1.0},
            {"idle_timeout_s": 0.0},
        ):
            with pytest.raises(ValueError, match="positive"):
                net.cls(**bad)

    def test_timeouts_are_plumbed_to_the_endpoint(self, net):
        def body(t):
            yield call(t.bind, "svc", lambda p: p)
            return t.idle_timeout_s, t._endpoints["svc"].idle_timeout_s

        # bind() inherits request_timeout_s as the idle timeout...
        assert net.play(body, request_timeout_s=42.0) == (42.0, 42.0)
        # ...unless one is given.
        assert net.play(body, request_timeout_s=5.0, idle_timeout_s=0.75) == (0.75, 0.75)

    def test_idle_connection_closed_after_configured_timeout(self, net):
        def body(t):
            yield call(t.bind, "svc", lambda p: p)
            addr = t._endpoints["svc"].address
            with socket.create_connection(addr, timeout=2.0) as sock:
                yield sleep(0.8)  # idle well past the 0.3 s budget
                assert sock.recv(1) == b""  # server closed the connection

        net.play(body, idle_timeout_s=0.3)

    def test_wedged_handler_surfaces_as_transport_error_and_meters_mirror(self, net):
        """A handler that never answers must not hang the caller — and
        the request frame did go out, so both sides count it."""

        def body(t):
            yield call(t.bind, "svc", wedged)
            with pytest.raises(TransportError, match="failed: timed out"):
                yield call(t.request, "cli", "svc", b"abc")
            cli, svc = t.meter("cli"), t.endpoint_meter("svc")
            assert (cli.messages_sent, cli.bytes_sent) == (1, 4 + 3)
            assert (svc.messages_received, svc.bytes_received) == (1, 4 + 3)
            assert cli.messages_received == 0
            assert len(t._parked) == 0  # a timed-out connection is dropped

        net.play(body, request_timeout_s=0.2)


class TestPersistentConnections:
    def test_same_peer_reuses_connection(self, net):
        def body(t):
            yield call(t.bind, "svc", lambda p: p)
            for _ in range(5):
                yield call(t.request, "cli", "svc", b"x")
            return t._endpoints["svc"].connections_served

        assert net.play(body) == 1

    def test_distinct_peers_get_distinct_connections(self, net):
        def body(t):
            yield call(t.bind, "svc", lambda p: p)
            for src in ("cli-a", "cli-b", "cli-a"):
                yield call(t.request, src, "svc", b"x")
            return t._endpoints["svc"].connections_served

        assert net.play(body) == 2

    def test_idle_closed_connection_is_reopened_and_counted_once(self, net):
        """The frame written into the connection the endpoint had already
        idle-closed is not metered; the retry's is."""

        def body(t):
            yield call(t.bind, "svc", lambda p: p)
            ep = t._endpoints["svc"]
            assert (yield call(t.request, "cli", "svc", b"1")) == b"1"
            yield from until(lambda: ep.open_connections == 0, "idle close")
            assert (yield call(t.request, "cli", "svc", b"22")) == b"22"
            assert ep.connections_served == 2
            assert t.meter("cli").messages_sent == 2
            yield from meters_mirror(t, ["cli"])

        net.play(body, idle_timeout_s=0.2)

    def test_rebind_does_not_inherit_a_parked_connection(self, net):
        def body(t):
            yield call(t.bind, "svc", lambda p: b"old:" + p)
            yield call(t.request, "cli", "svc", b"x")
            yield call(t.unbind, "svc")
            assert len(t._parked) == 0
            yield call(t.bind, "svc", lambda p: b"new:" + p)
            assert (yield call(t.request, "cli", "svc", b"x")) == b"new:x"
            assert t._endpoints["svc"].connections_served == 1

        net.play(body)


class TestMeterSymmetry:
    @pytest.mark.stress
    def test_contended_peers_keep_the_ledger_exact(self, net, monkeypatch):
        """Eight workers share three peer names, so requests of one peer
        overlap: each must get its own connection, the parked table must
        stay within its bound, and not one frame may go uncounted."""
        monkeypatch.setattr(tcp, "MAX_PARKED", 2)
        peers = ["peer0", "peer1", "peer2"]

        def worker(t, i):
            for n in range(150):
                payload = b"%d:%d" % (i, n)
                # A run of ten per peer: reuse, contention and eviction mix.
                reply = yield call(t.request, peers[(i + n // 10) % 3], "svc", payload)
                assert reply == payload[::-1]

        def body(t):
            yield call(t.bind, "svc", lambda p: p[::-1])
            ep = t._endpoints["svc"]
            yield together([worker(t, i) for i in range(8)])
            assert len(t._parked) <= 2
            assert 8 < ep.connections_served < 8 * 150  # some reused, some not
            assert sum(t.meter(p).messages_sent for p in peers) == 8 * 150
            yield from meters_mirror(t, peers)
            # Every connection not parked again was closed, not leaked.
            yield from until(
                lambda: ep.open_connections == len(t._parked), "extras closed"
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            net.play(body)
        finally:
            sys.setswitchinterval(interval)

    def test_client_and_endpoint_meters_mirror(self, net):
        def body(t):
            yield call(t.bind, "svc", lambda p: p + p)
            for payload in (b"", b"x", b"hello world"):
                yield call(t.request, "cli", "svc", payload)
            cli = t.meter("cli")
            # On-wire framing: 4-byte header + payload each way, the
            # reply's status byte included.
            assert (cli.messages_sent, cli.bytes_sent) == (3, 3 * 4 + 12)
            assert (cli.messages_received, cli.bytes_received) == (3, 3 * 5 + 24)
            yield from meters_mirror(t, ["cli"])

        net.play(body)

    def test_failed_connect_counts_nothing(self, net):
        def body(t):
            yield call(t.bind, "svc", lambda p: p)
            yield call(t._endpoints["svc"].close)  # kill listener, keep entry
            with pytest.raises(TransportError, match="exchange with endpoint 'svc'"):
                yield call(t.request, "cli", "svc", b"payload")
            meter = t.meter("cli")
            assert (meter.messages_sent, meter.bytes_sent) == (0, 0)
            assert (meter.messages_received, meter.bytes_received) == (0, 0)

        net.play(body)

    def test_handler_error_reply_is_metered_like_any_reply(self, net):
        def boom(_p):
            raise RuntimeError("server-side failure")

        def body(t):
            yield call(t.bind, "svc", boom)
            with pytest.raises(TransportError, match="server-side failure"):
                yield call(t.request, "cli", "svc", b"abc")
            assert t.meter("cli").messages_received == 1
            yield from meters_mirror(t, ["cli"])

        net.play(body)
