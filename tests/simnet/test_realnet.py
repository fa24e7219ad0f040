"""TCP loopback transport tests (real sockets)."""

import threading

import pytest

from repro.simnet.realnet import TcpTransport, recv_frame, send_frame
from repro.simnet.transport import TransportError


@pytest.fixture()
def transport():
    t = TcpTransport()
    yield t
    t.close()


class TestTcpTransport:
    def test_request_response(self, transport):
        transport.bind("echo", lambda p: b"re:" + p)
        assert transport.request("cli", "echo", b"hello") == b"re:hello"

    def test_large_frame(self, transport):
        transport.bind("big", lambda p: p * 2)
        payload = bytes(range(256)) * 2048  # 512 KiB
        assert transport.request("cli", "big", payload) == payload * 2

    def test_handler_exception_surfaces_as_transport_error(self, transport):
        def boom(_p):
            raise RuntimeError("server-side failure")

        transport.bind("boom", boom)
        with pytest.raises(TransportError, match="server-side failure"):
            transport.request("cli", "boom", b"")

    def test_unknown_endpoint(self, transport):
        with pytest.raises(TransportError, match="no handler"):
            transport.request("cli", "ghost", b"")

    def test_unbind_stops_service(self, transport):
        transport.bind("tmp", lambda p: p)
        transport.unbind("tmp")
        with pytest.raises(TransportError):
            transport.request("cli", "tmp", b"")

    def test_concurrent_clients(self, transport):
        transport.bind("sum", lambda p: bytes([sum(p) % 256]))
        results = {}

        def worker(i):
            results[i] = transport.request(f"cli{i}", "sum", bytes([i, i]))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(8):
            assert results[i] == bytes([(2 * i) % 256])

    def test_meters_count_frames(self, transport):
        transport.bind("svc", lambda p: b"xyz")
        transport.request("cli", "svc", b"ab")
        # On-wire accounting: 4-byte length header + payload.
        assert transport.meter("cli").bytes_sent == 4 + 2
        # Response frame: header + 1-byte status prefix + 3 body bytes.
        assert transport.meter("cli").bytes_received == 4 + 4

    def test_meter_accounting_is_symmetric(self, transport):
        """Client-side and endpoint-side meters must mirror each other."""
        import time

        transport.bind("svc", lambda p: p + p)
        for payload in (b"", b"x", b"hello world"):
            transport.request("cli", "svc", payload)
        cli = transport.meter("cli")
        # The endpoint worker records its send just after the bytes hit
        # the socket, so the client can observe one GIL switch early —
        # give the worker thread a bounded moment to settle.
        deadline = time.perf_counter() + 2.0
        while (
            transport.endpoint_meter("svc").bytes_sent != cli.bytes_received
            and time.perf_counter() < deadline
        ):
            time.sleep(0.001)
        svc = transport.endpoint_meter("svc")
        assert cli.bytes_sent == svc.bytes_received
        assert cli.bytes_received == svc.bytes_sent
        assert cli.messages_sent == svc.messages_received == 3

    def test_failed_connect_counts_nothing(self, transport):
        """Regression: a refused connection must not record sent bytes."""
        transport.bind("svc", lambda p: p)
        # Kill the endpoint's listener; the transport still knows the
        # address, so the next request dies on connect.
        transport._endpoints["svc"].close()
        with pytest.raises(TransportError):
            transport.request("cli", "svc", b"payload")
        meter = transport.meter("cli")
        assert meter.bytes_sent == 0
        assert meter.messages_sent == 0
        assert meter.bytes_received == 0
        assert meter.messages_received == 0

    def test_context_manager_closes(self):
        with TcpTransport() as t:
            t.bind("svc", lambda p: p)
            assert t.request("c", "svc", b"ok") == b"ok"
        assert t.endpoints() == []


class TestWorkerReaping:
    def test_worker_threads_stay_bounded(self, transport):
        """Regression: 100 short-lived connections must not leave 100
        worker threads queued for join at close."""
        import socket
        import time

        transport.bind("svc", lambda p: p)
        ep = transport._endpoints["svc"]
        # Raw one-shot connections: the transport's own client would keep
        # one connection (and so one worker) for all hundred requests.
        for i in range(100):
            with socket.create_connection(ep.address, timeout=2.0) as sock:
                send_frame(sock, b"%d" % i)
                assert recv_frame(sock) == b"\x01%d" % i
        # Workers exit as soon as their connection closes; the accept
        # loop reaps them on its next iteration (<= 0.1s accept timeout).
        deadline = time.monotonic() + 3.0
        while ep.worker_count > 4 and time.monotonic() < deadline:
            time.sleep(0.02)
        assert ep.worker_count <= 4


class TestTimeouts:
    def test_invalid_timeouts_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            TcpTransport(request_timeout_s=0.0)
        with pytest.raises(ValueError, match="positive"):
            TcpTransport(connect_timeout_s=-1.0)

    def test_timeouts_are_configurable(self):
        with TcpTransport(connect_timeout_s=1.5, request_timeout_s=2.5) as t:
            assert t.connect_timeout_s == 1.5
            assert t.request_timeout_s == 2.5

    def test_invalid_idle_timeout_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            TcpTransport(idle_timeout_s=0.0)

    def test_bind_inherits_request_timeout_as_idle_timeout(self):
        """Regression: bind() used to hard-code idle_timeout_s=5.0, so a
        transport with long request timeouts hung up on its clients."""
        with TcpTransport(request_timeout_s=42.0) as t:
            t.bind("svc", lambda p: p)
            assert t.idle_timeout_s == 42.0
            assert t._endpoints["svc"].idle_timeout_s == 42.0

    def test_explicit_idle_timeout_plumbed_to_endpoint(self):
        with TcpTransport(request_timeout_s=5.0, idle_timeout_s=0.75) as t:
            t.bind("svc", lambda p: p)
            assert t._endpoints["svc"].idle_timeout_s == 0.75

    def test_idle_connection_closed_after_configured_timeout(self):
        """The server hangs up an idle connection at ~idle_timeout_s."""
        import socket
        import time

        with TcpTransport(idle_timeout_s=0.3) as t:
            t.bind("svc", lambda p: p)
            addr = t._endpoints["svc"].address
            with socket.create_connection(addr, timeout=2.0) as sock:
                time.sleep(0.8)  # idle well past the 0.3s budget
                sock.settimeout(2.0)
                assert sock.recv(1) == b""  # server closed the connection

    def test_wedged_handler_surfaces_as_transport_error(self):
        """A handler that never answers must not hang the caller."""
        import time

        release = threading.Event()

        def wedged(_p):
            release.wait(5.0)
            return b"too late"

        with TcpTransport(request_timeout_s=0.2) as t:
            t.bind("wedged", wedged)
            t0 = time.monotonic()
            with pytest.raises(TransportError, match="timed out"):
                t.request("cli", "wedged", b"x")
            assert time.monotonic() - t0 < 2.0
            release.set()


class TestConnectionCap:
    def test_invalid_max_conns_rejected(self):
        with pytest.raises(ValueError):
            TcpTransport(max_conns=0)

    def test_over_cap_connection_is_shed_with_typed_overload_error(self):
        """The cap sheds with a framed error, not a silent drop."""
        import time

        entered = threading.Event()
        release = threading.Event()

        def slow(p):
            entered.set()
            release.wait(5.0)
            return p

        with TcpTransport(max_conns=1, request_timeout_s=5.0) as t:
            t.bind("svc", slow)
            holder = threading.Thread(
                target=lambda: t.request("cli0", "svc", b"hold"), daemon=True
            )
            holder.start()
            assert entered.wait(2.0)  # the one worker slot is now taken
            try:
                with pytest.raises(TransportError, match="overloaded"):
                    t.request("cli1", "svc", b"rejected")
                endpoint = t._endpoints["svc"]
                assert endpoint.conns_shed == 1
                # Meter symmetry survives the shed: the rejected request
                # frame is recorded received and the rejection recorded
                # sent (the holder's reply isn't out yet, so sent == 1).
                assert endpoint.meter.messages_received == 2
                # Recorded just after the bytes left: settle, as above.
                deadline = time.monotonic() + 2.0
                while endpoint.meter.messages_sent != 1 and time.monotonic() < deadline:
                    time.sleep(0.001)
                assert endpoint.meter.messages_sent == 1
            finally:
                release.set()
                holder.join(timeout=5.0)

    def test_shed_slot_is_reusable_after_the_holder_finishes(self):
        with TcpTransport(max_conns=1) as t:
            t.bind("echo", lambda p: p)
            # Sequential requests of one peer reuse its one connection, so
            # a cap of one never sheds a well-behaved client.
            for i in range(3):
                assert t.request("cli", "echo", b"x%d" % i) == b"x%d" % i
            assert t._endpoints["echo"].conns_shed == 0
            assert t._endpoints["echo"].connections_served == 1
