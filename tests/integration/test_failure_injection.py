"""Failure injection: the system must fail loudly and recover cleanly."""

import pytest

from repro.core import inp
from repro.core.errors import ProtocolMismatchError
from repro.core.inp import INPMessage, MsgType
from repro.core.system import APP_ID, build_case_study
from repro.simnet.transport import TransportError
from repro.workload.profiles import DESKTOP_LAN, PDA_BLUETOOTH


@pytest.fixture()
def system(small_corpus):
    return build_case_study(corpus=small_corpus, calibrate=False)


class TestTransportFailures:
    def test_proxy_endpoint_down(self, system):
        client = system.make_client(DESKTOP_LAN)
        system.transport.unbind("proxy")
        with pytest.raises(TransportError):
            client.negotiate(APP_ID)

    def test_appserver_down_after_negotiation(self, system):
        client = system.make_client(DESKTOP_LAN)
        client.negotiate(APP_ID)
        system.transport.unbind("appserver")
        with pytest.raises(TransportError):
            client.request_page(APP_ID, 0, new_version=0)

    def test_garbage_from_proxy_detected(self, system):
        client = system.make_client(DESKTOP_LAN)
        system.transport.unbind("proxy")
        system.transport.bind("proxy", lambda p: b"\xff\xfegarbage")
        with pytest.raises(ProtocolMismatchError):
            client.negotiate(APP_ID)

    def test_wrong_message_type_from_proxy_detected(self, system):
        client = system.make_client(DESKTOP_LAN)

        def weird_proxy(payload: bytes) -> bytes:
            msg = inp.decode(payload)
            return inp.encode(msg.reply(MsgType.APP_REP, {}))

        system.transport.unbind("proxy")
        system.transport.bind("proxy", weird_proxy)
        with pytest.raises(ProtocolMismatchError, match="expected INIT_REP"):
            client.negotiate(APP_ID)


class TestCdnFailures:
    def test_all_edges_cold_and_origin_empty(self, system):
        """A CDN that lost every object: deploy fails after retry."""
        client = system.make_client(PDA_BLUETOOTH)
        for key in list(system.deployment.origin.keys()):
            system.deployment.origin.withdraw(key)
        for edge in system.deployment.edges:
            edge.cache.clear()
        from repro.mobilecode import MobileCodeError

        with pytest.raises(MobileCodeError, match="download"):
            client.request_page(APP_ID, 0, new_version=0)

    def test_edge_cache_repopulates_after_clear(self, system):
        client = system.make_client(DESKTOP_LAN)
        for edge in system.deployment.edges:
            edge.cache.clear()
        result = client.request_page(APP_ID, 0, new_version=0)
        page = system.corpus.evolved(0, 0)
        assert result.parts == [page.text, *page.images]
        # Pull-through repopulated at least one edge.
        assert any(e.origin_fetches > 0 for e in system.deployment.edges)


class TestTamperedPADs:
    def test_tampered_origin_blob_never_deploys(self, system):
        """Corrupt the signed PAD at the origin: the client must reject it
        with a typed error and keep its sandbox empty."""
        from repro.mobilecode import MobileCodeError, SigningError

        client = system.make_client(PDA_BLUETOOTH)
        origin = system.deployment.origin
        for key in list(origin.keys()):
            blob = bytearray(origin.fetch(key))
            blob[len(blob) // 2] ^= 0xFF
            origin.publish(key, bytes(blob))
        for edge in system.deployment.edges:
            edge.cache.clear()
        with pytest.raises((MobileCodeError, SigningError)):
            client.request_page(APP_ID, 0, new_version=0)
        assert client.loader.loaded == {}

    def test_wrong_object_served_fails_digest_not_signature(self, system):
        """Swap two validly-signed objects at the origin: signatures hold,
        the negotiated digest check must still refuse to deploy."""
        from repro.mobilecode import MobileCodeError, SigningError

        client = system.make_client(PDA_BLUETOOTH)
        origin = system.deployment.origin
        keys = origin.keys()
        assert len(keys) >= 2
        a, b = keys[0], keys[1]
        blob_a, blob_b = origin.fetch(a), origin.fetch(b)
        origin.publish(a, blob_b)
        origin.publish(b, blob_a)
        for edge in system.deployment.edges:
            edge.cache.clear()
        with pytest.raises(MobileCodeError) as err:
            client.request_page(APP_ID, 0, new_version=0)
        assert not isinstance(err.value, SigningError)
        assert client.loader.loaded == {}


class TestServerSideFailures:
    def test_bad_page_id_travels_back_as_inp_error(self, system):
        client = system.make_client(DESKTOP_LAN)
        with pytest.raises(ProtocolMismatchError):
            client.request_page(APP_ID, 999, new_version=0)

    def test_client_survives_error_and_retries_good_request(self, system):
        client = system.make_client(DESKTOP_LAN)
        with pytest.raises(ProtocolMismatchError):
            client.request_page(APP_ID, 999, new_version=0)
        result = client.request_page(APP_ID, 0, new_version=0)
        page = system.corpus.evolved(0, 0)
        assert result.parts == [page.text, *page.images]

    def test_negative_version_rejected_server_side(self, system):
        client = system.make_client(DESKTOP_LAN)
        with pytest.raises(ProtocolMismatchError):
            client.request_page(APP_ID, 0, new_version=-3)


class TestCorruptPayloads:
    def test_corrupted_app_response_detected_by_protocol(self, system):
        """Flip bytes in the APP_REP payloads: the negotiated protocol's
        own integrity checks (or reconstruction) must catch it."""
        client = system.make_client(PDA_BLUETOOTH)
        client.negotiate(APP_ID)
        original_handler = system.appserver.handle

        def corrupting(payload: bytes) -> bytes:
            response = original_handler(payload)
            msg = inp.decode(response)
            if msg.msg_type is MsgType.APP_REP:
                parts = msg.body["part_responses"]
                blob = bytearray(parts[0])
                if len(blob) > 10:
                    blob[5] ^= 0xFF
                    blob[-1] ^= 0xFF
                parts[0] = bytes(blob)
            # Re-encoded, so the frame's CRC is valid: only the protocol
            # can notice.
            return inp.encode(msg)

        system.transport.unbind("appserver")
        system.transport.bind("appserver", corrupting)
        from repro.protocols import ProtocolError

        old = system.corpus.evolved(0, 0)
        with pytest.raises((ProtocolError, ProtocolMismatchError, AssertionError)):
            result = client.request_page(
                APP_ID, 0,
                old_parts=[old.text, *old.images], old_version=0, new_version=1,
            )
            new = system.corpus.evolved(0, 1)
            assert result.parts == [new.text, *new.images]
