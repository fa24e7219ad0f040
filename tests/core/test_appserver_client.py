"""Application server and Fractal client tests (wired via the system builder)."""

import asyncio

import pytest

from repro.core import inp
from repro.core.errors import NegotiationError
from repro.core.kernelpool import KernelPoolError
from repro.core.inp import INPMessage, MsgType
from repro.core.system import APP_ID, build_case_study
from repro.workload.profiles import DESKTOP_LAN, LAPTOP_WLAN, PAPER_ENVIRONMENTS


@pytest.fixture(scope="module")
def system(small_corpus):
    return build_case_study(corpus=small_corpus, calibrate=False)


def page_parts(corpus, page_id, version):
    page = corpus.evolved(page_id, version)
    return [page.text, *page.images]


class TestApplicationServer:
    def test_app_meta_lists_all_pads(self, system):
        meta = system.appserver.app_meta()
        assert [p.pad_id for p in meta.pads] == ["direct", "gzip", "vary", "bitmap"]

    def test_publish_registers_cdn_objects(self, system):
        keys = system.deployment.origin.keys()
        assert any(k.startswith("gzip/") for k in keys)
        assert any(k.startswith("vary/") for k in keys)

    def test_duplicate_deploy_rejected(self, system):
        from repro.core.metadata import PADMeta, PADOverhead

        with pytest.raises(NegotiationError, match="already deployed"):
            system.appserver.deploy_pad(
                PADMeta("direct", 0, PADOverhead(0, 0, 0))
            )

    def test_app_req_roundtrip_via_handler(self, system):
        old = page_parts(system.corpus, 0, 0)
        body = {
            "pad_ids": ["direct"],
            "page_id": 0,
            "old_version": 0,
            "new_version": 1,
            "part_requests": [b""] * len(old),
        }
        msg = INPMessage(MsgType.APP_REQ, "t1", 0, body)
        rep = inp.decode(system.appserver.handle(inp.encode(msg)))
        rep.expect(MsgType.APP_REP)
        assert rep.body["part_responses"] == page_parts(system.corpus, 0, 1)

    def test_unknown_pad_in_app_req_errors(self, system):
        body = {
            "pad_ids": ["quantum"],
            "page_id": 0,
            "old_version": -1,
            "new_version": 0,
            "part_requests": [b""] * 5,
        }
        msg = INPMessage(MsgType.APP_REQ, "t2", 0, body)
        rep = inp.decode(system.appserver.handle(inp.encode(msg)))
        assert rep.msg_type is MsgType.INP_ERROR

    def test_wrong_part_count_errors(self, system):
        body = {
            "pad_ids": ["direct"],
            "page_id": 0,
            "old_version": -1,
            "new_version": 0,
            "part_requests": [b""],  # page has 5 parts
        }
        msg = INPMessage(MsgType.APP_REQ, "t3", 0, body)
        rep = inp.decode(system.appserver.handle(inp.encode(msg)))
        assert rep.msg_type is MsgType.INP_ERROR

    def test_non_app_req_rejected(self, system):
        msg = INPMessage(MsgType.INIT_REQ, "t4", 0, {})
        rep = inp.decode(system.appserver.handle(inp.encode(msg)))
        assert rep.msg_type is MsgType.INP_ERROR

    @pytest.mark.parametrize("on_loop", [False, True], ids=["handle", "handle_async"])
    def test_poison_kernel_is_a_typed_inp_error(self, small_corpus, on_loop):
        """A kernel the attached pool gives up on must come back as an
        INP_ERROR frame, not escape the transport as a raw exception."""

        class PoisonedPool:
            def run(self, task, *args, shard_key=None):
                raise KernelPoolError(f"kernel {task!r} crashed two workers in a row")

            async def run_async(self, task, *args, shard_key=None):
                self.run(task)

        fresh = build_case_study(corpus=small_corpus, calibrate=False)
        fresh.appserver.kernel_pool = PoisonedPool()
        body = {
            "pad_ids": ["gzip"],
            "page_id": 0,
            "old_version": -1,
            "new_version": 0,
            "part_requests": [b""] * len(page_parts(small_corpus, 0, 0)),
        }
        frame = inp.encode(INPMessage(MsgType.APP_REQ, "poison", 0, body))
        if on_loop:
            reply = asyncio.run(fresh.appserver.handle_async(frame))
        else:
            reply = fresh.transport.request("c", "appserver", frame)
        rep = inp.decode(reply)
        assert rep.msg_type is MsgType.INP_ERROR
        assert rep.session_id == "poison"
        assert "'stack.respond' crashed two workers" in rep.body["error"]

    def test_precompute_then_serve_skips_encoding(self, small_corpus):
        system = build_case_study(corpus=small_corpus, calibrate=False,
                                  proactive=True)
        n = system.appserver.precompute(["gzip"], 0, 0, 1)
        assert n == 5  # text + 4 images
        old = page_parts(system.corpus, 0, 0)
        body = {
            "pad_ids": ["gzip"],
            "page_id": 0,
            "old_version": 0,
            "new_version": 1,
            "part_requests": [b""] * len(old),
        }
        msg = INPMessage(MsgType.APP_REQ, "t5", 0, body)
        rep = inp.decode(system.appserver.handle(inp.encode(msg)))
        rep.expect(MsgType.APP_REP)
        assert system.appserver.stats.precompute_hits == 5


class TestFractalClient:
    def test_full_page_retrieval(self, system):
        client = system.make_client(DESKTOP_LAN)
        old = page_parts(system.corpus, 0, 0)
        result = client.request_page(
            APP_ID, 0, old_parts=old, old_version=0, new_version=1
        )
        assert result.parts == page_parts(system.corpus, 0, 1)
        assert result.app_traffic_bytes > 0
        assert result.pad_download_bytes > 0

    def test_first_contact_without_old_version(self, system):
        client = system.make_client(DESKTOP_LAN)
        result = client.request_page(APP_ID, 1, new_version=0)
        assert result.parts == page_parts(system.corpus, 1, 0)

    def test_protocol_cache_skips_proxy(self, system):
        client = system.make_client(LAPTOP_WLAN)
        client.request_page(APP_ID, 0, new_version=0)
        before = system.proxy.stats.negotiations
        result = client.request_page(APP_ID, 1, new_version=0)
        assert result.negotiated_from_cache
        assert system.proxy.stats.negotiations == before

    def test_environment_change_renegotiates(self, system):
        client = system.make_client(DESKTOP_LAN)
        client.request_page(APP_ID, 0, new_version=0)
        n1 = client.negotiations
        client.set_environment(LAPTOP_WLAN)
        client.request_page(APP_ID, 0, new_version=0)
        assert client.negotiations == n1 + 1

    def test_returning_to_old_environment_uses_cache(self, system):
        client = system.make_client(DESKTOP_LAN)
        client.request_page(APP_ID, 0, new_version=0)
        client.set_environment(LAPTOP_WLAN)
        client.request_page(APP_ID, 0, new_version=0)
        client.set_environment(DESKTOP_LAN)
        hits = client.protocol_cache_hits
        client.request_page(APP_ID, 0, new_version=0)
        assert client.protocol_cache_hits == hits + 1

    def test_pad_downloaded_once_per_environment(self, system):
        client = system.make_client(DESKTOP_LAN)
        r1 = client.request_page(APP_ID, 0, new_version=0)
        r2 = client.request_page(APP_ID, 1, new_version=0)
        assert r1.pad_download_bytes > 0
        assert r2.pad_download_bytes == 0  # stack already deployed

    def test_probe_reflects_environment(self, system):
        client = system.make_client(PAPER_ENVIRONMENTS[2])
        dev = client.probe_dev_meta()
        ntwk = client.probe_ntwk_meta()
        assert dev.cpu_type == "PXA255"
        assert ntwk.network_type == "Bluetooth"

    def test_unknown_app_raises(self, system):
        client = system.make_client(DESKTOP_LAN)
        from repro.core.errors import ProtocolMismatchError

        with pytest.raises(ProtocolMismatchError):
            client.negotiate("no-such-app")
