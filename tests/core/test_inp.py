"""Interactive Negotiation Protocol codec tests."""

import json
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ProtocolMismatchError
from repro.core.inp import (
    INP_VERSION,
    MAX_ATTACHMENTS,
    INPMessage,
    MsgType,
    attachments,
    b64d,
    b64e,
    decode,
    encode,
    error_reply,
)


@pytest.fixture()
def msg():
    return INPMessage(MsgType.INIT_REQ, "sess-1", 0, {"app_id": "demo"})


class TestCodec:
    def test_roundtrip(self, msg):
        assert decode(encode(msg)) == msg

    def test_all_message_types_roundtrip(self):
        for mt in MsgType:
            m = INPMessage(mt, "s", 3, {"k": [1, 2]})
            assert decode(encode(m)).msg_type is mt

    def test_header_fields_preserved(self, msg):
        back = decode(encode(msg))
        assert back.session_id == "sess-1"
        assert back.seq == 0
        assert back.version == INP_VERSION

    def test_undecodable_packet(self):
        with pytest.raises(ProtocolMismatchError, match="undecodable"):
            decode(b"\xff\xfe")

    def test_non_object_packet(self):
        with pytest.raises(ProtocolMismatchError):
            decode(b"[1,2,3]")

    def test_wrong_version_rejected(self, msg):
        blob = encode(msg).replace(b'"inp":1', b'"inp":9')
        with pytest.raises(ProtocolMismatchError, match="version"):
            decode(blob)

    def test_unknown_type_rejected(self, msg):
        blob = encode(msg).replace(b"INIT_REQ", b"BOGUS_MSG")
        with pytest.raises(ProtocolMismatchError, match="message type"):
            decode(blob)

    def test_malformed_header_rejected(self, msg):
        blob = encode(msg).replace(b'"seq":0', b'"seq":"zero"')
        with pytest.raises(ProtocolMismatchError, match="header"):
            decode(blob)

    def test_malformed_body_rejected(self, msg):
        blob = encode(msg).replace(b'"body":{"app_id":"demo"}', b'"body":[]')
        with pytest.raises(ProtocolMismatchError, match="body"):
            decode(blob)


class TestFrozenFrames:
    """Attachment-free frames, byte for byte as the pre-attachment codec
    wrote them (vectors recorded from that codec)."""

    def test_init_req(self, msg):
        assert encode(msg) == (
            b'{"inp":1,"type":"INIT_REQ","session":"sess-1","seq":0,'
            b'"body":{"app_id":"demo"}}'
        )

    def test_inp_error(self):
        req = INPMessage(MsgType.APP_REQ, "c\u00e9-7", 4, {})
        assert encode(error_reply(req, "overloaded: retry")) == (
            b'{"inp":1,"type":"INP_ERROR","session":"c\\u00e9-7","seq":5,'
            b'"body":{"error":"overloaded: retry"}}'
        )

    def test_deadline_key_follows_body(self):
        body = {"dev": {"cpu_mhz": 206.5, "os": None}, "ok": True, "l": [1, "a", []]}
        m = INPMessage(MsgType.CLI_META_REP, "s", 2, body).with_deadline(1500.0)
        assert encode(m) == (
            b'{"inp":1,"type":"CLI_META_REP","session":"s","seq":2,'
            b'"body":{"dev":{"cpu_mhz":206.5,"os":null},"ok":true,"l":[1,"a",[]]},'
            b'"dl":1500.0}'
        )


def app_rep(parts, **extra):
    return INPMessage(MsgType.APP_REP, "c-1", 1, {"part_responses": parts, **extra})


def frame(envelope: dict, tail: bytes | None) -> bytes:
    """A hand-built frame: what a hostile or broken peer could send."""
    head = json.dumps(envelope, separators=(",", ":")).encode()
    return head if tail is None else head + b"\x00" + tail


def envelope(body: dict, att: dict | None) -> dict:
    env = {"inp": 1, "type": "APP_REP", "session": "c-1", "seq": 1, "body": body}
    if att is not None:
        env["att"] = att
    return env


class TestAttachments:
    def test_frame_layout(self):
        blob = encode(app_rep([b"ab", b"", b"\x00\xff"], page_id=3))
        head, _, tail = blob.partition(b"\x00")
        assert tail == b"ab\x00\xff"
        assert json.loads(head) == envelope(
            {"part_responses": [2, 0, 2], "page_id": 3},
            {"crc": zlib.crc32(tail), "keys": ["part_responses"]},
        )

    def test_all_byte_values_roundtrip(self):
        m = app_rep([bytes(range(256)), bytes(reversed(range(256)))])
        assert decode(encode(m)) == m

    def test_empty_parts_roundtrip(self):
        m = app_rep([b"", b"", b""])
        blob = encode(m)
        assert blob.endswith(b"\x00")  # delimiter kept, tail empty
        assert decode(blob) == m

    def test_zero_parts_is_a_plain_json_list(self):
        m = app_rep([])
        assert b"\x00" not in encode(m)
        assert decode(encode(m)) == m

    def test_several_lists_share_one_tail(self):
        m = INPMessage(
            MsgType.APP_REQ, "s", 0, {"a": [b"xy", b"z"], "n": [1, 2], "b": [b"\x00"]}
        )
        assert encode(m).endswith(b"\x00xyz\x00")
        assert decode(encode(m)) == m

    def test_nul_character_in_strings_is_escaped(self):
        m = INPMessage(
            MsgType.APP_REQ, "s\u0000id", 0, {"note": "a\u0000b", "parts": [b"\x00p"]}
        )
        blob = encode(m)
        assert blob.index(b"\x00") == len(blob) - 3  # the delimiter is the first NUL
        assert decode(blob) == m
        plain = INPMessage(MsgType.INIT_REQ, "s\u0000id", 0, {"note": "a\u0000b"})
        assert b"\x00" not in encode(plain)
        assert decode(encode(plain)) == plain

    def test_deadline_and_attachments_together(self):
        m = app_rep([b"abc"]).with_deadline(250.0)
        assert b'"dl":250.0,"att":' in encode(m)
        assert decode(encode(m)) == m

    def test_encode_leaves_the_message_body_alone(self):
        parts = [b"abc", b"de"]
        m = app_rep(parts)
        encode(m)
        assert m.body["part_responses"] is parts and parts == [b"abc", b"de"]

    @pytest.mark.parametrize("parts", [[b"a", "b"], [b"a", 1], ["a", b"b"], [1, b"b"]])
    def test_encode_rejects_mixed_lists(self, parts):
        with pytest.raises(TypeError):
            encode(app_rep(parts))

    def test_attachments_accessor(self):
        body = decode(encode(app_rep([b"a", b""]))).body
        assert attachments(body, "part_responses") == [b"a", b""]
        assert attachments({"k": []}, "k") == []
        for bad in ({}, {"k": "ab"}, {"k": ["YQ=="]}, {"k": [b"a", 1]}, {"k": None}):
            with pytest.raises(ProtocolMismatchError, match="attachment list"):
                attachments(bad, "k")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=8,
)


class TestRoundtripProperty:
    @given(
        session=st.text(),
        seq=st.integers(min_value=0),
        body=st.dictionaries(st.text(), json_values | st.lists(st.binary())),
        deadline=st.none() | st.floats(min_value=0, allow_infinity=False),
    )
    def test_decode_inverts_encode(self, session, seq, body, deadline):
        m = INPMessage(MsgType.APP_REQ, session, seq, body, deadline_ms=deadline)
        assert decode(encode(m)) == m


class TestIntegrity:
    def test_every_single_byte_flip_is_rejected(self):
        """What ``FaultInjector.corrupt`` does, at every position: JSON,
        index, checksum, delimiter and tail."""
        blob = encode(app_rep([b"hello\x00world", b"", b"\xff\x00 {}"], page_id=1))
        assert decode(blob)
        for pos in range(len(blob)):
            bad = bytearray(blob)
            bad[pos] ^= 0xFF
            with pytest.raises(ProtocolMismatchError):
                decode(bytes(bad))

    def test_every_other_value_outside_the_json_is_rejected(self):
        """The raw region has no parser behind it: any change of the
        delimiter or of a tail byte, not only an inversion, must fail."""
        blob = encode(app_rep([b" \x00\n", b"\t"]))
        for pos in range(blob.index(b"\x00"), len(blob)):
            for value in range(256):
                if value == blob[pos]:
                    continue
                bad = bytearray(blob)
                bad[pos] = value
                with pytest.raises(ProtocolMismatchError):
                    decode(bytes(bad))

    def test_every_truncation_is_rejected(self):
        blob = encode(app_rep([b"abc", b"defg"]))
        for n in range(len(blob)):
            with pytest.raises(ProtocolMismatchError):
                decode(blob[:n])

    def test_trailing_bytes_rejected(self):
        blob = encode(app_rep([b"abc"]))
        with pytest.raises(ProtocolMismatchError):
            decode(blob + b"\x00")


class TestStrictDecode:
    """One case per rule; each frame carries a valid CRC so the rule
    under test is the one that fires."""

    def reject(self, body, att, tail, match):
        with pytest.raises(ProtocolMismatchError, match=match):
            decode(frame(envelope(body, att), tail))

    def att(self, tail, keys=("p",)):
        return {"crc": zlib.crc32(tail), "keys": list(keys)}

    def test_well_formed_hand_built_frame_decodes(self):
        got = decode(frame(envelope({"p": [1, 2]}, self.att(b"abc")), b"abc"))
        assert got.body == {"p": [b"a", b"bc"]}

    def test_index_without_tail(self):
        self.reject({"p": [0]}, self.att(b""), None, "come together")

    def test_tail_without_index(self):
        self.reject({"p": [3]}, None, b"abc", "come together")
        self.reject({}, None, b"", "come together")

    @pytest.mark.parametrize("length", [-1, 1.0, True, "1", None, [1]])
    def test_length_must_be_a_non_negative_int(self, length):
        self.reject({"p": [length]}, self.att(b"a"), b"a", "attachment length")

    def test_lengths_short_of_the_tail(self):
        self.reject({"p": [1, 1]}, self.att(b"abc"), b"abc", "cover 2 bytes of a 3-byte")

    def test_lengths_past_the_tail(self):
        self.reject({"p": [1, 10**30]}, self.att(b"abc"), b"abc", "3-byte tail")

    def test_count_is_bounded(self):
        self.reject(
            {"p": [0] * (MAX_ATTACHMENTS + 1)}, self.att(b""), b"", "more than"
        )
        half = [0] * (MAX_ATTACHMENTS // 2 + 1)
        self.reject(
            {"p": half, "q": half}, self.att(b"", keys=("p", "q")), b"", "more than"
        )
        ok = decode(frame(envelope({"p": [0] * MAX_ATTACHMENTS}, self.att(b"")), b""))
        assert ok.body["p"] == [b""] * MAX_ATTACHMENTS

    def test_checksum_mismatch(self):
        att = {"crc": zlib.crc32(b"abc") ^ 1, "keys": ["p"]}
        self.reject({"p": [3]}, att, b"abc", "checksum")

    @pytest.mark.parametrize(
        "att",
        [
            [],
            "crc",
            {},
            {"crc": 0},
            {"keys": ["p"]},
            {"crc": 0.0, "keys": ["p"]},
            {"crc": False, "keys": ["p"]},
            {"crc": 0, "keys": []},
            {"crc": 0, "keys": "p"},
        ],
    )
    def test_malformed_index(self, att):
        self.reject({"p": [0]}, att, b"", "attachment index")

    @pytest.mark.parametrize("key", ["missing", "scalar", 7, ["p"], None])
    def test_key_must_name_a_length_list(self, key):
        self.reject(
            {"p": [0], "scalar": 0}, {"crc": 0, "keys": [key]}, b"", "no length list"
        )

    def test_key_named_twice(self):
        self.reject({"p": [1]}, self.att(b"aa", keys=("p", "p")), b"aa", "length")


class TestMessageHelpers:
    def test_reply_increments_seq_same_session(self, msg):
        rep = msg.reply(MsgType.INIT_REP, {"ok": True})
        assert rep.session_id == msg.session_id
        assert rep.seq == msg.seq + 1
        assert rep.msg_type is MsgType.INIT_REP

    def test_expect_passes_matching_type(self, msg):
        assert msg.expect(MsgType.INIT_REQ) is msg

    def test_expect_raises_on_mismatch(self, msg):
        with pytest.raises(ProtocolMismatchError, match="expected"):
            msg.expect(MsgType.APP_REP)

    def test_expect_surfaces_peer_error(self, msg):
        err = error_reply(msg, "negotiation exploded")
        with pytest.raises(ProtocolMismatchError, match="negotiation exploded"):
            err.expect(MsgType.INIT_REP)

    def test_error_reply_carries_text(self, msg):
        err = error_reply(msg, "boom")
        assert err.msg_type is MsgType.INP_ERROR
        assert err.body["error"] == "boom"


class TestBase64:
    def test_roundtrip(self):
        data = bytes(range(256))
        assert b64d(b64e(data)) == data

    def test_invalid_base64_rejected(self):
        with pytest.raises(ProtocolMismatchError):
            b64d("!!!not-base64!!!")
