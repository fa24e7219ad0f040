"""The Interactive Negotiation Protocol (INP), Fig. 4.

Message types::

    INIT_REQ           client -> proxy      application request
    INIT_REP           proxy  -> client     ack, carries CLI_META_REQ
    CLI_META_REQ       proxy  -> client     empty DevMeta/NtwkMeta to fill
    CLI_META_REP       client -> proxy      filled DevMeta/NtwkMeta
    PAD_META_REP       proxy  -> client     negotiated PADMeta list
    PAD_DOWNLOAD_REQ   client -> CDN        PAD ID (+ URL key)
    PAD_DOWNLOAD_REP   CDN    -> client     signed mobile-code blob
    APP_REQ            client -> appserver  app request + negotiated PAD ids
    APP_REP            appserver -> client  adapted content
    INP_ERROR          any    -> any        failure report

Every packet carries an INP header (protocol version, message type,
session id, sequence number) for protocol integrity; the body is a JSON
object.  The codec is deliberately self-describing so it can cross the
real TCP transport unchanged.

Frame grammar::

    frame    = envelope [ NUL tail ]
    envelope = compact ASCII JSON object, keys in this order:
               "inp" "type" "session" "seq" "body" ["dl"] ["att"]
    att      = {"crc": crc32(tail), "keys": [body key, ...]}
    tail     = every attachment's raw bytes, in "keys" order then list order

A body value that is a non-empty list of ``bytes`` (the ``part_requests``
/ ``part_responses`` of the application exchange) travels as an
*attachment list*: in the JSON its place is taken by the list of part
lengths, ``att.keys`` names the body keys so replaced, and the parts
themselves follow one ``0x00`` delimiter, unarmored.  The JSON is pure
ASCII with control characters escaped, so the first NUL of a frame is
always the delimiter.  Callers hand the codec ``bytes`` and get ``bytes``
back; how they travel is this module's business alone.  A frame whose
body holds no ``bytes`` has no ``att`` key, no delimiter and no tail —
byte for byte the frame every earlier version wrote.

Integrity: an inverted byte (``FaultInjector.corrupt``) inside the
envelope leaves invalid UTF-8, and the tail — which no JSON parser
vouches for — is covered by the CRC-32, so :func:`decode` rejects any
single corrupted byte of a frame.  Decoding is strict: the lengths are non-negative ints, at most
``MAX_ATTACHMENTS`` of them, summing to exactly the tail's length; an
index without a tail, or a tail without an index, is a protocol error.

Requests may additionally carry a deadline in the optional ``"dl"``
envelope key: the sender's *remaining budget in milliseconds*.  The
budget is relative, not an absolute timestamp, so clock skew between
hosts is irrelevant — each hop re-derives an absolute expiry against
its own monotonic clock.  The key is omitted entirely when no deadline
is set, keeping the wire bytes of deadline-free traffic (and the
frozen golden vectors) identical to every prior version.
"""

from __future__ import annotations

import base64
import enum
import json
import math
import zlib
from dataclasses import dataclass, field
from typing import Any

from .errors import ProtocolMismatchError

__all__ = [
    "MsgType",
    "INPMessage",
    "encode",
    "decode",
    "attachments",
    "b64e",
    "b64d",
    "INP_VERSION",
    "MAX_ATTACHMENTS",
]

INP_VERSION = 1
# Most attachments one frame may index (a page has a handful of parts).
MAX_ATTACHMENTS = 4096

_DELIMITER = b"\x00"
_dumps = json.JSONEncoder(separators=(",", ":")).encode


class MsgType(str, enum.Enum):
    INIT_REQ = "INIT_REQ"
    INIT_REP = "INIT_REP"
    CLI_META_REQ = "CLI_META_REQ"
    CLI_META_REP = "CLI_META_REP"
    PAD_META_REP = "PAD_META_REP"
    PAD_DOWNLOAD_REQ = "PAD_DOWNLOAD_REQ"
    PAD_DOWNLOAD_REP = "PAD_DOWNLOAD_REP"
    APP_REQ = "APP_REQ"
    APP_REP = "APP_REP"
    INP_ERROR = "INP_ERROR"


def b64e(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def b64d(text: str) -> bytes:
    try:
        return base64.b64decode(text.encode("ascii"), validate=True)
    except Exception as exc:  # binascii.Error and friends
        raise ProtocolMismatchError(f"invalid base64 payload: {exc}") from exc


@dataclass(frozen=True)
class INPMessage:
    """Header + JSON body."""

    msg_type: MsgType
    session_id: str
    seq: int
    body: dict = field(default_factory=dict)
    version: int = INP_VERSION
    deadline_ms: float | None = None

    def reply(self, msg_type: MsgType, body: dict | None = None) -> "INPMessage":
        """A response in the same session with the next sequence number.

        Replies never carry a deadline — the budget travels with
        requests only.
        """
        return INPMessage(
            msg_type=msg_type,
            session_id=self.session_id,
            seq=self.seq + 1,
            body=body or {},
        )

    def with_deadline(self, remaining_ms: float | None) -> "INPMessage":
        """This message stamped with a remaining budget (or stripped)."""
        return INPMessage(
            msg_type=self.msg_type,
            session_id=self.session_id,
            seq=self.seq,
            body=self.body,
            version=self.version,
            deadline_ms=remaining_ms,
        )

    def expect(self, msg_type: MsgType) -> "INPMessage":
        """Assert the message type; raises on protocol violations."""
        if self.msg_type is MsgType.INP_ERROR:
            raise ProtocolMismatchError(
                f"peer reported error: {self.body.get('error', '<unspecified>')}"
            )
        if self.msg_type is not msg_type:
            raise ProtocolMismatchError(
                f"expected {msg_type.value}, got {self.msg_type.value}"
            )
        return self


def encode(msg: INPMessage) -> bytes:
    body = msg.body
    # A list is an attachment list when its first item is bytes; bytes
    # anywhere else fall through to the JSON encoder's TypeError.
    keys = [
        key
        for key, value in body.items()
        if isinstance(value, list) and value and isinstance(value[0], bytes)
    ]
    envelope = {
        "inp": msg.version,
        "type": msg.msg_type.value,
        "session": msg.session_id,
        "seq": msg.seq,
        "body": body,
    }
    if msg.deadline_ms is not None:
        envelope["dl"] = msg.deadline_ms
    if not keys:
        return _dumps(envelope).encode("utf-8")
    envelope["body"] = body = dict(body)
    parts: list[bytes] = []
    for key in keys:
        items = body[key]
        if not all(isinstance(item, bytes) for item in items):
            raise TypeError(f"INP body list {key!r} mixes bytes and non-bytes")
        body[key] = [len(item) for item in items]
        parts += items
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    envelope["att"] = {"crc": crc, "keys": keys}
    return b"".join([_dumps(envelope).encode("utf-8"), _DELIMITER, *parts])


def _split_tail(body: dict, index: Any, blob: bytes, start: int) -> None:
    """Replace the length lists ``index`` names by slices of the tail
    ``blob[start:]``."""
    if not isinstance(index, dict):
        raise ProtocolMismatchError("INP attachment index must be an object")
    crc, keys = index.get("crc"), index.get("keys")
    if type(crc) is not int or not isinstance(keys, list) or not keys:
        raise ProtocolMismatchError("INP attachment index malformed")
    if zlib.crc32(memoryview(blob)[start:]) != crc:
        raise ProtocolMismatchError("INP attachment checksum mismatch")
    count, pos = 0, start
    for key in keys:
        lengths = body.get(key) if isinstance(key, str) else None
        if not isinstance(lengths, list):
            raise ProtocolMismatchError(f"INP attachment key {key!r} has no length list")
        count += len(lengths)
        if count > MAX_ATTACHMENTS:
            raise ProtocolMismatchError(
                f"INP frame indexes more than {MAX_ATTACHMENTS} attachments"
            )
        parts = []
        for n in lengths:
            if type(n) is not int or n < 0:
                raise ProtocolMismatchError(f"bad INP attachment length: {n!r}")
            parts.append(blob[pos : pos + n])
            pos += n
        body[key] = parts
    if pos != len(blob):
        raise ProtocolMismatchError(
            f"INP attachment lengths cover {pos - start} bytes of a "
            f"{len(blob) - start}-byte tail"
        )


def decode(blob: bytes) -> INPMessage:
    cut = blob.find(_DELIMITER)
    try:
        envelope = json.loads((blob if cut < 0 else blob[:cut]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolMismatchError(f"undecodable INP packet: {exc}") from exc
    if not isinstance(envelope, dict):
        raise ProtocolMismatchError("INP packet must be a JSON object")
    version = envelope.get("inp")
    if version != INP_VERSION:
        raise ProtocolMismatchError(f"unsupported INP version: {version!r}")
    try:
        msg_type = MsgType(envelope["type"])
    except (KeyError, ValueError) as exc:
        raise ProtocolMismatchError(f"bad INP message type: {exc}") from exc
    session = envelope.get("session")
    seq = envelope.get("seq")
    body = envelope.get("body", {})
    if not isinstance(session, str) or not isinstance(seq, int):
        raise ProtocolMismatchError("INP header fields malformed")
    if not isinstance(body, dict):
        raise ProtocolMismatchError("INP body must be an object")
    deadline_ms = envelope.get("dl")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(deadline_ms, (int, float)):
            raise ProtocolMismatchError("INP deadline must be a number")
        deadline_ms = float(deadline_ms)
        if not math.isfinite(deadline_ms):
            raise ProtocolMismatchError("INP deadline must be finite")
    index = envelope.get("att")
    if (index is None) != (cut < 0):
        raise ProtocolMismatchError("INP attachment index and tail must come together")
    if index is not None:
        _split_tail(body, index, blob, cut + 1)
    return INPMessage(
        msg_type=msg_type,
        session_id=session,
        seq=seq,
        body=body,
        deadline_ms=deadline_ms,
    )


def attachments(body: dict, key: str) -> list[bytes]:
    """``body[key]`` as the list of ``bytes`` a peer attached.

    The body came off the wire, so anything else — a missing key, a
    scalar, JSON values where the parts should be — is a protocol error.
    """
    parts = body.get(key)
    if not isinstance(parts, list) or not all(isinstance(p, bytes) for p in parts):
        raise ProtocolMismatchError(f"INP body carries no attachment list {key!r}")
    return parts


def error_reply(msg: INPMessage, text: str) -> INPMessage:
    return msg.reply(MsgType.INP_ERROR, {"error": text})


__all__.append("error_reply")
