"""Mobile code module packaging.

A PAD travels the network as a :class:`MobileCodeModule`: Python source
plus a manifest (name, version, entry point, declared capabilities) and a
SHA-1 message digest — SHA-1 because that is the integrity primitive the
paper specifies in ``PADMeta`` (§3.2, FIPS 180-1).  Signatures (added by
``repro.mobilecode.signing``) cover the canonical serialized form.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property

__all__ = ["MobileCodeError", "MobileCodeModule"]

WIRE_VERSION = 1


class MobileCodeError(Exception):
    """Raised for malformed or tampered modules."""


@dataclass(frozen=True)
class MobileCodeModule:
    """An executable unit shipped as data.

    ``entry_point`` names the class or factory the loader instantiates
    after exec'ing ``source``.  ``capabilities`` declares what the module
    needs from the sandbox (e.g. ``"hashlib"``); the sandbox grants imports
    only from its allowlist intersected with this declaration.
    """

    name: str
    version: str
    source: str
    entry_point: str
    capabilities: tuple[str, ...] = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name:
            raise MobileCodeError(f"invalid module name: {self.name!r}")
        if not self.entry_point.isidentifier():
            raise MobileCodeError(f"entry point must be an identifier: {self.entry_point!r}")

    # -- canonical serialization --------------------------------------------

    def canonical_bytes(self) -> bytes:
        """Deterministic byte form; the thing digests and signatures cover."""
        return self._canonical

    @cached_property
    def _canonical(self) -> bytes:
        # Serialised once per (frozen) instance: verify needs it for the
        # signature and again for the digest.  It lives in the instance
        # ``__dict__``, which eq/hash/repr and ``replace`` never read.
        payload = {
            "wire_version": WIRE_VERSION,
            "name": self.name,
            "version": self.version,
            "entry_point": self.entry_point,
            "capabilities": list(self.capabilities),
            "metadata": self.metadata,
            "source": self.source,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()

    def digest(self) -> str:
        """SHA-1 hex digest of the canonical form (the PADMeta 'message digest')."""
        return hashlib.sha1(self.canonical_bytes()).hexdigest()

    @property
    def size(self) -> int:
        """Wire size in bytes (the PADMeta 'PAD size')."""
        return len(self.canonical_bytes())

    @classmethod
    def from_canonical_bytes(cls, blob: bytes) -> "MobileCodeModule":
        try:
            payload = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MobileCodeError(f"undecodable module: {exc}") from exc
        if not isinstance(payload, dict):
            raise MobileCodeError("module payload must be an object")
        if payload.get("wire_version") != WIRE_VERSION:
            raise MobileCodeError(
                f"unsupported wire version: {payload.get('wire_version')!r}"
            )
        try:
            return cls(
                name=payload["name"],
                version=payload["version"],
                source=payload["source"],
                entry_point=payload["entry_point"],
                capabilities=tuple(payload.get("capabilities", ())),
                metadata=dict(payload.get("metadata", {})),
            )
        except KeyError as exc:
            raise MobileCodeError(f"missing module field: {exc}") from exc

    def verify_digest(self, expected_hex: str) -> None:
        """Raise :class:`MobileCodeError` unless the digest matches."""
        actual = self.digest()
        if actual != expected_hex.lower():
            raise MobileCodeError(
                f"digest mismatch for {self.name!r}: expected {expected_hex}, got {actual}"
            )
