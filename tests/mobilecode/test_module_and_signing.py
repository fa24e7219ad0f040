"""Mobile-code module packaging and signing tests."""

import pytest

from repro.mobilecode.module import MobileCodeError, MobileCodeModule
from repro.mobilecode.rsa import generate_keypair
from repro.mobilecode.signing import SignedModule, Signer, SigningError, TrustStore


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(768)


@pytest.fixture()
def module():
    return MobileCodeModule(
        name="demo",
        version="1.2",
        source="class Entry:\n    def run(self):\n        return 42\n",
        entry_point="Entry",
        capabilities=("math",),
        metadata={"note": "test"},
    )


class TestMobileCodeModule:
    def test_canonical_roundtrip(self, module):
        blob = module.canonical_bytes()
        restored = MobileCodeModule.from_canonical_bytes(blob)
        assert restored == module

    def test_canonical_is_deterministic(self, module):
        assert module.canonical_bytes() == module.canonical_bytes()

    def test_digest_is_sha1_hex(self, module):
        digest = module.digest()
        assert len(digest) == 40
        assert int(digest, 16) >= 0

    def test_digest_changes_with_source(self, module):
        other = MobileCodeModule(
            name=module.name, version=module.version,
            source=module.source + "# changed", entry_point=module.entry_point,
        )
        assert other.digest() != module.digest()

    def test_verify_digest_accepts_match(self, module):
        module.verify_digest(module.digest().upper())  # case-insensitive

    def test_verify_digest_rejects_mismatch(self, module):
        with pytest.raises(MobileCodeError, match="digest mismatch"):
            module.verify_digest("0" * 40)

    def test_size_matches_canonical(self, module):
        assert module.size == len(module.canonical_bytes())

    def test_invalid_name_rejected(self):
        with pytest.raises(MobileCodeError):
            MobileCodeModule(name="", version="1", source="", entry_point="E")
        with pytest.raises(MobileCodeError):
            MobileCodeModule(name="a/b", version="1", source="", entry_point="E")

    def test_invalid_entry_point_rejected(self):
        with pytest.raises(MobileCodeError):
            MobileCodeModule(name="m", version="1", source="", entry_point="not valid")

    def test_undecodable_blob_rejected(self):
        with pytest.raises(MobileCodeError):
            MobileCodeModule.from_canonical_bytes(b"\xff\xfe not json")

    def test_wrong_wire_version_rejected(self, module):
        import json

        payload = json.loads(module.canonical_bytes())
        payload["wire_version"] = 99
        with pytest.raises(MobileCodeError, match="wire version"):
            MobileCodeModule.from_canonical_bytes(json.dumps(payload).encode())


class TestCanonicalMemo:
    """canonical_bytes() is serialised once per frozen instance; it cannot go stale."""

    def test_serialised_once_per_instance(self, module, monkeypatch):
        import json

        calls = []
        real = json.dumps
        monkeypatch.setattr(
            "repro.mobilecode.module.json.dumps",
            lambda *a, **k: calls.append(1) or real(*a, **k),
        )
        first = module.canonical_bytes()
        assert module.canonical_bytes() is first
        module.digest(), module.size, module.verify_digest(module.digest())
        assert len(calls) == 1

    def test_frozen_vector(self, module):
        # Recorded before the memo existed: the bytes it returns did not move.
        assert module.digest() == "a072274e2f4767cc3744d452fd6b35f1842aff6c"
        assert module.size == 186

    def test_replace_starts_without_the_memo(self, module):
        from dataclasses import replace

        before = module.digest()
        changed = replace(module, source=module.source + "#")
        assert "_canonical" not in vars(changed)
        assert changed.digest() != before
        assert replace(changed, source=module.source).digest() == before
        assert module.digest() == before

    def test_roundtrip_digest(self, module):
        restored = MobileCodeModule.from_canonical_bytes(module.canonical_bytes())
        assert restored.digest() == module.digest()

    def test_memo_invisible_to_eq_and_repr(self, module):
        from dataclasses import fields, replace

        fresh = replace(module)
        shown = repr(fresh)
        module.canonical_bytes()
        assert "_canonical" in vars(module) and "_canonical" not in vars(fresh)
        assert module == fresh
        assert repr(module) == shown
        assert "_canonical" not in {f.name for f in fields(module)}

    def test_memo_invisible_to_hash(self):
        # (The fixture's metadata dict makes it unhashable, memo or not.)
        plain = MobileCodeModule(
            name="m", version="1", source="x = 1\n", entry_point="E", metadata=None
        )
        before = hash(plain)
        plain.canonical_bytes()
        assert hash(plain) == before


class TestSigning:
    def test_sign_verify_roundtrip(self, keypair, module):
        signer = Signer("origin", keypair)
        signed = signer.sign(module)
        store = TrustStore()
        store.trust("origin", keypair.public)
        assert store.verify(signed) == module

    def test_wire_roundtrip(self, keypair, module):
        signed = Signer("origin", keypair).sign(module)
        restored = SignedModule.from_wire(signed.to_wire())
        assert restored.module == module
        assert restored.signature == signed.signature

    def test_untrusted_signer_rejected(self, keypair, module):
        signed = Signer("stranger", keypair).sign(module)
        with pytest.raises(SigningError, match="not in the trust list"):
            TrustStore().verify(signed)

    def test_tampered_module_rejected(self, keypair, module):
        signed = Signer("origin", keypair).sign(module)
        tampered = SignedModule(
            module=MobileCodeModule(
                name=module.name, version=module.version,
                source=module.source + "#", entry_point=module.entry_point,
            ),
            signer=signed.signer,
            signature=signed.signature,
        )
        store = TrustStore()
        store.trust("origin", keypair.public)
        with pytest.raises(SigningError, match="invalid signature"):
            store.verify(tampered)

    def test_forged_signer_name_rejected(self, keypair, module):
        """Mallory signs with her key but claims to be 'origin'."""
        mallory = generate_keypair(768)
        forged = SignedModule(
            module=module,
            signer="origin",
            signature=Signer("x", mallory).sign(module).signature,
        )
        store = TrustStore()
        store.trust("origin", keypair.public)
        with pytest.raises(SigningError, match="invalid signature"):
            store.verify(forged)

    def test_malformed_wire_rejected(self):
        with pytest.raises(MobileCodeError):
            SignedModule.from_wire(b"garbage")

    def test_empty_signer_name_rejected(self, keypair):
        with pytest.raises(SigningError):
            Signer("", keypair)


class TestTrustStore:
    def test_trust_and_revoke(self, keypair):
        store = TrustStore()
        store.trust("a", keypair.public)
        assert store.is_trusted("a")
        store.revoke("a")
        assert not store.is_trusted("a")

    def test_silent_key_replacement_refused(self, keypair):
        store = TrustStore()
        store.trust("a", keypair.public)
        other = generate_keypair(768)
        with pytest.raises(SigningError, match="revoke first"):
            store.trust("a", other.public)

    def test_same_key_retrust_is_noop(self, keypair):
        store = TrustStore()
        store.trust("a", keypair.public)
        store.trust("a", keypair.public)  # no error
        assert store.trusted_names() == ["a"]
