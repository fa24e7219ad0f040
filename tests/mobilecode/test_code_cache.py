"""The process-wide compile cache behind ``Sandbox.execute``.

What must hold: one ``compile`` per distinct source text, nothing mutable
shared between two deployments, verification never skipped or preceded,
a bounded map, and an exact ledger (``execute`` calls == hits + misses).
"""

import builtins
import sys
import threading
from dataclasses import replace

import pytest

from repro.mobilecode import sandbox as sandbox_mod
from repro.mobilecode.loader import ModuleLoader
from repro.mobilecode.module import MobileCodeError, MobileCodeModule
from repro.mobilecode.rsa import generate_keypair
from repro.mobilecode.sandbox import CODE_CACHE_ENTRIES, CodeCache, Sandbox
from repro.mobilecode.signing import Signer, SigningError, TrustStore

SOURCE = """
REGISTRY = []

class Counter:
    step = 1
    def __init__(self):
        self.n = 0
    def bump(self):
        self.n += self.step
        REGISTRY.append(self.n)
        return self.n
"""


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(768)


@pytest.fixture(scope="module")
def signer(keypair):
    return Signer("publisher", keypair)


@pytest.fixture()
def cache(monkeypatch):
    """A fresh cache of the production bound, so counts start at zero."""
    fresh = CodeCache(CODE_CACHE_ENTRIES)
    monkeypatch.setattr(sandbox_mod, "CODE_CACHE", fresh)
    return fresh


@pytest.fixture()
def compiles(monkeypatch):
    """Every source handed to the real ``compile`` from the sandbox module."""
    seen = []

    def counting(source, *args, **kwargs):
        seen.append(source)
        return builtins.compile(source, *args, **kwargs)

    monkeypatch.setattr(sandbox_mod, "compile", counting, raising=False)
    return seen


def make_loader(keypair):
    store = TrustStore()
    store.trust("publisher", keypair.public)
    return ModuleLoader(store)


def make_signed(signer, source=SOURCE, entry="Counter", name="counter"):
    return signer.sign(
        MobileCodeModule(name=name, version="1", source=source, entry_point=entry)
    )


def stats(cache):
    return cache.hits, cache.misses, cache.evictions, len(cache)


class TestSharing:
    def test_same_module_compiles_once_and_shares_nothing_mutable(
        self, cache, compiles, keypair, signer
    ):
        signed = make_signed(signer)
        a = make_loader(keypair).load(signed)
        b = make_loader(keypair).load(signed)

        assert compiles == [SOURCE]
        assert stats(cache) == (1, 1, 0, 1)

        assert a.namespace is not b.namespace
        assert a.namespace["__builtins__"] is not b.namespace["__builtins__"]
        assert a.namespace["Counter"] is not b.namespace["Counter"]
        assert a.instance is not b.instance

        a.namespace["Counter"].step = 10  # class attribute
        a.namespace["REGISTRY"].append("a-only")  # module global
        assert a.instance.bump() == 10
        assert b.instance.bump() == 1
        assert b.namespace["REGISTRY"] == [1]

    def test_each_sandbox_keeps_its_own_import_guard(self, cache):
        source = "import math\n"
        strict = Sandbox(allowed_imports=frozenset())
        open_ = Sandbox()
        open_.execute(source)
        with pytest.raises(sandbox_mod.SandboxViolation):
            strict.execute(source)  # a hit: same code, this sandbox's guard
        assert open_.import_log == ["math"] and strict.import_log == []
        assert stats(cache)[:2] == (1, 1)

    def test_overwriting_own_builtins_does_not_leak(self, cache):
        vandal = "__builtins__['len'] = lambda _x: -1\n__builtins__['open'] = len\nn = len('abc')\n"
        assert Sandbox().execute(vandal)["n"] == -1
        after = Sandbox().execute("n = len('abc')\n")
        assert after["n"] == 3
        assert after["__builtins__"]["len"] is len
        with pytest.raises(sandbox_mod.SandboxViolation):
            Sandbox().execute("open('/etc/passwd')\n")
        assert sandbox_mod._BUILTINS_TEMPLATE["len"] is len
        assert "__import__" not in sandbox_mod._BUILTINS_TEMPLATE


class TestKeyAndVerification:
    def test_one_byte_difference_is_a_miss(self, cache, compiles):
        sb = Sandbox()
        assert sb.execute("x = 1\n")["x"] == 1
        assert sb.execute("x = 2\n")["x"] == 2
        assert sb.execute("x = 1\n", "<other>")["x"] == 1  # filename is in the key
        assert len(compiles) == 3
        assert stats(cache) == (0, 3, 0, 3)

    def test_tampered_module_fails_verify_before_the_cache(self, cache, keypair, signer):
        loader = make_loader(keypair)
        signed = make_signed(signer)
        loader.load(signed, expected_digest=signed.module.digest())
        before = stats(cache)

        evil = replace(signed.module, source=SOURCE + "\nEVIL = True\n")
        with pytest.raises(SigningError):
            loader.load(replace(signed, module=evil))
        with pytest.raises(SigningError):
            loader.load(replace(signed, signature=signed.signature[::-1]))
        with pytest.raises(MobileCodeError, match="digest mismatch"):
            loader.load(signed, expected_digest="0" * 40)
        # Same source as the cached entry, different claimed identity: the
        # signature still decides, the cached code object does not.
        with pytest.raises(SigningError):
            loader.load(replace(signed, module=replace(signed.module, name="other")))

        assert stats(cache) == before


class TestBoundAndErrors:
    def test_flood_of_distinct_sources_evicts(self, cache, compiles):
        sb = Sandbox()
        for i in range(CODE_CACHE_ENTRIES + 10):
            assert sb.execute(f"x = {i}\n")["x"] == i
        assert len(cache) == CODE_CACHE_ENTRIES
        assert stats(cache) == (0, CODE_CACHE_ENTRIES + 10, 10, CODE_CACHE_ENTRIES)

        assert sb.execute(f"x = {CODE_CACHE_ENTRIES + 9}\n")["x"] == CODE_CACHE_ENTRIES + 9
        assert cache.hits == 1  # newest survived
        n = len(compiles)
        assert sb.execute("x = 0\n")["x"] == 0  # oldest was evicted: recompiled
        assert len(compiles) == n + 1
        assert len(cache) == CODE_CACHE_ENTRIES

    def test_syntax_error_is_never_cached(self, cache):
        sb = Sandbox()
        for _ in range(3):
            with pytest.raises(SyntaxError):
                sb.execute("def broken(:\n")
        assert stats(cache) == (0, 3, 0, 0)

    def test_runtime_error_in_body_keeps_the_code_and_still_raises(self, cache):
        sb = Sandbox()
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                sb.execute("x = 1 / 0\n")
        assert stats(cache) == (1, 1, 0, 1)


@pytest.mark.stress
def test_concurrent_deployments_close_the_ledger(cache, keypair, signer):
    threads, rounds = 8, 50
    signed = [
        make_signed(signer, source=SOURCE + f"\nTAG = {i}\n", name=f"counter{i}")
        for i in range(3)
    ]
    calls = [0] * threads
    errors = []

    def worker(t):
        try:
            for r in range(rounds):
                pick = (t + r) % len(signed)
                loaded = make_loader(keypair).load(signed[pick])
                calls[t] += 1
                assert loaded.namespace["TAG"] == pick
                assert loaded.instance.bump() == 1
                assert loaded.namespace["REGISTRY"] == [1]
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
        for th in pool:
            th.start()
        for th in pool:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in pool)
    finally:
        sys.setswitchinterval(old)

    assert errors == []
    assert sum(calls) == threads * rounds == cache.hits + cache.misses
    assert (cache.misses, cache.evictions, len(cache)) == (3, 0, 3)
