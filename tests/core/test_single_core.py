"""One serving core, two drivers: the structural guard and the drivers.

The guard is an ``ast`` walk over ``src/repro``: wherever a class or a
module defines both ``name`` and ``name_async`` (or ``_name`` and
``_name_async``), both must be *drivers* — declared from one step
generator with ``blocking(...)`` / ``on_loop(...)``, or a body of at
most three statements — so a sync/async twin cannot grow back.  The
rest pins the contract of :mod:`repro.drive` itself.
"""

from __future__ import annotations

import ast
import asyncio
from pathlib import Path

import pytest

import repro
from repro import drive
from repro.telemetry.tracing import Tracer

SRC = Path(repro.__file__).resolve().parent
MAX_DRIVER_STATEMENTS = 3
# The serving core proper: any coroutine function here is a driver —
# bar the IO methods of the asyncio transport's stream class, which are
# the awaits every effect bottoms out in.
CORE_FILES = (
    "core/asyncclient.py",
    "core/appserver.py",
    "core/kernelpool.py",
    "store/chunkstore.py",
    "store/serving.py",
    "simnet/asyncnet.py",
)
TCP_ADAPTERS = ("simnet/realnet.py", "simnet/asyncnet.py")


def _body_size(fn: ast.AST) -> int:
    body = fn.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]  # the docstring
    return len(body)


def _declared_driver(node: ast.AST) -> bool:
    """``name = blocking(steps)`` / ``name = drive.on_loop(steps)``."""
    if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
        return False
    fn = node.value.func
    called = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
    return called in ("blocking", "on_loop")


def _scopes(tree: ast.Module):
    yield "<module>", tree.body
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node.name, node.body


def _definitions(body) -> dict[str, object]:
    """name -> statement count of its ``def``, or 0 for a declared driver."""
    found: dict[str, object] = {}
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[node.name] = _body_size(node)
        elif _declared_driver(node):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found[target.id] = 0
    return found


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


class TestNoTwinGrowsBack:
    def test_every_sync_async_pair_is_two_drivers(self):
        pairs, offenders = set(), []
        for rel, tree in _trees():
            for scope, body in _scopes(tree):
                defs = _definitions(body)
                for name, size in defs.items():
                    twin = defs.get(f"{name}_async")
                    if twin is None:
                        continue
                    pairs.add(f"{scope}.{name}")
                    if max(size, twin) > MAX_DRIVER_STATEMENTS:
                        offenders.append(f"{rel}:{scope}.{name} ({size}/{twin})")
        assert not offenders, f"sync/async twins with real bodies: {offenders}"
        # The walk must actually be seeing the serving core's pairs.
        assert pairs >= {
            "ApplicationServer.handle",
            "StoreBackedResponder.respond",
            "ChunkStore.get_or_compute",
            "KernelPool.run",
            "KernelPool.run_batch",
        }

    def test_core_coroutine_functions_are_drivers(self):
        offenders = []
        for rel, tree in _trees():
            if rel not in CORE_FILES:
                continue
            stream_io = {
                fn
                for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef) and cls.name.endswith("Stream")
                for fn in cls.body
            }
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.AsyncFunctionDef)
                    and node not in stream_io
                    and _body_size(node) > MAX_DRIVER_STATEMENTS
                ):
                    offenders.append(f"{rel}:{node.name}")
        assert not offenders, f"coroutine bodies in the serving core: {offenders}"

    def test_the_tcp_protocol_is_written_once_and_sans_io(self):
        """``simnet/tcp.py`` holds the protocol and touches no socket;
        the two adapters hold the sockets and none of the protocol."""
        trees = dict(_trees())

        def imports(tree):
            return {
                name.split(".")[0]
                for n in ast.walk(tree)
                if isinstance(n, (ast.Import, ast.ImportFrom))
                for name in [getattr(n, "module", None) or "", *(a.name for a in n.names)]
            }

        core = trees["simnet/tcp.py"]
        assert not imports(core) & {"socket", "asyncio"}
        assert not [n for n in ast.walk(core) if isinstance(n, ast.AsyncFunctionDef)]
        for rel in TCP_ADAPTERS:
            nodes = list(ast.walk(trees[rel]))
            mentioned = imports(trees[rel])
            mentioned |= {n.id for n in nodes if isinstance(n, ast.Name)}
            mentioned |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            assert not mentioned & {"struct", "_LEN", "pack", "unpack"}, rel
            status_literals = [
                n.value
                for n in nodes
                if isinstance(n, ast.Constant)
                and isinstance(n.value, bytes)
                and n.value[:1] in (b"\x00", b"\x01")
            ]
            assert not status_literals, f"{rel}: {status_literals}"

    def test_the_stepping_loop_lives_in_one_module(self):
        """Calling ``.send()`` / ``.throw()`` is stepping a generator;
        only ``repro.drive`` may (and the discrete-event simulator,
        which steps its own processes on virtual time)."""
        steppers = {
            rel
            for rel, tree in _trees()
            for n in ast.walk(tree)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr in ("send", "throw")
        }
        assert steppers == {"drive.py", "simnet/kernel.py"}


# -- the drivers themselves ---------------------------------------------------------


class _Layer:
    """A lower layer with a blocking and an asyncio public name."""

    def __init__(self):
        self.calls = []

    def fetch(self, key):
        self.calls.append(("fetch", key))
        if key == "missing":
            raise KeyError(key)
        return key.upper()

    async def fetch_async(self, key):
        await asyncio.sleep(0)
        self.calls.append(("fetch_async", key))
        if key == "missing":
            raise KeyError(key)
        return key.upper()


def _drive(steps, on_loop):
    return asyncio.run(drive.run_async(steps)) if on_loop else drive.run(steps)


@pytest.mark.parametrize("on_loop", [False, True], ids=["run", "run_async"])
class TestDrivers:
    def test_outcomes_come_back_at_the_yield_and_the_return_value_out(self, on_loop):
        lower = _Layer()

        def steps():
            a = yield from drive.layer(lower, "fetch", "a")
            b = yield from drive.layer(lower, "fetch", "b")
            return a + b

        assert _drive(steps(), on_loop) == "AB"
        name = "fetch_async" if on_loop else "fetch"
        assert lower.calls == [(name, "a"), (name, "b")]

    def test_steps_without_effects_just_return(self, on_loop):
        def steps():
            return 7
            yield

        assert _drive(steps(), on_loop) == 7

    def test_a_lower_layer_error_is_raised_at_the_yield(self, on_loop):
        lower = _Layer()

        def steps():
            try:
                yield from drive.layer(lower, "fetch", "missing")
            except KeyError as exc:
                fallback = yield from drive.layer(lower, "fetch", "spare")
                return f"{exc.args[0]}->{fallback}"

        assert _drive(steps(), on_loop) == "missing->SPARE"

    def test_an_unhandled_error_runs_cleanup_and_propagates(self, on_loop):
        lower, log = _Layer(), []

        def steps():
            try:
                yield from drive.layer(lower, "fetch", "missing")
            finally:
                log.append("closed")

        with pytest.raises(KeyError):
            _drive(steps(), on_loop)
        assert log == ["closed"]

    def test_an_error_inside_the_steps_propagates_unchanged(self, on_loop):
        lower = _Layer()

        def steps():
            yield from drive.layer(lower, "fetch", "a")
            raise ValueError("steps' own bug")

        with pytest.raises(ValueError, match="own bug"):
            _drive(steps(), on_loop)

    def test_a_wrapper_on_a_public_name_stays_on_the_live_path(self, on_loop):
        """``layer`` looks both public names up at call time: a wrapper
        put there after the class was defined (a span, a test double)
        is what gets called; untouched declared drivers are not called
        at all — their one steps function runs in place."""
        seen = []

        class Lower:
            def _fetch_steps(self, key):
                seen.append("steps")
                return key.upper()
                yield

            fetch = drive.blocking(_fetch_steps)
            fetch_async = drive.on_loop(_fetch_steps)

        def steps(lower):
            return (yield from drive.layer(lower, "fetch", "a"))

        pristine = Lower()
        assert _drive(steps(pristine), on_loop) == "A"
        inline = drive.layer(pristine, "fetch", "a")
        assert inline.gi_code is Lower._fetch_steps.__code__
        inline.close()

        wrapped = Lower()
        raw, raw_async = wrapped.fetch, wrapped.fetch_async

        def spanned(key):
            seen.append("span")
            return raw(key)

        async def spanned_async(key):
            seen.append("span")
            return await raw_async(key)

        wrapped.fetch, wrapped.fetch_async = spanned, spanned_async
        del seen[:]
        assert _drive(steps(wrapped), on_loop) == "A"
        assert seen == ["span", "steps"]

    def test_declared_drivers_share_one_body(self, on_loop):
        class Doubler:
            def _double_steps(self, lower, key):
                """Fetch twice."""
                first = yield from drive.layer(lower, "fetch", key)
                return first + (yield from drive.layer(lower, "fetch", key))

            double = drive.blocking(_double_steps)
            double_async = drive.on_loop(_double_steps)

        lower, d = _Layer(), Doubler()
        assert asyncio.iscoroutinefunction(Doubler.double_async)
        assert not asyncio.iscoroutinefunction(Doubler.double)
        assert Doubler.double.__doc__ == Doubler.double_async.__doc__ == "Fetch twice."
        got = asyncio.run(d.double_async(lower, "x")) if on_loop else d.double(lower, "x")
        assert got == "XX"

    def test_callbacks_of_any_kind_are_invoked(self, on_loop):
        lower = _Layer()

        def more_steps():
            return (yield from drive.layer(lower, "fetch", "deep"))

        async def coroutine_callback():
            return "awaited"

        def steps(callback):
            return (yield from drive.invoked(callback))

        assert _drive(steps(lambda: "plain"), on_loop) == "plain"
        assert _drive(steps(more_steps), on_loop) == "DEEP"
        if on_loop:
            assert _drive(steps(coroutine_callback), on_loop) == "awaited"
        else:
            with pytest.raises(TypeError, match="asyncio driver"):
                _drive(steps(coroutine_callback), on_loop)

    def test_span_nesting_survives_the_driver(self, on_loop):
        """Spans opened in the steps nest and close across ``yield``s;
        concurrent sessions on one loop each keep their own tree."""
        tracer, lower = Tracer(), _Layer()

        def session(tag):
            with tracer.span("session", trace=tag):
                with tracer.span("first"):
                    yield from drive.layer(lower, "fetch", tag)
                assert tracer.active_span.name == "session"
                with tracer.span("second"):
                    yield from drive.layer(lower, "fetch", tag)
            assert tracer.active_span is None

        if on_loop:

            async def both():
                await asyncio.gather(
                    drive.run_async(session("s1")), drive.run_async(session("s2"))
                )

            asyncio.run(both())
        else:
            drive.run(session("s1"))
            drive.run(session("s2"))
        for tag in ("s1", "s2"):
            (root,) = tracer.trace(tag)
            assert [c.name for c in root.children] == ["first", "second"]
            assert all(c.finished and not c.children for c in root.children)
