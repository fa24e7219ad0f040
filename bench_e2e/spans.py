"""Spans recorded from outside the program, and what they add up to.

The traced run wraps the public callables at each layer boundary of
``src/repro`` (the layers are its modules) and records one span per
call: ``(id, parent, trace, layer, name, start, end, n)``.  Nothing in
``src/`` is edited; every wrapper is installed by :func:`install` and
removed by the undo list it returns.

A span's parent is the span open in the same thread or task.  A
server-side handler runs on another thread (``realnet``) or task
(``asyncnet``), where no span is open: it is parented to the client's
``simnet.request`` span through the INP ``(session, seq)`` header both
sides carry.

A layer's *self* time is its spans' duration minus the part their child
spans cover, so self times over one session's tree sum to the session's
wall time; :func:`closure_error` is how far the recorded spans miss that.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import inspect
import itertools
import json
import re
import socket
import time
from collections import defaultdict
from typing import NamedTuple

from repro.core import inp
from repro.core.system import APPSERVER_ENDPOINT, PROXY_ENDPOINT
from repro.mobilecode import ModuleLoader, SignedModule
from repro.protocols import instantiate
from repro.store.serving import StoreBackedResponder

__all__ = ["Span", "Recorder", "install", "undo", "self_times", "closure_error"]

ROOT = "session"  # name of the span the harness opens around request_page
POOL_SAMPLE_EVERY = 50

# The open span of this thread or task, as (id, trace id).
_ACTIVE: contextvars.ContextVar = contextvars.ContextVar("bench_e2e_span", default=None)
# encode() writes the header keys in this order ahead of the body.
_HEADER = re.compile(rb'"session":"([^"]*)","seq":(\d+)')


class Span(NamedTuple):
    id: int
    parent: int  # 0: none
    trace: int  # id of the root span above it
    layer: str
    name: str
    start: float
    end: float
    n: int  # bytes, where the call has a size


class Recorder:
    """In-memory span list; written out once, when the run ends.

    A finished span is a plain tuple in :class:`Span` order (a tuple of
    numbers and strings costs the collector nothing to keep); read them
    through :meth:`finished`.
    """

    def __init__(self) -> None:
        self.rows: list[tuple] = []
        self.ids = itertools.count(1)
        # INP header of a request in flight -> the client's simnet span.
        self.in_flight: dict[bytes, tuple] = {}
        # 1-in-POOL_SAMPLE_EVERY pool calls: (task, args, seconds in pool).
        self.pool_samples: list[tuple] = []
        self.pool_calls = itertools.count()
        # Calls into repro.telemetry (counted, not spanned).
        self.tracer_spans = 0
        self.counter_calls = 0

    def begin(self, layer: str, name: str, parent: tuple | None = None) -> tuple:
        """Open a span under ``parent`` (default: the open one); returns its token."""
        prev = _ACTIVE.get()
        up = parent or prev
        sid = next(self.ids)
        me = (sid, up[1] if up else sid)
        _ACTIVE.set(me)
        return prev, up[0] if up else 0, me, layer, name, time.perf_counter()

    def end(self, token: tuple, n: int = 0) -> None:
        end = time.perf_counter()
        prev, up, me, layer, name, start = token
        _ACTIVE.set(prev)
        self.rows.append((me[0], up, me[1], layer, name, start, end, n))

    def finished(self) -> list[Span]:
        return [Span._make(row) for row in self.rows]

    def clear(self) -> None:
        self.rows.clear()
        self.pool_samples.clear()
        self.tracer_spans = self.counter_calls = 0

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": Span._fields, "spans": self.rows}, fh, separators=(",", ":"))


# -- arithmetic on finished spans ------------------------------------------------


def self_times(spans) -> dict[int, float]:
    """span id -> its duration minus the part of it child spans cover.

    Children are clipped to the parent and overlapping children are
    counted once, so concurrent children cannot push a self time
    below zero.
    """
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, edge = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def closure_error(spans) -> float:
    """|sum of self times - sum of session times| / sum of session times.

    Zero when every span hangs off a session root and lies inside its
    parent; an orphaned or mis-parented span shows up here.
    """
    sessions = sum(s.end - s.start for s in spans if s.name == ROOT)
    if not sessions:
        return 0.0
    return abs(sum(self_times(spans).values()) - sessions) / sessions


# -- wrappers ----------------------------------------------------------------------


def _header(payload: bytes) -> bytes | None:
    m = _HEADER.search(payload, 0, 256)
    return m.group(0) if m else None


def _wrap(rec, fn, layer, name, *, parent=None, before=None, after=None):
    """``fn`` inside a span.

    ``parent(args)`` may name another parent than the open span;
    ``before(me, args)`` runs once the span is open (``me`` is what a
    child would see as its parent); ``after(args, out, start)`` runs on
    success and returns the span's size.
    """
    begin, end = rec.begin, rec.end

    if inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            token = begin(layer, name, parent(args) if parent else None)
            n = 0
            try:
                if before:
                    before(token[2], args)
                out = await fn(*args, **kwargs)
                if after:
                    n = after(args, out, token[5]) or 0
                return out
            finally:
                end(token, n)

    else:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = begin(layer, name, parent(args) if parent else None)
            n = 0
            try:
                if before:
                    before(token[2], args)
                out = fn(*args, **kwargs)
                if after:
                    n = after(args, out, token[5]) or 0
                return out
            finally:
                end(token, n)

    return wrapper


def _patch(undo_list, owner, attr, make, *, static=False):
    """Replace ``owner.attr`` by ``make(current)``; remember how to undo."""
    raw = vars(owner).get(attr, _patch)  # _patch: "owner had no own attr"
    new = make(getattr(owner, attr))
    setattr(owner, attr, staticmethod(new) if static else new)
    undo_list.append((owner, attr, raw))


def undo(undo_list) -> None:
    for owner, attr, raw in reversed(undo_list):
        if raw is _patch:
            delattr(owner, attr)
        else:
            setattr(owner, attr, raw)
    undo_list.clear()


async def install(rec: Recorder, system, transport, pool) -> list:
    """Wrap every layer boundary the workloads cross; returns the undo list.

    Call after the system is built and bound and before any client is
    warmed, so the stacks a client deploys are wrapped as they appear.
    """
    done: list = []
    is_async = inspect.iscoroutinefunction(transport.request)

    def span(owner, attr, layer, name=None, static=False, **hooks):
        name = name or f"{layer.rsplit('.', 1)[-1]}.{attr}"
        _patch(done, owner, attr, lambda fn: _wrap(rec, fn, layer, name, **hooks), static=static)

    def size_out(_args, out, _start):
        return len(out)

    # core.inp: the codec every message crosses twice.
    span(inp, "encode", "core.inp", after=size_out)
    span(inp, "decode", "core.inp")
    span(inp, "b64e", "core.inp")
    span(inp, "b64d", "core.inp")

    # simnet: the client's request, and the connects beneath it.  The
    # connect wrappers sit on the stdlib calls realnet/asyncnet make and
    # record only under an open span, so nothing else that connects
    # (the pool's workers, say) leaves an orphan.
    def sent(me, args):
        key = _header(args[2])
        if key is not None:
            rec.in_flight[key] = me

    def received(args, out, _start):
        rec.in_flight.pop(_header(args[2]), None)
        return len(args[2]) + len(out)

    span(transport, "request", "simnet", before=sent, after=received)

    def connect(fn):
        wrapped = _wrap(rec, fn, "simnet", "simnet.connect")

        def choose(*args, **kwargs):
            return (wrapped if _ACTIVE.get() is not None else fn)(*args, **kwargs)

        return choose

    _patch(done, socket, "create_connection", connect)
    _patch(done, asyncio, "open_connection", connect)

    # The bound handlers: core.proxy and core.appserver, on the far side
    # of the transport.
    def caller(args):
        return _ACTIVE.get() or rec.in_flight.get(_header(args[0]))

    handlers = {
        PROXY_ENDPOINT: _wrap(
            rec, system.proxy.handle, "core.proxy", "proxy.handle", parent=caller
        ),
        APPSERVER_ENDPOINT: _wrap(
            rec,
            system.appserver.handle_async if is_async else system.appserver.handle,
            "core.appserver",
            "appserver.handle",
            parent=caller,
        ),
    }
    for endpoint, handler in handlers.items():
        for step in (transport.unbind(endpoint), transport.bind(endpoint, handler)):
            if inspect.isawaitable(step):
                await step

    # cdn: every client's cdn_fetch closure ends in redirector.fetch.
    def fetched(_args, out, _start):
        return len(out[0])

    span(system.deployment.redirector, "fetch", "cdn", after=fetched)

    # mobilecode: parse + verify + sandbox deploy; a deployed PAD's
    # client half is wrapped the moment it exists (and dies with its
    # client, so it is not on the undo list).
    def deployed(_args, loaded, _start):
        for attr in ("client_request", "client_reconstruct"):
            fn = getattr(loaded.instance, attr)
            setattr(loaded.instance, attr, _wrap(rec, fn, "protocols", f"protocols.{attr}"))

    span(SignedModule, "from_wire", "mobilecode", static=True)  # a classmethod
    span(ModuleLoader, "verify", "mobilecode")
    span(ModuleLoader, "deploy", "mobilecode", after=deployed)

    # protocols, server half: the classes the appserver pre-deployed.
    # (Client halves are other classes, exec'd from mobile code.)
    for cls in {type(instantiate(m.pad_id)) for m in system.appserver.app_meta().pads}:
        span(cls, "server_respond", "protocols")

    # store and core.kernelpool, where the system has them.
    if system.chunk_store is not None:
        for attr in ("respond", "respond_async"):
            span(StoreBackedResponder, attr, "store")
        for attr in ("get_or_compute", "get_or_compute_async"):
            span(system.chunk_store, attr, "store")
    if pool is not None:

        def sampled(args, _out, start):
            if next(rec.pool_calls) % POOL_SAMPLE_EVERY == 0:
                rec.pool_samples.append((args[0], args[1:], time.perf_counter() - start))

        for attr in ("run", "run_async", "run_batch", "run_batch_async"):
            span(pool, attr, "core.kernelpool", "kernelpool.call", after=sampled)

    # telemetry: counted only; its time is inside the layers that call it.
    def count_spans(fn):
        def span_(*args, **kwargs):
            rec.tracer_spans += 1
            return fn(*args, **kwargs)

        return span_

    def count_counters(fn):
        def counter(name):
            rec.counter_calls += 1
            return fn(name)

        return counter

    _patch(done, system.telemetry.tracer, "span", count_spans)
    _patch(done, system.telemetry.registry, "counter", count_counters)
    return done
