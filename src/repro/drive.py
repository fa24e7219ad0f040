"""One serving core, two drivers.

Every protocol step of a Fractal session — the client's RPC gauntlet,
negotiation and page exchange, the application server's encode loop,
the store's single-flight lookup, the kernel pool's supervised wait —
is written **once**, as a generator that does no IO itself: wherever it
needs a lower layer it ``yield``\\ s an effect ("send this
frame", "run this kernel", "get-or-compute this key", "wait on this
flight") and receives the outcome back at the ``yield`` — a value, or
the lower layer's exception raised right there, so ``try``/``with``
blocks in the generator behave exactly as in straight-line code.

The only two loops that perform effects live here: :func:`run` makes
each call blocking, :func:`run_async` awaits it on the event loop.
Public entry points elsewhere are declared from their steps, one line
each — ``respond = blocking(_respond_steps)`` next to ``respond_async =
on_loop(_respond_steps)`` — so a pair cannot drift apart; a third
driver (simulated time) needs no change to any step generator.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import time
from concurrent.futures import TimeoutError as FuturesTimeout
from typing import Any, Awaitable, Callable, Generator, Optional

__all__ = [
    "Effect",
    "Steps",
    "blocking",
    "call",
    "invoked",
    "layer",
    "on_loop",
    "run",
    "run_async",
    "sleep",
    "wait_event",
    "wait_future",
]


# ``effect(on_loop)``: false performs the call on the calling thread and
# returns the outcome; true starts it on the running event loop and
# returns an awaitable of the outcome.
Effect = Callable[[bool], Any]
Steps = Generator[Effect, Any, Any]


def run(steps: Steps) -> Any:
    """Drive ``steps`` to completion, performing each effect blocking."""
    try:
        effect = steps.send(None)
        while True:
            try:
                outcome = effect(False)
            except BaseException as exc:
                effect = steps.throw(exc)
            else:
                effect = steps.send(outcome)
    except StopIteration as stop:
        return stop.value


async def run_async(steps: Steps) -> Any:
    """Drive ``steps`` to completion, awaiting each effect on the loop."""
    try:
        effect = steps.send(None)
        while True:
            try:
                outcome = await effect(True)
            except BaseException as exc:
                effect = steps.throw(exc)
            else:
                effect = steps.send(outcome)
    except StopIteration as stop:
        return stop.value


_DOC_ONLY = ("__module__", "__doc__")  # a driver keeps its own name
# Every driver declared below -> the steps function it drives.
_STEPS_OF: dict[Callable[..., Any], Callable[..., Steps]] = {}


def blocking(steps_fn: Callable[..., Steps]) -> Callable[..., Any]:
    """The blocking public driver of a step-generator function: same
    parameters and docstring, performed by :func:`run`."""

    @functools.wraps(steps_fn, assigned=_DOC_ONLY)
    def driver(*args: Any, **kwargs: Any) -> Any:
        return run(steps_fn(*args, **kwargs))

    _STEPS_OF[driver] = steps_fn
    return driver


def on_loop(steps_fn: Callable[..., Steps]) -> Callable[..., Awaitable[Any]]:
    """The asyncio public driver of a step-generator function: a
    coroutine function performing the same steps by :func:`run_async`."""

    @functools.wraps(steps_fn, assigned=_DOC_ONLY)
    async def driver(*args: Any, **kwargs: Any) -> Any:
        return await run_async(steps_fn(*args, **kwargs))

    _STEPS_OF[driver] = steps_fn
    return driver


# -- the effect vocabulary -------------------------------------------------------


def call(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Effect:
    """Call ``fn`` — code of the driver's own kind (a transport's
    ``request``, a worker's start barrier): a plain function under
    :func:`run`, one returning an awaitable under :func:`run_async`."""
    return lambda on_loop: fn(*args, **kwargs)


def layer(obj: Any, name: str, *args: Any, **kwargs: Any) -> Steps:
    """Steps that call the next layer through its public driver pair:
    ``obj.name`` blocking, ``obj.name_async`` on the loop.

    Both attributes are looked up now, at call time, so a wrapper
    installed on either public name (a tracing span, a test double)
    stays on the live path.  While both are still the drivers declared
    from one steps function, the call *is* those steps, and they run
    right here under the current driver instead of under a nested one.
    """
    sync, aio = getattr(obj, name), getattr(obj, name + "_async")
    try:
        steps_fn = _STEPS_OF[sync.__func__]
        if _STEPS_OF[aio.__func__] is steps_fn:
            return steps_fn(obj, *args, **kwargs)
    except (AttributeError, KeyError):
        pass  # a wrapper, a double, an override: go through it
    return _through(sync, aio, args, kwargs)


def _through(sync, aio, args: tuple, kwargs: dict) -> Steps:
    return (yield lambda on_loop: (aio if on_loop else sync)(*args, **kwargs))


def wait_event(event) -> Effect:
    """Block until a ``threading.Event`` is set (off-loop under asyncio,
    so threads and tasks can wait on the same flight)."""
    return lambda on_loop: (
        asyncio.get_running_loop().run_in_executor(None, event.wait)
        if on_loop
        else event.wait()
    )


def wait_future(future, timeout_s: Optional[float]) -> Effect:
    """The result of a ``concurrent.futures.Future``; either driver
    raises ``concurrent.futures.TimeoutError`` past ``timeout_s``."""

    async def awaited() -> Any:
        try:
            return await asyncio.wait_for(asyncio.wrap_future(future), timeout_s)
        except asyncio.TimeoutError:
            raise FuturesTimeout() from None

    return lambda on_loop: awaited() if on_loop else future.result(timeout_s)


def sleep(seconds: float) -> Effect:
    """Pause this session only: the thread, or the task."""
    return lambda on_loop: asyncio.sleep(seconds) if on_loop else time.sleep(seconds)


def _finish_on_loop(awaitable: Awaitable[Any]) -> Effect:
    def effect(on_loop: bool) -> Awaitable[Any]:
        if on_loop:
            return awaitable
        if inspect.iscoroutine(awaitable):
            awaitable.close()  # or it warns "never awaited" when collected
        raise TypeError("a coroutine callback needs the asyncio driver")

    return effect


def invoked(fn: Callable[[], Any]) -> Steps:
    """Steps that run a caller-supplied callback of any kind: a plain
    function, a coroutine function (asyncio driver only), or one that
    returns further steps — which then run under the same driver."""
    outcome = fn()
    if inspect.isgenerator(outcome):
        outcome = yield from outcome
    elif inspect.isawaitable(outcome):
        outcome = yield _finish_on_loop(outcome)
    return outcome
