"""Multiprocess kernel pool: CPU-bound data-plane work off the event loop.

The fused kernels (gziplike compress, CDC boundary scan, delta /
vary-blocking encode) are pure Python and hold the GIL for their whole
runtime, so an asyncio serving core — or the threaded load harness —
gains nothing from concurrency while a kernel runs.  This facade ships
kernel invocations to a pool of **worker processes** instead:

* ``KernelPool(workers=0)`` (the default) executes every kernel inline
  in the calling thread.  All existing synchronous callers and tests go
  through this path and are byte-for-byte untouched.
* ``KernelPool(workers=N)`` builds **N single-worker
  ``ProcessPoolExecutor`` shards**.  Tasks carry a ``shard_key``
  (typically the session id); the key is stably hashed (CRC32, not the
  salted builtin ``hash``) to pick a shard, so one session's kernel work
  always lands on the same worker process — per-session ordering is
  preserved and the worker-side protocol-stack cache stays hot for that
  session's PAD configuration.

Kernels are registered by name and executed via :func:`run_kernel`,
which is also the (picklable, module-level) entry point the worker
processes call.  Worker processes instantiate protocol stacks from a
declarative *spec* — ``((pad_id, ((kwarg, value), ...)), ...)`` — and
memoize them per process, so only small argument tuples cross the
process boundary, never live protocol objects.

Determinism: a kernel must produce byte-identical output whether it ran
inline or in any worker (the golden-wire-vector tests enforce this), so
pool placement can never change what goes on the wire.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import threading
import time
import zlib
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from pathlib import Path
from typing import Any, Optional

from .. import drive

__all__ = [
    "KernelPool",
    "KernelPoolError",
    "run_kernel",
    "stack_spec",
    "KERNELS",
    "BATCH_KERNELS",
]

# ((pad_id, ((kwarg_name, value), ...)), ...) — hashable and picklable.
StackSpec = tuple


class KernelPoolError(Exception):
    """Raised for misconfigured pools or unknown kernels."""


def stack_spec(pads: list[tuple[str, dict]]) -> StackSpec:
    """Build the declarative spec for a protocol stack.

    ``pads`` is ``[(pad_id, init_kwargs), ...]`` in stack order; kwargs
    are sorted by name so equal configurations produce equal specs.
    """
    return tuple(
        (pad_id, tuple(sorted(kwargs.items()))) for pad_id, kwargs in pads
    )


# -- worker-side execution -----------------------------------------------------

# Per-process memo of instantiated protocol stacks, keyed by spec.  Lives
# at module level so every task a worker runs for the same PAD
# configuration reuses one instance (protocols are stateless per
# exchange; the sync serving path already shares instances across
# threads the same way).
_STACKS: dict[StackSpec, Any] = {}


def _stack_for_spec(spec: StackSpec):
    stack = _STACKS.get(spec)
    if stack is None:
        from ..protocols import instantiate
        from ..protocols.stack import ProtocolStack

        protocols = [instantiate(pad_id, **dict(kwargs)) for pad_id, kwargs in spec]
        stack = protocols[0] if len(protocols) == 1 else ProtocolStack(protocols)
        _STACKS[spec] = stack
    return stack


def _k_ping() -> bytes:
    """No-op kernel used to warm worker processes."""
    return b"pong"


def _k_stack_respond(
    spec: StackSpec, request: bytes, old: Optional[bytes], new: bytes
) -> bytes:
    """The server half of one part exchange through a protocol stack."""
    return _stack_for_spec(spec).server_respond(request, old, new)


def _k_gziplike_compress(
    data: bytes,
    backend: str = "pure",
    max_chain: int = 64,
    dictionary: Optional[str] = None,
) -> bytes:
    from ..compression import builtin_dictionary, compress

    # The dictionary crosses the process boundary as its content-class
    # name; workers re-train deterministically (memoized per process).
    return compress(
        data,
        backend=backend,
        max_chain=max_chain,
        dictionary=builtin_dictionary(dictionary) if dictionary else None,
    )


def _k_gziplike_compress_batch(
    datas: list[bytes],
    backend: str = "pure",
    max_chain: int = 64,
    dictionary: Optional[str] = None,
) -> list[bytes]:
    """Batched :func:`_k_gziplike_compress`: one LZSS table pass per shard."""
    from ..compression import builtin_dictionary, compress_batch

    return compress_batch(
        datas,
        backend=backend,
        max_chain=max_chain,
        dictionary=builtin_dictionary(dictionary) if dictionary else None,
    )


def _k_cdc_boundaries(
    data: bytes, mask_bits: int = 10, window: int = 48
) -> list[tuple[int, int]]:
    from ..chunking import ContentDefinedChunker

    chunker = ContentDefinedChunker(mask_bits=mask_bits, window=window)
    return [(c.offset, c.length) for c in chunker.chunk(data)]


def _k_cdc_record(
    data: bytes, mask_bits: int = 10, window: int = 48, truncate: int = 16
) -> bytes:
    """CDC boundaries + per-chunk truncated SHA-1 digests, packed flat.

    This is the chunk-store record format: ``<II`` offset/length pairs
    each followed by ``truncate`` digest bytes — one preparation pass
    per page version that every later delta assembly reuses.
    """
    import hashlib
    import struct

    from ..chunking import ContentDefinedChunker

    chunker = ContentDefinedChunker(mask_bits=mask_bits, window=window)
    pair = struct.Struct("<II")
    out = bytearray()
    for c in chunker.chunk(data):
        out += pair.pack(c.offset, c.length)
        out += hashlib.sha1(data[c.offset : c.offset + c.length]).digest()[:truncate]
    return bytes(out)


def _k_cdc_record_batch(
    pages: list[bytes],
    mask_bits: int = 10,
    window: int = 48,
    truncate: int = 16,
) -> list[bytes]:
    """Batched :func:`_k_cdc_record`: one corpus-wide candidate scan.

    The boundary gather for every page runs in a single vectorized pass
    (:meth:`ContentDefinedChunker.chunk_batch`); records are identical to
    calling ``cdc.record`` per page.
    """
    import hashlib
    import struct

    from ..chunking import ContentDefinedChunker

    chunker = ContentDefinedChunker(mask_bits=mask_bits, window=window)
    pair = struct.Struct("<II")
    records: list[bytes] = []
    for data, chunks in zip(pages, chunker.chunk_batch(pages)):
        out = bytearray()
        for c in chunks:
            out += pair.pack(c.offset, c.length)
            out += hashlib.sha1(
                data[c.offset : c.offset + c.length]
            ).digest()[:truncate]
        records.append(bytes(out))
    return records


def _k_vary_encode(
    old: Optional[bytes], new: bytes, mask_bits: int = 10, window: int = 48
) -> bytes:
    spec = stack_spec([("vary", {"mask_bits": mask_bits, "window": window})])
    return _k_stack_respond(spec, b"", old, new)


# -- chaos kernels -------------------------------------------------------------
#
# Deliberate failure injectors for the supervision tests and the
# overload bench: a worker that dies mid-task (``chaos.exit``), a worker
# that hangs (``chaos.sleep``), and a kernel that raises an ordinary
# exception (``chaos.boom`` — which must propagate as an application
# error, *not* trigger a shard restart).  Never run ``chaos.exit`` on an
# inline (``workers=0``) pool: there is no worker process to kill, only
# the caller.


def _k_chaos_exit(code: int = 3) -> None:
    os._exit(int(code))


def _k_chaos_sleep(seconds: float) -> bytes:
    time.sleep(float(seconds))
    return b"slept"


def _k_chaos_boom(message: str = "boom") -> None:
    raise RuntimeError(message)


KERNELS = {
    "ping": _k_ping,
    "stack.respond": _k_stack_respond,
    "gziplike.compress": _k_gziplike_compress,
    "gziplike.compress_batch": _k_gziplike_compress_batch,
    "cdc.boundaries": _k_cdc_boundaries,
    "cdc.record": _k_cdc_record,
    "cdc.record_batch": _k_cdc_record_batch,
    "vary.encode": _k_vary_encode,
    "chaos.exit": _k_chaos_exit,
    "chaos.sleep": _k_chaos_sleep,
    "chaos.boom": _k_chaos_boom,
}

# Batch kernels take a list of payloads as their first argument and
# return one result per payload, in order.  ``KernelPool.run_batch``
# shards the *items* of such a call, not the call itself.
BATCH_KERNELS = frozenset({"gziplike.compress_batch", "cdc.record_batch"})


def run_kernel(task: str, *args: Any) -> Any:
    """Execute one registered kernel (in this process)."""
    fn = KERNELS.get(task)
    if fn is None:
        raise KernelPoolError(f"unknown kernel {task!r}")
    return fn(*args)


def _ensure_child_import_path() -> None:
    """Make ``repro`` importable in spawned children.

    ``spawn`` children re-import :mod:`repro.core.kernelpool` from
    scratch; if the parent found the package through ``sys.path`` alone
    (no install, no ``PYTHONPATH``), the child would fail.  Prepending
    the package root to ``PYTHONPATH`` (inherited via ``os.environ``)
    makes pool creation work however the parent was launched.
    """
    pkg_root = str(Path(__file__).resolve().parents[2])
    existing = os.environ.get("PYTHONPATH", "")
    if pkg_root not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            pkg_root + (os.pathsep + existing if existing else "")
        )


class KernelPool:
    """Sharded process pool with an inline fallback.

    ``workers=0`` executes kernels inline (synchronously in the caller,
    or on the event loop for :meth:`run_async`) — the degenerate pool
    every existing synchronous caller gets.  ``workers=N`` creates N
    single-worker executor shards; ``shard_key`` pins related work to
    one worker process.

    ``mp_context`` defaults to ``"spawn"``: fork would be faster to
    start but is unsafe from a process that already runs threads (the
    serving stack always does), and spawn behaves identically across
    platforms.  Startup cost is paid once, in :meth:`warm`.

    **Supervision** (every sharded pool): a worker that
    dies mid-task (``BrokenProcessPool``) or exceeds ``task_timeout_s``
    gets its shard's executor shut down and replaced, and the task is
    retried once on the fresh worker.  A second failure raises
    :class:`KernelPoolError` — a task that kills two workers in a row
    is treated as poison and is deliberately *never* executed inline in
    the serving process.  A shard that exhausts ``max_shard_restarts``
    is disabled and its traffic reroutes to the next live shard (losing
    only cache affinity, never correctness — kernels are deterministic
    and byte-identical on any worker).  Ordinary kernel exceptions
    propagate untouched: an application error is not a worker failure.

    :meth:`run` / :meth:`run_async` and :meth:`run_batch` /
    :meth:`run_batch_async` are the blocking and asyncio drivers
    (:mod:`repro.drive`) of one step generator each.
    """

    def __init__(
        self,
        workers: int = 0,
        *,
        mp_context: str = "spawn",
        warm: bool = True,
        task_timeout_s: Optional[float] = None,
        max_shard_restarts: int = 3,
        registry=None,
    ) -> None:
        if workers < 0:
            raise KernelPoolError(f"workers must be >= 0, got {workers}")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise KernelPoolError(
                f"task_timeout_s must be positive, got {task_timeout_s}"
            )
        if max_shard_restarts < 0:
            raise KernelPoolError(
                f"max_shard_restarts must be >= 0, got {max_shard_restarts}"
            )
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self.max_shard_restarts = max_shard_restarts
        self._registry = registry
        self._mp_context = mp_context
        self._rr = itertools.count()
        # ``None`` entries are disabled shards (restart budget spent);
        # list length stays == workers so placement hashing is stable.
        self._shards: list[Optional[ProcessPoolExecutor]] = []
        self._restarts: list[int] = []
        self._sup_lock = threading.Lock()
        if workers:
            _ensure_child_import_path()
            ctx = multiprocessing.get_context(mp_context)
            self._shards = [
                ProcessPoolExecutor(max_workers=1, mp_context=ctx)
                for _ in range(workers)
            ]
            self._restarts = [0] * workers
            if warm:
                self.warm()

    @property
    def inline(self) -> bool:
        return not self._shards

    def _count(self, name: str, amount: int = 1) -> None:
        if self._registry is not None and amount:
            self._registry.counter(name).inc(amount)

    def warm(self) -> None:
        """Spin every worker process up now, not on the first request."""
        futures = [
            shard.submit(run_kernel, "ping")
            for shard in self._shards
            if shard is not None
        ]
        for fut in futures:
            fut.result()

    def shard_index(self, key: Any) -> int:
        """Stable shard for ``key`` (CRC32; independent of hash seed)."""
        if not self._shards:
            return 0
        raw = key if isinstance(key, bytes) else str(key).encode("utf-8")
        return zlib.crc32(raw) % len(self._shards)

    def _placement(self, key: Optional[Any]) -> int:
        if key is None:
            return next(self._rr) % len(self._shards)
        return self.shard_index(key)

    # -- supervision ------------------------------------------------------------

    def _alive_index(self, idx: int) -> int:
        """``idx`` if its shard is live, else the next live shard.

        Rerouting costs only worker-side cache affinity; correctness is
        untouched because every kernel is deterministic on any worker.
        """
        n = len(self._shards)
        for probe in range(n):
            j = (idx + probe) % n
            if self._shards[j] is not None:
                if probe:
                    self._count("kernelpool.rerouted")
                return j
        raise KernelPoolError(
            "all kernel-pool shards disabled (restart budgets exhausted)"
        )

    def _revive(self, idx: int, old_ex: ProcessPoolExecutor, reason: str) -> None:
        """Replace a failed shard's executor (or disable the shard).

        Identity-checked under the lock so concurrent callers observing
        the same broken executor trigger exactly one restart.
        """
        with self._sup_lock:
            if idx >= len(self._shards) or self._shards[idx] is not old_ex:
                return
            self._restarts[idx] += 1
            self._count("kernelpool.restarts")
            self._count(f"kernelpool.restarts.{reason}")
            if reason == "timeout":
                # shutdown() alone waits politely for the running task;
                # a hung worker needs the process killed.  Best-effort:
                # _processes is executor-private but stable across the
                # supported CPythons, and a miss only means the stuck
                # process lingers until its task finishes.
                procs = getattr(old_ex, "_processes", None) or {}
                for proc in list(procs.values()):
                    try:
                        proc.terminate()
                    except Exception:
                        pass
            try:
                old_ex.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            if self._restarts[idx] > self.max_shard_restarts:
                self._shards[idx] = None
                self._count("kernelpool.shards_disabled")
                return
            ctx = multiprocessing.get_context(self._mp_context)
            new_ex = ProcessPoolExecutor(max_workers=1, mp_context=ctx)
            self._shards[idx] = new_ex
        # Pre-warm the replacement outside the lock (same contract as
        # ``warm=True`` at construction): process-spawn cost must not be
        # billed against the retried task's ``task_timeout_s``.
        try:
            new_ex.submit(run_kernel, "ping").result()
        except Exception:
            pass  # next use will observe the breakage and revive again

    def _submit(self, task: str, args: tuple, idx: int):
        """Submit to a live shard, reviving through submit-time breakage.

        Returns ``(idx, executor, future)``; the executor is captured so
        result-time failures revive exactly the instance that ran the
        task (not a replacement installed meanwhile).
        """
        while True:
            idx = self._alive_index(idx)
            ex = self._shards[idx]
            if ex is None:  # raced a disable; reroute again
                continue
            try:
                return idx, ex, ex.submit(run_kernel, task, *args)
            except BrokenExecutor:
                self._count("kernelpool.crashes")
                self._revive(idx, ex, "crash")

    def _finish_steps(self, idx: int, ex, fut, task: str, args: tuple):
        """Wait for a submitted task; on a dead or hung worker revive
        the shard and retry once, then give up with a typed error."""
        for last_try in (False, True):
            try:
                return (yield drive.wait_future(fut, self.task_timeout_s))
            except FuturesTimeout:
                self._count("kernelpool.timeouts")
                self._revive(idx, ex, "timeout")
                if last_try:
                    raise KernelPoolError(
                        f"kernel {task!r} timed out twice "
                        f"(>{self.task_timeout_s}s); giving up"
                    ) from None
            except BrokenExecutor as exc:
                self._count("kernelpool.crashes")
                self._revive(idx, ex, "crash")
                if last_try:
                    raise KernelPoolError(
                        f"kernel {task!r} crashed two workers in a row; "
                        "treating it as poison (never executed inline in the "
                        "serving process)"
                    ) from exc
            idx, ex, fut = self._submit(task, args, idx)

    def health(self) -> dict:
        """Supervision snapshot: restarts and disabled shards per index."""
        with self._sup_lock:
            return {
                "workers": self.workers,
                "task_timeout_s": self.task_timeout_s,
                "restarts": list(self._restarts),
                "restarts_total": sum(self._restarts),
                "disabled": [
                    i for i, s in enumerate(self._shards) if s is None
                ],
            }

    # -- execution --------------------------------------------------------------

    def _run_steps(self, task: str, *args: Any, shard_key: Optional[Any] = None):
        """Execute one kernel, inline or on its shard.

        With ``workers=0`` :meth:`run_async` runs inline *on the loop* —
        the documented fallback, correct but serializing — which is
        exactly what the pool-scaling benchmark uses as its baseline.
        """
        if not self._shards:
            return run_kernel(task, *args)
        idx, ex, fut = self._submit(task, args, self._placement(shard_key))
        return (yield from self._finish_steps(idx, ex, fut, task, args))

    run = drive.blocking(_run_steps)
    run_async = drive.on_loop(_run_steps)

    def _batch_groups(
        self, task: str, items: list, shard_keys: Optional[list]
    ) -> dict[int, list[int]]:
        """Item indices grouped by destination shard, insertion-ordered."""
        if task not in BATCH_KERNELS:
            raise KernelPoolError(f"{task!r} is not a batch kernel")
        if shard_keys is not None and len(shard_keys) != len(items):
            raise KernelPoolError(
                f"{len(shard_keys)} shard keys for {len(items)} items"
            )
        groups: dict[int, list[int]] = {}
        for i in range(len(items)):
            if shard_keys is None:
                shard = next(self._rr) % len(self._shards)
            else:
                shard = self.shard_index(shard_keys[i])
            groups.setdefault(shard, []).append(i)
        return groups

    def _run_batch_steps(
        self,
        task: str,
        items: list,
        *args: Any,
        shard_keys: Optional[list] = None,
    ):
        """Execute a batch kernel over ``items``, sharded by item.

        Inline pools make one batched call (the whole corpus in one
        vectorized pass).  Sharded pools group items by
        ``shard_index(shard_keys[i])`` — the same placement the per-item
        :meth:`run` would pick — submit one batched call per shard
        concurrently, and reassemble results in input order, so batching
        never changes which worker sees which content.
        """
        if not items:
            return []
        if not self._shards:
            return run_kernel(task, list(items), *args)
        groups = self._batch_groups(task, items, shard_keys)
        submitted = {
            shard: self._submit(
                task, ([items[i] for i in idxs], *args), shard
            )
            for shard, idxs in groups.items()
        }
        out: list = [None] * len(items)
        for shard, idxs in groups.items():
            idx, ex, fut = submitted[shard]
            group_args = ([items[i] for i in idxs], *args)
            results = yield from self._finish_steps(idx, ex, fut, task, group_args)
            for i, result in zip(idxs, results):
                out[i] = result
        return out

    run_batch = drive.blocking(_run_batch_steps)
    run_batch_async = drive.on_loop(_run_batch_steps)

    def close(self) -> None:
        for shard in self._shards:
            if shard is not None:
                shard.shutdown(wait=True, cancel_futures=True)
        self._shards = []
        self._restarts = []

    def __enter__(self) -> "KernelPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
