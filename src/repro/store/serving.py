"""Store-backed response assembly for the application server.

:class:`StoreBackedResponder` sits between the serving path (sync
threads or the asyncio handler) and the :class:`~repro.store.ChunkStore`:

* **Response records** — the finished wire bytes of one part exchange,
  keyed by content (SHA-1 of the stack spec, the request, the old part,
  the new part).  The second session asking for the same page version
  over the same negotiated stack is a pure store hit: zero kernel
  invocations, byte-identical bytes.
* **Chunk records** — CDC boundaries plus truncated per-chunk SHA-1
  digests for one content blob, keyed by the blob's digest and the
  chunker parameters.  A page version is chunked/digested **once**
  (through the kernel pool, sharded by the content digest rather than
  any session id); vary-blocking deltas for any (old, new) pair are then
  assembled locally from the two cached records by
  :func:`vary_delta_from_records`, which replicates
  ``VaryBlockingProtocol.server_respond`` byte for byte (the golden wire
  vectors run through this path in the tests).

Cold-path kernels (full ``stack.respond`` for non-vary stacks, the
``cdc.record`` preparation pass) dispatch through the pool with
``shard_key=<content digest>``, so equal content lands on the same
worker process fleet-wide, no matter which session triggered it.  When
several blobs need records at once (a vary delta's old+new pair, a
corpus prewarm), :meth:`StoreBackedResponder.chunk_records_batch` probes
the store first and ships every absent blob to **one** batched
``cdc.record_batch`` kernel call — the corpus-granularity scan — while
publishing results through the same single-flight ``get_or_compute`` so
the store's exact ledger (``computes == misses``) is unchanged.

Each entry point is one step generator with a blocking and an asyncio
driver (:mod:`repro.drive`); whichever driver runs, the store and the
pool are reached through their public names.
"""

from __future__ import annotations

import hashlib
import struct
from contextlib import nullcontext
from typing import Optional

from ..core.kernelpool import KernelPool, StackSpec, _stack_for_spec
from ..drive import blocking, layer, on_loop
from ..protocols.base import DeltaOp, encode_delta
from ..telemetry import MetricsRegistry
from .chunkstore import ChunkStore

__all__ = [
    "StoreBackedResponder",
    "chunk_record_key",
    "response_key",
    "unpack_chunk_record",
    "vary_delta_from_records",
]

_DIGEST_TRUNCATE = 16  # matches VaryBlockingProtocol's LBFS truncation
_PAIR = struct.Struct("<II")

# The inline pool every responder without an explicit pool shares.
_INLINE_POOL = KernelPool(workers=0)


def _digest_hex(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def response_key(
    spec: StackSpec, request: bytes, old: Optional[bytes], new: bytes
) -> str:
    """Content-addressed key for one part exchange's wire bytes."""
    h = hashlib.sha1()
    h.update(repr(spec).encode("utf-8"))
    h.update(b"\x00")
    h.update(hashlib.sha1(request).digest() if request else b"-")
    h.update(b"\x00")
    h.update(hashlib.sha1(old).digest() if old is not None else b"-")
    h.update(b"\x00")
    h.update(hashlib.sha1(new).digest())
    return f"resp:{h.hexdigest()}"


def chunk_record_key(
    content_digest: str, mask_bits: int, window: int, truncate: int
) -> str:
    return f"cdc:{mask_bits}:{window}:{truncate}:{content_digest}"


def unpack_chunk_record(
    blob: bytes, truncate: int = _DIGEST_TRUNCATE
) -> list[tuple[int, int, bytes]]:
    """Packed ``cdc.record`` bytes -> ``[(offset, length, digest), ...]``."""
    entry = _PAIR.size + truncate
    if len(blob) % entry:
        raise ValueError(
            f"chunk record length {len(blob)} is not a multiple of {entry}"
        )
    out = []
    for pos in range(0, len(blob), entry):
        offset, length = _PAIR.unpack_from(blob, pos)
        out.append(
            (offset, length, blob[pos + _PAIR.size : pos + entry])
        )
    return out


def vary_delta_from_records(
    old: Optional[bytes],
    old_record: Optional[list[tuple[int, int, bytes]]],
    new: bytes,
    new_record: list[tuple[int, int, bytes]],
) -> bytes:
    """COPY/DATA delta from two cached chunk records.

    Byte-identical to ``VaryBlockingProtocol.server_respond``: same
    insertion-ordered digest table (collisions keep every location, in
    chunk order), same byte-equality guard against truncated-digest
    collisions, same DATA-run flushing.
    """
    if old is None:
        return encode_delta([DeltaOp(data=new)] if new else [])
    assert old_record is not None
    table: dict[bytes, list[tuple[int, int]]] = {}
    for offset, length, digest in old_record:
        table.setdefault(digest, []).append((offset, length))
    ops: list[DeltaOp] = []
    pending = bytearray()

    def flush() -> None:
        if pending:
            ops.append(DeltaOp(data=bytes(pending)))
            pending.clear()

    empty: list[tuple[int, int]] = []
    for offset, length, digest in new_record:
        piece = new[offset : offset + length]
        matched = None
        for h_off, h_len in table.get(digest, empty):
            if old[h_off : h_off + h_len] == piece:
                matched = (h_off, h_len)
                break
        if matched is not None:
            flush()
            ops.append(DeltaOp(offset=matched[0], length=matched[1]))
        else:
            pending += piece
    flush()
    return encode_delta(ops)


class StoreBackedResponder:
    """Serve part exchanges from the fleet store (see module docstring)."""

    def __init__(
        self,
        store: ChunkStore,
        *,
        pool: Optional[KernelPool] = None,
        registry: Optional[MetricsRegistry] = None,
        timer_name: Optional[str] = None,
    ) -> None:
        self.store = store
        self.pool = pool if pool is not None else _INLINE_POOL
        self._registry = registry
        # Compute time lands in this histogram (the appserver passes its
        # encode timer) — store hits add nothing to it, which is the
        # whole point and what the warm/cold p99 comparison measures.
        self._timer_name = timer_name

    def _timer(self):
        if self._registry is not None and self._timer_name is not None:
            return self._registry.timer(self._timer_name)
        return nullcontext()

    def _count_response(self) -> None:
        if self._registry is not None:
            self._registry.counter(f"store.{self.store.name}.responses").inc()

    @staticmethod
    def _vary_params(spec: StackSpec) -> Optional[tuple[int, int]]:
        """(mask_bits, window) when the innermost protocol is vary."""
        pad_id, kwargs = spec[0]
        if pad_id != "vary":
            return None
        kv = dict(kwargs)
        return int(kv.get("mask_bits", 10)), int(kv.get("window", 48))

    def _apply_outer_layers(self, spec: StackSpec, payload: bytes) -> bytes:
        for outer in spec[1:]:
            payload = _stack_for_spec((outer,)).server_respond(b"", None, payload)
        return payload

    # -- chunk records -------------------------------------------------------

    def _record_steps(
        self, data: bytes, digest: str, key: str, mask_bits: int, window: int,
        staged: dict[str, bytes],
    ):
        """Get-or-compute one chunk record through the store."""
        ready = staged.get(key)
        if ready is not None:  # the batch probe saw a miss and pre-staged it
            compute = lambda: ready
        else:
            # A single-blob lookup, or the probe said present and the
            # record was evicted since: a real kernel call covers it.
            compute = lambda: layer(
                self.pool, "run",
                "cdc.record", data, mask_bits, window, _DIGEST_TRUNCATE,
                shard_key=digest,
            )
        blob = yield from layer(self.store, "get_or_compute", key, compute)
        return unpack_chunk_record(blob, _DIGEST_TRUNCATE)

    def _chunk_record_steps(
        self, data: bytes, *, mask_bits: int = 10, window: int = 48
    ):
        """The cached CDC record for one content blob (computed once)."""
        digest = _digest_hex(data)
        key = chunk_record_key(digest, mask_bits, window, _DIGEST_TRUNCATE)
        return self._record_steps(data, digest, key, mask_bits, window, {})

    chunk_record = blocking(_chunk_record_steps)
    chunk_record_async = on_loop(_chunk_record_steps)

    def _chunk_records_batch_steps(
        self, datas: list, *, mask_bits: int = 10, window: int = 48
    ):
        """Cached CDC records for several blobs, cold ones batched.

        Records absent from the store are computed by **one**
        ``cdc.record_batch`` kernel call (sharded by content digest, the
        same placement the per-blob path uses), then published through
        the normal single-flight ``get_or_compute`` so store ledger
        counters and concurrent-writer semantics are untouched.

        The store probe uses ``in`` (no counter side effects):
        ledger-visible lookups/hits/misses/computes all happen inside
        the per-key ``get_or_compute`` afterwards, so the exact
        ``computes == misses`` reconciliation is preserved — the batch
        pass only *pre-stages* bytes for keys expected to miss.
        """
        keyed = [
            (
                digest := _digest_hex(data),
                chunk_record_key(digest, mask_bits, window, _DIGEST_TRUNCATE),
            )
            for data in datas
        ]
        seen: set[str] = set()
        missing = [
            i
            for i, (_, key) in enumerate(keyed)
            if key not in self.store and not (key in seen or seen.add(key))
        ]
        staged: dict[str, bytes] = {}
        if missing:
            blobs = yield from layer(
                self.pool, "run_batch",
                "cdc.record_batch",
                [datas[i] for i in missing],
                mask_bits, window, _DIGEST_TRUNCATE,
                shard_keys=[keyed[i][0] for i in missing],
            )
            staged.update((keyed[i][1], blob) for i, blob in zip(missing, blobs))
        out = []
        for data, (digest, key) in zip(datas, keyed):
            out.append(
                (yield from self._record_steps(
                    data, digest, key, mask_bits, window, staged
                ))
            )
        return out

    chunk_records_batch = blocking(_chunk_records_batch_steps)
    chunk_records_batch_async = on_loop(_chunk_records_batch_steps)

    # -- responses -----------------------------------------------------------

    def _respond_steps(
        self, spec: StackSpec, request: bytes, old: Optional[bytes], new: bytes
    ):
        """One part exchange, served from the store when possible."""
        self._count_response()
        key = response_key(spec, request, old, new)
        return (
            yield from layer(
                self.store, "get_or_compute", key,
                lambda: self._compute(spec, request, old, new),
            )
        )

    respond = blocking(_respond_steps)
    respond_async = on_loop(_respond_steps)

    def _compute(
        self, spec: StackSpec, request: bytes, old: Optional[bytes], new: bytes
    ):
        """Steps of one cold response; run by the store's driver."""
        vary = self._vary_params(spec)
        if vary is not None and old is not None:
            mask_bits, window = vary
            old_rec, new_rec = yield from self._chunk_records_batch_steps(
                [old, new], mask_bits=mask_bits, window=window
            )
            with self._timer():
                payload = vary_delta_from_records(old, old_rec, new, new_rec)
                return self._apply_outer_layers(spec, payload)
        with self._timer():
            return (
                yield from layer(
                    self.pool, "run",
                    "stack.respond", spec, request, old, new,
                    shard_key=_digest_hex(new),
                )
            )
