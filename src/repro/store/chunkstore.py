"""Fleet-level content-addressed store with single-flight computation.

The serving path before this subsystem deduplicated only *within* a
session: every client requesting the same page version re-ran the same
CDC scan, the same digesting, the same compression.  A
:class:`ChunkStore` promotes that work to fleet scope — records are
keyed by content (SHA-1 digests of the bytes that produced them), so any
session arriving at any thread, worker process, or event-loop task can
reuse a record some earlier session paid to compute.

Three properties carry the whole design:

* **Content addressing.**  Keys are derived from digests of the inputs
  (page part bytes, request bytes, protocol-stack spec), never from
  session identity.  Equal content ⇒ equal key ⇒ one compute.
* **Single-flight.**  When N callers race on a cold key, exactly one
  (the *leader*) runs the compute; the rest block on an event and
  receive the leader's bytes.  A digest is therefore never compressed
  twice even under a thundering herd — the ``coalesced`` counter proves
  it.  A leader failure propagates the exception to every waiter and
  caches nothing.
* **Bounded.**  Strict LRU over both an entry count and a byte budget.
  A record larger than the byte budget is returned but never cached
  (counted under ``oversize``) instead of wiping the whole store.
* **Self-certifying.**  A key of the form ``blob:<40 hex>`` names raw
  content by its SHA-1, and the store *verifies* that claim on every
  insert: bytes whose digest does not match the key are rejected
  (counted under ``rejected``, :class:`PoisonedRecordError` raised,
  nothing cached) — the defense against cache-poisoning submissions
  where an attacker supplies wrong content for a valid digest.  Keys in
  other namespaces (``resp:``, ``cdc:``) hash the *inputs* of a compute,
  not its output, so they cannot be self-verified; those records are
  only ever produced by the serving path itself, never accepted from an
  untrusted submitter.

Telemetry (all under ``store.<name>.*`` in the shared registry, mirrored
on the instance for registry-less use): ``lookups``, ``hits``,
``misses``, ``coalesced``, ``computes``, ``inserts``, ``evictions``,
``oversize``, ``rejected`` (digest-mismatch submissions refused),
``bytes_saved`` (bytes served from cache instead of recomputed), plus
``entries``/``bytes`` gauges.  The exact ledger the bench reconciles:
``lookups == hits + misses + coalesced`` and ``computes == misses``.

Thread safety: one lock guards the LRU map and the in-flight table;
computes run *outside* the lock, so a slow kernel never blocks hits on
other keys.  The lookup is one step generator; :meth:`get_or_compute`
and :meth:`get_or_compute_async` are its blocking and asyncio drivers
(:mod:`repro.drive`) and share the in-flight table — sync threads and
event-loop tasks coalesce against each other.
"""

from __future__ import annotations

import hashlib
import string
import threading
from collections import OrderedDict
from typing import Callable, Optional

from ..drive import blocking, invoked, on_loop, wait_event
from ..telemetry import MetricsRegistry

__all__ = [
    "ChunkStore",
    "PoisonedRecordError",
    "StoreStats",
    "content_key",
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_MAX_BYTES",
]

DEFAULT_MAX_ENTRIES = 4096
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

_BLOB_PREFIX = "blob:"
_SHA1_HEX_LEN = 40
_HEX_DIGITS = frozenset(string.hexdigits.lower())


class PoisonedRecordError(ValueError):
    """A self-certifying record's bytes did not match its claimed digest.

    Raised instead of caching: a poisoned submission must never be
    inserted, and every caller (the submitter, plus any coalesced
    waiters on the same key) must learn the record was refused.
    """


def content_key(data: bytes) -> str:
    """The self-certifying store key for raw content bytes."""
    return f"{_BLOB_PREFIX}{hashlib.sha1(data).hexdigest()}"


def _verify_self_certifying(key: str, value: bytes) -> Optional[str]:
    """Why ``(key, value)`` must be refused, or None if it may be cached.

    Only the ``blob:`` namespace is self-certifying.  A malformed claim
    (wrong length, non-hex) is refused outright — accepting it would let
    an attacker smuggle unverifiable content into the verified namespace.
    """
    if not key.startswith(_BLOB_PREFIX):
        return None
    digest = key[len(_BLOB_PREFIX):].lower()
    if len(digest) != _SHA1_HEX_LEN or not set(digest) <= _HEX_DIGITS:
        return f"malformed self-certifying key {key!r}"
    actual = hashlib.sha1(value).hexdigest()
    if actual != digest:
        return (
            f"content digest {actual} does not match the digest claimed "
            f"by key {key!r}"
        )
    return None


class StoreStats:
    """Point-in-time view of one store's counters (plain ints)."""

    __slots__ = (
        "lookups", "hits", "misses", "coalesced", "computes", "inserts",
        "evictions", "oversize", "rejected", "bytes_saved", "entries",
        "bytes_cached",
    )

    def __init__(self, **kv: int) -> None:
        for name in self.__slots__:
            setattr(self, name, kv.get(name, 0))

    @property
    def hit_ratio(self) -> float:
        served = self.hits + self.coalesced
        return served / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        d = {name: getattr(self, name) for name in self.__slots__}
        d["hit_ratio"] = self.hit_ratio
        return d


class _Flight:
    """One in-progress compute; waiters block on the event."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Optional[bytes] = None
        self.error: Optional[BaseException] = None


class ChunkStore:
    """LRU + byte-bounded content-addressed record store (see module doc)."""

    def __init__(
        self,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
        name: str = "fleet",
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.name = name
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._registry = registry
        self._prefix = f"store.{name}"
        self._lock = threading.Lock()
        self._items: "OrderedDict[str, bytes]" = OrderedDict()
        self._flights: dict[str, _Flight] = {}
        self._bytes = 0
        self._counts = {
            "lookups": 0, "hits": 0, "misses": 0, "coalesced": 0,
            "computes": 0, "inserts": 0, "evictions": 0, "oversize": 0,
            "rejected": 0, "bytes_saved": 0,
        }

    # -- counters ------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        # Callers hold self._lock; the registry has its own per-metric locks.
        self._counts[name] += n
        if self._registry is not None:
            self._registry.counter(f"{self._prefix}.{name}").inc(n)

    def _set_gauges_locked(self) -> None:
        if self._registry is not None:
            self._registry.gauge(f"{self._prefix}.entries").set(len(self._items))
            self._registry.gauge(f"{self._prefix}.bytes").set(self._bytes)

    @property
    def stats(self) -> StoreStats:
        with self._lock:
            return StoreStats(
                entries=len(self._items), bytes_cached=self._bytes, **self._counts
            )

    # -- plain mapping surface ----------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._items

    @property
    def used_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def get(self, key: str) -> Optional[bytes]:
        """Counted lookup without compute (hit refreshes LRU recency)."""
        with self._lock:
            self._count("lookups")
            value = self._items.get(key)
            if value is None:
                self._count("misses")
                return None
            self._items.move_to_end(key)
            self._count("hits")
            self._count("bytes_saved", len(value))
            return value

    def put(self, key: str, value: bytes) -> None:
        """Insert (or refresh) a record, evicting LRU entries to fit.

        A self-certifying ``blob:`` key whose bytes do not hash to the
        claimed digest raises :class:`PoisonedRecordError` and caches
        nothing (counted under ``rejected``).
        """
        reason = _verify_self_certifying(key, value)
        if reason is not None:
            with self._lock:
                self._count("rejected")
            raise PoisonedRecordError(reason)
        with self._lock:
            self._insert_locked(key, value)
            self._set_gauges_locked()

    def clear(self) -> None:
        """Drop every cached record (counters keep counting)."""
        with self._lock:
            self._items.clear()
            self._bytes = 0
            self._set_gauges_locked()

    def _insert_locked(self, key: str, value: bytes) -> None:
        if len(value) > self.max_bytes:
            self._count("oversize")
            return
        old = self._items.pop(key, None)
        if old is not None:
            self._bytes -= len(old)
        self._items[key] = value
        self._bytes += len(value)
        self._count("inserts")
        while len(self._items) > self.max_entries or self._bytes > self.max_bytes:
            _, evicted = self._items.popitem(last=False)
            self._bytes -= len(evicted)
            self._count("evictions")

    # -- single-flight compute ----------------------------------------------

    def _begin(self, key: str) -> tuple[Optional[bytes], Optional[_Flight], bool]:
        """One locked step: hit, join an existing flight, or lead a new one.

        Returns ``(value, flight, leader)`` — exactly one of ``value`` /
        ``flight`` is set.
        """
        with self._lock:
            self._count("lookups")
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
                self._count("hits")
                self._count("bytes_saved", len(value))
                return value, None, False
            flight = self._flights.get(key)
            if flight is not None:
                return None, flight, False
            flight = _Flight()
            self._flights[key] = flight
            self._count("misses")
            return None, flight, True

    def _finish(self, key: str, flight: _Flight, value: Optional[bytes],
                error: Optional[BaseException]) -> None:
        with self._lock:
            if error is None:
                assert value is not None
                self._insert_locked(key, value)
                self._count("computes")
                flight.value = value
            else:
                flight.error = error
            self._flights.pop(key, None)
            self._set_gauges_locked()
        flight.event.set()

    def _join(self, flight: _Flight) -> bytes:
        """Account a waiter that got the leader's bytes (or its error)."""
        if flight.error is not None:
            raise flight.error
        value = flight.value
        assert value is not None
        with self._lock:
            self._count("coalesced")
            self._count("bytes_saved", len(value))
        return value

    def _settle(self, key: str, flight: _Flight, value) -> bytes:
        """Validate a leader's compute result and finish the flight.

        Non-bytes results and digest-mismatched self-certifying records
        both fail the flight: the error propagates to the leader *and*
        every coalesced waiter, and nothing is cached.
        """
        if not isinstance(value, (bytes, bytearray)):
            exc: Exception = TypeError(
                f"store compute for {key!r} returned "
                f"{type(value).__name__}, expected bytes"
            )
            self._finish(key, flight, None, exc)
            raise exc
        value = bytes(value)
        reason = _verify_self_certifying(key, value)
        if reason is not None:
            with self._lock:
                self._count("rejected")
            exc = PoisonedRecordError(reason)
            self._finish(key, flight, None, exc)
            raise exc
        self._finish(key, flight, value, None)
        return value

    def _get_or_compute_steps(self, key: str, compute: Callable[[], object]):
        """Return the record for ``key``, computing it at most once.

        Concurrent callers on a cold key coalesce: one runs ``compute``
        (outside the store lock), the rest wait and share the result.
        An exception from ``compute`` propagates to every coalesced
        caller and leaves nothing cached.

        ``compute`` is a plain callable for :meth:`get_or_compute`, a
        coroutine function for :meth:`get_or_compute_async`, or — under
        either — one returning further steps (:func:`repro.drive.invoked`).
        Both drivers share the in-flight table: a task coalesces with
        threads and other tasks alike, waiting on the leader's
        ``threading.Event`` in the default executor so the loop never
        blocks.
        """
        value, flight, leader = self._begin(key)
        if value is not None:
            return value
        assert flight is not None
        if not leader:
            yield wait_event(flight.event)
            return self._join(flight)
        try:
            value = yield from invoked(compute)
        except BaseException as exc:
            self._finish(key, flight, None, exc)
            raise
        return self._settle(key, flight, value)

    get_or_compute = blocking(_get_or_compute_steps)
    get_or_compute_async = on_loop(_get_or_compute_steps)
