"""Deterministic retry with exponential backoff and a timeout budget.

Pervasive links drop frames and edgeservers disappear mid-download;
the Fractal client needs a retry discipline that (a) backs off
exponentially so a struggling proxy is not hammered, (b) jitters
deterministically so two runs with the same seed retry at the same
instants (the chaos experiments demand bit-reproducibility), and (c)
stops within a bounded *delay budget* so a dead endpoint cannot stall a
session forever.

The policy is pure arithmetic: delays are derived from SHA-1 of
``(key, attempt)``, never from wall clock or the process-global
``random``.  By default :meth:`RetryPolicy.call` does not sleep — the
computed backoff is *accounted* against the budget (and reported to the
``on_retry`` hook) but not actually waited out, which keeps in-process
experiments fast while preserving the decision sequence a sleeping
deployment would make.  Pass ``sleep=time.sleep`` to get real waits.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from ..drive import Steps, invoked, run

__all__ = ["RetryBudgetExceeded", "RetryPolicy", "DEFAULT_RETRY_POLICY"]


class RetryBudgetExceeded(Exception):
    """Internal marker: the delay budget ran out before the attempts did."""


def _unit_jitter(key: str, attempt: int) -> float:
    """Deterministic uniform-ish draw in [0, 1) from (key, attempt)."""
    digest = hashlib.sha1(f"{key}#{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff + deterministic jitter + delay budget.

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    call and up to two retries.  ``budget_s`` caps the *sum of backoff
    delays* across one :meth:`call`; when the next computed delay would
    overflow the budget, the last error is re-raised instead of retrying.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    jitter: float = 0.5  # fraction of each delay replaced by the jitter draw
    budget_s: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay_s < 0 or self.max_delay_s < 0 or self.budget_s < 0:
            raise ValueError("delays and budget must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay_s(self, attempt: int, key: str = "") -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        nominal = min(
            self.base_delay_s * self.multiplier ** (attempt - 1), self.max_delay_s
        )
        if self.jitter == 0.0:
            return nominal
        steady = nominal * (1.0 - self.jitter)
        return steady + nominal * self.jitter * _unit_jitter(key, attempt)

    def steps(
        self,
        attempt_steps: Callable[[], Steps],
        *,
        retryable: tuple[type[BaseException], ...],
        key: str = "",
        sleep: Optional[Callable[[float], None]] = None,
        on_retry: Optional[Callable[[int, float, BaseException], None]] = None,
    ) -> Steps:
        """Step generator: each attempt runs ``attempt_steps()`` until
        one succeeds, retries exhaust, or the budget runs out.

        ``on_retry(attempt, delay_s, exc)`` fires before each retry —
        the client uses it to bump telemetry counters and poison bad
        CDN edges.  Non-``retryable`` exceptions propagate immediately.

        Exceptions carrying a positive ``retry_after_s`` attribute (the
        server-side hint on
        :class:`~repro.core.errors.ServerOverloadedError`) raise the
        computed backoff to at least that value, capped at
        ``max_delay_s`` — an overloaded server's explicit "come back in
        X" beats the client's own schedule, but cannot stretch a delay
        past the policy's ceiling.
        """
        spent = 0.0
        attempt = 1
        while True:
            try:
                return (yield from attempt_steps())
            except retryable as exc:
                if attempt >= self.max_attempts:
                    raise
                delay = self.delay_s(attempt, key)
                hint = getattr(exc, "retry_after_s", None)
                if isinstance(hint, (int, float)) and hint > 0:
                    delay = max(delay, min(float(hint), self.max_delay_s))
                if spent + delay > self.budget_s:
                    raise
                spent += delay
                if on_retry is not None:
                    on_retry(attempt, delay, exc)
                if sleep is not None:
                    sleep(delay)
                attempt += 1

    def call(self, fn: Callable[[], object], **kwargs):
        """:meth:`steps` for a plain blocking ``fn`` (same keywords)."""
        return run(self.steps(lambda: invoked(fn), **kwargs))


DEFAULT_RETRY_POLICY = RetryPolicy()
