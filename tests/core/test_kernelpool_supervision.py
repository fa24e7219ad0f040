"""Kernel-pool supervision: crash recovery, poison, timeouts, reroute.

These tests kill and restart real spawned worker processes, so each one
pays process-startup cost several times over; they are marked ``chaos``
like the other fault-injection sweeps.  The invariants under test:

- a worker crash is retried exactly once, on a **fresh** worker, and the
  retried result is byte-identical to the inline baseline;
- a task that kills two workers in a row is poison: it surfaces as a
  typed :class:`KernelPoolError` and is never executed inline in the
  serving process;
- a plain kernel exception propagates as-is with zero restarts — the
  supervisor only reacts to dead workers and deadlines;
- a shard that exhausts its restart budget is disabled and its keys are
  rerouted to a surviving shard, with the reroute ledgered.
"""

from __future__ import annotations

import pytest

from repro.core.kernelpool import KernelPool, KernelPoolError, run_kernel
from repro.telemetry import MetricsRegistry

pytestmark = pytest.mark.chaos

_DATA = b"supervision test payload " * 40
_ARGS = (_DATA, "pure", 64, None)


def compress(pool, shard_key="victim"):
    return pool.run("gziplike.compress", *_ARGS, shard_key=shard_key)


class TestCrashRecovery:
    def test_crash_restarts_once_and_heals_byte_identically(self):
        registry = MetricsRegistry()
        inline = run_kernel("gziplike.compress", *_ARGS)
        with KernelPool(workers=1, registry=registry) as pool:
            assert compress(pool) == inline
            with pytest.raises(KernelPoolError) as exc_info:
                pool.run("chaos.exit", 3, shard_key="victim")
            # Poison wording proves the retry ran on a fresh worker and
            # was never executed inline in the serving process.
            assert "two workers in a row" in str(exc_info.value)
            assert "never executed inline" in str(exc_info.value)
            assert compress(pool) == inline
            health = pool.health()
        assert health["restarts_total"] == 2
        assert registry.counter("kernelpool.crashes").value == 2
        assert registry.counter("kernelpool.restarts").value == 2
        assert registry.counter("kernelpool.restarts.crash").value == 2

    def test_plain_exception_propagates_without_restart(self):
        registry = MetricsRegistry()
        with KernelPool(workers=1, registry=registry) as pool:
            with pytest.raises(RuntimeError, match="deliberate"):
                pool.run("chaos.boom", "deliberate", shard_key="victim")
            health = pool.health()
        assert health["restarts_total"] == 0
        assert registry.counter("kernelpool.crashes").value == 0

    def test_timeout_kills_revives_and_gives_up_after_second(self):
        registry = MetricsRegistry()
        with KernelPool(
            workers=1, registry=registry, task_timeout_s=0.5
        ) as pool:
            inline = run_kernel("gziplike.compress", *_ARGS)
            with pytest.raises(KernelPoolError, match="timed out twice"):
                pool.run("chaos.sleep", 30.0, shard_key="victim")
            # The revived (pre-warmed) worker serves normal traffic
            # without the spawn cost eating the next task's deadline.
            assert compress(pool) == inline
        assert registry.counter("kernelpool.timeouts").value == 2
        assert registry.counter("kernelpool.restarts.timeout").value == 2


class TestRestartBudgetAndReroute:
    def test_exhausted_shard_is_disabled_and_rerouted(self):
        registry = MetricsRegistry()
        inline = run_kernel("gziplike.compress", *_ARGS)
        with KernelPool(workers=2, registry=registry) as pool:
            # Two poison tasks cost 2 restarts each on the victim shard —
            # past the default budget of 3 — so the shard is disabled.
            for _ in range(2):
                with pytest.raises(KernelPoolError):
                    pool.run("chaos.exit", 3, shard_key="victim")
            healed = compress(pool)
            health = pool.health()
        assert healed == inline  # served by the rerouted survivor
        assert len(health["disabled"]) == 1
        assert health["restarts_total"] == 4
        assert registry.counter("kernelpool.rerouted").value == 1
        assert registry.counter("kernelpool.shards_disabled").value == 1

    def test_all_shards_disabled_is_a_typed_hard_failure(self):
        with KernelPool(workers=1, max_shard_restarts=0) as pool:
            with pytest.raises(KernelPoolError):
                pool.run("chaos.exit", 3, shard_key="victim")
            with pytest.raises(KernelPoolError, match="all kernel-pool shards"):
                compress(pool)

    def test_supervision_is_not_optional(self):
        # The unsupervised fail-fast path is gone, and so is its switch.
        with pytest.raises(TypeError, match="supervised"):
            KernelPool(supervised=False)


class TestHealthSurface:
    def test_health_reports_shape(self):
        with KernelPool(workers=1, task_timeout_s=2.0) as pool:
            health = pool.health()
        assert health["workers"] == 1
        assert "supervised" not in health
        assert health["task_timeout_s"] == 2.0
        assert health["restarts"] == [0]
        assert health["restarts_total"] == 0
        assert health["disabled"] == []
