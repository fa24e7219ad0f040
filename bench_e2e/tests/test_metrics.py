"""Percentiles, sample counts and the closing identity of the per-layer table."""

import pytest

import metrics
import spans
from harness import Window

COUNTS = {"wire.client_sent": 600, "wire.client_received": 1400, "proxy.search_seconds": 0.0}


def window(latencies_ms, **kw):
    return Window(
        latencies_s=[ms / 1000.0 for ms in latencies_ms], attempted=len(latencies_ms),
        wall_s=2.0, cpu_s=1.0, counts=dict(COUNTS), **kw,
    )


def test_end_to_end_reports_median_p90_and_per_session_shares():
    out = metrics.end_to_end(window(range(1, 102)), setup_s=0.5)
    assert set(out) == set(metrics.END_TO_END)
    assert out["session_p50_ms"] == (pytest.approx(51.0), "ms")
    assert out["session_p90_ms"] == (pytest.approx(91.0), "ms")   # ten samples beyond it
    assert out["sessions_per_s"][0] == pytest.approx(101 / 2.0)
    assert out["cpu_ms_per_session"][0] == pytest.approx(1000.0 / 101)
    assert out["wire_bytes_per_session"][0] == pytest.approx(2000 / 101)
    assert out["setup_s"] == (0.5, "s")
    assert all(value > 0 for value, _ in out.values())


def test_failed_sessions_lower_throughput_not_the_attempt_count():
    w = window([1.0] * 10)
    w.fail("boom")
    w.attempted += 1
    assert (w.attempted, w.failed, w.verified) == (11, 1, 10)
    assert metrics.end_to_end(w, 0.1)["sessions_per_s"][0] == pytest.approx(10 / 2.0)


def traced(n_sessions):
    """n sessions of 4 ms: 1 ms of inp.encode, 2 ms of request holding 1.5 ms of handler."""
    rec = spans.Recorder()
    for i in range(n_sessions):
        base, t = 4 * i, 0.004 * i
        for k, (layer, name, parent, start, end) in enumerate((
            ("core.client", spans.ROOT, 0, 0.0, 4.0),
            ("core.inp", "inp.encode", 1, 0.5, 1.5),
            ("simnet", "simnet.request", 1, 1.5, 3.5),
            ("core.appserver", "appserver.handle", 3, 1.75, 3.25),
        ), 1):
            rec.rows.append((base + k, base + parent if parent else 0, base + 1, layer, name,
                             t + start / 1000.0, t + end / 1000.0, 100))
    return rec


def test_per_layer_self_times_add_up_to_the_session():
    rec = traced(20)
    out = metrics.per_layer(window([4.0] * 20, app_bytes=1000, raw_bytes=4000),
                            rec, window([3.2] * 20))
    assert set(out) == set(metrics.PER_LAYER)
    parts = ("client.self_ms", "inp.encode_ms", "simnet.request_self_ms", "appserver.handle_self_ms")
    assert [out[p][0] for p in parts] == pytest.approx([1.0, 1.0, 0.5, 1.5])
    assert sum(v for name, (v, u) in out.items()
               if u == "ms" and name.endswith("_ms") and name not in
               ("client.session_p99_ms", "simnet.connect_ms", "kernelpool.call_ms_per_task",
                "kernelpool.ipc_ms_per_task", "proxy.search_ms_per_miss", "telemetry.est_ms")
               ) == pytest.approx(4.0)
    assert out["trace.closure_error"][0] == pytest.approx(0.0, abs=1e-9)
    assert out["trace.overhead_ratio"][0] == pytest.approx(4.0 / 3.2)
    assert out["inp.messages_per_session"][0] == 1.0
    assert out["inp.envelope_overhead_ratio"][0] == pytest.approx(2.0)
    assert out["protocols.savings_ratio"][0] == pytest.approx(0.75)


def test_p99_is_reported_only_with_a_thousand_samples():
    rec = traced(2)
    few = metrics.per_layer(window([4.0] * 2, app_bytes=1), rec, window(range(1, 1000)))
    many = metrics.per_layer(window([4.0] * 2, app_bytes=1), rec, window(range(1, 1002)))
    assert few["client.session_p99_ms"][0] == 0.0
    assert many["client.session_p99_ms"][0] == pytest.approx(991.0)   # ten samples beyond it
