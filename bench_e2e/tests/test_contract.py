"""BENCHMARK.json, the tables in the code, and what a run prints must agree."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    proc = subprocess.run([*BENCHMARK["command"], *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)
    return proc, proc.stdout.splitlines()[-1] if proc.stdout else ""


def test_benchmark_json_lists_exactly_what_the_code_measures():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert BENCHMARK["paths"] == ["bench_e2e"]
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} \
        == metrics.PER_LAYER
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    # 4 + 22 x workloads runs of run_seconds plus set-up must fit the driver's cap.
    runs = 4 + 22 * len(BENCHMARK["workloads"])
    assert runs * (BENCHMARK["run_seconds"] + 12) <= 3420


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_and_a_correct_result(name, trace):
    proc, last = run("--workload", name, "--seed", "3", "--seconds", "0.4", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} \
        == {k: v[0] for k, v in expected.items()}
    if trace:
        assert result["metrics"]["trace.closure_error"]["value"] <= 0.01
        assert (ROOT / "bench_e2e" / "out" / f"trace-{name}.json").exists()
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_counts_repeat_exactly_for_one_seed_and_session_count():
    args = ("--workload", "store_churn_async", "--seed", "11", "--sessions", "120")
    for trace in ("0", "1"):
        first, second = (json.loads(run(*args, "--trace", trace)[1])["metrics"] for _ in range(2))
        for name in metrics.EXACT:
            if name in first:
                assert first[name]["value"] == second[name]["value"], name
    assert first["kernelpool.tasks_per_session"]["value"] > 0
    assert first["store.evictions_per_session"]["value"] > 0


def _pids_in_session(sid):
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
            found.append(int(entry))
    return found


@pytest.mark.parametrize("name", ["store_hit_async", "store_churn_async"])
def test_a_pooled_run_leaves_no_process_behind(name):
    """The pool's workers and multiprocessing's resource tracker end with the run."""
    proc = subprocess.Popen(
        [*BENCHMARK["command"], "--workload", name, "--seed", "3", "--seconds", "0.4",
         "--trace", "0"],
        cwd=ROOT, start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    assert proc.wait(timeout=180) == 0
    assert _pids_in_session(proc.pid) == []


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench_e2e", tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, last = run("--workload", "first_contact", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not last.startswith("{")
