"""Self-tests of the benchmark harness, on reduced-scale workloads.

Run from the repository root (they take about a minute)::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--scale", "small")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _sample(workload: str, trace: bool) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "sample.py"), "--workload",
           workload, "--seed", "7", "--scale", "small"]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def test_benchmark_json_matches_harness():
    assert WORKLOADS == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.per_layer_units()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_its_unit(workload, trace, kind):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_and_unattributed_sum_to_traced_wall(workload):
    record = _sample(workload, trace=True)
    assert "error" not in record, record.get("error")
    total = sum(record["self_s"].values())  # includes "unattributed"
    assert total == pytest.approx(record["wall_s"], rel=1e-9, abs=1e-9)
    assert record["self_s"]["unattributed"] < 0.5 * record["wall_s"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_simulated_outputs_unchanged(workload):
    assert _sample(workload, trace=True)["outputs"] \
        == _sample(workload, trace=False)["outputs"]


def _good_record(outputs: dict) -> dict:
    return {"traced": False, "outputs": dict(outputs), "attempted": 10,
            "failed": 0, "wall_s": 1.0, "sim_bytes": 100, "setup_s": 0.1,
            "peak_rss_mb": 50.0, "calib_s": 0.02, "sim_events": 5}


def test_determinism_check_trips_on_forged_mismatch():
    outputs = {"dfs.write_bw": 1.5, "dfs.sim_events": 5}
    forged = dict(outputs, **{"dfs.write_bw": 1.5000000000000002})
    records = [_good_record(outputs), _good_record(outputs),
               _good_record(forged)]
    verdict = run.check(records)
    assert verdict["correct"] is False
    assert verdict["attempted"] == 30 and verdict["failed"] == 10
    assert [r["ok"] for r in records] == [True, True, False]
    metrics = run.end_to_end(records, verdict["attempted"], verdict["failed"])
    assert metrics["ok_op_share"]["value"] == pytest.approx(20 / 30)


def test_identical_samples_pass_the_check():
    outputs = {"archive.bw": 2.0, "sim_events": 5}
    verdict = run.check([_good_record(outputs), _good_record(outputs)])
    assert verdict == {"attempted": 20, "failed": 0, "reference": outputs,
                       "correct": True}


def test_failed_sample_counts_all_its_ops():
    records = [_good_record({"x": 1.0}), {"traced": False, "error": "boom"}]
    verdict = run.check(records)
    assert verdict["correct"] is False
    assert verdict["attempted"] == 20 and verdict["failed"] == 10


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload",
         WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
