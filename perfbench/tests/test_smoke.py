"""Smoke tests for the benchmark command.

Each workload runs a handful of operations, timed and traced; the tests
assert that every metric named in BENCHMARK.json is printed with its unit
and that no operation failed.  Run from the root of a checkout::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--ops", "2"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    return result


def printed_metrics(stdout: str) -> dict:
    """{name: (value, unit)} from the human-readable 'name value unit' lines."""
    out = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) >= 3 and not line.startswith("meta "):
            try:
                out[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                continue
    return out


def test_workloads_match_the_spec():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import workloads
    finally:
        del sys.path[:2]
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    proc = run(workload, trace=0)
    result = result_of(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = printed_metrics(proc.stdout)
    for name, unit in expected.items():
        assert printed[name][1] == unit
    wall = {"ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms"}
    assert {name: printed[name][1] for name in wall} == wall
    assert printed["failed_frac"] == (0.0, "1")
    quality = {"oracle_gap_db_max"} if workload == "oracle-verify" else {"greedy_db", "greedy_vs_random_db"}
    assert all(printed[name][1] == "dB" for name in quality)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result = result_of(run(workload, trace=1))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_traced_counts_repeat_exactly():
    counts = [name for name, unit in ((m["name"], m["unit"]) for m in SPEC["per_layer"]) if unit == "count"]
    first, second = (result_of(run("paper-k20n50", trace=1))["metrics"] for _ in range(2))
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["qmkp.value_density_calls"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
