"""Tests of the benchmark itself: tiny runs of every workload, planted failures,
and the output contract.  Run from the repository root:

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.pin_environment()
run.import_program()

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def test_spec_workloads_exist():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert set(listed) | {"table_rows"} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_complete(name, trace):
    result = run.measure(name, seed=3, seconds=0.0, trace=trace, small=True)
    assert result["correct"] and result["failed"] == 0, result["info"]
    assert result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == (PER_LAYER if trace else END_TO_END)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for key, entry in metrics.items():
        assert entry["unit"] == units[key]
        if not trace:
            assert entry["value"] > 0, key


def test_same_seed_gives_same_inputs():
    a, b = workloads.SignDraws(11, small=True), workloads.SignDraws(11, small=True)
    draws_a = [a._draw(row)[3].jump.values for row in a.SIGNS]
    draws_b = [b._draw(row)[3].jump.values for row in b.SIGNS]
    assert draws_a == draws_b
    c = workloads.SignDraws(12, small=True)
    assert [c._draw(row)[3].jump.values for row in c.SIGNS] != draws_a


def test_planted_wrong_verdict_is_counted():
    wl = workloads.TableRows(5, small=True)
    (row,) = wl.order
    wl.expected[row] = "MutantWins"
    ops = wl.run_pass()
    wl.check(ops)
    assert sum(op.failed for op in ops) == 1


def test_planted_flipped_sign_is_counted():
    wl = workloads.SignDraws(5, small=True)
    wl.expected["above_closer_wins"] = -1
    ops = wl.run_pass()
    wl.check(ops)
    failed = [op.data[0] for op in ops if op.failed]
    assert failed == ["above_closer_wins"]


def test_planted_sweep_disagreement_is_counted(tmp_path):
    wl = workloads.InvasionScan(5, small=True, out_dir=tmp_path)
    ops = wl.run_pass()
    sweep = ops[-1]
    (code, text), points = sweep.data
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[-1] = repr(-float(fields[-1]))
    lines[1] = ",".join(fields)
    sweep.data = ((code, "\n".join(lines) + "\n"), points)
    wl.check(ops)
    # the flipped sign fails against the theory and against the 1-worker output
    assert sweep.failed == 1
    assert sum(op.failed for op in ops) == 1


def test_command_prints_result_as_last_line():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sign_draws",
           "--seed", "2", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == END_TO_END


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "sign_draws",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
