"""Tests of the benchmark itself: run with `python3 -m pytest perfbench/tests`.

Every workload runs at a tiny size (--tiny, one second) in both modes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    DECLARED = json.load(_f)


def bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def test_declared_workloads_exist():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_declared_metric(workload, trace):
    proc, lines = bench("--workload", workload, "--seconds", "1", "--tiny",
                        "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
        assert f"{name} = " in proc.stdout
    if not trace:
        assert result["metrics"]["success_rate"]["value"] == 1.0
        assert "error_rate=0\n" in proc.stdout


def copy_bench(dest) -> str:
    """Copy BENCHMARK.json and perfbench/ (without its tests) into dest;
    return the copied run.py."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    return str(dest / "perfbench" / "run.py")


def test_tampered_reference_fails(tmp_path):
    script = copy_bench(tmp_path)
    os.symlink(os.path.join(ROOT, "src"), tmp_path / "src")
    refs_path = tmp_path / "perfbench" / "refs.json"
    refs = json.loads(refs_path.read_text())
    op = workloads.gen_eval_deep(DEFAULT_SEED, True)[0][0]
    key = workloads.digest(workloads.op_key("eval_deep", op))
    assert key in refs["digests"], "refs.json lacks the tiny default-seed ops"
    refs["digests"][key] = "0" * 16
    refs_path.write_text(json.dumps(refs))
    proc, lines = bench("--workload", "eval_deep", "--seconds", "1", "--tiny",
                        cwd=tmp_path, script=script)
    assert proc.returncode != 0
    result = json.loads(lines[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert result["metrics"]["success_rate"]["value"] < 1.0
    assert "output differs from the stored reference" in proc.stdout


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    gen = workloads.GENERATORS[workload]
    assert gen(7, False) == gen(7, False)
    assert gen(7, True) == gen(7, True)
    assert gen(7, False) != gen(8, False)


def test_refuses_without_the_package(tmp_path):
    script = copy_bench(tmp_path)
    proc, lines = bench("--workload", "eval_deep", "--seconds", "1", cwd=tmp_path,
                        script=script)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
