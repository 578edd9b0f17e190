"""Smoke test: every workload at the smallest rung of each ladder, untraced
and traced, so the harness cannot rot.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, run_py=HERE / "run.py", cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(run_py), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smallest_rungs(workload, trace):
    proc = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert result["failed"] == 0
    listed = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        if m["name"] != "cost_slope":  # one rung per alphabet gives no slope
            assert math.isfinite(reported["value"])


def test_same_seed_same_output():
    runs = [bench("--workload", "build", "--seed", "3", "--seconds", "1",
                  "--trace", "0", "--smoke") for _ in range(2)]
    digests = [line for proc in runs for line in proc.stdout.splitlines()
               if "output_sha256" in line]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_refuses_without_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "build", "--seed", "1", "--seconds", "1", "--trace", "0",
                 run_py=tmp_path / HERE.name / "run.py", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
