"""Smoke test of the benchmark on tiny meshes (a few seconds):

    python3 -m pytest perfbench/test_smoke.py
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
sys.path[:0] = [str(ROOT / "src"), str(HERE)]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=120, cwd=cwd)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    out = bench(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    env = json.loads(lines[0])["env"]
    assert env["threads_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert all(lib["threads"] == 1 for lib in env["blas"] if "threads" in lib)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert "trace.overhead_s" in result["metrics"]
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC[kind])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


@pytest.mark.parametrize("lost", [None, 0, 20])
def test_interface_check_fails_on_a_lost_crossing(tmp_path, lost):
    from workloads import check_interface_csv
    rows = [f"{0.01 * i},1,1,{'nan' if i == lost else 0.01}" for i in range(31)]
    path = tmp_path / "interface.csv"
    path.write_text("t,measured_radius,reference_radius,rel_error\n" + "\n".join(rows))
    worst, problems = check_interface_csv(path)
    assert (worst, problems == []) == ((0.01, True) if lost is None else (math.inf, False))
