"""Smoke test of the benchmark harness. It asserts no timing.

    python3 -m pytest bench/test_smoke.py

Each workload runs once per mode at its smallest size; the result must
name every metric of BENCHMARK.json with its unit and pass every check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(script: Path, workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


OWN_NAMES = {
    "sweep": ["designs_per_s", "sweep_ms_p50", "sweep_ms_p90"],
    "design_loop": ["loops_per_s", "loop_ms_p50", "loop_ms_p90", "swim_ms_p50"],
    "pose_stream": ["poses_per_s", "pose_ms_p50", "pose_ms_p90"],
}

# prints, per workload, what the first three operations' inputs are made of
INPUTS_SCRIPT = """
import json, sys, tempfile
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
from tracer import Tracer
from workloads import WORKLOADS
keep = {"sweep": [0], "design_loop": [0, 1, 3, 4], "pose_stream": [3, 4]}
out = {}
for name, cls in WORKLOADS.items():
    with tempfile.TemporaryDirectory(dir=sys.argv[3]) as d:
        wl = cls(5, True, Path(d), Tracer(False))
        out[name] = [repr([wl.prepare(i)[k] for k in keep[name]]) for i in range(3)]
print(json.dumps(out))
"""


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_metric_and_passes_checks(workload, trace):
    proc = _run(HERE / "run.py", workload, trace, ROOT)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    named = {line.split()[0] for line in report if " n=" in line}
    own = wanted if trace else ["setup_s", "peak_rss_mb", *OWN_NAMES[workload]]
    assert named >= {"failed_ratio", *own}


def test_same_seed_same_inputs(tmp_path):
    runs = [subprocess.run([sys.executable, "-c", INPUTS_SCRIPT, str(HERE), str(ROOT / "src"),
                            str(tmp_path)], capture_output=True, text=True, timeout=120)
            for _ in range(2)]
    assert all(r.returncode == 0 for r in runs), runs[0].stderr
    assert runs[0].stdout == runs[1].stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path / "bench" / "run.py", WORKLOADS[0], 0, tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
