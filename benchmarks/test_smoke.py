"""Smoke test of the benchmark itself: python3 -m pytest benchmarks/test_smoke.py"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def test_every_workload_emits_every_declared_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=HERE.parent, capture_output=True, text=True,
                          timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().endswith("smoke OK")


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (HERE.parent / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload",
                           "threshold-grid", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
