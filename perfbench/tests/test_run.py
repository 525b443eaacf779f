"""The command refuses to report without the program's source."""

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trial-sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_sweep_wall_is_the_sum_of_per_experiment_medians():
    import run

    sweeps = [{"per_experiment_s": {"a": 1.0, "b": 10.0}},
              {"per_experiment_s": {"a": 9.0, "b": 2.0}},
              {"per_experiment_s": {"a": 2.0, "b": 3.0}}]
    # A slow spell in one experiment of one sweep drops out.
    assert run.sweep_wall_s(sweeps, ["a", "b"]) == 2.0 + 3.0
    assert run.sweep_wall_s(sweeps[:1], ["a", "b"]) == 11.0
