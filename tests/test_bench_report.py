"""The benchmark session writes its JSON report only when asked to.

``benchmarks/conftest.py`` serialises the session tables to the path in
``REPRO_BENCH_JSON``.  With the variable unset a plain benchmark run must
leave no ``BENCH_*.json`` behind, so it can never overwrite a committed
report in the directory it runs from.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_one_benchmark(cwd, **extra_env):
    environment = {
        key: value for key, value in os.environ.items() if key != "REPRO_BENCH_JSON"
    }
    environment["PYTHONPATH"] = str(REPO_ROOT / "src")
    environment.update(extra_env)
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            str(REPO_ROOT / "benchmarks" / "bench_examples.py"),
            "-k",
            "example1_scontrol",
            "--benchmark-disable",
            "-q",
            "-p",
            "no:cacheprovider",
        ],
        cwd=cwd,
        env=environment,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return sorted(path.name for path in Path(cwd).glob("BENCH_*.json"))


def test_benchmark_run_writes_a_report_only_when_asked(tmp_path):
    pytest.importorskip("pytest_benchmark")
    unset = tmp_path / "unset"
    unset.mkdir()
    assert _run_one_benchmark(unset) == []
    # Control: the same run does write when the variable names a file.
    named = tmp_path / "named"
    named.mkdir()
    assert _run_one_benchmark(named, REPRO_BENCH_JSON="BENCH_X.json") == ["BENCH_X.json"]
