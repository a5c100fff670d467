"""Smoke tests: the runnable examples must stay runnable.

Only the fast examples run here (the full set is exercised manually /
in benchmarks); each must exit 0 and print its key result lines.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, timeout: float = 240.0, python_flags=()):
    return subprocess.run(
        [sys.executable, *python_flags, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_quickstart():
    # The quickstart shows the current API: any deprecated call fails it.
    proc = run_example(
        "quickstart.py", python_flags=("-W", "error::DeprecationWarning")
    )
    assert proc.returncode == 0, proc.stderr
    assert "communities found:" in proc.stdout
    assert "trace over 8 rank(s)" in proc.stdout


def test_binary_file_pipeline():
    proc = run_example("binary_file_pipeline.py")
    assert proc.returncode == 0, proc.stderr
    assert "modelled I/O share" in proc.stdout
    assert "communities found:" in proc.stdout


@pytest.mark.slow
def test_social_network_analysis():
    proc = run_example("social_network_analysis.py")
    assert proc.returncode == 0, proc.stderr
    assert "F-score" in proc.stdout


@pytest.mark.slow
def test_dynamic_communities():
    proc = run_example("dynamic_communities.py")
    assert proc.returncode == 0, proc.stderr
    assert "churn batches" in proc.stdout


@pytest.mark.slow
def test_scaling_study():
    proc = run_example("scaling_study.py")
    assert proc.returncode == 0, proc.stderr
    assert "extrapolated strong scaling" in proc.stdout


def test_service_demo():
    proc = run_example("service_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "concurrent jobs: 20/20 done, 0 lost" in proc.stdout
    assert "resumed from checkpoint" in proc.stdout
    assert "recovered result bit-identical to uninterrupted run: True" in proc.stdout
    assert "(cache hit)" in proc.stdout
    assert "cached result bit-identical to original: True" in proc.stdout


def test_checkpoint_resume():
    proc = run_example("checkpoint_resume.py")
    assert proc.returncode == 0, proc.stderr
    assert "injected failure:" in proc.stdout
    assert "bit-identical to uninterrupted run: True" in proc.stdout


def test_autotune_demo():
    proc = run_example("autotune_demo.py")
    assert proc.returncode == 0, proc.stderr
    assert "database hit" in proc.stdout
    assert "nearest tuned neighbour" in proc.stdout
    assert "autotune demo ok" in proc.stdout


@pytest.mark.slow
def test_observability_demo():
    proc = run_example("observability_demo.py", timeout=420.0)
    assert proc.returncode == 0, proc.stderr
    assert "drift crossed" in proc.stdout
    assert "forced background re-tune ran" in proc.stdout
    assert "bit-identical with obs on/off" in proc.stdout
    assert "observability demo OK" in proc.stdout
