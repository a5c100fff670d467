"""Shared infrastructure for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure of Ghosh et al. (IPDPS
2018).  Results print to stdout (run with ``-s`` to watch) and are also
written to ``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can be
refreshed from a plain ``pytest benchmarks/ --benchmark-only`` run.

Times reported by these benchmarks are *modelled* execution times from
the LogGP-style machine model (see DESIGN.md §2) — the wall-clock time
pytest-benchmark measures is the simulator's own cost and is only used
to keep the suite honest about regression.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

# The reference kernels the micro-benchmarks time as their "before" live
# with the tests (``tests/_reference_kernels.py``).
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_result(results_dir):
    """Print a result block and persist it under benchmarks/results/."""

    def _record(name: str, text: str) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _record


@pytest.fixture
def record_bench():
    """Append one structured record to ``BENCH_<name>.json`` (repo root).

    The machine-readable counterpart of :func:`record_result`: the text
    block is for humans, the JSON record is for CI trend tracking (see
    :mod:`repro.bench.record`).
    """
    import time

    from repro.bench import append_bench_record

    def _record(name: str, record: dict) -> None:
        append_bench_record(name, {"timestamp": time.time(), **record})

    return _record
