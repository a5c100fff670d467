"""Pinned modelled outputs: exact regression goldens for the sweep charges.

Each row runs one configuration on a small planted graph and compares
the modelled ``elapsed``, the modularity, the iteration count and a hash
of the assignment *exactly* against ``tests/data/pinned_outputs.json``.
The modelled clock is driven by the compute charges
(``pairs_evaluated + scanned`` per sweep round), so a change that keeps
the assignments but alters what a round charges fails here.

Regenerate (only when a change is *meant* to move these numbers, and
say so in the change log)::

    PYTHONPATH=src python -m tests.test_core_pinned_outputs --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import LouvainConfig, Variant
from repro.core.distlouvain import run_louvain
from repro.core.grappolo import grappolo_louvain

from .conftest import planted_blocks_graph

GOLDENS = Path(__file__).parent / "data" / "pinned_outputs.json"

#: name -> config of each pinned row (every variant at p = 1 and 3).
CONFIGS = {
    "baseline": LouvainConfig(),
    "et": LouvainConfig(variant=Variant.ET, alpha=0.25, seed=3),
    "etc": LouvainConfig(variant=Variant.ETC, alpha=0.75, seed=3),
    "coloring": LouvainConfig(use_coloring=True, seed=3),
}
RANKS = (1, 3)


def _graph():
    return planted_blocks_graph(
        blocks=6, per_block=20, p_in=0.2, inter_edges=200, seed=11
    )


def _digest(assignment: np.ndarray) -> str:
    data = np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _outputs(res) -> dict:
    return {
        "elapsed": float(res.elapsed),
        "modularity": float(res.modularity),
        "iterations": int(res.total_iterations),
        "assignment": _digest(res.assignment),
    }


def _run(row: str) -> dict:
    name, _, where = row.partition("@")
    if where == "grappolo":
        coloring = name == "coloring"
        return _outputs(
            grappolo_louvain(
                _graph(), CONFIGS[name], coloring=coloring,
                vertex_following=False,
            )
        )
    return _outputs(run_louvain(_graph(), int(where[1:]), CONFIGS[name]))


ROWS = [f"{name}@p{p}" for name in CONFIGS for p in RANKS] + [
    "baseline@grappolo",
    "coloring@grappolo",
]


@pytest.mark.parametrize("row", ROWS)
def test_pinned_outputs(row):
    want = json.loads(GOLDENS.read_text())[row]
    got = _run(row)
    # Exact: floats round-trip through JSON bit for bit.
    assert got == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_core_pinned_outputs --write")
    GOLDENS.write_text(
        json.dumps({row: _run(row) for row in ROWS}, indent=2) + "\n"
    )
    print(f"wrote {len(ROWS)} rows to {GOLDENS}")
