"""Micro-benchmarks of the simulator's hot kernels (wall time).

Unlike the paper-reproduction benches (which report *modelled* time),
these track the real wall-clock cost of the library's inner kernels so
performance regressions of the simulator itself are visible:

* the vectorised move-selection sweep, from singletons and mid-phase,
  against the lexsort reference kernel as its "before": through a
  one-shot sweep plan built inside the timed call, and mid-phase also
  through a phase-scoped plan built outside it (one round's gather plus
  the kernel, as the distributed sweep pays it);
* the vectorised greedy coloring and vertex-following seeds (and their
  reference per-vertex scans, kept as before/after comparisons);
* serial graph coarsening;
* CSR construction from edge lists;
* one full communicator round trip (alltoall) across ranks;
* the subscription-cache push update of the owner-push community
  exchange (overwrite-known + merge-insert-unknown).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core import coarsen_csr, pack_info
from repro.core.commcache import CommunityCache
from repro.core.grappolo import greedy_coloring, vertex_following_seed
from repro.core.sweep import SweepPlan, propose_moves, sorted_lookup
from repro.generators import generate_lfr
from repro.graph import CSRGraph, DistGraph, EdgeList
from repro.runtime import FREE, run_spmd
from tests._reference_kernels import (
    greedy_coloring_loop,
    propose_moves_lexsort,
    propose_moves_one_shot,
    vertex_following_loop,
)


def _graph():
    return generate_lfr(3000, avg_degree=16, seed=1).edges


def _sweep_inputs(g: CSRGraph, comm: np.ndarray) -> dict:
    """Kernel arguments for ``comm``, with ``sorted_lookup`` closures over
    the referenced community ids as the distributed sweep builds them."""
    n = g.num_vertices
    k = g.degrees()
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.index))
    tot = np.zeros(n)
    np.add.at(tot, comm, k)
    size = np.bincount(comm, minlength=n)
    target = comm[g.edges]
    needed = np.unique(np.concatenate([target, comm]))
    return dict(
        index=g.index,
        target_comm=target,
        weights=g.weights,
        self_mask=g.edges == rows,
        degrees=k,
        cur_comm=comm,
        total_weight=g.total_weight,
        tot_lookup=sorted_lookup(needed, tot[needed]),
        size_lookup=sorted_lookup(needed, size[needed]),
    )


@lru_cache(maxsize=1)
def _mid_phase() -> tuple[CSRGraph, np.ndarray]:
    """LFR n=20000, three sweeps into the first phase."""
    g = generate_lfr(20000, seed=3).edges.to_csr()
    comm = np.arange(g.num_vertices, dtype=np.int64)
    for _ in range(3):
        comm = propose_moves_one_shot(**_sweep_inputs(g, comm)).proposal
    return g, comm


@lru_cache(maxsize=2)
def _sweep_case(case: str) -> dict:
    if case == "singletons":
        g = _graph().to_csr()
        return _sweep_inputs(g, np.arange(g.num_vertices, dtype=np.int64))
    return _sweep_inputs(*_mid_phase())


def _phase_plan_round(inputs: dict):
    """A round against a plan built once per phase: the returned call
    is the candidate gather plus the kernel (the plan is built here,
    outside the timed region)."""
    g, comm = _mid_phase()
    plan = SweepPlan.build(g.index, g.edges, g.weights, inputs["self_mask"])

    def one_round():
        return propose_moves(
            plan.candidates(comm),
            degrees=inputs["degrees"],
            cur_comm=comm,
            total_weight=inputs["total_weight"],
            tot_lookup=inputs["tot_lookup"],
            size_lookup=inputs["size_lookup"],
        )

    return one_round


@pytest.mark.parametrize(
    "case, kernel",
    [
        ("singletons", "sortfree"),
        ("singletons", "lexsort_reference"),
        ("mid_phase", "sortfree"),
        ("mid_phase", "lexsort_reference"),
        ("mid_phase", "phase_plan"),
    ],
)
def test_kernel_propose_moves(benchmark, case, kernel):
    inputs = _sweep_case(case)

    if kernel == "phase_plan":
        result = benchmark(_phase_plan_round(inputs))
        want = propose_moves_lexsort(**inputs)
        np.testing.assert_array_equal(result.proposal, want.proposal)
    elif kernel == "sortfree":
        result = benchmark(propose_moves_one_shot, **inputs)
    else:
        result = benchmark(propose_moves_lexsort, **inputs)
    assert result.num_moves > 0


def test_kernel_greedy_coloring(benchmark):
    g = _graph().to_csr()

    colors = benchmark(greedy_coloring, g)
    assert colors.min() == 0


def test_kernel_greedy_coloring_loop(benchmark):
    # Reference per-vertex scan: the "before" of the vectorised kernel.
    g = _graph().to_csr()

    colors = benchmark(greedy_coloring_loop, g)
    assert colors.min() == 0


def test_kernel_vertex_following(benchmark):
    g = _graph().to_csr()

    comm = benchmark(vertex_following_seed, g)
    assert len(comm) == g.num_vertices


def test_kernel_vertex_following_loop(benchmark):
    # Reference per-vertex scan: the "before" of the vectorised kernel.
    g = _graph().to_csr()

    comm = benchmark(vertex_following_loop, g)
    assert len(comm) == g.num_vertices


def test_kernel_coarsen(benchmark):
    g = _graph().to_csr()
    rng = np.random.default_rng(0)
    assignment = rng.integers(0, 100, g.num_vertices)

    meta, _ = benchmark(coarsen_csr, g, assignment)
    assert meta.num_vertices == 100


def test_kernel_csr_construction(benchmark):
    el = _graph()

    g = benchmark(
        CSRGraph.from_edges, el.num_vertices, el.u, el.v, el.w
    )
    assert g.num_vertices == el.num_vertices


def test_kernel_edgelist_dedup(benchmark):
    rng = np.random.default_rng(2)
    n, m = 2000, 40_000
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)

    el = benchmark(EdgeList.from_arrays, n, u, v)
    assert el.num_edges > 0


def test_kernel_subscription_cache_update(benchmark):
    g = _graph().to_csr()
    n = g.num_vertices
    dg = DistGraph.from_global(g, np.array([0, n // 2, n]), 0)
    rng = np.random.default_rng(3)
    # Warm cache over half the remote id space; each push touches a mix
    # of known (overwrite) and unknown (merge-insert) communities.
    warm = np.unique(rng.integers(n // 2, n, 4000))
    pushes = [
        pack_info(
            ids := np.unique(rng.integers(n // 2, n, 800)),
            rng.random(len(ids)),
            rng.integers(1, 50, len(ids)),
        )
        for _ in range(16)
    ]

    def update():
        cache = CommunityCache(dg, comm_size=2)
        cache._insert(
            pack_info(warm, rng.random(len(warm)),
                      np.ones(len(warm), np.int64))
        )
        for packed in pushes:
            cache._apply_push(packed)
        return cache

    cache = benchmark(update)
    assert cache.pushed_entries == sum(len(x) for x in pushes)
    assert len(cache.ids) >= len(warm)


def test_kernel_alltoall_roundtrip(benchmark):
    payloads = [np.arange(500, dtype=np.int64)] * 4

    def roundtrip():
        def prog(comm):
            got = comm.alltoall(list(payloads[: comm.size]))
            return len(got)

        return run_spmd(4, prog, machine=FREE, timeout=10.0)

    r = benchmark.pedantic(roundtrip, rounds=3, iterations=1,
                           warmup_rounds=1)
    assert r.values == [4] * 4
