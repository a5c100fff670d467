"""Reference implementations the vectorised kernels in ``src`` must match.

Each function here is a straightforward (slow) version of a kernel the
library ships in vectorised form.  The equivalence tests compare the two
bit for bit, and ``benchmarks/test_micro_kernels.py`` times them as the
"before" of each kernel.

* :func:`propose_moves_lexsort` — the sort-based snapshot sweep: two
  multi-key ``np.lexsort`` group-bys, (row, community) then per-row
  argmax.  :func:`propose_moves_one_shot` drives the library kernel
  :func:`repro.core.sweep.propose_moves` with the same arguments.
* :func:`greedy_coloring_loop` — per-vertex id-order greedy coloring
  (:func:`repro.core.grappolo.greedy_coloring`).
* :func:`vertex_following_loop` — per-vertex leaf following
  (:func:`repro.core.grappolo.vertex_following_seed`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.sweep import GAIN_EPS, SweepPlan, SweepResult, propose_moves
from repro.graph import CSRGraph


def propose_moves_lexsort(
    index: np.ndarray,
    target_comm: np.ndarray,
    weights: np.ndarray,
    self_mask: np.ndarray,
    degrees: np.ndarray,
    cur_comm: np.ndarray,
    total_weight: float,
    tot_lookup: Callable[[np.ndarray], np.ndarray],
    size_lookup: Callable[[np.ndarray], np.ndarray],
    active: np.ndarray | None = None,
    resolution: float = 1.0,
) -> SweepResult:
    """Snapshot sweep with lexsort group-bys (argument-for-argument
    the same as :func:`repro.core.sweep.propose_moves`)."""
    nloc = len(index) - 1
    if active is None:
        active = np.ones(nloc, dtype=bool)
    proposal = cur_comm.copy()
    moved = np.zeros(nloc, dtype=bool)
    if nloc == 0 or total_weight <= 0.0:
        return SweepResult(proposal=proposal, moved=moved, pairs_evaluated=0)

    rows = np.repeat(np.arange(nloc, dtype=np.int64), np.diff(index))
    keep = active[rows] & ~self_mask
    c_rows = rows[keep]
    c_comm = target_comm[keep]
    c_w = weights[keep]

    act_ids = np.flatnonzero(active)
    if len(act_ids) == 0:
        return SweepResult(proposal=proposal, moved=moved, pairs_evaluated=0)
    c_rows = np.concatenate([c_rows, act_ids])
    c_comm = np.concatenate([c_comm, cur_comm[act_ids]])
    c_w = np.concatenate([c_w, np.zeros(len(act_ids))])

    # Group by (row, community) and sum weights -> d_{u,c}.
    order = np.lexsort((c_comm, c_rows))
    c_rows, c_comm, c_w = c_rows[order], c_comm[order], c_w[order]
    first = np.empty(len(c_rows), dtype=bool)
    first[0] = True
    first[1:] = (c_rows[1:] != c_rows[:-1]) | (c_comm[1:] != c_comm[:-1])
    starts = np.flatnonzero(first)
    d = np.add.reduceat(c_w, starts)
    pr = c_rows[starts]
    pc = c_comm[starts]

    tot_eff = tot_lookup(pc).astype(np.float64, copy=True)
    is_src = pc == cur_comm[pr]
    tot_eff[is_src] -= degrees[pr[is_src]]
    score = d - resolution * degrees[pr] * tot_eff / total_weight

    # Per-row argmax with smallest-community-id tie break: sort so the
    # winner is the last element of each row group.
    order2 = np.lexsort((-pc, score, pr))
    pr2, pc2, score2 = pr[order2], pc[order2], score[order2]
    last = np.empty(len(pr2), dtype=bool)
    last[-1] = True
    last[:-1] = pr2[1:] != pr2[:-1]
    win_rows = pr2[last]
    win_comm = pc2[last]
    win_score = score2[last]

    src_rows = pr[is_src]
    src_score = np.empty(nloc, dtype=np.float64)
    src_score[src_rows] = score[is_src]

    eps = GAIN_EPS * (1.0 + np.abs(src_score[win_rows]))
    better = win_score > src_score[win_rows] + eps
    cand_rows = win_rows[better]
    cand_comm = win_comm[better]

    if len(cand_rows):
        src_c = cur_comm[cand_rows]
        src_alone = (size_lookup(src_c) == 1) & (
            np.abs(tot_lookup(src_c) - degrees[cand_rows]) <= 1e-9
        )
        dst_single = size_lookup(cand_comm) == 1
        blocked = src_alone & dst_single & (cand_comm > src_c)
        cand_rows = cand_rows[~blocked]
        cand_comm = cand_comm[~blocked]

    proposal[cand_rows] = cand_comm
    moved[cand_rows] = True
    return SweepResult(
        proposal=proposal, moved=moved, pairs_evaluated=len(pr)
    )


def propose_moves_one_shot(
    index: np.ndarray,
    target_comm: np.ndarray,
    weights: np.ndarray,
    self_mask: np.ndarray,
    degrees: np.ndarray,
    cur_comm: np.ndarray,
    total_weight: float,
    tot_lookup: Callable[[np.ndarray], np.ndarray],
    size_lookup: Callable[[np.ndarray], np.ndarray],
    active: np.ndarray | None = None,
    resolution: float = 1.0,
) -> SweepResult:
    """The library kernel through a one-shot :class:`SweepPlan` whose
    slots index ``concat(cur_comm, target_comm)`` (argument-for-argument
    the same as :func:`propose_moves_lexsort`)."""
    nloc = len(index) - 1
    plan = SweepPlan.build(
        index, nloc + np.arange(len(target_comm)), weights, self_mask
    )
    cand = plan.candidates(np.concatenate([cur_comm, target_comm]), active)
    return propose_moves(
        cand,
        degrees=degrees,
        cur_comm=cur_comm,
        total_weight=total_weight,
        tot_lookup=tot_lookup,
        size_lookup=size_lookup,
        resolution=resolution,
    )


def greedy_coloring_loop(g: CSRGraph) -> np.ndarray:
    """Id-order greedy distance-1 coloring, one vertex at a time."""
    n = g.num_vertices
    colors = np.full(n, -1, dtype=np.int64)
    for u in range(n):
        nbrs, _ = g.neighbors(u)
        taken = set(int(colors[v]) for v in nbrs if colors[v] >= 0)
        c = 0
        while c in taken:
            c += 1
        colors[u] = c
    return colors


def vertex_following_loop(g: CSRGraph) -> np.ndarray:
    """Single id-order pass: a leaf adopts its neighbour's label."""
    n = g.num_vertices
    comm = np.arange(n, dtype=np.int64)
    for u in range(n):
        nbrs, _ = g.neighbors(u)
        if len(nbrs) == 1 and nbrs[0] != u:
            comm[u] = comm[nbrs[0]]
    return comm
