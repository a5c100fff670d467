"""Vectorised move-selection kernel for one Louvain iteration.

The paper's implementation is MPI+OpenMP: within a rank, vertices are
processed *in parallel* by OpenMP threads, so move decisions within one
iteration are made against a snapshot of the community state from the
iteration start (the same semantics as Grappolo [22]).  This module
implements that snapshot sweep as numpy segment operations.

The local CSR graph and its ghost layout are fixed for a whole phase
(they change only at reconstruction, §IV-A(b)), so the candidate layout
is built once per phase as a :class:`SweepPlan`: every non-self CSR
entry as a (row, target slot, weight) triple, followed by one
zero-weight entry per row whose slot is the row's own vertex.  Slots
index ``concat(local_comm, ghost_comm)``, so each round gathers its
candidate communities with one ``take`` (masked by the active rows
under ET or colouring) and the synthetic own entries guarantee the
current community is a candidate of every active vertex.

The kernel (:func:`propose_moves`) then, per round:

1. groups every (vertex, neighbouring community) pair and sums the edge
   weights into ``d_{u,c}``: one stable argsort of the fused int64 key
   ``row * span + (comm - lo)`` orders the pairs row-major, then
   ``np.add.reduceat`` sums each group in CSR order; each group's
   (row, community) is gathered at the position of its first member;
2. scores each candidate ``score(c) = d_{u,c} - k_u * tot'(c) / W`` where
   ``tot'`` excludes ``u``'s own degree from its current community —
   maximising this score is equivalent to maximising the modularity gain
   of Algorithm 1 line 6;
3. per vertex, picks the best-scoring community with a ``maximum.reduceat``
   over the row segments, ties broken toward the smallest community id
   by a ``minimum.reduceat`` over the candidates scoring exactly that
   best (which also gives deterministic output);
4. suppresses the classic singleton-singleton swap oscillation: when both
   the vertex's community and the target are singletons, only the move
   toward the smaller id is allowed (the "minimum labelling" rule of
   Lu et al. [22]).

The kernel knows nothing about ownership: the distributed caller feeds
it snapshot community ids for *global* targets and a ``tot`` lookup that
covers remotely-owned communities, so exactly the same decision logic
runs in the serial, shared-memory and distributed paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

#: Relative tolerance for "strictly positive gain" decisions.
GAIN_EPS = 1e-12

_INT64_MAX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one snapshot sweep over the local vertices."""

    #: Proposed community per local vertex (== current where no move).
    proposal: np.ndarray
    #: True where the proposal differs from the current community.
    moved: np.ndarray
    #: Number of (vertex, community) candidate pairs evaluated — the
    #: work measure charged to the performance model.
    pairs_evaluated: int

    @property
    def num_moves(self) -> int:
        return int(self.moved.sum())


class Candidates(NamedTuple):
    """One round's candidate (row, community, weight) triples: the
    active rows' non-self entries in CSR order, then one zero-weight
    own-community entry per active row, in row order."""

    rows: np.ndarray
    comm: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class SweepPlan:
    """Phase-invariant candidate layout of the snapshot sweep.

    Built once per phase (the local graph and its ghost layout do not
    change between reconstructions); each round only gathers community
    ids through it.
    """

    #: Row of every candidate: the non-self CSR entries' rows, then
    #: ``0..nloc``.
    rows: np.ndarray
    #: Slot of every candidate into ``concat(local_comm, ghost_comm)``:
    #: the non-self entries' targets, then ``0..nloc`` (slot ``i`` holds
    #: vertex ``i``'s own community).
    slots: np.ndarray
    #: Candidate weights: the non-self entries' weights, then ``nloc``
    #: zeros.
    weights: np.ndarray
    #: Stored CSR entries per row, self loops included (the scan charge).
    row_counts: np.ndarray

    @classmethod
    def build(
        cls,
        index: np.ndarray,
        targets: np.ndarray,
        weights: np.ndarray,
        self_mask: np.ndarray,
    ) -> "SweepPlan":
        """Plan for the CSR rows ``index`` whose entries point at
        ``targets`` (slots into ``concat(local_comm, ghost_comm)``);
        ``self_mask`` marks the self loops, which never become
        candidates."""
        nloc = len(index) - 1
        counts = np.diff(index)
        rows = np.repeat(np.arange(nloc, dtype=np.int64), counts)
        keep = ~self_mask
        own = np.arange(nloc, dtype=np.int64)
        return cls(
            rows=np.concatenate([rows[keep], own]),
            slots=np.concatenate([targets[keep], own]),
            weights=np.concatenate([weights[keep], np.zeros(nloc)]),
            row_counts=counts,
        )

    def candidates(
        self, slot_comm: np.ndarray, active: np.ndarray | None = None
    ) -> Candidates:
        """The round's candidates under ``slot_comm`` (community per
        slot), restricted to the ``active`` rows (default all)."""
        if active is None or active.all():
            return Candidates(
                self.rows, slot_comm.take(self.slots), self.weights
            )
        keep = active.take(self.rows)
        return Candidates(
            self.rows[keep],
            slot_comm.take(self.slots[keep]),
            self.weights[keep],
        )

    def scanned(self, active: np.ndarray) -> int:
        """Stored entries of the ``active`` rows."""
        return int(self.row_counts[active].sum())


def propose_moves(
    cand: Candidates,
    degrees: np.ndarray,
    cur_comm: np.ndarray,
    total_weight: float,
    tot_lookup: Callable[[np.ndarray], np.ndarray],
    size_lookup: Callable[[np.ndarray], np.ndarray],
    resolution: float = 1.0,
) -> SweepResult:
    """Compute the best move for every active local vertex.

    Parameters
    ----------
    cand:
        The round's candidates, from :meth:`SweepPlan.candidates`.  A
        row is active iff it has candidates (each active row carries its
        own-community entry); inactive vertices never move but still
        appear as targets in their neighbours' candidate lists.
    degrees:
        Weighted degree ``k_u`` per local vertex.
    cur_comm:
        Current community id per local vertex.
    total_weight:
        Global ``W`` (= 2m).
    tot_lookup / size_lookup:
        Vectorised maps from community ids to the snapshot ``a_c`` and
        community size.  Must cover every id in ``cand.comm``.
    resolution:
        Gamma of generalized modularity: candidate scores become
        ``d_{u,c} - gamma * k_u * tot'(c) / W``; 1.0 is classic Q.
    """
    nloc = len(cur_comm)
    proposal = cur_comm.copy()
    moved = np.zeros(nloc, dtype=bool)
    c_rows, c_comm, c_w = cand
    if nloc == 0 or total_weight <= 0.0 or len(c_rows) == 0:
        return SweepResult(proposal=proposal, moved=moved, pairs_evaluated=0)

    # Group by (row, community) and sum weights -> d_{u,c}.  A stable
    # argsort of the fused key row*span + (comm - lo) is the same
    # permutation as lexsort((comm, row)), so reduceat sums every
    # d_{u,c} in the same order (bit-identical).
    lo = int(c_comm.min())
    span = int(c_comm.max()) - lo + 1
    if nloc * span - 1 > _INT64_MAX:
        raise OverflowError(
            f"(row, community) key space {nloc} x {span} exceeds int64"
        )
    key = c_rows * span + (c_comm - lo)
    order = np.argsort(key, kind="stable")
    key = key.take(order)
    first = np.empty(len(key), dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    d = np.add.reduceat(c_w.take(order), starts)
    at = order.take(starts)
    pr = c_rows.take(at)
    pc = c_comm.take(at)

    # Score candidates against the snapshot totals (minus own degree
    # when evaluating the current community).
    k_pr = degrees[pr]
    is_src = pc == cur_comm[pr]
    tot_eff = tot_lookup(pc) - np.where(is_src, k_pr, 0.0)
    score = d - resolution * k_pr * tot_eff / total_weight

    # Per-row argmax with smallest-community-id tie break: candidates
    # are row-major, so the best score per row is a max-reduceat over
    # the row segments, and the winner is the smallest community id
    # among the candidates scoring exactly that best.
    row_first = np.empty(len(pr), dtype=bool)
    row_first[0] = True
    np.not_equal(pr[1:], pr[:-1], out=row_first[1:])
    row_starts = np.flatnonzero(row_first)
    win_rows = pr[row_starts]
    win_score = np.maximum.reduceat(score, row_starts)
    row_best = np.repeat(win_score, np.diff(row_starts, append=len(pr)))
    win_comm = np.minimum.reduceat(
        np.where(score == row_best, pc, _INT64_MAX), row_starts
    )

    # Each candidate row is an active row and holds exactly one entry
    # for its own community, so these scores line up with win_rows.
    src_score = score[is_src]

    eps = GAIN_EPS * (1.0 + np.abs(src_score))
    better = win_score > src_score + eps
    cand_rows = win_rows[better]
    cand_comm = win_comm[better]

    # Singleton-singleton swap suppression (minimum labelling).
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


def array_lookup(ids: np.ndarray, values: np.ndarray) -> Callable:
    """Lookup over a dense array indexed directly by community id."""
    del ids  # dense case: the id *is* the index

    def look(query: np.ndarray) -> np.ndarray:
        return values[query]

    return look


def sorted_lookup(ids: np.ndarray, values: np.ndarray) -> Callable:
    """Lookup over sparse (sorted unique ids, values) pairs.

    Builds a dense position map over ``[ids[0], ids[-1]]`` once, so each
    query is a gather instead of a binary search.  Out-of-range queries
    clip to an end of the map and gaps point at ``ids[0]``; a hit is
    confirmed by ``ids[pos] == query``, so every miss is caught.  The
    map costs 8 bytes per id in the span; community ids are vertex ids,
    so the span is at most the global vertex count.

    Raises ``KeyError`` on a miss — in the distributed algorithm a miss
    means a community's owner was never asked for its totals, which is a
    protocol bug worth failing loudly on.
    """
    if len(ids):
        lo = int(ids[0])
        pos = np.zeros(int(ids[-1]) - lo + 1, dtype=np.int64)
        pos[ids - lo] = np.arange(len(ids))

    def look(query: np.ndarray) -> np.ndarray:
        query = np.asarray(query)
        if len(ids) == 0:
            if len(query):
                raise KeyError(
                    f"community totals missing for ids "
                    f"{np.unique(query)[:5].tolist()} (empty table)"
                )
            return np.empty(0, dtype=values.dtype)
        at = pos.take(query.astype(np.int64, copy=False) - lo, mode="clip")
        bad = ids[at] != query
        if np.any(bad):
            missing = np.unique(query[bad])[:5]
            raise KeyError(
                f"community totals missing for ids {missing.tolist()}"
            )
        return values[at]

    return look
