"""Unit tests for the snapshot move-selection kernel."""

import numpy as np
import pytest

from repro.core import SweepPlan, move_gain, propose_moves, sorted_lookup
from repro.core.distlouvain import _unique_ids
from repro.core.sweep import array_lookup
from repro.graph import CSRGraph, EdgeList

from ._reference_kernels import propose_moves_lexsort, propose_moves_one_shot


def dense_sweep(g: CSRGraph, comm: np.ndarray, active=None):
    """Helper: run propose_moves with dense (shared-memory) lookups."""
    n = g.num_vertices
    k = g.degrees()
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.index))
    tot = np.zeros(n)
    np.add.at(tot, comm, k)
    size = np.bincount(comm, minlength=n)
    plan = SweepPlan.build(g.index, g.edges, g.weights, g.edges == rows)
    return propose_moves(
        plan.candidates(comm, active),
        degrees=k,
        cur_comm=comm,
        total_weight=g.total_weight,
        tot_lookup=lambda ids: tot[ids],
        size_lookup=lambda ids: size[ids],
    )


class TestProposeMoves:
    def test_singleton_joins_adjacent_clique(self, two_cliques):
        comm = np.array([9] + [0] * 4 + [5] * 5, dtype=np.int64)
        res = dense_sweep(two_cliques, comm)
        assert res.proposal[0] == 0
        assert res.moved[0]

    def test_settled_partition_stable(self, two_cliques):
        comm = np.array([0] * 5 + [5] * 5, dtype=np.int64)
        res = dense_sweep(two_cliques, comm)
        assert res.num_moves == 0
        np.testing.assert_array_equal(res.proposal, comm)

    def test_moves_only_with_positive_gain(self, planted_blocks):
        # From singletons, every accepted move must not decrease Q when
        # applied alone (the score is gain-equivalent).
        g = planted_blocks
        comm = np.arange(g.num_vertices, dtype=np.int64)
        res = dense_sweep(g, comm)
        rng = np.random.default_rng(0)
        movers = np.flatnonzero(res.moved)
        for u in rng.choice(movers, size=min(10, len(movers)), replace=False):
            gain = move_gain(g, comm, int(u), int(res.proposal[u]))
            assert gain > 0

    def test_chosen_move_is_argmax(self, planted_blocks):
        # The proposed target must beat every other candidate in exact ΔQ.
        g = planted_blocks
        comm = np.arange(g.num_vertices, dtype=np.int64)
        res = dense_sweep(g, comm)
        u = int(np.flatnonzero(res.moved)[0])
        nbrs, _ = g.neighbors(u)
        best = move_gain(g, comm, u, int(res.proposal[u]))
        for t in set(int(comm[v]) for v in nbrs if v != u):
            assert best >= move_gain(g, comm, u, t) - 1e-9

    def test_inactive_vertices_frozen(self, two_cliques):
        comm = np.array([9] + [0] * 4 + [5] * 5, dtype=np.int64)
        active = np.ones(10, dtype=bool)
        active[0] = False
        res = dense_sweep(two_cliques, comm, active)
        assert not res.moved[0]
        assert res.proposal[0] == 9

    def test_all_inactive_noop(self, two_cliques):
        comm = np.arange(10, dtype=np.int64)
        res = dense_sweep(two_cliques, comm, np.zeros(10, dtype=bool))
        assert res.num_moves == 0
        assert res.pairs_evaluated == 0

    def test_singleton_swap_suppressed(self):
        # Two connected singletons: only the larger id may move.
        g = EdgeList.from_arrays(2, [0], [1]).to_csr()
        comm = np.arange(2, dtype=np.int64)
        res = dense_sweep(g, comm)
        assert res.proposal[0] == 0  # vertex 0 stays (target id larger)
        assert res.proposal[1] == 0  # vertex 1 moves down
        # One more sweep from the merged state: stable.
        res2 = dense_sweep(g, res.proposal)
        assert res2.num_moves == 0

    def test_tie_breaks_to_smallest_community(self):
        # Path 1 - 0 - 2: vertex 0 gains equally joining 1 or 2.
        g = EdgeList.from_arrays(3, [0, 0], [1, 2]).to_csr()
        comm = np.arange(3, dtype=np.int64)
        res = dense_sweep(g, comm)
        assert res.proposal[0] == 0 or res.proposal[0] == 1
        # Tie-break rule: among equal scores the smallest community wins,
        # and vertex 0's own community (0) is the smallest — no move.
        # Vertices 1 and 2 strictly gain by joining 0 (smaller id rule).
        assert res.proposal[1] == 0
        assert res.proposal[2] == 0

    def test_empty_graph(self):
        g = CSRGraph.empty(0)
        res = dense_sweep(g, np.empty(0, dtype=np.int64))
        assert res.num_moves == 0

    def test_isolated_vertices_never_move(self):
        g = CSRGraph.empty(4)
        comm = np.arange(4, dtype=np.int64)
        res = dense_sweep(g, comm)
        assert res.num_moves == 0

    def test_key_space_overflow_raises(self):
        # The fused (row, community) key must fit in int64.
        g = EdgeList.from_arrays(2, [0], [1]).to_csr()
        comm = np.array([0, 2**62], dtype=np.int64)
        look = sorted_lookup(np.array([0]), np.array([1.0]))
        with pytest.raises(OverflowError, match="exceeds int64"):
            propose_moves_one_shot(
                index=g.index,
                target_comm=comm[g.edges],
                weights=g.weights,
                self_mask=np.zeros(g.nnz, dtype=bool),
                degrees=g.degrees(),
                cur_comm=comm,
                total_weight=g.total_weight,
                tot_lookup=look,
                size_lookup=look,
            )

    def test_self_loop_only_vertex_stays(self):
        g = CSRGraph.from_edges(2, [0, 0], [0, 1], [5.0, 1.0])
        comm = np.arange(2, dtype=np.int64)
        res = dense_sweep(g, comm)
        # Vertex 1 joining 0 is profitable; 0 must not chase its loop.
        assert res.proposal[0] == 0


class TestLookups:
    def test_sorted_lookup_hits(self):
        look = sorted_lookup(
            np.array([2, 5, 9]), np.array([20.0, 50.0, 90.0])
        )
        np.testing.assert_allclose(
            look(np.array([9, 2, 5, 2])), [90.0, 20.0, 50.0, 20.0]
        )

    def test_sorted_lookup_miss_raises(self):
        look = sorted_lookup(np.array([2, 5]), np.array([1.0, 2.0]))
        with pytest.raises(KeyError, match="missing"):
            look(np.array([3]))

    def test_sorted_lookup_miss_past_end(self):
        look = sorted_lookup(np.array([2, 5]), np.array([1.0, 2.0]))
        with pytest.raises(KeyError):
            look(np.array([99]))

    def test_sorted_lookup_miss_below_start(self):
        look = sorted_lookup(np.array([2, 5]), np.array([1.0, 2.0]))
        with pytest.raises(KeyError, match=r"\[0, 1\]"):
            look(np.array([2, 1, 0, 5]))

    def test_sorted_lookup_negative_query_misses(self):
        # A dense position map must not wrap negative ids around through
        # numpy's negative indexing.
        look = sorted_lookup(np.array([0, 1, 2]), np.array([1.0, 2.0, 3.0]))
        for q in (-1, -3, -4):
            with pytest.raises(KeyError, match=str(q)):
                look(np.array([0, q]))

    def test_sorted_lookup_gap_misses(self):
        look = sorted_lookup(
            np.array([10, 11, 40, 1000]), np.array([1.0, 2.0, 3.0, 4.0])
        )
        np.testing.assert_array_equal(
            look(np.array([1000, 10, 40, 11])), [4.0, 1.0, 3.0, 2.0]
        )
        for q in (12, 39, 41, 999):
            with pytest.raises(KeyError, match=str(q)):
                look(np.array([10, q]))

    def test_sorted_lookup_int32_queries(self):
        look = sorted_lookup(
            np.array([3, 7, 2**20 + 5], dtype=np.int64),
            np.array([30, 70, 90], dtype=np.int64),
        )
        out = look(np.array([7, 3, 7], dtype=np.int32))
        np.testing.assert_array_equal(out, [70, 30, 70])
        assert out.dtype == np.int64
        with pytest.raises(KeyError):
            look(np.array([4], dtype=np.int32))
        with pytest.raises(KeyError):
            look(np.array([-(2**31)], dtype=np.int32))

    def test_sorted_lookup_single_id(self):
        look = sorted_lookup(np.array([42]), np.array([4.2]))
        np.testing.assert_array_equal(look(np.array([42, 42])), [4.2, 4.2])
        assert len(look(np.empty(0, np.int64))) == 0
        for q in (41, 43, 0, -42):
            with pytest.raises(KeyError):
                look(np.array([q]))

    def test_sorted_lookup_empty_table(self):
        look = sorted_lookup(np.empty(0, np.int64), np.empty(0))
        assert len(look(np.empty(0, np.int64))) == 0
        with pytest.raises(KeyError):
            look(np.array([1]))

    def test_array_lookup_dense(self):
        look = array_lookup(None, np.array([10.0, 20.0, 30.0]))
        np.testing.assert_allclose(look(np.array([2, 0])), [30.0, 10.0])


def _random_sweep_case(rng: np.random.Generator, resolution: float) -> dict:
    """Kernel inputs exercising ties, order-sensitive sums and odd rows.

    Community labels come from a small pool (so rows see the same
    community many times) mapped to sparse, possibly huge, non-zero-based
    ids.  Weights are either small integers (many exact score ties) or
    0.1/0.2/0.3 (sums that depend on the addition order).
    """
    nloc = int(rng.integers(1, 40))
    pool_size = int(rng.integers(1, 12))
    base = int(rng.choice([0, 1, 7, 10**9, 2**40]))
    stride = int(rng.choice([1, 2, 3, 1000]))
    labels = base + stride * np.sort(
        rng.choice(4 * pool_size + 4, size=pool_size, replace=False)
    ).astype(np.int64)

    counts = rng.integers(0, 8, nloc)
    counts[rng.random(nloc) < 0.15] = 0  # empty rows
    index = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    nnz = int(index[-1])
    target = labels[rng.integers(0, pool_size, nnz)]
    if rng.random() < 0.5:
        weights = rng.choice([1.0, 2.0], nnz)
    else:
        weights = rng.choice([0.1, 0.2, 0.3], nnz)
    rows = np.repeat(np.arange(nloc), counts)
    self_mask = rng.random(nnz) < 0.1
    loop_only = rng.random(nloc) < 0.1  # self-loop-only rows
    self_mask |= loop_only[rows]

    cur = labels[rng.integers(0, pool_size, nloc)]
    degrees = np.zeros(nloc)
    np.add.at(degrees, rows, weights)
    # Rows with no entries still carry some degree now and then.
    degrees += np.where(rng.random(nloc) < 0.2, rng.choice([1.0, 2.0]), 0.0)

    # Totals: the local members' degrees, plus remote mass for some
    # communities (so singleton detection sees both cases).
    slot = np.searchsorted(labels, cur)
    tot = np.zeros(pool_size)
    np.add.at(tot, slot, degrees)
    size = np.bincount(slot, minlength=pool_size)
    remote = rng.random(pool_size) < 0.3
    tot[remote] += rng.choice([1.0, 2.0, 4.0], int(remote.sum()))
    size[remote] += 1
    size[size == 0] = 1
    total_weight = float(
        rng.choice([degrees.sum() + tot.sum(), 64.0, 128.0])
    )
    active = None if rng.random() < 0.3 else rng.random(nloc) < 0.7
    return dict(
        index=index,
        target_comm=target,
        weights=weights,
        self_mask=self_mask,
        degrees=degrees,
        cur_comm=cur,
        total_weight=total_weight,
        tot_lookup=sorted_lookup(labels, tot),
        size_lookup=sorted_lookup(labels, size),
        active=active,
        resolution=resolution,
    )


class TestLexsortOracle:
    """The sort-free kernel must reproduce the lexsort kernel bit for bit."""

    @pytest.mark.parametrize("resolution", [0.5, 1.0, 2.0])
    def test_random_cases_match(self, resolution):
        rng = np.random.default_rng(int(resolution * 1000))
        for case in range(80):
            kw = _random_sweep_case(rng, resolution)
            want = propose_moves_lexsort(**kw)
            got = propose_moves_one_shot(**kw)
            msg = f"case {case} (resolution {resolution})"
            np.testing.assert_array_equal(got.proposal, want.proposal, msg)
            np.testing.assert_array_equal(got.moved, want.moved, msg)
            assert got.pairs_evaluated == want.pairs_evaluated, msg

    def test_exact_tie_takes_smallest_id(self):
        # Vertex 0 sees communities 30 and 20 with identical weight and
        # totals; both beat staying in 50, the smaller id must win.
        kw = dict(
            index=np.array([0, 2, 3, 4, 5]),
            target_comm=np.array([30, 20, 50, 30, 20]),
            weights=np.array([1.0, 1.0, 1.0, 1.0, 1.0]),
            self_mask=np.zeros(5, dtype=bool),
            degrees=np.array([2.0, 1.0, 1.0, 1.0]),
            cur_comm=np.array([50, 60, 30, 20]),
            total_weight=64.0,
            tot_lookup=sorted_lookup(
                np.array([20, 30, 50, 60]), np.array([4.0, 4.0, 2.0, 1.0])
            ),
            size_lookup=sorted_lookup(
                np.array([20, 30, 50, 60]), np.array([2, 2, 1, 1])
            ),
        )
        got = propose_moves_one_shot(**kw)
        want = propose_moves_lexsort(**kw)
        assert got.proposal[0] == 20
        np.testing.assert_array_equal(got.proposal, want.proposal)

    def test_order_sensitive_sums_match(self):
        # Each row sees one community through a run of 0.1/0.2/0.3
        # entries and a rival through a single entry equal to that run's
        # sum in CSR order.  Equal totals make the two scores tie exactly
        # only when d_{u,c} is summed in CSR order; any other order can
        # shift the sum by an ulp and flip the winner.
        rng = np.random.default_rng(5)
        index, target, weights = [0], [], []
        nrows = 24
        for r in range(nrows):
            run = rng.choice([0.1, 0.2, 0.3], 12).tolist()
            total = float(np.add.reduceat(np.array(run), [0])[0])
            seq_comm, single_comm = (9, 7) if r % 2 else (7, 9)
            at = int(rng.integers(0, len(run) + 1))
            target += [seq_comm] * at + [single_comm]
            target += [seq_comm] * (len(run) - at)
            weights += run[:at] + [total] + run[at:]
            index.append(len(target))
        ids = np.array([0, 7, 9])
        kw = dict(
            index=np.array(index),
            target_comm=np.array(target),
            weights=np.array(weights),
            self_mask=np.zeros(len(target), dtype=bool),
            degrees=np.full(nrows, 2.5),
            cur_comm=np.zeros(nrows, dtype=np.int64),
            total_weight=1e6,
            tot_lookup=sorted_lookup(ids, np.array([1e5, 50.0, 50.0])),
            size_lookup=sorted_lookup(ids, np.array([nrows, 2, 2])),
        )
        got = propose_moves_one_shot(**kw)
        want = propose_moves_lexsort(**kw)
        assert got.moved.all()
        np.testing.assert_array_equal(got.proposal, np.full(nrows, 7))
        np.testing.assert_array_equal(got.proposal, want.proposal)


def _active_masks(rng: np.random.Generator, nloc: int, own) -> list:
    """The case's own mask plus all-True (the unmasked fast path),
    all-False, a single active row and a random half."""
    single = np.zeros(nloc, dtype=bool)
    single[rng.integers(nloc)] = True
    return [
        own,
        None,
        np.ones(nloc, dtype=bool),
        np.zeros(nloc, dtype=bool),
        single,
        rng.random(nloc) < 0.5,
    ]


def _phase_plan(kw: dict) -> tuple[SweepPlan, np.ndarray, np.ndarray]:
    """A plan laid out as a phase builds it: targets are slots into
    ``slot_comm = concat(cur_comm, ghost)``, one ghost slot per distinct
    target id (shared by every entry pointing at it), and a self loop
    points at its own row's slot.  Returns ``(plan, slot_comm,
    targets)``; self loops never become candidates, so the kernel
    result is the oracle's on ``kw`` unchanged."""
    index, target = kw["index"], kw["target_comm"]
    nloc = len(index) - 1
    rows = np.repeat(np.arange(nloc), np.diff(index))
    ghost = np.unique(target)
    targets = np.where(
        kw["self_mask"], rows, nloc + np.searchsorted(ghost, target)
    )
    plan = SweepPlan.build(index, targets, kw["weights"], kw["self_mask"])
    return plan, np.concatenate([kw["cur_comm"], ghost]), targets


def _plan_sweep(plan: SweepPlan, slot_comm: np.ndarray, kw: dict, active):
    return propose_moves(
        plan.candidates(slot_comm, active),
        degrees=kw["degrees"],
        cur_comm=kw["cur_comm"],
        total_weight=kw["total_weight"],
        tot_lookup=kw["tot_lookup"],
        size_lookup=kw["size_lookup"],
        resolution=kw["resolution"],
    )


def _assert_same_result(got, want, msg):
    np.testing.assert_array_equal(got.proposal, want.proposal, msg)
    np.testing.assert_array_equal(got.moved, want.moved, msg)
    assert got.pairs_evaluated == want.pairs_evaluated, msg


class TestSweepPlan:
    """One plan per case, reused across rounds with different active
    masks (as a phase reuses it), must reproduce the lexsort oracle."""

    @pytest.mark.parametrize("resolution", [0.5, 1.0, 2.0])
    def test_random_cases_under_active_masks(self, resolution):
        # Same 240 cases as TestLexsortOracle (same generator seeds).
        rng = np.random.default_rng(int(resolution * 1000))
        for case in range(80):
            kw = _random_sweep_case(rng, resolution)
            plan, slot_comm, targets = _phase_plan(kw)
            nloc = len(kw["index"]) - 1
            rows = np.repeat(np.arange(nloc), np.diff(kw["index"]))
            masks = _active_masks(
                np.random.default_rng(case), nloc, kw["active"]
            )
            for m, active in enumerate(masks):
                msg = f"case {case} mask {m} (resolution {resolution})"
                want = propose_moves_lexsort(**{**kw, "active": active})
                got = _plan_sweep(plan, slot_comm, kw, active)
                _assert_same_result(got, want, msg)

                act = np.ones(nloc, bool) if active is None else active
                # _sweep_round's former expression, over the phase's
                # per-entry target communities.
                target_comm = slot_comm[targets]
                old_needed = np.unique(
                    np.concatenate(
                        [target_comm[act[rows]], kw["cur_comm"][act]]
                    )
                )
                cand = plan.candidates(slot_comm, active)
                np.testing.assert_array_equal(
                    _unique_ids(cand.comm), old_needed, msg
                )
                assert plan.scanned(act) == int(act[rows].sum()), msg

    def test_layout(self):
        # Row 0: entries to slots 3, 0 (self loop), 4; row 1: one entry
        # to slot 0; row 2: only a self loop.
        index = np.array([0, 3, 4, 5])
        targets = np.array([3, 0, 4, 0, 2])
        weights = np.array([1.0, 5.0, 2.0, 3.0, 7.0])
        self_mask = np.array([False, True, False, False, True])
        plan = SweepPlan.build(index, targets, weights, self_mask)
        np.testing.assert_array_equal(plan.rows, [0, 0, 1, 0, 1, 2])
        np.testing.assert_array_equal(plan.slots, [3, 4, 0, 0, 1, 2])
        np.testing.assert_array_equal(
            plan.weights, [1.0, 2.0, 3.0, 0.0, 0.0, 0.0]
        )
        np.testing.assert_array_equal(plan.row_counts, [3, 1, 1])
        assert plan.scanned(np.ones(3, dtype=bool)) == 5
        assert plan.scanned(np.array([False, True, True])) == 2

    @pytest.mark.parametrize("nloc", [0, 1, 5])
    def test_empty_graphs(self, nloc):
        kw = dict(
            index=np.zeros(nloc + 1, dtype=np.int64),
            target_comm=np.empty(0, dtype=np.int64),
            weights=np.empty(0),
            self_mask=np.empty(0, dtype=bool),
            degrees=np.ones(nloc),
            cur_comm=np.arange(nloc, dtype=np.int64),
            total_weight=8.0,
            tot_lookup=sorted_lookup(np.arange(nloc), np.ones(nloc)),
            size_lookup=sorted_lookup(np.arange(nloc), np.ones(nloc, int)),
            resolution=1.0,
        )
        plan, slot_comm, targets = _phase_plan(kw)
        assert plan.scanned(np.ones(nloc, dtype=bool)) == 0
        for active in (None, np.ones(nloc, bool), np.zeros(nloc, bool)):
            want = propose_moves_lexsort(**{**kw, "active": active})
            got = _plan_sweep(plan, slot_comm, kw, active)
            _assert_same_result(got, want, f"nloc {nloc}")
            assert got.num_moves == 0
            assert got.pairs_evaluated == (
                0 if active is not None and not active.any() else nloc
            )

    def test_self_loop_only_rows(self):
        # Every row holds only self loops: each active row evaluates its
        # own community alone and never moves.
        index = np.array([0, 2, 3, 3, 4])
        kw = dict(
            index=index,
            target_comm=np.array([10, 10, 11, 13]),
            weights=np.array([2.0, 1.0, 4.0, 3.0]),
            self_mask=np.ones(4, dtype=bool),
            degrees=np.array([3.0, 4.0, 0.0, 3.0]),
            cur_comm=np.array([10, 11, 12, 13]),
            total_weight=10.0,
            tot_lookup=sorted_lookup(
                np.array([10, 11, 12, 13]), np.array([3.0, 4.0, 0.0, 3.0])
            ),
            size_lookup=sorted_lookup(
                np.array([10, 11, 12, 13]), np.ones(4, dtype=np.int64)
            ),
            resolution=1.0,
        )
        plan, slot_comm, targets = _phase_plan(kw)
        np.testing.assert_array_equal(plan.rows, [0, 1, 2, 3])
        for active in (None, np.array([True, False, True, False])):
            want = propose_moves_lexsort(**{**kw, "active": active})
            got = _plan_sweep(plan, slot_comm, kw, active)
            _assert_same_result(got, want, "self-loop-only")
            assert got.num_moves == 0
        assert plan.scanned(np.array([True, False, True, False])) == 2
