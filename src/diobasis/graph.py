"""Graph algorithm: the completion search run over the defect digraph.

Nodes are the admissible defect values [-max_b, max_a]; an edge labelled i
maps d to d + w_i when the target stays in range.  A walk records how often
each edge label was used; a walk from node zero back to node zero is a
solution.  The search expands walks breadth-first by length (= coordinate
sum), follows positive labels from negative nodes and negative labels from
positive nodes, applies the same scan rule as the completion procedure,
each side by increasing coefficient size, and prunes a walk once an
already-found solution is bounded by it, which is the shorter-bounded-walk
minimality test; the canonical path to a minimal solution never trips it.
This one prune also keeps each side sum within the opposing side's largest
coefficient.  A walk that visits a node twice closes a nonzero solution of
smaller coordinate sum between the visits; an earlier level has indexed a
minimal solution below it, so the walk is pruned.  Every node lies in
[1 - max_b, max_a], so the positive steps of a surviving walk start from
distinct nodes among the max_b nodes {0, -1, ..., 1 - max_b} and its
negative steps from distinct nodes among the max_a nodes {1, ..., max_a}.
Every edge the search follows therefore stays in range, and the search
follows it by adding its weight: a walk is carried with its defect, never
with a node index or an adjacency table.
The same bound holds for every child the search makes, pruned ones
included: a child's new step starts at its parent's end node, from which no
step of the surviving parent started, since the parent visits no node
twice.  So the child's steps on each side still start from distinct nodes,
and each of its coordinates is at most max(max_a, max_b), the width the
packed walks below rely on.
``build_defect_graph`` builds the digraph itself, as a dict from node to
edges, for ``solve --emit-graph`` to dump.

A level is expanded one of two ways, and each way has one prune.  While
levels hold at most ``NARROW_FRONTIER`` walks and the search has found at
most ``BUCKET_SOLUTIONS`` solutions, the search runs completion's unit-step
loop, ``completion.expand``, which tests each child inline by its bucket
key, with its audit and stats record (``GraphStats`` is ``CompletionStats``);
it returns the first level past either bound.  Every other level is expanded in
vectorized passes over an int32 array of walks, an array of their defects
and, per walk and side, its scan cut: the scan position of the walk's first
used label on that side, up to which the scan rule expands it.  A child's
defect is its parent's plus the weight of its label, and its cuts are its
parent's but on the side it grew, where its label is now the first used
one, so a wide level never rescans its rows.  It tests its children with
one batched call to the ``DominanceIndex``, built with the label arrays on
the first wide level, so a search of narrow levels alone runs without
numpy.  Each stretch of wide levels first indexes the solutions that the
narrow levels since the last wide one found, in the order they were found.
A wide level tests all its children, solutions included, before it
indexes its emissions as the int32 rows they are, so one mask drops both
the solutions and the bounded children: an emission bounding a child of
its own level would share its coordinate sum and so equal it, which a
child of nonzero defect cannot.

The scan rule makes duplicate walks impossible, and emissions within a
level share a coordinate sum, so they never dominate each other or an
earlier solution.  The search therefore does not test for either, nor for
side sums or field overflows.  ``check_invariants=True`` runs the same
prunes with completion's audit on narrow levels (``completion.expand``),
and on a wide level raises ``AssertionError`` on a carried scan cut that
differs from its row's, a duplicate child, a child over a side-sum cap or
an emission bounded by an earlier solution.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .core import (
    BasisList,
    Deadline,
    DominanceIndex,
    Equation,
    PackedBuckets,
    ResourceLimitError,
    Solution,
    WeightVector,
    solve_normalized,
)
from .completion import CompletionStats, Walk, expand, initial_proposals

if TYPE_CHECKING:
    import numpy as np

# A wide level of more walks raises ResourceLimitError.
FRONTIER_CAP = 2**26
# Levels of at most this many walks go through completion's loop: a wide
# level's fixed cost (about 40 us) is what some 80 walks cost there.
NARROW_FRONTIER = 64
# Past this many solutions the buckets grow long, and each emission of a
# wide level would pay n bucket appends, so every later level is wide.
BUCKET_SOLUTIONS = 256


def build_defect_graph(w: WeightVector) -> dict[int, list[tuple[int, int]]]:
    """The defect digraph: each node d in [-max_b, max_a] maps to its edges
    as (0-based label, target) pairs, edge i going to d + w_i in range."""
    if not w.has_both_signs:
        raise ValueError("defect graph needs weights of both signs")
    lo, hi = -w.max_b, w.max_a
    return {
        d: [(i, d + wi) for i, wi in enumerate(w.w) if lo <= d + wi <= hi]
        for d in range(lo, hi + 1)
    }


def render_adjacency(graph: dict[int, list[tuple[int, int]]]) -> str:
    """Text dump, one node per line: ``d: (label->target) ...`` (1-based labels)."""
    return "\n".join(
        f"{d}:" + "".join(f" ({i + 1}->{t})" for i, t in edges)
        for d, edges in graph.items()
    )


GraphStats = CompletionStats


class _Search:
    """The wide levels of one graph search and the solutions found so far.

    ``found`` holds every solution, packed, up to and including the level
    that carries it past ``BUCKET_SOLUTIONS``, and ``completion.expand``
    tests narrow levels against it; ``late`` holds those of the wide levels
    after that one, unfiled.  The index holds every solution in the order
    found but for those of the narrow levels since the last wide one, which
    are the ``found.solutions`` past ``index.count``: a wide level indexes
    each emission it files.  ``wide_level`` expands a level state of three
    arrays, the walks' int32 label counts, their defects and their scan cuts
    (``scan_cuts``), with the bitset test, and ``to_rows`` unpacks walks
    into one, computing the cuts once.  The ndarray side (``weights``,
    ``label_arrays``, ``scan_table`` and ``index``) is built by
    ``build_arrays`` on the first wide level.
    """

    def __init__(self, w: WeightVector, stats: GraphStats, check: bool):
        self.w = w
        self.packing = w.packing
        self.stats = stats
        self.check = check
        self.found = PackedBuckets(w.packing)
        self.late: list[Solution] = []
        self.index: DominanceIndex | None = None

    def build_arrays(self) -> None:
        """Build the ndarray side, its index empty."""
        import numpy as np

        w = self.w
        self.weights = np.array(w.w, dtype=np.int32)
        self.label_arrays = [np.array(order, dtype=np.intp) for order in w.scan_orders]
        # Row s holds side s's labels in scan order, padded to a common width.
        self.scan_table = np.zeros((2, max(map(len, w.scan_orders))), dtype=np.intp)
        for side, labels in zip(self.scan_table, self.label_arrays):
            side[: len(labels)] = labels
        # A child's side sums stay within the per-side caps (module
        # docstring), so every coordinate is at most max(max_a, max_b).
        self.index = DominanceIndex(len(w), max(w.max_a, w.max_b) + 1)

    def to_rows(self, walks: list[Walk]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The walks as a wide level: int32 label counts, defects and scan
        cuts.  The index first takes the found solutions it lacks."""
        import numpy as np

        if self.index is None:
            self.build_arrays()
        if fresh := self.found.solutions[self.index.count :]:
            unpacked = list(map(self.packing.unpack, fresh))
            self.index.add(np.array(unpacked, dtype=np.int32))
        packed, defects = zip(*walks)
        rows = np.array(list(map(self.packing.unpack, packed)), dtype=np.int32)
        return rows, np.array(defects, dtype=np.int32), self.scan_cuts(rows)

    def scan_cuts(self, rows: np.ndarray) -> np.ndarray:
        """Per row and side (0 positive, 1 negative), the scan position of
        the row's first used label on that side, or the side's last position
        if it uses none: the scan rule expands that side at positions up to
        and including it."""
        import numpy as np

        cuts = np.empty((len(rows), 2), dtype=np.intp)
        for side, labels in enumerate(self.label_arrays):
            used = rows[:, labels] > 0
            used[:, -1] = True
            cuts[:, side] = used.argmax(axis=1)
        return cuts

    def wide_level(
        self, rows: np.ndarray, defects: np.ndarray, cuts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand a level in vectorized passes; returns the next level.

        A walk of defect d < 0 (> 0) grows on its positive (negative) side
        at scan positions 0 .. its cut there, so one ``np.repeat`` over the
        walks makes every child.  A child made at position j has cut j on
        that side and its parent's cut on the other.  One dominance test
        over all children and one compaction follow, and the emissions are
        indexed last, and filed in ``found`` if it held at most
        ``BUCKET_SOLUTIONS`` before them, else put in ``late``: none of them
        can bound a child of their own level (module docstring).
        """
        import numpy as np

        stats = self.stats
        stats.levels += 1
        stats.walks_expanded += len(rows)
        stats.max_frontier = max(stats.max_frontier, len(rows))
        walk = np.arange(len(rows))
        # 0 where a walk grows a positive label (d < 0), 1 a negative one.
        side = (defects > 0).view(np.int8)
        counts = cuts[walk, side] + 1
        parent = np.repeat(walk, counts)
        child = np.arange(len(parent))
        pos = child - np.repeat(np.cumsum(counts) - counts, counts)
        child_side = side[parent]
        labels = self.scan_table[child_side, pos]
        children = rows[parent]
        children[child, labels] += 1
        child_defects = defects[parent] + self.weights[labels]
        child_cuts = cuts[parent]
        child_cuts[child, child_side] = pos
        stats.children += len(children)
        is_solution = child_defects == 0
        bounded = self.index.any_dominator(children)
        if self.check:
            self.audit(children, child_cuts, is_solution & bounded)
        solutions = children[is_solution]
        if len(solutions):
            self.index.add(solutions)
            stats.insert.inserted += len(solutions)
            if len(self.found.solutions) <= BUCKET_SOLUTIONS:
                for sol in map(self.packing.pack, solutions.tolist()):
                    self.found.add(sol)
            else:
                self.late += map(tuple, solutions.tolist())
        live = np.flatnonzero(~(is_solution | bounded))
        rows, defects = children.take(live, axis=0), child_defects.take(live)
        stats.pruned_dominated += len(children) - len(solutions) - len(rows)
        return rows, defects, child_cuts.take(live, axis=0)

    def audit(self, children: np.ndarray, cuts: np.ndarray, bad: np.ndarray) -> None:
        """Raise on a wide level's carried scan cut that differs from its
        row's, duplicate child, child over a side-sum cap or bounded
        emission (``bad``)."""
        import numpy as np

        w, positive = self.w, self.weights > 0
        if not np.array_equal(self.scan_cuts(children), cuts):
            raise AssertionError("scan cut differs from the one its row gives")
        if len(np.unique(children, axis=0)) < len(children):
            raise AssertionError("duplicate walk; scan rule violated")
        if (children[:, positive].sum(axis=1) > w.max_b).any() or (
            children[:, ~positive].sum(axis=1) > w.max_a
        ).any():
            raise AssertionError("walk over a side-sum cap")
        if bad.any():
            raise AssertionError("emission bounded by an earlier solution")


def graph_solve(
    problem: Equation | Sequence[int],
    *,
    stats: GraphStats | None = None,
    time_limit: float | None = None,
    check_invariants: bool = False,
) -> BasisList:
    """Basis of an equation or a signed weight sequence by the graph
    algorithm (normalized by ``core.solve_normalized``).

    With ``check_invariants`` the search runs the same prunes and the audits
    of the module docstring; the scan rule, the equal-sum argument, the
    revisit argument and the bucket argument prove none of them can fire,
    so by default the search does not pay for them.  A wide level of more
    than ``FRONTIER_CAP`` walks raises ``ResourceLimitError``.
    """
    return solve_normalized(
        problem,
        _solve,
        stats if stats is not None else GraphStats(),
        Deadline(time_limit),
        check_invariants,
    )


def _solve(
    w: WeightVector,
    stats: GraphStats,
    deadline: Deadline,
    check_invariants: bool,
) -> BasisList:
    search = _Search(w, stats, check_invariants)
    found = search.found.solutions
    # One-sided seeding, as in the completion procedure.
    walks = initial_proposals(w)
    while walks := expand(
        w, walks, search.found, stats, deadline, check_invariants, NARROW_FRONTIER,
        BUCKET_SOLUTIONS,
    ):
        level = search.to_rows(walks)
        # Wide while the level is, and for good once the buckets are past
        # their cap.
        while (width := len(level[0])) and (
            width > NARROW_FRONTIER or len(found) > BUCKET_SOLUTIONS
        ):
            deadline.check()
            if width > FRONTIER_CAP:
                raise ResourceLimitError(
                    f"graph frontier holds {width} walks, over the cap of {FRONTIER_CAP}"
                )
            level = search.wide_level(*level)
        walks = list(zip(map(w.packing.pack, level[0].tolist()), level[1].tolist()))
    return sorted([*map(w.packing.unpack, found), *search.late])
