"""Graph algorithm: the completion search run over the defect digraph.

Nodes are the admissible defect values [-max_b, max_a]; an edge labelled i
maps d to d + w_i when the target stays in range.  A walk records how often
each edge label was used; a walk from node zero back to node zero is a
solution.  The search expands walks breadth-first by length (= coordinate
sum), follows positive labels from negative nodes and negative labels from
positive nodes, applies the same top-down scan rule as the completion
procedure, and prunes a walk once an already-found solution is bounded by
it, which is the shorter-bounded-walk minimality test; the canonical path
to a minimal solution never trips it.  This one prune also keeps each side
sum within the opposing side's largest coefficient.  A walk that visits a
node twice closes a nonzero solution of smaller coordinate sum between the
visits; an earlier level has indexed a minimal solution below it, so the
walk is pruned.  Every node lies in [1 - max_b, max_a], so the positive
steps of a surviving walk start from distinct nodes among the max_b nodes
{0, -1, ..., 1 - max_b} and its negative steps from distinct nodes among
the max_a nodes {1, ..., max_a}.  Every edge the search follows therefore
stays in range, and the search follows it by adding its weight: a walk is
carried with its defect, never with a node index or an adjacency table.
The same bound holds for every child the search makes, pruned ones
included: a child's new step starts at its parent's end node, from which no
step of the surviving parent started, since the parent visits no node
twice.  So the child's steps on each side still start from distinct nodes,
and each of its coordinates is at most max(max_a, max_b), the width the
packed walks below rely on.
``build_defect_graph`` builds the digraph itself, as a dict from node to
edges, for ``solve --emit-graph`` to dump.

A level is expanded one of two ways, and each way has one prune.  A level
of at most ``NARROW_FRONTIER`` walks, while the search has found at most
``BUCKET_SOLUTIONS`` (256) solutions, is expanded walk by walk by the
completion procedure's own step, ``completion.completion_step``, each walk
its label counts packed into one int (``core.Packing``) and carried with its
defect, so a deep search of thin levels costs per walk, not per level, and a
child costs one addition.  Every other level is expanded in vectorized
passes over an int32 array of walks, an array of their defects
and, per walk and side, its scan cut: the scan position of the walk's first
used label on that side, up to which the scan rule expands it.  A child's
defect is its parent's plus the weight of its label, and its cuts are its
parent's but on the side it grew, where its label is now the first used
one, so a wide level never rescans its rows.  Both paths apply the same
scan rule to the same seeds, ``completion.initial_proposals``.  The label
arrays and the bitset index are built on the first wide level, so a search
of narrow levels alone runs without numpy.

A narrow level tests each child as it is made.  The child c = x + e_i
extends a walk x that survived the prune one level earlier, so a found
solution below c has a smaller coordinate sum and agrees with c at i: only
the solutions whose i-th count equals c_i need scanning
(``core.PackedBuckets``).  The buckets hold the packed solutions, and
each member scanned costs one guard-bit subtraction, so on a thin level a
batched call of fixed cost (about 25 us) gives way to a few integer
operations.  A wide level tests its children
with one batched call to the ``DominanceIndex``.  Past the cap, buckets
hold too many solutions to scan per child, and every emission of a wide
level would pay n bucket appends, so the search drops them and expands
every later level in vectorized passes, however narrow.  Once built, the
``DominanceIndex`` takes every solution found before it, in the order they
were found, and then each level's emissions as the level ends, on either
path.  A wide level tests all its children, solutions included, before it
indexes its emissions, so one mask drops both the solutions and the bounded
children: an emission bounding a child of its own level would share its
coordinate sum and so equal it, which a child of nonzero defect cannot.

The scan rule makes duplicate walks impossible, and emissions within a
level share a coordinate sum, so they never dominate each other or an
earlier solution.  The search therefore does not test for either, nor for
side sums or field overflows.  ``check_invariants=True`` runs the same
prunes and raises ``AssertionError`` on a duplicate walk or emission within
a level, an emission bounded by an earlier solution, a child over a
side-sum cap, a narrow child with a guard bit set, a carried scan cut that
differs from the one its row gives, or a bucket verdict that the bitset
index contradicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from .core import (
    BasisList,
    Deadline,
    DominanceIndex,
    Equation,
    InsertStats,
    PackedBuckets,
    ResourceLimitError,
    Solution,
    WeightVector,
    solve_normalized,
)
from .completion import Walk, completion_step, initial_proposals

if TYPE_CHECKING:
    import numpy as np

DEFAULT_FRONTIER_CAP = 2**26
# Levels of at most this many walks are expanded walk by walk, packed;
# wider ones in vectorized passes, whose fixed cost per level a few walks
# cannot repay.
NARROW_FRONTIER = 64
# Narrow levels test each child against the solutions that share its
# incremented coordinate while the search has found at most this many
# solutions.  Past that the buckets grow long and a wide level's emissions
# each pay n bucket appends, so the batched bitset test is cheaper.
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


@dataclass
class GraphStats:
    levels: int = 0
    walks_expanded: int = 0
    children: int = 0
    pruned_dominated: int = 0
    max_frontier: int = 0
    insert: InsertStats = field(default_factory=InsertStats)


class _Search:
    """State shared by the levels of one graph search: the weights, the
    solutions found so far and their dominance indexes.

    A level is expanded by ``narrow_level`` on a list of packed walks, with
    ``completion_step`` and the bucket test, or by ``wide_level`` on a level
    state of three arrays, the walks' int32 label counts, their defects and
    their scan cuts (``scan_cuts``), with the bitset test; both apply the
    same scan rule.  ``to_rows`` unpacks walks into a level state, computing
    the cuts once, and ``to_walks`` packs its rows and defects back into
    walks.  The ndarray side (``weights``, ``label_arrays``, ``scan_table``,
    ``positive`` and ``index``) is built by ``build_arrays`` on the first
    wide level.  With ``check`` it is built at the start, since the audits
    read the bitset, and both paths also raise ``AssertionError`` on a
    broken invariant (module docstring).
    """

    def __init__(self, w: WeightVector, stats: GraphStats, check: bool):
        self.w = w
        self.packing = w.packing
        self.stats = stats
        self.check = check
        self.solutions: list[Solution] = []
        # Dropped once the search has found over BUCKET_SOLUTIONS solutions;
        # every later level is then wide.
        self.buckets: PackedBuckets | None = PackedBuckets(w.packing)
        self.index: DominanceIndex | None = None
        if check:
            self.build_arrays()

    def build_arrays(self) -> None:
        """Build the ndarray side.  The index takes every solution found so
        far in one insert, in the order they were found, so each keeps the
        bit id it would have had in an index built at the start."""
        import numpy as np

        w = self.w
        self.weights = np.array(w.w, dtype=np.int32)
        self.label_arrays = [np.array(order, dtype=np.intp) for order in w.scan_orders]
        # Row s holds side s's labels in scan order, padded to a common width.
        self.scan_table = np.zeros((2, max(map(len, w.scan_orders))), dtype=np.intp)
        for side, labels in zip(self.scan_table, self.label_arrays):
            side[: len(labels)] = labels
        self.positive = self.weights > 0
        # A child's side sums stay within the per-side caps (module
        # docstring), so every coordinate is at most max(max_a, max_b).
        self.index = DominanceIndex(len(w), max(w.max_a, w.max_b) + 1)
        if self.solutions:
            self.index.add(np.array(self.solutions, dtype=np.int32))

    def to_walks(self, rows: np.ndarray, defects: np.ndarray) -> list[Walk]:
        return list(zip(map(self.packing.pack, rows.tolist()), defects.tolist()))

    def to_rows(self, walks: list[Walk]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The walks as a wide level: int32 label counts, defects and scan
        cuts."""
        import numpy as np

        if self.index is None:
            self.build_arrays()
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

    def emit(
        self,
        new: list[Solution],
        rows: np.ndarray | None = None,
        packed: list[int] | None = None,
    ) -> None:
        """Record a level's emissions, given as tuples and, from a wide level,
        as the same int32 rows or, from a narrow one, packed; index them once
        the index is built, and file them in the buckets while kept."""
        if self.index is not None:
            if rows is None:
                import numpy as np

                rows = np.array(new, dtype=np.int32)
            if self.check:
                self.audit_caps(rows)
                if len(set(new)) < len(new):
                    raise AssertionError("duplicate emission; scan rule violated")
                if self.index.any_dominator(rows).any():
                    raise AssertionError("emission bounded by an earlier solution")
            self.index.add(rows)
        self.stats.insert.inserted += len(new)
        self.solutions.extend(new)
        if self.buckets is not None:
            if len(self.solutions) > BUCKET_SOLUTIONS:
                self.buckets = None
            else:
                for sol in map(self.packing.pack, new) if packed is None else packed:
                    self.buckets.add(sol)

    def audit_caps(self, rows: np.ndarray) -> None:
        """Raise if a row's side sum exceeds the opposing side's largest
        coefficient."""
        w, positive = self.w, self.positive
        over = (rows[:, positive].sum(axis=1) > w.max_b) | (
            rows[:, ~positive].sum(axis=1) > w.max_a
        )
        if over.any():
            raise AssertionError("walk over a side-sum cap")

    def audited_bounds(self, child: int, i: int) -> bool:
        """The bucket test on the packed ``child``, checked against its
        guard bits, the side-sum caps and the bitset index."""
        import numpy as np

        if child & self.packing.guards:
            raise AssertionError("field overflow")
        vector = self.packing.unpack(child)
        row = np.array([vector], dtype=np.int32)
        self.audit_caps(row)
        hit = self.buckets.bounds(child, i)
        if hit != self.index.any_dominator(row)[0]:
            raise AssertionError(
                f"bucket test disagrees with the bitset index on {vector}"
            )
        return hit

    def narrow_level(self, walks: list[Walk]) -> list[Walk]:
        """Expand a level walk by walk, testing each child against the
        buckets as it is made; returns the next level's walks."""
        bounds = self.audited_bounds if self.check else self.buckets.bounds
        emitted, proposals, children = completion_step(self.w, walks, bounds)
        self.stats.children += children
        self.stats.pruned_dominated += children - len(emitted) - len(proposals)
        if self.check:
            if len(set(proposals)) < len(proposals):
                raise AssertionError("duplicate walk; scan rule violated")
            if any(sol & self.packing.guards for sol in emitted):
                raise AssertionError("field overflow")
        if emitted:
            self.emit(list(map(self.packing.unpack, emitted)), packed=emitted)
        return proposals

    def wide_level(
        self, rows: np.ndarray, defects: np.ndarray, cuts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand a level in vectorized passes; returns the next level.

        A walk of defect d < 0 (> 0) grows on its positive (negative) side
        at scan positions 0 .. its cut there, so one ``np.repeat`` over the
        walks makes every child.  A child made at position j has cut j on
        that side and its parent's cut on the other.  One dominance test
        over all children and one compaction follow, and the emissions are
        indexed last: none of them can bound a child of their own level
        (module docstring).
        """
        import numpy as np

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
        if self.check and not np.array_equal(self.scan_cuts(children), child_cuts):
            raise AssertionError("scan cut differs from the one its row gives")

        self.stats.children += len(children)
        is_solution = child_defects == 0
        keep = ~(is_solution | self.index.any_dominator(children))
        solutions = int(is_solution.sum())
        if solutions:
            emitted = children[is_solution]
            self.emit(list(map(tuple, emitted.tolist())), emitted)
        if self.check:
            self.audit_caps(children[~is_solution])
        live = np.flatnonzero(keep)
        rows, defects = children.take(live, axis=0), child_defects.take(live)
        cuts = child_cuts.take(live, axis=0)
        self.stats.pruned_dominated += len(children) - solutions - len(rows)
        if self.check and len(np.unique(rows, axis=0)) < len(rows):
            raise AssertionError("duplicate walk; scan rule violated")
        return rows, defects, cuts


def graph_solve(
    problem: Equation | Sequence[int],
    *,
    frontier_cap: int = DEFAULT_FRONTIER_CAP,
    stats: GraphStats | None = None,
    time_limit: float | None = None,
    check_invariants: bool = False,
) -> BasisList:
    """Basis of an equation or a signed weight sequence by the graph
    algorithm (normalized by ``core.solve_normalized``).

    With ``check_invariants`` the search runs the same prunes and raises
    ``AssertionError`` on a duplicate walk or emission, an emission bounded
    by an earlier solution, a child over a side-sum cap, a narrow child with
    a guard bit set, a carried scan cut that differs from its row's, or a
    bucket verdict that the bitset index contradicts; the scan rule, the
    equal-sum argument, the revisit argument and the bucket argument prove
    none of that can fire, so by default the search does not pay for it.
    """
    return solve_normalized(
        problem,
        _solve,
        frontier_cap,
        stats if stats is not None else GraphStats(),
        Deadline(time_limit),
        check_invariants,
    )


def _solve(
    w: WeightVector,
    frontier_cap: int,
    stats: GraphStats,
    deadline: Deadline,
    check_invariants: bool,
) -> BasisList:
    search = _Search(w, stats, check_invariants)

    # One-sided seeding, as in the completion procedure.
    walks = initial_proposals(w)
    # (rows, defects, cuts) while the frontier is wide; walks is then stale.
    wide = None
    while True:
        width = len(walks) if wide is None else len(wide[0])
        if not width:
            break
        deadline.check()
        stats.levels += 1
        stats.max_frontier = max(stats.max_frontier, width)
        if width > frontier_cap:
            raise ResourceLimitError(
                f"graph frontier holds {width} walks, over the cap of {frontier_cap}"
            )
        stats.walks_expanded += width
        if width <= NARROW_FRONTIER and search.buckets is not None:
            if wide is not None:
                walks, wide = search.to_walks(*wide[:2]), None
            walks = search.narrow_level(walks)
        else:
            if wide is None:
                wide = search.to_rows(walks)
            wide = search.wide_level(*wide)
    return sorted(search.solutions)
