"""Graph algorithm: the completion search run over a precomputed defect digraph.

Nodes are the admissible defect values [-max_b, max_a]; an edge labelled i
maps d to d + w_i when the target stays in range.  A walk records how often
each edge label was used; a walk from node zero back to node zero is a
solution.  The search expands walks breadth-first by length (= coordinate
sum), follows positive labels from negative nodes and negative labels from
positive nodes, applies the same top-down scan rule as the completion
procedure, and prunes a walk once an already-found solution is bounded by
it, which is the shorter-bounded-walk minimality test.  Walks whose side
sums exceed the per-side caps of minimal solutions are dropped as well; the
canonical path to a minimal solution never trips either prune.

A level is expanded one of two ways, chosen by its width.  A level of at
most ``NARROW_FRONTIER`` walks is expanded walk by walk: each walk is a
tuple of label counts carried with its defect and side sums as ints, so a
deep search of thin levels costs per walk, not per level.  A wider level is
expanded in vectorized passes over an int32 array of walks, whose successor
nodes come from the materialized adjacency table.  Both paths apply the
same scan rule and prunes and test candidates with one batched call to the
shared ``DominanceIndex`` per level.

The scan rule makes duplicate walks impossible, and emissions within a
level share a coordinate sum, so they never dominate each other or an
earlier solution.  The search therefore does not test for either;
``check_invariants=True`` runs those audits and counts what they find.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .core import (
    BasisList,
    Deadline,
    DominanceIndex,
    Equation,
    InsertStats,
    ResourceLimitError,
    Solution,
    WeightVector,
    build_weights,
)

DEFAULT_FRONTIER_CAP = 2**26
# Levels of at most this many walks are expanded walk by walk as tuples;
# wider ones in vectorized passes, whose fixed cost per level a few walks
# cannot repay.
NARROW_FRONTIER = 64


class DefectGraph:
    """Labelled digraph over defect values with lookup-table adjacency."""

    def __init__(self, w: WeightVector):
        self.w = w
        self.node_lo = -w.max_b
        self.node_hi = w.max_a
        self.num_nodes = self.node_hi - self.node_lo + 1
        self.zero_index = -self.node_lo
        # target[idx, i] = index of node d + w_i, or -1 when out of range
        target = np.arange(self.num_nodes, dtype=np.int32)[:, None] + np.array(
            w.w, dtype=np.int32
        )
        target[(target < 0) | (target >= self.num_nodes)] = -1
        self.target = target

    @property
    def edge_count(self) -> int:
        return int((self.target >= 0).sum())

    def successors(self, d: int) -> list[tuple[int, int]]:
        """Edges out of node ``d`` as (0-based label, target defect) pairs."""
        idx = d - self.node_lo
        out = []
        for i in range(len(self.w)):
            t = self.target[idx, i]
            if t >= 0:
                out.append((i, int(t) + self.node_lo))
        return out

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """All edges as (source defect, 0-based label, target defect)."""
        for d in range(self.node_lo, self.node_hi + 1):
            for i, t in self.successors(d):
                yield d, i, t


def build_defect_graph(w: WeightVector) -> DefectGraph:
    if not w.has_both_signs:
        raise ValueError("defect graph needs weights of both signs")
    return DefectGraph(w)


def render_adjacency(graph: DefectGraph) -> str:
    """Text dump, one node per line: ``d: (label->target) ...`` (1-based labels)."""
    lines = []
    for d in range(graph.node_lo, graph.node_hi + 1):
        parts = [f"({i + 1}->{t})" for i, t in graph.successors(d)]
        lines.append(f"{d}:" + (" " + " ".join(parts) if parts else ""))
    return "\n".join(lines)


@dataclass
class GraphStats:
    levels: int = 0
    walks_expanded: int = 0
    children: int = 0
    pruned_dominated: int = 0
    pruned_side_sums: int = 0
    duplicate_walks: int = 0
    duplicate_emissions: int = 0
    max_frontier: int = 0
    insert: InsertStats = field(default_factory=InsertStats)


def graph_solve(
    eq: Equation,
    *,
    frontier_cap: int = DEFAULT_FRONTIER_CAP,
    stats: GraphStats | None = None,
    time_limit: float | None = None,
) -> BasisList:
    """Basis of an equation by the graph algorithm."""
    return graph_solve_weights(
        build_weights(eq),
        frontier_cap=frontier_cap,
        stats=stats,
        time_limit=time_limit,
    )


# A walk of a narrow level: (label counts, defect, positive-side sum,
# negative-side sum).
_Walk = tuple[tuple[int, ...], int, int, int]


class _Search:
    """State shared by the levels of one graph search: the weights, the
    adjacency table, the solutions found so far and their dominance index.

    A level is expanded by ``narrow_level`` on a list of walk tuples or by
    ``wide_level`` on an int32 array of label counts with the walks' node
    indices; both apply the same scan rule, prunes and counters.
    """

    def __init__(
        self, w: WeightVector, graph: DefectGraph, stats: GraphStats, check: bool
    ):
        self.w = w
        self.table = graph.target
        self.zero_idx = graph.zero_index
        self.stats = stats
        self.check = check
        self.pos_desc = sorted(w.positive_positions, reverse=True)
        self.neg_desc = sorted(w.negative_positions, reverse=True)
        self.label_arrays = (
            np.array(self.pos_desc, dtype=np.int64),
            np.array(self.neg_desc, dtype=np.int64),
        )
        self.pos_cols = np.array(w.positive_positions, dtype=np.int64)
        self.neg_cols = np.array(w.negative_positions, dtype=np.int64)
        self.solutions: list[Solution] = []
        # The side-sum caps keep every coordinate within max(max_a, max_b).
        self.index = DominanceIndex(len(w), max(w.max_a, w.max_b) + 1)

    def to_walks(self, rows: np.ndarray, nodes: np.ndarray) -> list[_Walk]:
        return list(
            zip(
                map(tuple, rows.tolist()),
                (nodes - self.zero_idx).tolist(),
                rows[:, self.pos_cols].sum(axis=1).tolist(),
                rows[:, self.neg_cols].sum(axis=1).tolist(),
            )
        )

    def to_rows(self, walks: list[_Walk]) -> tuple[np.ndarray, np.ndarray]:
        rows = np.array([walk[0] for walk in walks], dtype=np.int32)
        nodes = np.array([walk[1] for walk in walks]) + self.zero_idx
        return rows, nodes

    def emit(self, emitted: np.ndarray) -> None:
        # Emissions within a level share a coordinate sum, so they cannot
        # dominate each other or anything found earlier; the audit only
        # feeds the counters that tests assert stay zero.
        if self.check:
            uniq = np.unique(emitted, axis=0)
            self.stats.duplicate_emissions += len(emitted) - len(uniq)
            rejected = self.index.any_dominator(uniq)
            self.stats.insert.rejected += int(rejected.sum())
            emitted = uniq[~rejected]
        self.stats.insert.inserted += len(emitted)
        self.solutions.extend(map(tuple, emitted.tolist()))
        self.index.add(emitted)

    def narrow_level(self, walks: list[_Walk]) -> list[_Walk]:
        """Expand a level walk by walk; returns the next level's walks."""
        w = self.w
        weights, max_a, max_b = w.w, w.max_a, w.max_b
        emitted: list[Solution] = []
        proposals: list[_Walk] = []
        children = pruned = 0
        for x, d, sp, sn in walks:
            # A walk fits both side-sum caps; a child raises only the side
            # of its label.
            if d < 0:
                labels, sp = self.pos_desc, sp + 1
                fits = sp <= max_b
            else:
                labels, sn = self.neg_desc, sn + 1
                fits = sn <= max_a
            for i in labels:
                children += 1
                if fits:
                    child = x[:i] + (x[i] + 1,) + x[i + 1 :]
                    dc = d + weights[i]
                    if dc:
                        proposals.append((child, dc, sp, sn))
                    else:
                        emitted.append(child)
                else:
                    pruned += 1
                if x[i]:
                    break
        self.stats.children += children
        self.stats.pruned_side_sums += pruned
        if emitted:
            self.emit(np.array(emitted, dtype=np.int32))
        if proposals and self.index.count:
            dominated = self.index.any_dominator(
                np.array([p[0] for p in proposals], dtype=np.int32)
            ).tolist()
            self.stats.pruned_dominated += sum(dominated)
            proposals = [p for p, out in zip(proposals, dominated) if not out]
        if self.check:
            first: dict[tuple[int, ...], _Walk] = {}
            for p in proposals:
                first.setdefault(p[0], p)
            self.stats.duplicate_walks += len(proposals) - len(first)
            proposals = list(first.values())
        return proposals

    def wide_level(
        self, frontier: np.ndarray, nodes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expand a level in vectorized passes; returns the next level."""
        w, stats, zero_idx = self.w, self.stats, self.zero_idx
        chunks = []
        chunk_nodes = []
        pos_desc, neg_desc = self.label_arrays
        for labels_desc, rows in (
            (pos_desc, nodes < zero_idx),
            (neg_desc, nodes > zero_idx),
        ):
            group = frontier[rows]
            if not len(group):
                continue
            group_nodes = nodes[rows]
            m = len(labels_desc)
            used = group[:, labels_desc] > 0
            has_used = used.any(axis=1)
            first_used = used.argmax(axis=1)
            cut = np.where(has_used, first_used, m - 1)
            take = np.arange(m)[None, :] <= cut[:, None]
            row_idx, label_pos = np.nonzero(take)
            labels = labels_desc[label_pos]
            children = group[row_idx]
            children[np.arange(len(children)), labels] += 1
            chunks.append(children)
            chunk_nodes.append(self.table[group_nodes[row_idx], labels])

        children = np.vstack(chunks)
        child_nodes = np.concatenate(chunk_nodes)
        stats.children += len(children)

        # Side-sum guard: minimal solutions keep each side's sum within the
        # opposing side's largest coefficient, and so does every prefix of
        # their construction path.
        ok = (children[:, self.pos_cols].sum(axis=1) <= w.max_b) & (
            children[:, self.neg_cols].sum(axis=1) <= w.max_a
        )
        stats.pruned_side_sums += int(len(children) - ok.sum())
        children = children[ok]
        child_nodes = child_nodes[ok]

        is_solution = child_nodes == zero_idx
        if is_solution.any():
            self.emit(children[is_solution])

        proposals = children[~is_solution]
        prop_nodes = child_nodes[~is_solution]
        if len(proposals):
            dominated = self.index.any_dominator(proposals)
            stats.pruned_dominated += int(dominated.sum())
            proposals = proposals[~dominated]
            prop_nodes = prop_nodes[~dominated]
        if self.check and len(proposals):
            uniq, first_idx = np.unique(proposals, axis=0, return_index=True)
            stats.duplicate_walks += len(proposals) - len(uniq)
            proposals = uniq
            prop_nodes = prop_nodes[first_idx]
        return proposals, prop_nodes


def graph_solve_weights(
    w: WeightVector,
    *,
    frontier_cap: int = DEFAULT_FRONTIER_CAP,
    stats: GraphStats | None = None,
    time_limit: float | None = None,
    check_invariants: bool = False,
) -> BasisList:
    """Basis of a weight vector by the graph algorithm.

    With ``check_invariants`` every level also counts duplicate walks,
    duplicate emissions and dominated emissions into ``stats`` and drops
    them; the scan rule and the equal-sum argument prove all three counts
    stay zero, so by default the search does not pay for them.
    """
    if not w.has_both_signs:
        return []
    stats = stats if stats is not None else GraphStats()
    deadline = Deadline.maybe(time_limit)
    graph = build_defect_graph(w)
    search = _Search(w, graph, stats, check_invariants)

    # Seed: one walk per positive label out of node zero (one-sided seeding,
    # same uniqueness argument as the completion procedure).
    n = len(w)
    walks: list[_Walk] = [
        ((0,) * i + (1,) + (0,) * (n - i - 1), w.w[i], 1, 0)
        for i in w.positive_positions
    ]
    wide = None  # (rows, nodes) while the frontier is wide; walks is then stale
    while True:
        width = len(walks) if wide is None else len(wide[0])
        if not width:
            break
        if deadline is not None:
            deadline.check()
        stats.levels += 1
        stats.max_frontier = max(stats.max_frontier, width)
        if width > frontier_cap:
            raise ResourceLimitError(
                f"graph frontier holds {width} walks, over the cap of {frontier_cap}"
            )
        stats.walks_expanded += width
        if width <= NARROW_FRONTIER:
            if wide is not None:
                walks, wide = search.to_walks(*wide), None
            walks = search.narrow_level(walks)
        else:
            if wide is None:
                wide = search.to_rows(walks)
            wide = search.wide_level(*wide)
    return sorted(search.solutions)
