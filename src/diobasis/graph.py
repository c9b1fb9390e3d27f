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

Frontiers are ndarray-backed so each level is a handful of vectorized
passes; successor nodes come from the materialized adjacency table.
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


class DefectGraph:
    """Labelled digraph over defect values with lookup-table adjacency."""

    def __init__(self, w: WeightVector):
        self.w = w
        self.node_lo = -w.max_b
        self.node_hi = w.max_a
        self.num_nodes = self.node_hi - self.node_lo + 1
        self.zero_index = -self.node_lo
        n = len(w)
        # target[idx, i] = index of node d + w_i, or -1 when out of range
        table = np.full((self.num_nodes, n), -1, dtype=np.int32)
        for idx in range(self.num_nodes):
            d = idx + self.node_lo
            for i, wi in enumerate(w.w):
                t = d + wi
                if self.node_lo <= t <= self.node_hi:
                    table[idx, i] = t - self.node_lo
        self.target = table

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


def graph_solve_weights(
    w: WeightVector,
    *,
    frontier_cap: int = DEFAULT_FRONTIER_CAP,
    stats: GraphStats | None = None,
    time_limit: float | None = None,
) -> BasisList:
    if not w.has_both_signs:
        return []
    stats = stats if stats is not None else GraphStats()
    deadline = Deadline.maybe(time_limit)
    graph = build_defect_graph(w)
    n = len(w)
    zero_idx = graph.zero_index
    table = graph.target

    pos_desc = np.array(sorted(w.positive_positions, reverse=True), dtype=np.int64)
    neg_desc = np.array(sorted(w.negative_positions, reverse=True), dtype=np.int64)
    pos_cols = np.array(w.positive_positions, dtype=np.int64)
    neg_cols = np.array(w.negative_positions, dtype=np.int64)

    # Seed: one walk per positive label out of node zero (one-sided seeding,
    # same uniqueness argument as the completion procedure).
    frontier = np.zeros((len(pos_desc), n), dtype=np.int32)
    order = pos_cols  # ascending positions for deterministic layout
    frontier[np.arange(len(order)), order] = 1
    nodes = table[zero_idx, order]

    solutions: list[Solution] = []
    # The side-sum caps keep every coordinate within max(max_a, max_b).
    index = DominanceIndex(n, max(w.max_a, w.max_b) + 1)

    while len(frontier):
        if deadline is not None:
            deadline.check()
        stats.levels += 1
        stats.max_frontier = max(stats.max_frontier, len(frontier))
        if len(frontier) > frontier_cap:
            raise ResourceLimitError(
                f"graph frontier holds {len(frontier)} walks, over the cap of {frontier_cap}"
            )
        stats.walks_expanded += len(frontier)

        chunks = []
        chunk_nodes = []
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
            child_nodes = table[group_nodes[row_idx], labels]
            chunks.append(children)
            chunk_nodes.append(child_nodes)

        if not chunks:
            break
        children = np.vstack(chunks)
        child_nodes = np.concatenate(chunk_nodes)
        stats.children += len(children)

        # Side-sum guard: minimal solutions keep each side's sum within the
        # opposing side's largest coefficient, and so does every prefix of
        # their construction path.
        ok = (children[:, pos_cols].sum(axis=1) <= w.max_b) & (
            children[:, neg_cols].sum(axis=1) <= w.max_a
        )
        stats.pruned_side_sums += int(len(children) - ok.sum())
        children = children[ok]
        child_nodes = child_nodes[ok]

        is_solution = child_nodes == zero_idx
        emitted = children[is_solution]
        if len(emitted):
            # Emissions within a level share a coordinate sum, so they cannot
            # dominate each other or anything found earlier; the checks below
            # only feed the instrumentation that tests assert stays silent.
            uniq = np.unique(emitted, axis=0)
            stats.duplicate_emissions += len(emitted) - len(uniq)
            rejected = index.any_dominator(uniq)
            stats.insert.rejected += int(rejected.sum())
            uniq = uniq[~rejected]
            stats.insert.inserted += len(uniq)
            solutions.extend(tuple(row) for row in uniq.tolist())
            index.add(uniq)

        proposals = children[~is_solution]
        prop_nodes = child_nodes[~is_solution]
        if len(proposals):
            dominated = index.any_dominator(proposals)
            stats.pruned_dominated += int(dominated.sum())
            keep = ~dominated
            proposals = proposals[keep]
            prop_nodes = prop_nodes[keep]
        if len(proposals):
            uniq, first_idx = np.unique(proposals, axis=0, return_index=True)
            stats.duplicate_walks += len(proposals) - len(uniq)
            proposals = uniq
            prop_nodes = prop_nodes[first_idx]
        frontier = proposals
        nodes = prop_nodes

    return sorted(solutions)
