"""Completion procedure: grow proposals by unit increments toward defect zero.

A proposal is a candidate vector whose defect stays within [-max_b, max_a].
Each completion step extends every live proposal by +1 at positions whose
weight sign opposes the proposal's defect sign, scanning positions from the
top down and stopping after the first increment at an already-positive
position.  That scan rule forces each side of a vector to be filled
bottom-up, and the defect sign dictates which side every step extends, so
each solution is constructed along exactly one path.

For the path to be unique the seed set must live on one side only: seeding
both sides would build every solution once from each end.  We seed the
positive-side unit vectors; solutions need support on both sides, so nothing
is lost.  Children with defect zero are emitted as solutions; other children
survive only while no already-found solution dominates them, which cannot
discard a prefix of a minimal solution's path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .core import (
    BasisList,
    Deadline,
    Equation,
    InsertStats,
    Solution,
    WeightVector,
    insert_minimal,
    is_dominated,
    solve_normalized,
)


@dataclass(frozen=True)
class Proposal:
    """Candidate vector with its cached defect."""

    x: tuple[int, ...]
    d: int


@dataclass
class CompletionStats:
    levels: int = 0
    proposals_processed: int = 0
    children: int = 0
    duplicate_proposals: int = 0
    duplicate_emissions: int = 0
    min_defect_seen: int = 0
    max_defect_seen: int = 0
    insert: InsertStats = field(default_factory=InsertStats)


def initial_proposals(w: WeightVector) -> list[Proposal]:
    """Seed proposals: one unit vector per positive-weight position."""
    n = len(w)
    out = []
    for i in w.positive_positions:
        x = tuple(1 if j == i else 0 for j in range(n))
        out.append(Proposal(x, w.w[i]))
    return out


def completion_step(
    w: WeightVector,
    proposals: list[Proposal],
    found: BasisList,
    *,
    stats: CompletionStats | None = None,
    strict: bool = False,
    deadline: Deadline | None = None,
) -> tuple[list[Solution], list[Proposal]]:
    """One completion round: extend every proposal, split off solutions.

    ``found`` must be lex-sorted; it is only read.  Children that equal an
    already-generated vector are deduplicated; ``strict`` turns such a hit
    into an error instead of a silent merge, since the scan rule makes
    duplicates impossible on well-formed runs.  ``deadline`` is checked
    before the first proposal and then every 256 proposals.
    """
    weights = w.w
    n = len(weights)
    emissions: list[Solution] = []
    emitted: set[Solution] = set()
    next_map: dict[tuple[int, ...], Proposal] = {}

    for k, p in enumerate(proposals):
        if deadline is not None and not k & 255:
            deadline.check()
        if stats:
            stats.proposals_processed += 1
        d = p.d
        x = p.x
        for i in range(n - 1, -1, -1):
            wi = weights[i]
            if (d < 0 and wi < 0) or (d > 0 and wi > 0):
                continue
            child = x[:i] + (x[i] + 1,) + x[i + 1 :]
            dc = d + wi
            if stats:
                stats.children += 1
                stats.min_defect_seen = min(stats.min_defect_seen, dc)
                stats.max_defect_seen = max(stats.max_defect_seen, dc)
            if dc == 0:
                if child in emitted:
                    if stats:
                        stats.duplicate_emissions += 1
                    if strict:
                        raise AssertionError(
                            f"duplicate solution emission {child}; scan rule violated"
                        )
                else:
                    emitted.add(child)
                    emissions.append(child)
            elif not is_dominated(found, child):
                if child in next_map:
                    if stats:
                        stats.duplicate_proposals += 1
                    if strict:
                        raise AssertionError(
                            f"duplicate proposal {child}; scan rule violated"
                        )
                else:
                    next_map[child] = Proposal(child, dc)
            if x[i] > 0:
                break

    return emissions, list(next_map.values())


def completion_solve(
    problem: Equation | Sequence[int],
    *,
    stats: CompletionStats | None = None,
    time_limit: float | None = None,
) -> BasisList:
    """Basis of an equation or a signed weight sequence by the completion
    procedure (normalized by ``core.solve_normalized``)."""
    return solve_normalized(problem, _solve, stats, Deadline.maybe(time_limit))


def _solve(
    w: WeightVector, stats: CompletionStats | None, deadline: Deadline | None
) -> BasisList:
    insert_stats = stats.insert if stats else None
    basis: BasisList = []
    pset = initial_proposals(w)
    while pset:
        if stats:
            stats.levels += 1
        emissions, pset = completion_step(
            w, pset, basis, stats=stats, strict=True, deadline=deadline
        )
        for sol in emissions:
            insert_minimal(basis, sol, insert_stats)
    return basis
