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
discard a prefix of a minimal solution's path.  A child c = x + e_i can only
be bounded by a solution s with s_i = c_i, since its parent x survived the
same test one step earlier (``core.DominanceBuckets``), so the test scans
just those solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .core import (
    BasisList,
    Deadline,
    DominanceBuckets,
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
    found: DominanceBuckets,
    *,
    stats: CompletionStats | None = None,
    check_invariants: bool = False,
    strict: bool = False,
    deadline: Deadline | None = None,
) -> tuple[list[Solution], list[Proposal]]:
    """One completion round: extend every proposal, split off solutions.

    ``found`` must hold every solution of coordinate sum below the
    proposals'; it is only read.  A child survives unless ``found.bounds``
    finds a solution below it, which is exact here (``DominanceBuckets``).
    The scan rule makes duplicate children impossible, so the step does not
    look for them.  With ``check_invariants`` it does: children equal to an
    already-generated vector are counted and dropped, and ``strict`` turns
    such a hit into an error; every bucket verdict is also checked against
    ``is_dominated``.  ``deadline`` is checked before the first proposal
    and then every 256 proposals.
    """
    weights = w.w
    n = len(weights)
    bounds = found.bounds
    if check_invariants:
        ordered = sorted(found.solutions)

        def bounds(child: Solution, i: int) -> bool:
            hit = found.bounds(child, i)
            if hit != is_dominated(ordered, child):
                raise AssertionError(
                    f"bucket test disagrees with is_dominated on {child}"
                )
            return hit

    emissions: list[Solution] = []
    children: list[Proposal] = []

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
                emissions.append(child)
            elif not bounds(child, i):
                children.append(Proposal(child, dc))
            if x[i] > 0:
                break

    if check_invariants:
        emissions, dropped = _first_copies(emissions, "solution emission", strict)
        if stats:
            stats.duplicate_emissions += dropped
        children, dropped = _first_copies(children, "proposal", strict)
        if stats:
            stats.duplicate_proposals += dropped
    return emissions, children


def _first_copies(items: list, what: str, strict: bool) -> tuple[list, int]:
    """The first copy of each item, in order, and the number of copies dropped."""
    kept = list(dict.fromkeys(items))
    if strict and len(kept) < len(items):
        raise AssertionError(f"duplicate {what}; scan rule violated")
    return kept, len(items) - len(kept)


def completion_solve(
    problem: Equation | Sequence[int],
    *,
    stats: CompletionStats | None = None,
    time_limit: float | None = None,
    check_invariants: bool = False,
) -> BasisList:
    """Basis of an equation or a signed weight sequence by the completion
    procedure (normalized by ``core.solve_normalized``).

    With ``check_invariants`` every step also counts duplicate children,
    raises on one, and checks each dominance verdict against
    ``is_dominated``; the scan rule and the bucket argument prove none of
    that can fire, so by default the search does not pay for it.
    """
    return solve_normalized(
        problem, _solve, stats, Deadline.maybe(time_limit), check_invariants
    )


def _solve(
    w: WeightVector,
    stats: CompletionStats | None,
    deadline: Deadline | None,
    check_invariants: bool,
) -> BasisList:
    insert_stats = stats.insert if stats else None
    basis: BasisList = []
    found = DominanceBuckets(len(w))
    pset = initial_proposals(w)
    while pset:
        if stats:
            stats.levels += 1
        emissions, pset = completion_step(
            w,
            pset,
            found,
            stats=stats,
            check_invariants=check_invariants,
            strict=check_invariants,
            deadline=deadline,
        )
        for sol in emissions:
            insert_minimal(basis, sol, insert_stats)
            found.add(sol)
    return basis
