"""Completion procedure: grow vectors by unit increments toward defect zero.

A walk is a candidate vector with its defect, which stays within
[-max_b, max_a].  Each completion step extends every live walk by +1 at
positions whose weight sign opposes the walk's defect sign, scanning
positions from the top down and stopping after the first increment at an
already-positive position.  That scan rule forces each side of a vector to
be filled bottom-up, and the defect sign dictates which side every step
extends, so each solution is constructed along exactly one path.

For the path to be unique the seed set must live on one side only: seeding
both sides would build every solution once from each end.  We seed the
positive-side unit vectors; solutions need support on both sides, so nothing
is lost.  Children with defect zero are emitted as solutions; other children
survive only while no already-found solution dominates them, which cannot
discard a prefix of a minimal solution's path.  A child c = x + e_i can only
be bounded by a solution s with s_i = c_i, since its parent x survived the
same test one step earlier (``core.DominanceBuckets``), so the test scans
just those solutions.

Every emission is minimal, so the basis is kept by appending.  Emissions
of one level share a coordinate sum, so none bounds another.  An earlier
solution s <= c = x + e_i has s_i = c_i by the same argument, so c - s is a
nonzero solution below x, and a basis element below it, of coordinate sum
below x's, would have pruned x.

``completion_step`` is the one unit-step expansion of the package: the
graph search runs it on its narrow levels (``graph.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

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

# A candidate vector and its defect.
Walk = tuple[Solution, int]


@dataclass
class CompletionStats:
    levels: int = 0
    proposals_processed: int = 0
    children: int = 0
    insert: InsertStats = field(default_factory=InsertStats)


def initial_proposals(w: WeightVector) -> list[Walk]:
    """Seed walks: one unit vector per positive-weight position."""
    n = len(w)
    return [
        ((0,) * i + (1,) + (0,) * (n - i - 1), w.w[i]) for i in w.positive_positions
    ]


def completion_step(
    w: WeightVector,
    walks: list[Walk],
    bounds: Callable[[Solution, int], bool] | None,
    deadline: Deadline | None = None,
) -> tuple[list[Solution], list[Walk], int]:
    """One completion round: extend every walk, split off solutions.

    Returns the children of defect zero, the other children that survive,
    and the number of children made; the rest were pruned.  A child
    x + e_i survives unless ``bounds(child, i)`` is true: a
    ``DominanceBuckets.bounds`` that holds every solution of coordinate sum
    below the walks', a wrapper of one, or None to keep every child.  The
    scan rule makes duplicate children impossible, so the step does not
    look for them.  ``deadline`` is checked before the first walk and then
    every 256 walks.
    """
    if deadline is not None:
        # One check per 256 walks: expand the level in slices of that many.
        emitted, kept, children = [], [], 0
        for k in range(0, len(walks), 256):
            deadline.check()
            part_emitted, part_kept, part_children = completion_step(
                w, walks[k : k + 256], bounds
            )
            emitted += part_emitted
            kept += part_kept
            children += part_children
        return emitted, kept, children
    weights = w.w
    pos_desc, neg_desc = w.scan_orders
    emitted: list[Solution] = []
    kept: list[Walk] = []
    children = 0
    for x, d in walks:
        for i in pos_desc if d < 0 else neg_desc:
            children += 1
            child = x[:i] + (x[i] + 1,) + x[i + 1 :]
            dc = d + weights[i]
            if not dc:
                emitted.append(child)
            elif bounds is None or not bounds(child, i):
                kept.append((child, dc))
            if x[i]:
                break
    return emitted, kept, children


def completion_solve(
    problem: Equation | Sequence[int],
    *,
    stats: CompletionStats | None = None,
    time_limit: float | None = None,
    check_invariants: bool = False,
) -> BasisList:
    """Basis of an equation or a signed weight sequence by the completion
    procedure (normalized by ``core.solve_normalized``).

    With ``check_invariants`` the search also keeps a reference basis by
    ``insert_minimal``, counting rejected and evicted emissions into
    ``stats.insert``, checks each dominance verdict against ``is_dominated``
    on it, and raises on a duplicate emission or walk; the scan rule, the
    equal-sum argument and the bucket argument prove none of that can fire,
    so by default the search does not pay for it.
    """
    return solve_normalized(
        problem,
        _solve,
        stats if stats is not None else CompletionStats(),
        Deadline.maybe(time_limit),
        check_invariants,
    )


def _solve(
    w: WeightVector,
    stats: CompletionStats,
    deadline: Deadline | None,
    check_invariants: bool,
) -> BasisList:
    found = DominanceBuckets(len(w))
    bounds = found.bounds
    if check_invariants:
        reference: BasisList = []

        def bounds(child: Solution, i: int) -> bool:
            hit = found.bounds(child, i)
            if hit != is_dominated(reference, child):
                raise AssertionError(
                    f"bucket test disagrees with is_dominated on {child}"
                )
            return hit

    walks = initial_proposals(w)
    while walks:
        width = len(walks)
        emitted, walks, children = completion_step(w, walks, bounds, deadline)
        stats.levels += 1
        stats.proposals_processed += width
        stats.children += children
        if check_invariants:
            for items, what in ((emitted, "emission"), (walks, "walk")):
                if len(set(items)) < len(items):
                    raise AssertionError(f"duplicate {what}; scan rule violated")
            for sol in emitted:
                insert_minimal(reference, sol, stats.insert)
        else:
            stats.insert.inserted += len(emitted)
        for sol in emitted:
            found.add(sol)
    return sorted(found.solutions)
