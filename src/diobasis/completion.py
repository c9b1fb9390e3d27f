"""Completion procedure: grow vectors by unit increments toward defect zero.

A walk is a candidate vector with its defect, which stays within
[-max_b, max_a].  Each completion step extends every live walk by +1 at
positions whose weight sign opposes the walk's defect sign, scanning that
side's positions by increasing coefficient size (``WeightVector.scan_orders``)
and stopping after the first increment at an already-positive position.
That scan rule forces each side of a vector to be filled largest
coefficient first, and the defect sign dictates which side every step
extends, so each solution is constructed along exactly one path.  Any fixed
order per side would do; by size, the search does not depend on the order
the input lists a side in.

For the path to be unique the seed set must live on one side only: seeding
both sides would build every solution once from each end.  We seed the
positive-side unit vectors; solutions need support on both sides, so nothing
is lost.  Children with defect zero are emitted as solutions; other children
survive only while no already-found solution dominates them, which cannot
discard a prefix of a minimal solution's path.  A child c = x + e_i can only
be bounded by a solution s with s_i = c_i, since its parent x survived the
same test one step earlier (``core.PackedBuckets``), so the test scans
just those solutions.

A walk's vector is carried packed into one int by the weights' ``packing``
(``core.Packing``): a child is its parent plus one unit, the scan rule's
stop masks one field, and the bucket test is one guard-bit subtraction per
solution scanned (``core.PackedBuckets``).  Every child of the pruned
search has coordinates of at most max(max_a, max_b) (``graph`` module
docstring), so no field overflows.  The basis is unpacked once, at the end.

Every emission is minimal, so the basis is kept by appending.  Emissions
of one level share a coordinate sum, so none bounds another.  An earlier
solution s <= c = x + e_i has s_i = c_i by the same argument, so c - s is a
nonzero solution below x, and a basis element below it, of coordinate sum
below x's, would have pruned x.  Levels go by ascending coordinate sum, so
the search meets ``insert_minimal``'s precondition too.

``completion_step`` is the package's one unit-step expansion and
``expand`` its one level loop, with its one audit and one stats record:
``completion_solve`` runs the loop to the end, and the graph search runs
each stretch of narrow levels through it (``graph.py``).  Each walk costs
a few integer operations, and a level a few attribute updates, so a deep
search of thin levels costs per walk, not per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .core import (
    BasisList,
    Deadline,
    Equation,
    InsertStats,
    PackedBuckets,
    Solution,
    WeightVector,
    insert_minimal,
    is_dominated,
    solve_normalized,
)

# A candidate vector, packed by its weights' ``packing``, and its defect.
Walk = tuple[int, int]


@dataclass
class CompletionStats:
    """Counters of one unit-step search, completion's or the graph
    search's (``graph.GraphStats`` is this record)."""

    levels: int = 0
    walks_expanded: int = 0
    children: int = 0
    pruned_dominated: int = 0
    max_frontier: int = 0
    insert: InsertStats = field(default_factory=InsertStats)


def initial_proposals(w: WeightVector) -> list[Walk]:
    """Seed walks: one unit vector per positive-weight position."""
    units = w.packing.units
    return [(units[i], w.w[i]) for i in w.positive_positions]


def completion_step(
    w: WeightVector,
    walks: list[Walk],
    bounds: Callable[[int, int], bool],
    deadline: Deadline | None = None,
) -> tuple[list[int], list[Walk], int]:
    """One completion round: extend every walk, split off solutions.

    Returns the children of defect zero, the other children that survive,
    and the number of children made; the rest were pruned.  Vectors are
    packed by ``w.packing``, and every child made must have each coordinate
    below 2**bits: the children of a pruned search do (module docstring),
    while an unpruned caller must pick weights whose top is above every
    coordinate its walks reach, or the increment carries into a guard bit.
    A child x + e_i survives unless ``bounds(child, i)`` is true: a
    ``PackedBuckets.bounds`` that holds every solution of coordinate sum
    below the walks', a wrapper of one, or a test that never bounds, to
    keep every child.  The scan rule makes duplicate children impossible,
    so the step does not look for them.  ``deadline`` is checked before the
    first walk and then every 256 walks.
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
    units, fields = w.packing.units, w.packing.fields
    pos_desc, neg_desc = w.scan_orders
    emitted: list[int] = []
    kept: list[Walk] = []
    children = 0
    for x, d in walks:
        for i in pos_desc if d < 0 else neg_desc:
            children += 1
            child = x + units[i]
            dc = d + weights[i]
            if not dc:
                emitted.append(child)
            elif not bounds(child, i):
                kept.append((child, dc))
            if x & fields[i]:
                break
    return emitted, kept, children


def expand(
    w: WeightVector,
    walks: list[Walk],
    found: PackedBuckets,
    stats: CompletionStats,
    deadline: Deadline,
    check: bool = False,
    width: float = math.inf,
    cap: float = math.inf,
) -> list[Walk]:
    """Expand levels by ``completion_step`` until no walk is left, a level
    holds more than ``width`` walks or ``found`` holds more than ``cap``
    solutions, and return that level's walks.

    ``found`` must hold every solution of coordinate sum below the walks';
    each level's children are tested against it and its emissions added.
    ``deadline`` is checked once per level, and on a level of more than 256
    walks ``completion_step`` checks it every 256 walks as well: slicing
    every level cost a deep search of thin levels 5-8%.  With ``check`` the
    loop also keeps a reference basis of every solution in ``found``,
    unpacked, by ``insert_minimal``, checks each bucket verdict against
    ``is_dominated`` on it, and raises ``AssertionError`` on a child or
    emission with a guard bit set or over a side-sum cap, a duplicate
    emission or walk and a dominated emission.
    """
    bounds, solutions = found.bounds, found.solutions
    if check:
        bounds, audit = _audit(w, found)
    while walks:
        n = len(walks)
        if n > width or len(solutions) > cap:
            break
        deadline.check()
        stats.levels += 1
        stats.walks_expanded += n
        if n > stats.max_frontier:
            stats.max_frontier = n
        emitted, walks, children = completion_step(
            w, walks, bounds, deadline if n > 256 else None
        )
        stats.children += children
        stats.pruned_dominated += children - len(emitted) - len(walks)
        stats.insert.inserted += len(emitted)
        if check:
            audit(emitted, walks)
        for sol in emitted:
            found.add(sol)
    return walks


def _audit(w: WeightVector, found: PackedBuckets):
    """``expand``'s checks: the bucket test of ``found`` checked against a
    reference basis, and a level audit that grows that basis."""
    unpack, guards = w.packing.unpack, w.packing.guards
    reference: BasisList = []

    def vector(p: int) -> Solution:
        if p & guards:
            raise AssertionError("field overflow")
        v = unpack(p)
        positive = sum(v[i] for i in w.positive_positions)
        if positive > w.max_b or sum(v) - positive > w.max_a:
            raise AssertionError("walk over a side-sum cap")
        return v

    def bounds(child: int, i: int) -> bool:
        v = vector(child)
        hit = found.bounds(child, i)
        if hit != is_dominated(reference, v):
            raise AssertionError(f"bucket test disagrees with is_dominated on {v}")
        return hit

    def audit(emitted: list[int], walks: list[Walk]) -> None:
        for items, what in ((emitted, "emission"), (walks, "walk")):
            if len(set(items)) < len(items):
                raise AssertionError(f"duplicate {what}; scan rule violated")
        for sol in emitted:
            if not insert_minimal(reference, vector(sol)):
                raise AssertionError(f"dominated emission {unpack(sol)}")

    for sol in found.solutions:
        insert_minimal(reference, unpack(sol))
    return bounds, audit


def completion_solve(
    problem: Equation | Sequence[int],
    *,
    stats: CompletionStats | None = None,
    time_limit: float | None = None,
    check_invariants: bool = False,
) -> BasisList:
    """Basis of an equation or a signed weight sequence by the completion
    procedure (normalized by ``core.solve_normalized``): ``expand`` run from
    the seeds until no walk is left.

    With ``check_invariants`` the loop runs its audit (``expand``); the
    width argument, the scan rule, the equal-sum argument and the bucket
    argument prove none of it can fire, so by default the search does not
    pay for it.
    """
    return solve_normalized(
        problem,
        _solve,
        stats if stats is not None else CompletionStats(),
        Deadline(time_limit),
        check_invariants,
    )


def _solve(
    w: WeightVector,
    stats: CompletionStats,
    deadline: Deadline,
    check_invariants: bool,
) -> BasisList:
    found = PackedBuckets(w.packing)
    expand(w, initial_proposals(w), found, stats, deadline, check_invariants)
    return list(map(w.packing.unpack, sorted(found.solutions)))
