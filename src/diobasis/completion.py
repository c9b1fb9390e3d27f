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

``expand`` is the package's one unit-step level loop, with its one audit
and one stats record: ``completion_solve`` runs it to the end, and the
graph search runs each stretch of narrow levels through it (``graph.py``).
It runs the step inline and probes a child's bucket key before any scan,
so a deep search of thin levels costs a few integer operations and dict
lookups per walk, not calls per level.  ``completion_step`` is the step
written plainly, the reference the audit replays each level through.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .core import (
    BasisList,
    Deadline,
    Equation,
    PackedBuckets,
    Solution,
    SolveStats,
    WeightVector,
    insert_minimal,
    is_dominated,
    solve_normalized,
)

# A candidate vector, packed by its weights' ``packing``, and its defect.
Walk = tuple[int, int]

CompletionStats = SolveStats  # the record's old name


def initial_proposals(w: WeightVector) -> list[Walk]:
    """Seed walks: one unit vector per positive-weight position."""
    units = w.packing.units
    return [(units[i], w.w[i]) for i in w.positive_positions]


def completion_step(
    w: WeightVector,
    walks: list[Walk],
    bounds: Callable[[int, int], bool],
) -> tuple[list[int], list[Walk], int]:
    """One completion round, written plainly as the reference that
    ``expand``'s audit replays each level through: extend every walk, split
    off solutions.

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
    so the step does not look for them.
    """
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
    stats: SolveStats,
    deadline: Deadline,
    check: bool = False,
    width: float = math.inf,
    cap: float = math.inf,
) -> list[Walk]:
    """Expand levels until no walk is left, a level holds more than
    ``width`` walks or ``found`` holds more than ``cap`` solutions, and
    return that level's walks.

    ``found`` must hold every solution of coordinate sum below the walks';
    each level's children are tested against it and its emissions added.
    The step is ``completion_step``'s, inline over per-side (unit, weight,
    field) tuples, and a child of nonzero defect gets the guard scan of
    ``PackedBuckets.bounds`` only if its key ``child & field`` has a bucket.
    ``deadline`` is checked before each slice of 256 walks.  The counters
    are kept in locals and written to ``stats`` as the loop ends, by a
    raise too, for the levels finished.  With ``check`` each level is
    replayed through ``completion_step`` on a reference basis (``_audit``),
    and ``AssertionError`` is raised unless both give the same emissions,
    walks and child count, and on a child or emission with a guard bit set
    or over a side-sum cap, a duplicate emission or walk and a dominated
    emission.
    """
    units, fields = w.packing.units, w.packing.fields
    pos, neg = ([(units[i], w.w[i], fields[i]) for i in side] for side in w.scan_orders)
    probe, guards, solutions = found.buckets.get, found.guards, found.solutions
    audit = _audit(w, found) if check else None
    levels = expanded = children = pruned = inserted = 0
    widest = stats.max_frontier
    try:
        while walks:
            n = len(walks)
            if n > width or len(solutions) > cap:
                break
            emitted, kept, bounded = [], [], 0
            for start in range(0, n, 256):
                deadline.check()
                for x, d in walks[start : start + 256]:
                    for unit, wi, field in pos if d < 0 else neg:
                        child = x + unit
                        dc = d + wi
                        if not dc:
                            emitted.append(child)
                        elif (bucket := probe(child & field)) is None:
                            kept.append((child, dc))
                        else:
                            lifted = child | guards
                            for s in bucket:
                                if (lifted - s) & guards == guards:
                                    bounded += 1
                                    break
                            else:
                                kept.append((child, dc))
                        if x & field:
                            break
            made = len(emitted) + len(kept) + bounded
            if audit:
                audit(walks, (emitted, kept, made))
            levels += 1
            expanded += n
            if n > widest:
                widest = n
            children += made
            pruned += bounded
            inserted += len(emitted)
            walks = kept
            for sol in emitted:
                found.add(sol)
    finally:
        stats.levels += levels
        stats.walks_expanded += expanded
        stats.max_frontier = widest
        stats.children += children
        stats.pruned_dominated += pruned
        stats.insert.inserted += inserted
    return walks


def _audit(w: WeightVector, found: PackedBuckets):
    """``expand``'s check of one level: its walks replayed through
    ``completion_step`` against a reference basis of the solutions in
    ``found``, which the level's emissions then grow."""
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

    def audit(walks: list[Walk], level: tuple[list[int], list[Walk], int]) -> None:
        replay = completion_step(w, walks, lambda c, i: is_dominated(reference, vector(c)))
        if replay != level:
            raise AssertionError("level disagrees with completion_step's replay")
        emitted, kept, _ = level
        for items, what in ((emitted, "emission"), (kept, "walk")):
            if len(set(items)) < len(items):
                raise AssertionError(f"duplicate {what}; scan rule violated")
        for sol in emitted:
            if not insert_minimal(reference, vector(sol)):
                raise AssertionError(f"dominated emission {unpack(sol)}")

    for sol in found.solutions:
        insert_minimal(reference, unpack(sol))
    return audit


def completion_solve(
    problem: Equation | Sequence[int],
    *,
    stats: SolveStats | None = None,
    time_limit: float | None = None,
    check_invariants: bool = False,
) -> BasisList:
    """Basis of an equation or a signed weight sequence by the completion
    procedure (front door ``core.solve_normalized``): ``expand`` run from
    the seeds until no walk is left.

    With ``check_invariants`` the loop runs its audit (``expand``); the
    width argument, the scan rule, the equal-sum argument and the bucket
    argument prove none of it can fire, so by default the search does not
    pay for it.
    """
    return solve_normalized(problem, _solve, stats, time_limit, check_invariants)


def _solve(
    w: WeightVector,
    stats: SolveStats,
    deadline: Deadline,
    check_invariants: bool,
) -> BasisList:
    found = PackedBuckets(w.packing)
    expand(w, initial_proposals(w), found, stats, deadline, check_invariants)
    return list(map(w.packing.unpack, sorted(found.solutions)))
