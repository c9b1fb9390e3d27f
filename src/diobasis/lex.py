"""Lexicographic enumeration solver in four variants.

The enumeration backtracks over unknowns in input order (lhs block, then
rhs block).  Two bound flavors prune prefixes: per-coordinate caps, or the
stronger per-side running-sum caps.  Two tail flavors decide where the
enumeration stops: the last unknown is forced by divisibility, or the last
two are solved as a bounded two-variable linear equation, whose solutions
form an arithmetic progression anchored by a modular inverse.

The budgeted walk, ``prefix_walk``, takes the positions to enumerate in order,
a tail length and a leaf callback; the slopes solver enumerates with it too,
leaving three positions to its own tail.  Besides the bounds, the walk prunes
by the solutions it has met, as Huet's algorithm does: it skips every prefix
that lies above a balanced prefix found earlier, and for slopes every prefix
whose solutions all lie above a found (x, 0, 0) solution.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Sequence

from .core import (
    BasisList,
    Deadline,
    Equation,
    InsertStats,
    PackedBuckets,
    Solution,
    WeightVector,
    dominated_or_equal,
    insert_minimal,
    solve_normalized,
)


class BoundKind(str, Enum):
    HUET = "huet"
    LAMBERT = "lambert"


class TailKind(str, Enum):
    LAST_ONE = "one"
    LAST_TWO = "two"


@dataclass(frozen=True)
class LexVariant:
    bound: BoundKind = BoundKind.LAMBERT
    tail: TailKind = TailKind.LAST_ONE


ALL_VARIANTS: tuple[LexVariant, ...] = tuple(
    LexVariant(b, t) for b in BoundKind for t in TailKind
)

DEFAULT_VARIANT = LexVariant()


@dataclass
class LexStats:
    """Search instrumentation: prefix nodes visited, emissions, and the
    counts of ``insert_minimal``.

    The walk tries values in ascending order and ``solve_two_var`` returns
    x in ascending order, so emissions come out in strictly increasing lex
    order: ``insert_minimal``'s precondition holds, and the basis is built
    sorted.
    """

    prefixes: int = 0
    emissions: int = 0
    insert: InsertStats = field(default_factory=InsertStats)


def lex_solve(
    problem: Equation | Sequence[int],
    variant: LexVariant = DEFAULT_VARIANT,
    *,
    stats: LexStats | None = None,
    time_limit: float | None = None,
) -> BasisList:
    """Basis of an equation or a signed weight sequence by bounded
    lexicographic enumeration (normalized by ``core.solve_normalized``)."""
    return solve_normalized(
        problem,
        _solve,
        variant,
        stats if stats is not None else LexStats(),
        Deadline(time_limit),
    )


def _solve(
    w: WeightVector, variant: LexVariant, stats: LexStats, deadline: Deadline
) -> BasisList:
    basis: BasisList = []

    def emit(vector: Solution) -> None:
        stats.emissions += 1
        insert_minimal(basis, vector, stats.insert)

    assigned = [0] * len(w)
    prefix_walk(
        w,
        list(range(len(w))),
        1 if variant.tail is TailKind.LAST_ONE else 2,
        tail_leaf(w, variant, assigned, emit),
        assigned,
        stats=stats,
        deadline=deadline,
        bound=variant.bound,
    )
    return basis


def prefix_walk(
    w: WeightVector,
    order: Sequence[int],
    tail: int,
    leaf: Callable[[int, int, int], None],
    assigned: list[int],
    *,
    stats: Any,
    deadline: Deadline,
    bound: BoundKind = BoundKind.LAMBERT,
    floors: list[tuple[Solution, int]] | None = None,
) -> None:
    """Budgeted backtracking over all but the last ``tail`` positions of
    ``order``, calling ``leaf(d, pos_budget, neg_budget)`` per surviving
    prefix.

    The prefix values are written into ``assigned`` (by position) while the
    leaf runs; ``d`` is the prefix defect and the budgets are what the
    per-side running-sum caps (Lambert) leave for the tail.  With the
    per-coordinate caps (Huet) the budgets stay at max_b and max_a:
    positive-weight positions are bounded by the largest opposing
    coefficient and vice versa.  ``stats`` is any record with a
    ``prefixes`` counter; every visited node counts, leaves too.

    The walk also prunes by the solutions it has met (Huet 1978).  A leaf
    whose prefix is nonzero and balanced (``d == 0``) is itself a solution
    with a zero tail, which the leaf emits; the walk files it in its own
    ``PackedBuckets``.  A prefix that bounds a filed solution s can only
    extend to s itself, already met, or to vectors above s, which are not
    minimal.  So the value loop at (j, value) breaks once the prefix bounds
    a filed solution; larger values bound it too.  After a balanced nonzero
    prefix, the loop breaks as well: its zero extension bounds every later
    sibling.

    One bucket lookup, (order[j], value), is the whole test at value > 0.
    It comes before the envelope ``continue``, so every value the loop
    reaches is tested.  By induction, no filed solution bounds a prefix
    when the walk enters it.  Value 0 extends the parent's prefix by a
    zero, with nothing filed in between.  At value > 0, let s be filed with
    s <= prefix and s[order[j]] < value:
    - s filed inside an earlier sibling's subtree agrees with that sibling
      on order[:j+1] and is zero beyond, so it is the sibling's balanced
      zero extension, after which the loop broke.
    - Otherwise s was filed before the parent was entered.  With
      s[order[j]] == 0, s bounds the parent's prefix, against the
      induction.  With s[order[j]] > 0, s bounds the sibling of that value,
      which was tested with s in its bucket, and the loop broke there.
    So a blocker has exactly ``value`` at order[j].

    The walk carries the prefix packed too, p == pack(assigned).  A value's
    prefix c differs from p by that value's field at order[j], the bucket's
    key, so an empty bucket costs one subtraction and one dict probe, with
    no call.  No field of ``w.packing``, ``packing(n, max(max_a, max_b))``,
    overflows: every value the walk assigns is at most its budget, max_b at
    a positive position and max_a at a negative one under either bound, and
    the tail positions stay 0 while the walk runs.

    Slopes' tail is x, of weight a > 0, followed by negative positions.
    It passes ``floors``, a list its leaf appends (q, a*xs) to when
    (q, xs, 0, ..., 0) is one of its candidates, q being the leaf's prefix
    (nonzero, with defect -a*xs < 0).  Where order[j] and every later
    enumerated position are negative, the value loop breaks once dv < 0
    and some floor has q <= prefix and a*xs <= -dv:
    - Every extension of the prefix lowers the defect to some d <= dv, so
      a solution below it has a*x = -d + (the negative tail positions'
      terms, each >= 0) >= -dv >= a*xs, hence x >= xs, and lies above
      (q, xs, 0, ..., 0).
    - q is not the prefix: q's leaf was met before the walk reached this
      value, and the prefix's own leaves come after.  So every such
      solution is strictly above a solution and not minimal.
    - Larger values at order[j] raise the prefix and lower dv, so the same
      floor holds for them, and the loop may break.
    Every leaf below such a prefix has a defect at most dv < 0, so the
    floors never cut a balanced leaf, and the walk files the same blockers
    with or without them.  The bucket precondition holds as before: the
    floor test comes after the bucket test and only ends loops, so every
    value the loop reaches is tested, and a prefix is entered only when no
    filed blocker bounds it.
    """
    weights = w.w
    ordered = [weights[i] for i in order]
    m = len(ordered)
    stop = m - tail

    # Both flavours bound the defect shift of the remaining positions
    # order[j:] by pos_budget * hi_from[j] up and neg_budget * lo_from[j]
    # down.  Lambert spends its shared per-side budgets as the walk goes, so
    # the envelopes are the largest weight magnitude per sign.  Huet's
    # per-coordinate caps are budgets the walk never spends, max_b per
    # positive and max_a per negative position, so the envelopes sum.
    spend = int(bound is BoundKind.LAMBERT)
    envelope = max if spend else operator.add
    hi_from = [0] * (m + 1)
    lo_from = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        wj = ordered[j]
        hi_from[j] = envelope(hi_from[j + 1], max(wj, 0))
        lo_from[j] = envelope(lo_from[j + 1], max(-wj, 0))

    # The floors are tested at order[floor_from:stop], the enumerated
    # positions of the negative suffix; without floors, nowhere.
    floor_from = stop
    if floors is not None:
        while floor_from and ordered[floor_from - 1] < 0:
            floor_from -= 1

    units = w.packing.units
    blockers = PackedBuckets(w.packing)
    buckets = blockers.buckets

    def walk(j: int, d: int, pos_budget: int, neg_budget: int, p: int) -> None:
        stats.prefixes += 1
        if not stats.prefixes % 1024:
            deadline.check()
        if j == stop:
            leaf(d, pos_budget, neg_budget)
            if d == 0 and p:
                blockers.add(p)
            return
        pos = order[j]
        unit = units[pos]
        wj = ordered[j]
        cap = pos_budget if wj > 0 else neg_budget
        # Per value, a spent budget falls by one on wj's side.
        pos_step, neg_step = (spend, 0) if wj > 0 else (0, spend)
        hi_next, lo_next = hi_from[j + 1], lo_from[j + 1]
        floored = j >= floor_from
        dv = d
        pb, nb = pos_budget, neg_budget
        c = p
        for value in range(cap + 1):
            if value:
                dv += wj
                pb -= pos_step
                nb -= neg_step
                c += unit
            assigned[pos] = value
            # Remaining positions can shift the defect by at most [lo, hi];
            # once 0 falls outside, larger values only push further out.
            hi = pb * hi_next
            lo = -nb * lo_next
            if wj > 0 and dv + lo > 0:
                break
            if wj < 0 and dv + hi < 0:
                break
            # c - p is the bucket key of (pos, value); 0 is never a key.
            if c - p in buckets and blockers.bounds(c, pos):
                break
            if floored and dv < 0 and any(
                need <= -dv and dominated_or_equal(q, assigned) for q, need in floors
            ):
                break
            if dv + lo > 0 or dv + hi < 0:
                continue
            walk(j + 1, dv, pb, nb, c)
            if dv == 0 and c:
                break
        assigned[pos] = 0

    walk(0, 0, w.max_b, w.max_a, 0)


def tail_leaf(
    w: WeightVector,
    variant: LexVariant,
    assigned: list[int],
    emit: Callable[[Solution], None],
) -> Callable[[int, int, int], None]:
    """The lex walk's leaf: ``leaf(d, pos_budget, neg_budget)`` emits every
    completion of the prefix in ``assigned`` over the last one or two
    positions.

    One position is forced: the quotient of the residual by its weight,
    accepted only when the division is exact, nonnegative and within the
    budget.  Two positions form a bounded two-variable linear equation,
    solved by ``solve_two_var``'s progression.  The all-zero vector is
    dropped, looking at the prefix only when the tail's own part is zero.
    """
    weights = w.w
    lambert = variant.bound is BoundKind.LAMBERT
    one = variant.tail is TailKind.LAST_ONE
    t = len(weights) - (1 if one else 2)
    w0, w1 = weights[t], weights[-1]
    zero = (0,) * (len(weights) - t)
    # Lambert caps a same-sign pair by the shared budget as well.
    sum_capped = lambert and (w0 > 0) == (w1 > 0)

    def leaf(d: int, pos_budget: int, neg_budget: int) -> None:
        if one:
            q, r = divmod(-d, w0)
            if r or q < 0 or q > (pos_budget if w0 > 0 else neg_budget):
                return
            parts: Sequence[tuple[int, ...]] = ((q,),)
        else:
            cap0 = pos_budget if w0 > 0 else neg_budget
            cap1 = pos_budget if w1 > 0 else neg_budget
            parts = solve_two_var(
                w0, w1, -d, cap0, cap1, sum_cap=cap0 if sum_capped else None
            )
        for part in parts:
            if part != zero or any(assigned):
                emit(tuple(assigned[:t]) + part)

    return leaf


def tail_solve(
    w: WeightVector,
    prefix: Sequence[int],
    variant: LexVariant = DEFAULT_VARIANT,
) -> list[Solution]:
    """All completions of a prefix fixing all but the variant's tail
    positions, within the variant's bounds (see ``tail_leaf``)."""
    n = len(w)
    t = n - (1 if variant.tail is TailKind.LAST_ONE else 2)
    if len(prefix) != t:
        raise ValueError(f"prefix must fix {t} of {n} positions")
    d = sum(wi * xi for wi, xi in zip(w.w, prefix))
    pos_budget, neg_budget = w.max_b, w.max_a
    if variant.bound is BoundKind.LAMBERT:
        pos_budget -= sum(x for x, wi in zip(prefix, w.w) if wi > 0)
        neg_budget -= sum(x for x, wi in zip(prefix, w.w) if wi < 0)
    out: list[Solution] = []
    tail_leaf(w, variant, list(prefix) + [0] * (n - t), out.append)(
        d, pos_budget, neg_budget
    )
    return out


def solve_two_var(
    s: int,
    t: int,
    c: int,
    x_cap: int,
    y_cap: int,
    *,
    sum_cap: int | None = None,
) -> list[tuple[int, int]]:
    """Natural solutions of s*x + t*y = c with x <= x_cap, y <= y_cap.

    s and t are nonzero integers of any sign.  The x values form an
    arithmetic progression with step |t|/gcd; the admissible stretch of the
    progression is computed from the y bounds by integer division, so the
    cost is proportional to the number of solutions, not the box size.
    """
    if s == 0 or t == 0:
        raise ValueError("coefficients must be nonzero")
    if x_cap < 0 or y_cap < 0:
        return []
    g = math.gcd(abs(s), abs(t))
    if c % g:
        return []
    m = abs(t) // g
    x0 = c // g * pow(s // g, -1, m) % m

    # Translate 0 <= y <= y_cap into bounds on s*x, then on x.
    if t > 0:
        lo_sx, hi_sx = c - t * y_cap, c
    else:
        lo_sx, hi_sx = c, c - t * y_cap
    if s > 0:
        x_lo = -((-lo_sx) // s)
        x_hi = hi_sx // s
    else:
        x_lo = -((-hi_sx) // s)
        x_hi = lo_sx // s
    x_lo = max(x_lo, 0)
    x_hi = min(x_hi, x_cap)
    if x_lo > x_hi:
        return []
    x = x_lo + (x0 - x_lo) % m
    out = []
    while x <= x_hi:
        y = (c - s * x) // t
        if sum_cap is None or x + y <= sum_cap:
            out.append((x, y))
        x += m
    return out
