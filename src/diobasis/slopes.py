"""Slopes algorithm: direct minimal solutions of a*x = b*y + c*z, plus the
all-but-three enumeration wrapper for wider equations.  The wrapper
enumerates with lex's budgeted walk (``lex.prefix_walk``, all it takes
from lex), with x, y and z as its tail.  Each leaf makes one
``solve3_general`` call within its per-side budgets, except at a nonzero
prefix that balances: with its tail all-zero that prefix bounds every
solution extending it, so it is the leaf's one candidate.  The walk prunes
by the solutions found so far whose tail is (x, 0, 0): a balanced prefix
(x = 0) bounds every prefix above it, and a leaf q whose residual is a*x
alone, with x within the budget, is a floor, filed packed.  Once only
negative positions are left to enumerate, a prefix above q whose deficit
is at least a*x can only reach solutions above (q, x, 0, 0), so the walk
breaks its loop there (Huet, IPL 1978).  Two unknowns need no walk.

``solve3_general`` solves a*x = b*y + c*z + v, and ``slopes3`` is its
v = 0 case.  It walks the staircase of minimal solutions (Filgueiras &
Tomas, J. Symbolic Computation 1995): the smallest admissible y solves
b*y = -v - c*z (mod a), only every t-th z is solvable, and from one
solvable z to the next y's residue falls by a fixed d.  The minimal
solutions are the records, the triples whose y undercuts every earlier
one.  While x >= 0 forces y above its residue (v < 0, small z) the solver
scans; after that it jumps from record to record, using the record minima
of k*d mod a/gcd(a, b), which a Euclidean update lists once per (a, b, c).
Its work follows the staircase it returns, not the period of c*z mod a,
and it needs no Pareto filtering.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

from .core import (
    BasisList,
    Deadline,
    Equation,
    Solution,
    SolveStats,
    WeightVector,
    pareto_min,
    solve_normalized,
)
from .lex import prefix_walk


def _record_blocks(m: int, d: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """Record minima of k*d mod m over k = 1, 2, ..., remainders taken in
    (0, m]: the k whose remainder is below every earlier one.

    Each block (last, r0, k0, dr, dk) holds the records r0 - j*dr at
    k = k0 + j*dk for j = 0, 1, ... down to remainder ``last``; blocks come
    in order of k, so remainders fall throughout.  The first block is k = 1
    alone (remainder d, or m when d = 0).  The rest is the Euclidean
    algorithm on the lowest remainder lo (at lo_k) and the highest, as its
    distance hi below m (k*d = -hi mod m, at hi_k), with its intermediate
    steps kept: reducing hi by lo passes only through high remainders, and
    each subtraction of the new hi from lo is the next record minimum, the
    classic best one-sided approximations of d/m (three-distance theorem).
    The records end when hi reaches 0, since k*d mod m is then periodic;
    the final ``last`` is gcd(d, m).  O(log m) blocks.
    """
    lo = d or m
    blocks = [(lo, lo, 1, 1, 0)]
    lo_k, hi_k, hi = 1, 0, m
    while True:
        f, hi = divmod(hi, lo)
        if hi == 0:
            return tuple(blocks)
        hi_k += f * lo_k
        j_last = (lo - 1) // hi
        blocks.append((lo - j_last * hi, lo - hi, lo_k + hi_k, hi, hi_k))
        lo -= j_last * hi
        lo_k += j_last * hi_k


@functools.lru_cache(maxsize=64)
def _residual_setup(a: int, b: int, c: int) -> tuple:
    """What ``solve3_general`` derives from (a, b, c) alone; one slopes solve
    asks for the same (a, b, c) on every residual, so it is cached.

    (g, step, inv, h, t, c_inv, d, period, blocks): g = gcd(a, b), and y is
    unique modulo step = a/g with inv inverting b/g modulo step; z is
    unique modulo t = g/h, h = gcd(g, c), with c_inv inverting c/h modulo
    t; d is the fall of y's residue from one solvable z to the next, period
    that of c*z mod a, and blocks the record decrements of k*d mod step.
    """
    g = math.gcd(a, b)
    step = a // g
    inv = pow(b // g, -1, step)
    h = math.gcd(g, c)
    t = g // h
    c_inv = pow(c // h, -1, t)
    d = c // h * inv % step
    period = a // math.gcd(a, c)
    return g, step, inv, h, t, c_inv, d, period, _record_blocks(step, d)


def solve3_general(
    a: int,
    b: int,
    c: int,
    v: int,
    *,
    x_cap: float = math.inf,
    yz_cap: float = math.inf,
    deadline: Deadline = Deadline(None),
    stats: SolveStats | None = None,
) -> BasisList:
    """Minimal natural solutions of a*x = b*y + c*z + v, by descent.

    For fixed z, the y with a*x = b*y + c*z + v for some integer x form one
    class modulo step = a/g, g = gcd(a, b), when g divides v + c*z, and
    none otherwise.  The smallest admissible y gives the smallest x, and
    larger congruent y only raise x, so they are dominated.  Solvable z
    form one class z0 modulo t = g/h, h = gcd(g, c) (no class when h does
    not divide v), and from one to the next y's residue falls by
    d = (c/h)*inv modulo step.  Since x rises with both y and z, a triple
    is dominated by an earlier one (smaller z) exactly when that one's y is
    no larger: the minimal solutions are the records, the triples whose y
    is below every earlier y, and they come out as a staircase with no
    Pareto filtering (Filgueiras & Tomas, J. Symbolic Computation 1995).

    While -v - c*z > 0, which needs v < 0, x >= 0 asks b*y >= -v - c*z, so
    y is lifted by multiples of step to that floor; those z are scanned one
    by one.  After them y is its residue, and the solver descends.  From a
    residue y, the next record is at the first k >= 1 with k*d mod step in
    (0, y]: the residue k solvable z later is y - (k*d mod step), and a
    decrement above y wraps to above y (a zero one leaves y as it is).  No
    earlier k has a remainder as low, so that k is a record minimum of
    k*d mod step, and those minima do not depend on y: ``_record_blocks``
    lists them once per (a, b, c), and one division finds the right one in
    a block.  Because y only falls, the search never moves back a block.
    The descent ends once y is below the smallest decrement, gcd(d, step),
    and so at y = 0.  It visits the records of the residues, which below
    the lifted minimum are the records of all triples.

    Beyond one full period of c*z mod a (shifted while x would go negative
    for v < 0), every triple is dominated by its counterpart one period
    earlier, so z stops there.  With v = 0 the first triple (z = 0, residue
    0) takes y = step, which skips the all-zero vector; that case is
    ``slopes3``.

    The caps, infinite by default, restrict x and y+z, e.g. to the per-side
    budgets of an enclosing equation.  A triple that fails a cap still counts
    as a record: each later triple it would have dominated has a larger z and
    no smaller y, so a larger x and y+z, and fails the same cap.  So the
    records within the caps are the minimal solutions within the caps.
    The deadline is checked every 4096 z visited; ``stats.residual_steps``
    gains the z values visited, scan steps and descent landings.
    """
    if min(a, b, c) < 1:
        raise ValueError("coefficients must be >= 1")
    g, step, inv, h, t, c_inv, d, period, blocks = _residual_setup(a, b, c)
    staircase: BasisList = []
    if v % h:
        return staircase  # no z is solvable
    z_top = min(period + (-(v // c) if v < 0 else 0), yz_cap)
    z = (-v // h) % t * c_inv % t
    rhs = -v - c * z
    y = rhs // g % step * inv % step
    y_min = math.inf
    emit = staircase.append
    steps = 0
    while rhs > 0 and z <= z_top:
        steps += 1
        if not steps & 4095:
            deadline.check()
        y_floor = -(-rhs // b)  # x >= 0 needs b*y >= rhs
        lifted = y
        if lifted < y_floor:
            lifted += (y_floor - y + step - 1) // step * step
        if lifted < y_min:
            y_min = lifted
            x = (b * lifted + c * z + v) // a
            if lifted + z <= yz_cap and x <= x_cap:
                emit((x, lifted, z))
        y -= d
        if y < 0:
            y += step
        z += t
        rhs -= c * t
    if z <= z_top:
        # y is its residue from here on; descend from record to record.
        if v == 0:
            y = step
        steps += 1
        d_min = blocks[-1][0]
        i = 0
        last, r0, k0, dr, dk = blocks[0]
        while True:
            if y < y_min and y + z <= yz_cap:
                x = (b * y + c * z + v) // a
                if x <= x_cap:
                    emit((x, y, z))
            if y < d_min:
                break
            while last > y:  # the first block that reaches y or below
                i += 1
                last, r0, k0, dr, dk = blocks[i]
            j = (r0 - y + dr - 1) // dr if r0 > y else 0  # its first record <= y
            y -= r0 - j * dr
            z += (k0 + j * dk) * t
            if z > z_top:
                break
            steps += 1
            if not steps & 4095:
                deadline.check()
    staircase.sort()
    if stats is not None:
        stats.residual_steps += steps
    return staircase


def slopes3(a: int, b: int, c: int) -> BasisList:
    """Minimal natural solutions of a*x = b*y + c*z, sorted: the residual
    descent ``solve3_general`` at v = 0, which skips the all-zero vector."""
    return solve3_general(a, b, c, 0)


SlopesStats = SolveStats  # the record's old name


def slopes_solve(
    problem: Equation | Sequence[int],
    *,
    stats: SolveStats | None = None,
    time_limit: float | None = None,
) -> BasisList:
    """Basis of an equation or a signed weight sequence: enumerate all but
    three unknowns, solve the rest (front door ``core.solve_normalized``)."""
    return solve_normalized(problem, _solve, stats, time_limit)


def _solve(w: WeightVector, stats: SolveStats, deadline: Deadline) -> BasisList:
    if len(w) < 3:
        # Two coprime weights of opposite signs: one member, no counter.
        return [(abs(w.w[1]), abs(w.w[0]))]
    if len(w.negative_positions) < 2:
        # One unknown on the negative side: the defect-zero set is invariant
        # under negating all weights, which swaps the sides.
        w = WeightVector(tuple(-wi for wi in w.w))

    weights = w.w
    n = len(w)

    # The positive unknown with the largest coefficient plays x; the final
    # two negative positions play y and z.
    x_pos = max(w.positive_positions, key=lambda i: weights[i])
    y_pos, z_pos = w.negative_positions[-2], w.negative_positions[-1]
    a, b, c = weights[x_pos], -weights[y_pos], -weights[z_pos]
    xyz = [x_pos, y_pos, z_pos]
    order = [i for i in range(n) if i not in xyz] + xyz

    candidates: list[Solution] = []
    floors: list[tuple[int, int]] = []
    assigned = [0] * n

    def solve_tail(d: int, pos_budget: int, neg_budget: int, p: int) -> None:
        deadline.check()
        if d:
            stats.residuals_scan += 1
            if d < 0 and not d % a and -d // a <= pos_budget:
                # The residual's staircase is (-d/a, 0, 0) alone, a floor.
                floors.append((p, -d))
        else:
            stats.residuals_direct += 1
            if p:
                # The prefix balances on its own: with the tail all-zero it
                # bounds every solution that extends it.
                candidates.append(tuple(assigned))
                stats.candidates += 1
                return
        triples = solve3_general(
            a, b, c, -d, x_cap=pos_budget, yz_cap=neg_budget, deadline=deadline,
            stats=stats if d else None,  # residual_steps counts v != 0 solves
        )
        for triple in triples:
            full = list(assigned)
            full[x_pos], full[y_pos], full[z_pos] = triple
            candidates.append(tuple(full))
        stats.candidates += len(triples)

    # With (x, y, z) last in the order, the walk's suffix envelopes at the
    # tail are a and max(b, c).
    prefix_walk(
        w, order, 3, solve_tail, assigned, stats=stats, deadline=deadline, floors=floors
    )
    return pareto_min(candidates, deadline)
