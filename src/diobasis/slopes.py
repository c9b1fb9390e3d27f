"""Slopes algorithm: direct minimal solutions of a*x = b*y + c*z, plus the
all-but-three enumeration wrapper for wider equations.  The wrapper
enumerates with the lex solver's budgeted walk (``lex.prefix_walk``, per-side
running-sum caps, envelope pruning, and pruning above the balanced prefixes
it has met), with x, y and z as its tail.

The three-unknown solver walks the staircase of minimal (y, z) points
directly: gcd arithmetic yields the extreme solutions and the first interior
point, and a Euclidean update of the slope deltas (dy, dz) generates the
rest with z strictly increasing.  Only the seeds are dominance-filtered,
which absorbs the degenerate seed cases.

For residuals a*x = b*y + c*z + v with v != 0 (they appear once the wrapper
enumerates the other unknowns) the generation is not covered by the direct
construction.  A congruence scan solves b*y + c*z = -v (mod a) per z with the
smallest admissible y, and keeps a triple only when its y undercuts every
earlier one, so the residual's minimal solutions come out as a staircase
with no Pareto filtering (Filgueiras & Tomas, J. Symbolic Computation 1995).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    BasisList,
    Deadline,
    Equation,
    Solution,
    WeightVector,
    ext_gcd,
    pareto_min,
    solve_normalized,
)
from .lex import DEFAULT_VARIANT, LexStats, prefix_walk
from .lex import _solve as _lex_solve


def multiplier(a: int, b: int) -> int:
    """Bezout coefficient of the first argument: m with m*a + k*b = gcd(a, b)."""
    _, ma, _ = ext_gcd(a, b)
    return ma


@dataclass(frozen=True)
class SlopesSetup:
    """Derived quantities the three-unknown generation starts from."""

    gb: int  # gcd(a, b)
    gc: int  # gcd(a, c)
    g_all: int  # gcd(a, b, c)
    ymax: int
    zmax: int
    dy: int
    dz: int


def slopes3_setup(a: int, b: int, c: int) -> SlopesSetup:
    gb = math.gcd(a, b)
    gc = math.gcd(a, c)
    g_all = math.gcd(gb, c)
    ymax = a // gb
    zmax = a // gc
    dz = gb // g_all
    dy = (c // g_all * multiplier(b, a)) % ymax
    return SlopesSetup(gb, gc, g_all, ymax, zmax, dy, dz)


def _exact_x(numerator: int, a: int) -> int:
    q, r = divmod(numerator, a)
    assert r == 0, f"slope point off the congruence lattice: {numerator} not divisible by {a}"
    return q


def slopes3_generation(
    a: int, b: int, c: int, deadline: Deadline | None = None
) -> tuple[list[Solution], list[Solution]]:
    """Raw output of the descent: (seed triples, descent triples in order).

    Descent triples come out with z strictly increasing and y strictly
    decreasing; the seeds carry the two axis extremes and the first interior
    point.  No minimality filtering happens here.
    """
    s = slopes3_setup(a, b, c)
    y = s.ymax - s.dy
    z = s.dz
    seeds = [
        (b // s.gb, s.ymax, 0),
        (c // s.gc, 0, s.zmax),
        (_exact_x(b * y + c * z, a), y, z),
    ]
    descent: list[Solution] = []
    dy, dz = s.dy, s.dz
    while dy > 0:
        while y > dy:
            y -= dy
            z += dz
            descent.append((_exact_x(b * y + c * z, a), y, z))
            if deadline is not None and len(descent) % 4096 == 0:
                deadline.check()
        f = dy // y
        dy -= f * y
        dz += f * z
    return seeds, descent


def slopes3(a: int, b: int, c: int, deadline: Deadline | None = None) -> BasisList:
    """Minimal natural solutions of a*x = b*y + c*z, sorted.

    The descent walks the staircase of minimal solutions, so it is an
    antichain (z strictly up, y strictly down) and only the at most three
    seeds need filtering.  No descent triple bounds a seed: the seeds
    (b/gb, ymax, 0) and (c/gc, 0, zmax) each have a zero coordinate that no
    descent triple has, and the interior seed's z = dz is below every
    descent z.  So the basis is the seeds that no other seed bounds, plus
    the descent.
    """
    if min(a, b, c) < 1:
        raise ValueError("coefficients must be >= 1")
    seeds, descent = slopes3_generation(a, b, c, deadline)
    return sorted(pareto_min(seeds) + descent)


@functools.lru_cache(maxsize=64)
def _congruence(a: int, b: int) -> tuple[int, int, int]:
    """(g, step, inv) for solving b*y = r (mod a): g = gcd(a, b), y is
    unique modulo step = a/g, and inv inverts b/g modulo step.  One solve
    asks for the same (a, b) on every residual, so the result is cached."""
    g = math.gcd(b, a)
    step = a // g
    bg = (b // g) % step
    inv = ext_gcd(bg, step)[1] % step if step > 1 else 0
    return g, step, inv


def solve3_general(
    a: int,
    b: int,
    c: int,
    v: int,
    *,
    x_cap: int | None = None,
    yz_cap: int | None = None,
    deadline: Deadline | None = None,
) -> BasisList:
    """Minimal natural solutions of a*x = b*y + c*z + v by congruence scan.

    Iterates z upwards and solves b*y = -v - c*z (mod a) for the smallest
    admissible y; larger congruent y only raise x, so they are dominated.
    Since x rises with both y and z, a triple is dominated by an earlier one
    exactly when that one's y is no larger.  The scan therefore keeps a
    triple only when its y is below the running minimum, which yields the
    staircase of minimal solutions without any Pareto filtering.
    Unsolvable congruence classes contribute nothing.  With v = 0 this
    reproduces ``slopes3``.  Optional caps restrict x and y+z, e.g. to the
    per-side budgets of an enclosing equation.
    """
    if min(a, b, c) < 1:
        raise ValueError("coefficients must be >= 1")
    # Beyond one full period of c*z mod a (shifted while x would go negative
    # for v < 0), every candidate is dominated by its counterpart one period
    # earlier.
    period = a // math.gcd(a, c)
    z_top = period + (-(v // c) if v < 0 else 0)
    if yz_cap is not None:
        z_top = min(z_top, yz_cap)

    g, step, inv = _congruence(a, b)

    staircase: list[Solution] = []
    y_min = None
    # The deadline is checked every 4096 z of a long scan; the walk checks
    # before each residual's scan.
    long_scan = deadline is not None and z_top >= 4096
    for z in range(z_top + 1):
        if long_scan and z % 4096 == 4095:
            deadline.check()
        rhs = -v - c * z
        if rhs % g:
            continue
        y = ((rhs // g) % step) * inv % step if step > 1 else 0
        if rhs > 0:
            # x >= 0 needs b*y >= rhs
            y_floor = -((-rhs) // b)
            if y < y_floor:
                y += -((y - y_floor) // step) * step
        if v == 0 and z == 0 and y == 0:
            y += step  # skip the all-zero vector
        if y_min is not None and y >= y_min:
            continue
        # Only triples within the caps set the running minimum.  (Both caps
        # grow with y and z, so a dropped triple also rules out every later
        # one it would have dominated.)
        if yz_cap is not None and y + z > yz_cap:
            continue
        x = _exact_x(b * y + c * z + v, a)
        if x_cap is not None and x > x_cap:
            continue
        staircase.append((x, y, z))
        y_min = y
        if y == 0:
            break
    staircase.sort()
    return staircase


@dataclass
class SlopesStats:
    prefixes: int = 0
    residuals_direct: int = 0
    residuals_scan: int = 0
    candidates: int = 0


def slopes_solve(
    problem: Equation | Sequence[int],
    *,
    stats: SlopesStats | None = None,
    time_limit: float | None = None,
) -> BasisList:
    """Basis of an equation or a signed weight sequence: enumerate all but
    three unknowns, solve the rest (normalized by ``core.solve_normalized``)."""
    return solve_normalized(
        problem,
        _solve,
        stats if stats is not None else SlopesStats(),
        Deadline.maybe(time_limit),
    )


def _solve(w: WeightVector, stats: SlopesStats, deadline: Deadline | None) -> BasisList:
    if len(w) < 3:
        return _lex_solve(w, DEFAULT_VARIANT, LexStats(), deadline)
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
    a = weights[x_pos]
    b = -weights[y_pos]
    c = -weights[z_pos]
    enum_positions = [i for i in range(n) if i not in (x_pos, y_pos, z_pos)]

    direct_cache = slopes3(a, b, c, deadline)
    candidates: list[Solution] = []
    assigned = [0] * n

    def solve_tail(d: int, pos_budget: int, neg_budget: int) -> None:
        if deadline is not None:
            deadline.check()
        v = -d
        if v == 0:
            stats.residuals_direct += 1
            if any(assigned):
                # The prefix already balances on its own; the tail may stay
                # all-zero, which the three-unknown solver never emits.
                candidates.append(tuple(assigned))
                stats.candidates += 1
            triples = [
                t
                for t in direct_cache
                if t[0] <= pos_budget and t[1] + t[2] <= neg_budget
            ]
        else:
            stats.residuals_scan += 1
            triples = solve3_general(
                a, b, c, v, x_cap=pos_budget, yz_cap=neg_budget, deadline=deadline
            )
        for x, y, z in triples:
            full = list(assigned)
            full[x_pos] = x
            full[y_pos] = y
            full[z_pos] = z
            candidates.append(tuple(full))
        stats.candidates += len(triples)

    # With (x, y, z) last in the order, the walk's suffix envelopes at the
    # tail are a and max(b, c).
    prefix_walk(
        w,
        enum_positions + [x_pos, y_pos, z_pos],
        3,
        solve_tail,
        assigned,
        stats=stats,
        deadline=deadline,
    )
    return pareto_min(candidates, deadline)
