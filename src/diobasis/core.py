"""Core types and shared machinery for the Diophantine basis solvers.

An equation has positive integer coefficients on both sides over disjoint
unknowns.  Internally every solver works on the signed weight form: lhs
coefficients stay positive, rhs coefficients are negated, and a candidate
vector is a solution exactly when its defect (weighted sum) is zero.  The
basis of an equation is the set of all minimal nonzero natural solutions
under componentwise dominance.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

Solution = tuple[int, ...]
# A basis is a list of pairwise-incomparable nonzero solutions, kept sorted
# lexicographically: dominance implies lex order, so a sorted basis lets
# dominance scans stop early, and sorted output is diff-stable.
BasisList = list[Solution]

COEFFICIENT_LIMIT = 2**20
DEFAULT_ORACLE_CAP = 10**8


class DiobasisError(Exception):
    """Base class for all package errors."""


class EquationFormatError(DiobasisError):
    """Malformed equation text; ``position`` is the 1-based offending token."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class CoefficientRangeError(DiobasisError):
    """Coefficient outside [1, COEFFICIENT_LIMIT]."""


class OracleBoxError(DiobasisError):
    """Oracle search box exceeds the configured cap; carries the box size."""

    def __init__(self, box_size: int, cap: int):
        super().__init__(
            f"oracle search box has {box_size} candidate vectors, over the cap of {cap}"
        )
        self.box_size = box_size
        self.cap = cap


class ResourceLimitError(DiobasisError):
    """A solver exceeded a configured resource guard (e.g. frontier size)."""


class TimeLimitError(DiobasisError):
    """A solver exceeded its cooperative time limit."""


class Deadline:
    """Cooperative wall-clock limit checked at safe points inside solvers."""

    __slots__ = ("expires_at",)

    def __init__(self, seconds: float):
        self.expires_at = time.perf_counter() + seconds

    def check(self) -> None:
        if time.perf_counter() > self.expires_at:
            raise TimeLimitError("solver exceeded its time limit")

    @staticmethod
    def maybe(seconds: float | None) -> "Deadline | None":
        return None if seconds is None else Deadline(seconds)


def _validate_side(name: str, coeffs: Sequence[int]) -> None:
    if len(coeffs) == 0:
        raise CoefficientRangeError(f"{name} side must have at least one coefficient")
    for c in coeffs:
        if not isinstance(c, int) or isinstance(c, bool):
            raise CoefficientRangeError(f"{name} coefficient {c!r} is not an integer")
        if c < 1 or c > COEFFICIENT_LIMIT:
            raise CoefficientRangeError(
                f"{name} coefficient {c} outside [1, {COEFFICIENT_LIMIT}]"
            )


@dataclass(frozen=True)
class Equation:
    """a_1 x_1 + ... + a_l x_l = b_1 y_1 + ... + b_k y_k over naturals.

    The two sides use disjoint unknowns; the first ``len(lhs)`` solution
    coordinates belong to the lhs block.
    """

    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lhs", tuple(self.lhs))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        _validate_side("lhs", self.lhs)
        _validate_side("rhs", self.rhs)

    @property
    def n(self) -> int:
        return len(self.lhs) + len(self.rhs)

    def weights(self) -> "WeightVector":
        return build_weights(self)

    def text(self) -> str:
        """Render in the one-line text format, e.g. ``"2 3 = 1 4 5"``."""
        return "{} = {}".format(
            " ".join(map(str, self.lhs)), " ".join(map(str, self.rhs))
        )


@dataclass(frozen=True)
class WeightVector:
    """Signed weight form of an equation: positive entries are lhs
    coefficients, negative entries are negated rhs coefficients.  Zero
    entries are not allowed here: the solvers take raw weight sequences,
    zeros included, through :func:`solve_normalized`, which splits the
    zeros off before building one.
    """

    w: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "w", tuple(self.w))
        if any(wi == 0 for wi in self.w):
            raise CoefficientRangeError("weight vector contains a zero entry")

    def __len__(self) -> int:
        return len(self.w)

    @cached_property
    def max_a(self) -> int:
        """Largest positive weight (0 when the positive side is empty)."""
        return max((wi for wi in self.w if wi > 0), default=0)

    @cached_property
    def max_b(self) -> int:
        """Largest magnitude among negative weights (0 when absent)."""
        return max((-wi for wi in self.w if wi < 0), default=0)

    @cached_property
    def positive_positions(self) -> tuple[int, ...]:
        return tuple(i for i, wi in enumerate(self.w) if wi > 0)

    @cached_property
    def negative_positions(self) -> tuple[int, ...]:
        return tuple(i for i, wi in enumerate(self.w) if wi < 0)

    @cached_property
    def scan_orders(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Positive and negative positions, each from the top down: the
        order in which a unit-step search scans them."""
        return self.positive_positions[::-1], self.negative_positions[::-1]

    @property
    def has_both_signs(self) -> bool:
        return bool(self.positive_positions) and bool(self.negative_positions)


@dataclass(frozen=True)
class Bounds:
    """Per-coordinate and per-side-sum caps satisfied by every minimal solution.

    Any lhs unknown of a minimal solution is at most ``huet_lhs`` and any rhs
    unknown at most ``huet_rhs``; the stronger per-side sums are capped by the
    ``lambert_*`` fields.  The sum caps imply the per-coordinate caps.
    """

    huet_lhs: int
    huet_rhs: int
    lambert_lhs_sum: int
    lambert_rhs_sum: int


def build_weights(eq: Equation) -> WeightVector:
    """Weight vector of an equation: lhs coefficients, then negated rhs."""
    return WeightVector(tuple(eq.lhs) + tuple(-b for b in eq.rhs))


def bounds(eq: Equation) -> Bounds:
    mb = max(eq.rhs)
    ma = max(eq.lhs)
    return Bounds(huet_lhs=mb, huet_rhs=ma, lambert_lhs_sum=mb, lambert_rhs_sum=ma)


def defect(w: WeightVector, x: Sequence[int]) -> int:
    """Weighted sum of a candidate vector; zero means solution."""
    if len(w.w) != len(x):
        raise ValueError(f"length mismatch: {len(w.w)} weights, {len(x)} coordinates")
    return sum(wi * xi for wi, xi in zip(w.w, x))


def dominated_or_equal(s: Sequence[int], t: Sequence[int]) -> bool:
    """True when s <= t componentwise (equality allowed): the package's one
    componentwise test, which every other dominance check calls."""
    return all(map(operator.le, s, t))


def dominates(s: Sequence[int], t: Sequence[int]) -> bool:
    """Strict componentwise dominance: s <= t everywhere and s != t."""
    if len(s) != len(t):
        raise ValueError("vectors must have equal length")
    return dominated_or_equal(s, t) and not dominated_or_equal(t, s)


@dataclass
class InsertStats:
    """Instrumentation for basis insertion; solvers expose it so tests can
    assert structural invariants (e.g. lex enumeration never evicts)."""

    inserted: int = 0
    rejected: int = 0
    evicted: int = 0


def is_dominated(sorted_basis: BasisList, vec: Solution) -> bool:
    """True when some member of a lex-sorted basis dominates or equals ``vec``.

    Dominators are lexicographically <= the dominated vector, so only the
    sorted prefix up to the insertion point needs scanning.
    """
    i = bisect.bisect_left(sorted_basis, vec)
    if i < len(sorted_basis) and sorted_basis[i] == vec:
        return True
    for b in itertools.islice(sorted_basis, i):
        if dominated_or_equal(b, vec):
            return True
    return False


def insert_minimal(
    basis: BasisList, sol: Solution, stats: InsertStats | None = None
) -> BasisList:
    """Insert ``sol`` into a lex-sorted basis, preserving minimality.

    ``sol`` is rejected when a stored solution dominates or equals it; any
    stored solutions it dominates are evicted.  Returns ``basis`` (mutated in
    place).  Only lex-larger vectors can be dominated by ``sol``, so the
    eviction scan starts at the insertion point.
    """
    if is_dominated(basis, sol):
        if stats:
            stats.rejected += 1
        return basis
    i = bisect.bisect_left(basis, sol)
    tail = [b for b in itertools.islice(basis, i, len(basis)) if not dominated_or_equal(sol, b)]
    if stats:
        stats.evicted += len(basis) - i - len(tail)
        stats.inserted += 1
    basis[i:] = tail
    basis.insert(i, sol)
    return basis


def pareto_min(
    vectors: Iterable[Sequence[int]], deadline: Deadline | None = None
) -> BasisList:
    """Minimal elements of a vector set under componentwise dominance, sorted.

    Up to 512 distinct vectors, the many tiny calls of the oracle and the
    solvers, are swept in lex order as lex keeps its basis.  A dominator is
    lexicographically smaller, so it comes first, and a dropped one is
    itself bounded by a kept one: ``is_dominated`` against the kept vectors
    is exact, nothing kept is ever evicted, and the result is already sorted.
    Larger sets are swept in batches in ascending coordinate-sum order, where
    equal sums never dominate each other.  One vectorized pass tests a batch
    against a :class:`DominanceIndex` of the vectors kept so far, survivors
    of different sums within the batch are compared with each other, and the
    rest join the index.  ``deadline`` is checked once per batch.
    """
    uniq = {tuple(v) for v in vectors}
    if len(uniq) > 512:
        return _pareto_min_numpy(uniq, deadline)
    kept: BasisList = []
    for v in sorted(uniq):
        if not is_dominated(kept, v):
            kept.append(v)
    return kept


# Vectors copied into the array per deadline check (about 50 ms).
_FILL_ROWS = 1 << 16
# Rows swept per index test and insert.  An insert costs a pass over the
# value axis whatever it adds, so batches share it among many vectors.
_SWEEP_ROWS = 128
# Bound on the candidates x words x 8 B temporary of one dominance test.
_TEST_CHUNK_BYTES = 1 << 23
# Largest bitset index one pareto_min call may build.
_INDEX_BYTES = 1 << 28
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def _pareto_min_numpy(uniq: set[Solution], deadline: Deadline | None) -> BasisList:
    n = len(next(iter(uniq)))
    # Each setup pass takes a fraction of a second at half a million vectors,
    # so the deadline is checked between them and between fill chunks.
    vecs = list(uniq)
    arr = np.empty((len(vecs), n), dtype=np.int64)
    for lo in range(0, len(vecs), _FILL_ROWS):
        if deadline is not None:
            deadline.check()
        chunk = vecs[lo : lo + _FILL_ROWS]
        flat = itertools.chain.from_iterable(chunk)
        arr[lo : lo + len(chunk)] = np.fromiter(
            flat, dtype=np.int64, count=n * len(chunk)
        ).reshape(-1, n)
    sums = arr.sum(axis=1)
    order = np.argsort(sums, kind="stable")
    arr, sums = arr[order], sums[order]
    if deadline is not None:
        deadline.check()
    # Dominance only compares values within a column, so per-column ranks
    # keep the index as small as the number of distinct values.
    ranks = np.empty(arr.shape, dtype=np.intp)
    for k in range(n):
        ranks[:, k] = np.unique(arr[:, k], return_inverse=True)[1]
    if deadline is not None:
        deadline.check()
    size = int(ranks.max()) + 1
    # The index takes n * size bits per kept vector, up to twice that with
    # the slack of its geometric growth.  If keeping every vector could
    # overrun the budget, test row by row in memory for the rows alone.
    if n * size * len(arr) // 4 > _INDEX_BYTES:
        return _sorted_tuples(_pareto_min_rows(arr, deadline))
    index = DominanceIndex(n, size)
    keep = np.zeros(len(arr), dtype=bool)
    for lo in range(0, len(arr), _SWEEP_ROWS):
        if deadline is not None:
            deadline.check()
        hi = min(lo + _SWEEP_ROWS, len(arr))
        batch = ranks[lo:hi]
        fresh = ~index.any_dominator(batch)
        if sums[lo] != sums[hi - 1]:
            # Rows of smaller sum in the same batch may bound later ones;
            # rows are distinct, so <= here is strict dominance.
            rows = np.flatnonzero(fresh)
            sub = batch[rows].T
            below = sub[0, :, None] <= sub[0]
            for col in sub[1:]:
                below &= col[:, None] <= col
            np.fill_diagonal(below, False)
            fresh[rows[below.any(axis=0)]] = False
        keep[lo:hi] = fresh
        index.add(batch[fresh])
    return _sorted_tuples(arr[keep])


def _pareto_min_rows(arr: np.ndarray, deadline: Deadline | None) -> np.ndarray:
    """Minimal rows of a sum-sorted, duplicate-free array, one row at a time."""
    kept = np.empty_like(arr)
    count = 0
    for row, v in enumerate(arr):
        if deadline is not None and row % _SWEEP_ROWS == 0:
            deadline.check()
        if count and bool((kept[:count] <= v).all(axis=1).any()):
            continue
        kept[count] = v
        count += 1
    return kept[:count]


def _sorted_tuples(arr: np.ndarray) -> BasisList:
    return [tuple(row) for row in arr[np.lexsort(arr.T[::-1])].tolist()]


class DominanceIndex:
    """Bitset index over a growing set of vectors for batched dominance tests.

    Coordinates are value indices in ``range(size)``: the values themselves
    when they are small, or per-column ranks.  For every coordinate k and
    value v a bitset marks the indexed vectors whose k-th coordinate is at
    most v; ANDing the rows a candidate selects leaves exactly the indexed
    vectors that are dominated by or equal to it.
    """

    def __init__(self, n: int, size: int):
        self.count = 0
        self.masks = np.zeros((n, size, 1), dtype=np.uint64)

    def add(self, rows: np.ndarray) -> None:
        """Index the vectors in ``rows`` (one per row), however few: set each
        new bit at its vector's own value, then rerun the cumulative OR along
        the value axis over the words the new bits land in."""
        if not len(rows):
            return
        n, size, capacity = self.masks.shape
        ids = np.arange(self.count, self.count + len(rows))
        first = self.count >> 6
        stop = int(ids[-1] >> 6) + 1
        if stop > capacity:
            grown = np.zeros((n, size, max(stop, 2 * capacity)), dtype=np.uint64)
            grown[:, :, :capacity] = self.masks
            self.masks = grown
        np.bitwise_or.at(
            self.masks,
            (np.arange(n), rows, (ids >> 6)[:, None]),
            _BIT[ids & 63, None],
        )
        touched = self.masks[:, :, first:stop]
        np.bitwise_or.accumulate(touched, axis=1, out=touched)
        self.count += len(rows)

    def any_dominator(self, cands: np.ndarray) -> np.ndarray:
        """Per candidate row: is some indexed vector dominated by or equal to it?"""
        if not self.count or not len(cands):
            return np.zeros(len(cands), dtype=bool)
        words = (self.count + 63) >> 6
        masks = self.masks[:, :, :words]
        step = max(1, _TEST_CHUNK_BYTES // (8 * words))
        hits = []
        for lo in range(0, len(cands), step):
            chunk = cands[lo : lo + step]
            acc = masks[0, chunk[:, 0]]
            for k in range(1, len(masks)):
                acc &= masks[k, chunk[:, k]]
            hits.append(acc.any(axis=1))
        return hits[0] if len(hits) == 1 else np.concatenate(hits)


class DominanceBuckets:
    """Exact dominance test for a search that grows vectors by unit steps.

    Found solutions are kept in buckets keyed by (position, value), one entry
    per nonzero coordinate.  ``bounds(child, i)`` scans the one bucket
    ``(i, child[i])``.  That is the whole test when c = x + e_i has a
    nonzero defect, its parent x had a nonzero defect and was bounded by no
    added solution when it was tested, and every added solution of
    coordinate sum below |x| was added before that test:

    - Let s be an added solution with s <= c.  s != c, since c has a
      nonzero defect, so s < c and |s| <= |x|.
    - s <= x is impossible.  s = x has the wrong defect, and s < x would
      give |s| < |x|, so s was added before x was tested and bounded it.
    - s_j <= c_j = x_j for every j != i, so s_i > x_i, and s_i <= c_i =
      x_i + 1 gives s_i = c_i.

    Completion and the graph search expand level by level in coordinate
    sum and add each level's solutions before testing the next level's
    children, which is the condition above.
    """

    def __init__(self, n: int):
        self.solutions: list[Solution] = []
        self.buckets: list[dict[int, list[Solution]]] = [{} for _ in range(n)]

    def add(self, sol: Solution) -> None:
        self.solutions.append(sol)
        for bucket, v in zip(self.buckets, sol):
            if v:
                bucket.setdefault(v, []).append(sol)

    def bounds(self, child: Solution, i: int) -> bool:
        """Is some added solution dominated by or equal to ``child``, the
        search's last step having incremented position ``i``?  Each member
        of the bucket (i, child[i]) gets the full ``dominated_or_equal``
        test, and the scan stops at the first hit."""
        for s in self.buckets[i].get(child[i], ()):
            if dominated_or_equal(s, child):
                return True
        return False


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (g, ma, mb) with ma*a + mb*b = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def shared_weights(lhs: Sequence[int], rhs: Sequence[int]) -> list[int]:
    """Weights for the shared-unknown form, where the same unknown carries a
    coefficient on each side: w_i = lhs_i - rhs_i (zeros possible)."""
    if len(lhs) != len(rhs):
        raise ValueError("shared-unknown form needs equally long sides")
    return [a - b for a, b in zip(lhs, rhs)]


def solve_normalized(
    problem: Equation | Sequence[int],
    search: Callable[..., BasisList],
    *args,
) -> BasisList:
    """The one path from a problem to a solver: normalize, then ``search``.

    ``problem`` is an :class:`Equation` or a raw signed weight sequence
    whose entries are ints of magnitude at most ``COEFFICIENT_LIMIT``, zeros
    allowed.  The weights are divided by their gcd, which leaves the set of
    solutions unchanged but not the solvers' bounds.  A zero weight leaves
    its unknown free, so its unit vector is a basis member and the position
    drops out.  Weights of one sign have no nonzero solution.  What remains
    goes to ``search(w, *args)`` as a zero-free :class:`WeightVector` with
    both signs, and its sorted basis is returned as it is unless zeros were
    split off, in which case the solutions are re-embedded and merged with
    the unit members.
    """
    if isinstance(problem, Equation):
        weights = problem.lhs + tuple(-b for b in problem.rhs)
    else:
        weights = tuple(problem)
        for wi in weights:
            if not isinstance(wi, int) or isinstance(wi, bool) or abs(wi) > COEFFICIENT_LIMIT:
                raise CoefficientRangeError(
                    f"weight {wi!r} is not an integer in "
                    f"[-{COEFFICIENT_LIMIT}, {COEFFICIENT_LIMIT}]"
                )
    g = math.gcd(*weights)
    if g > 1:
        weights = tuple(wi // g for wi in weights)
    w = WeightVector(tuple(wi for wi in weights if wi))
    basis = search(w, *args) if w.has_both_signs else []
    if len(w) == len(weights):
        return basis
    n = len(weights)
    out = [tuple(int(j == i) for j in range(n)) for i, wi in enumerate(weights) if not wi]
    for sol in basis:
        values = iter(sol)
        out.append(tuple(next(values) if wi else 0 for wi in weights))
    return sorted(out)


def oracle_box_size(eq: Equation) -> int:
    """Number of candidate vectors in the per-coordinate search box."""
    b = bounds(eq)
    return (b.huet_lhs + 1) ** len(eq.lhs) * (b.huet_rhs + 1) ** len(eq.rhs)


def oracle_basis(eq: Equation, cap: int = DEFAULT_ORACLE_CAP) -> BasisList:
    """Brute-force reference basis, independent of every solver.

    Exhausts the per-coordinate box (lhs unknowns up to max rhs coefficient,
    rhs unknowns up to max lhs coefficient), keeps the zero-defect vectors,
    and dominance-filters them.  The two sides are enumerated separately and
    matched on equal weighted sums, which considers exactly the same solution
    set as a flat product scan of the box.
    """
    box = oracle_box_size(eq)
    if box > cap:
        raise OracleBoxError(box, cap)
    b = bounds(eq)
    lhs_by_sum = _side_sums(eq.lhs, b.huet_lhs)
    rhs_by_sum = _side_sums(eq.rhs, b.huet_rhs)
    candidates: list[Solution] = []
    for s, left_vecs in lhs_by_sum.items():
        if s == 0:
            continue  # coefficient >= 1 forces the all-zero side vector
        right_vecs = rhs_by_sum.get(s)
        if not right_vecs:
            continue
        for lv in left_vecs:
            for rv in right_vecs:
                candidates.append(lv + rv)
    return pareto_min(candidates)


def _side_sums(coeffs: Sequence[int], bound: int) -> dict[int, list[Solution]]:
    by_sum: dict[int, list[Solution]] = {}
    for vec in itertools.product(range(bound + 1), repeat=len(coeffs)):
        s = sum(c * x for c, x in zip(coeffs, vec))
        by_sum.setdefault(s, []).append(vec)
    return by_sum


def parse_equation(text: str) -> Equation:
    """Parse the one-line text format ``"a1 a2 ... = b1 b2 ..."``.

    Raises :class:`EquationFormatError` naming the 1-based token position of
    the first problem.
    """
    tokens = text.split()
    if not tokens:
        raise EquationFormatError("empty equation", position=1)
    try:
        eq_index = tokens.index("=")
    except ValueError:
        raise EquationFormatError("missing '=' separator", position=len(tokens)) from None
    if "=" in tokens[eq_index + 1 :]:
        second = tokens.index("=", eq_index + 1)
        raise EquationFormatError("more than one '='", position=second + 1)
    if eq_index == 0:
        raise EquationFormatError("no coefficients before '='", position=1)
    if eq_index == len(tokens) - 1:
        raise EquationFormatError("no coefficients after '='", position=len(tokens))

    def to_coeff(tok: str, pos: int) -> int:
        try:
            value = int(tok)
        except ValueError:
            raise EquationFormatError(
                f"token {pos}: {tok!r} is not an integer", position=pos
            ) from None
        if value < 1:
            raise EquationFormatError(
                f"token {pos}: coefficient must be >= 1, got {value}", position=pos
            )
        if value > COEFFICIENT_LIMIT:
            raise EquationFormatError(
                f"token {pos}: coefficient {value} over limit {COEFFICIENT_LIMIT}",
                position=pos,
            )
        return value

    lhs = tuple(to_coeff(t, i + 1) for i, t in enumerate(tokens[:eq_index]))
    rhs = tuple(
        to_coeff(t, eq_index + 2 + i) for i, t in enumerate(tokens[eq_index + 1 :])
    )
    return Equation(lhs, rhs)


def format_basis(basis: Iterable[Solution]) -> str:
    """One solution per line, coordinates space-separated, lex order."""
    return "\n".join(" ".join(map(str, sol)) for sol in sorted(basis))
