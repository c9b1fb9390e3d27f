"""Core types and shared machinery for the Diophantine basis solvers.

An equation has positive integer coefficients on both sides over disjoint
unknowns.  Internally every solver works on the signed weight form: lhs
coefficients stay positive, rhs coefficients are negated, and a candidate
vector is a solution exactly when its defect (weighted sum) is zero.  The
basis of an equation is the set of all minimal nonzero natural solutions
under componentwise dominance.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

Solution = tuple[int, ...]
# A basis is a list of pairwise-incomparable nonzero solutions.  A solver
# builds it by appending, in the order it meets solutions, and returns it
# sorted lexicographically, so output is diff-stable.
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
    """Cooperative wall-clock limit checked at safe points inside solvers.

    Every solver entry point builds one from its ``time_limit``, so each
    check site has one path.  ``Deadline(None)`` never expires, a limit of
    zero or less expires at once, and a NaN limit, which no comparison
    could ever expire, raises ``ValueError``.
    """

    __slots__ = ("expires_at",)

    def __init__(self, seconds: float | None):
        if seconds is not None and math.isnan(seconds):
            raise ValueError("time limit is NaN")
        self.expires_at = math.inf if seconds is None else time.perf_counter() + seconds

    def check(self) -> None:
        if time.perf_counter() > self.expires_at:
            raise TimeLimitError("solver exceeded its time limit")


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

    ``max_a`` is the largest positive weight and ``max_b`` the largest
    magnitude among negative weights, 0 when a side is empty.
    ``positive_positions`` and ``negative_positions`` list each side's
    positions, and ``scan_orders`` lists them by increasing |w|, ties in
    decreasing position: a unit-step search scans them in that order.
    ``packing`` packs vectors with coordinates of at most max(max_a, max_b),
    which every child of the pruned unit-step search has (``graph`` module
    docstring).  All of them are computed once here: a solve reads several,
    and a cached property takes a lock on its first access.
    """

    w: tuple[int, ...]

    def __post_init__(self):
        w = tuple(self.w)
        if 0 in w:
            raise CoefficientRangeError("weight vector contains a zero entry")
        pos = tuple([i for i, wi in enumerate(w) if wi > 0])
        neg = tuple([i for i, wi in enumerate(w) if wi < 0])
        max_a = max(w) if pos else 0
        max_b = -min(w) if neg else 0
        # The instance is frozen, so its derived attributes go in directly.
        self.__dict__.update(
            w=w,
            max_a=max_a,
            max_b=max_b,
            positive_positions=pos,
            negative_positions=neg,
            scan_orders=(
                tuple(sorted(pos[::-1], key=w.__getitem__)),
                tuple(sorted(neg[::-1], key=w.__getitem__, reverse=True)),
            ),
            packing=packing(len(w), max(max_a, max_b)),
        )

    def __len__(self) -> int:
        return len(self.w)

    @property
    def has_both_signs(self) -> bool:
        return bool(self.positive_positions) and bool(self.negative_positions)


class Packing:
    """Vectors of n naturals below 2**bits packed into one int each.

    Coordinate k sits in a field of ``bits`` bits under a guard bit, so a
    field is ``bits + 1`` wide, and coordinate 0 takes the highest field:
    packed ints compare in the lex order of their vectors.  ``units[k]`` is
    e_k packed, so adding it increments coordinate k; ``fields[k]`` masks
    coordinate k in place, and ``guards`` has every guard bit set.

    The guard test ``((c | guards) - s) & guards == guards`` is s <= c
    componentwise (Lamport, CACM 1975): field k computes
    2**bits + c_k - s_k, which is positive, so no borrow crosses into the
    next field, and its guard bit survives exactly when c_k >= s_k.  It is
    exact while neither vector has a guard bit set, that is while every
    coordinate is below 2**bits.
    """

    __slots__ = ("bits", "shifts", "units", "fields", "guards")

    def __init__(self, n: int, bits: int):
        self.bits = bits
        self.shifts = tuple((bits + 1) * k for k in reversed(range(n)))
        self.units = tuple(1 << s for s in self.shifts)
        self.fields = tuple(((1 << bits) - 1) << s for s in self.shifts)
        self.guards = sum(unit << bits for unit in self.units)

    def pack(self, x: Sequence[int]) -> int:
        return sum(map(operator.lshift, x, self.shifts))

    def unpack(self, p: int) -> Solution:
        low = (1 << self.bits) - 1
        return tuple([(p >> s) & low for s in self.shifts])


@functools.lru_cache(maxsize=64)
def packing(n: int, top: int) -> Packing:
    """The packing of n coordinates of at most ``top`` each."""
    return Packing(n, top.bit_length())


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
    componentwise test on tuples, which every other dominance check on
    tuples calls.  Vectors packed by ``Packing`` (the unit-step search's
    walks and every ``PackedBuckets``) have its guard test instead."""
    return all(map(operator.le, s, t))


def dominates(s: Sequence[int], t: Sequence[int]) -> bool:
    """Strict componentwise dominance: s <= t everywhere and s != t."""
    if len(s) != len(t):
        raise ValueError("vectors must have equal length")
    return dominated_or_equal(s, t) and not dominated_or_equal(t, s)


@dataclass
class InsertStats:
    """Counts of ``insert_minimal``: vectors appended and rejected.
    ``evicted`` stays 0 by construction, since the rule never evicts."""

    inserted: int = 0
    rejected: int = 0
    evicted: int = 0


def is_dominated(basis: BasisList, vec: Solution) -> bool:
    """True when some member of ``basis``, in any order, dominates or
    equals ``vec``."""
    for b in basis:
        if dominated_or_equal(b, vec):
            return True
    return False


def insert_minimal(
    basis: BasisList, sol: Solution, stats: InsertStats | None = None
) -> bool:
    """Append ``sol`` to ``basis`` unless a member dominates or equals it,
    and return whether it was appended: the package's one rule for keeping
    a basis.

    Precondition: every dominator of ``sol`` is passed in before ``sol``.
    Then no later vector dominates a kept one, so nothing is ever evicted.
    Lex order meets it, and so does coordinate-sum order: a dominator is
    lexicographically smaller and has a smaller sum.  A caller that passes
    vectors out of order silently gets a basis that is not minimal.
    """
    if is_dominated(basis, sol):
        if stats is not None:
            stats.rejected += 1
        return False
    basis.append(sol)
    if stats is not None:
        stats.inserted += 1
    return True


def pareto_min(
    vectors: Iterable[Sequence[int]], deadline: Deadline = Deadline(None)
) -> BasisList:
    """Minimal elements of a vector set under componentwise dominance, sorted.

    Up to 512 distinct vectors, the many tiny calls of the oracle and the
    solvers, are swept in lex order by ``insert_minimal``, as lex keeps its
    basis.  A dominator is lexicographically smaller, so it comes first,
    and a dropped one is itself bounded by a kept one: the rule's
    precondition holds, and the result is already sorted.

    Larger sets are swept in batches in ascending coordinate-sum order, where
    equal sums never dominate each other.  One vectorized pass tests a batch
    against a :class:`DominanceIndex` of the vectors kept so far, survivors
    of different sums within the batch are compared with each other, and the
    rest join the index.  A pass keeps rows while its index, old and grown
    masks together while it grows by a quarter, fits ``_INDEX_BYTES``; after
    that every fresh row is still tested against the full index but waits
    for the next pass, which sweeps the waiting rows with a new index.  Sums
    only grow, so nothing a later pass keeps bounds a row an earlier pass
    kept, and the first batch of a pass is always kept, so every pass makes
    progress.  ``deadline`` is checked once per batch.  Only this path uses
    numpy, which it imports on its first call, so a process whose calls stay
    at 512 vectors or fewer never loads it.
    """
    uniq = {tuple(v) for v in vectors}
    if len(uniq) > 512:
        return _pareto_min_numpy(uniq, deadline)
    kept: BasisList = []
    for v in sorted(uniq):
        insert_minimal(kept, v)
    return kept


# Vectors copied into the array per deadline check (about 50 ms).
_FILL_ROWS = 1 << 16
# Rows swept per index test and insert.  An insert costs a pass over the
# value axis whatever it adds, so batches share it among many vectors.
_SWEEP_ROWS = 128
# Bound on the candidates x capacity x 8 B rows one dominance test gathers
# per chunk, the capacity at most a quarter over the words in use plus one.
# At 256 KB the accumulator and the rows gathered into it stay in a core's
# L2 cache across the n ANDs of a chunk.
_TEST_CHUNK_BYTES = 1 << 18
# Largest bitset index, growth included, one sweep pass may build.
_INDEX_BYTES = 1 << 28


def _pareto_min_numpy(uniq: set[Solution], deadline: Deadline) -> BasisList:
    import numpy as np

    n = len(next(iter(uniq)))
    # Each setup pass takes a fraction of a second at half a million vectors,
    # so the deadline is checked between them and between fill chunks.
    vecs = list(uniq)
    arr = np.empty((len(vecs), n), dtype=np.int64)
    for lo in range(0, len(vecs), _FILL_ROWS):
        deadline.check()
        chunk = vecs[lo : lo + _FILL_ROWS]
        flat = itertools.chain.from_iterable(chunk)
        arr[lo : lo + len(chunk)] = np.fromiter(
            flat, dtype=np.int64, count=n * len(chunk)
        ).reshape(-1, n)
    sums = arr.sum(axis=1)
    order = np.argsort(sums, kind="stable")
    arr, sums = arr[order], sums[order]
    deadline.check()
    # Dominance only compares values within a column, so per-column ranks
    # keep the index as small as the number of distinct values.
    ranks = np.empty(arr.shape, dtype=np.intp)
    for k in range(n):
        ranks[:, k] = np.unique(arr[:, k], return_inverse=True)[1]
    deadline.check()
    size = int(ranks.max()) + 1
    keep = np.zeros(len(arr), dtype=bool)
    todo = np.arange(len(arr))  # rows of the next pass, in sum order
    while len(todo):
        index = DominanceIndex(n, size)
        full = False
        waiting = []
        for lo in range(0, len(todo), _SWEEP_ROWS):
            deadline.check()
            rows = todo[lo : lo + _SWEEP_ROWS]
            batch = ranks[rows]
            fresh = ~index.any_dominator(batch)
            if sums[rows[0]] != sums[rows[-1]]:
                # Rows of smaller sum in the same batch may bound later ones;
                # rows are distinct, so <= here is strict dominance.
                live = np.flatnonzero(fresh)
                sub = batch[live].T
                below = sub[0, :, None] <= sub[0]
                for col in sub[1:]:
                    below &= col[:, None] <= col
                np.fill_diagonal(below, False)
                fresh[live[below.any(axis=0)]] = False
            full = full or (
                index.count > 0 and index.peak_bytes(int(fresh.sum())) > _INDEX_BYTES
            )
            if full:
                waiting.append(rows[fresh])
            else:
                keep[rows[fresh]] = True
                index.add(batch[fresh])
        todo = np.concatenate(waiting) if waiting else todo[:0]
    kept = arr[keep]
    return [tuple(row) for row in kept[np.lexsort(kept.T[::-1])].tolist()]


class DominanceIndex:
    """Bitset index over a growing set of vectors for batched dominance tests.

    Coordinates are value indices in ``range(size)``: the values themselves
    when they are small, or per-column ranks.  For every coordinate k and
    value v a bitset marks the indexed vectors whose k-th coordinate is at
    most v; ANDing the rows a candidate selects leaves exactly the indexed
    vectors that are dominated by or equal to it.

    Words past the ceil(count / 64) in use are zero.  A growth adds a
    quarter of the capacity, or what the insert needs if more, so capacity
    stays within 1.25 times the words in use plus one: few recopies, and
    little dead tail for a test that reads whole rows.

    Building an index imports numpy, which the package loads on first use.
    """

    def __init__(self, n: int, size: int):
        import numpy as np

        self.count = 0
        self.masks = np.zeros((n, size, 1), dtype=np.uint64)
        # bit[j] has bit j alone set: the mask of vector id j within its word.
        self.bit = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))

    def grown(self, stop: int) -> int:
        """Capacity in words after a growth to hold ``stop`` words."""
        capacity = self.masks.shape[2]
        return max(stop, capacity + capacity // 4)

    def peak_bytes(self, added: int) -> int:
        """Bytes the masks take at most while ``added`` more vectors are
        indexed: a growth keeps the old masks alive beside the grown ones,
        sized by the same ``grown`` rule that ``add`` follows."""
        n, size, capacity = self.masks.shape
        stop = (self.count + added + 63) >> 6
        if stop > capacity:
            capacity += self.grown(stop)
        return n * size * capacity * 8

    def add(self, rows: np.ndarray) -> None:
        """Index the vectors in ``rows`` (one per row), however few: set each
        new bit at its vector's own value, then rerun the cumulative OR along
        the value axis over the words the new bits land in."""
        import numpy as np

        if not len(rows):
            return
        n, size, capacity = self.masks.shape
        ids = np.arange(self.count, self.count + len(rows))
        first = self.count >> 6
        stop = int(ids[-1] >> 6) + 1
        if stop > capacity:
            grown = np.zeros((n, size, self.grown(stop)), dtype=np.uint64)
            grown[:, :, :capacity] = self.masks
            self.masks = grown
        np.bitwise_or.at(
            self.masks,
            (np.arange(n), rows, (ids >> 6)[:, None]),
            self.bit[ids & 63, None],
        )
        touched = self.masks[:, :, first:stop]
        np.bitwise_or.accumulate(touched, axis=1, out=touched)
        self.count += len(rows)

    def any_dominator(self, cands: np.ndarray) -> np.ndarray:
        """Per candidate row: is some indexed vector dominated by or equal to it?

        The candidates' columns are cast to ``intp`` once, and each chunk
        gathers its rows with ``take`` from the whole contiguous plane
        ``masks[k]``.  Words past the ones in use are zero, so they add
        nothing, and the growth rule keeps them under a quarter of a row
        (class docstring).  The in-use view ``masks[:, :, :words]`` is not
        contiguous once the capacity exceeds the words in use, and ``take``
        on it copies the whole view per call.  A chunk ends with an OR
        reduction of each accumulated row, which is cheaper than ``any``.
        """
        import numpy as np

        if not self.count or not len(cands):
            return np.zeros(len(cands), dtype=bool)
        masks = self.masks
        cols = np.ascontiguousarray(cands.T, dtype=np.intp)
        step = max(1, _TEST_CHUNK_BYTES // (8 * masks.shape[2]))
        hits = np.empty(len(cands), dtype=bool)
        for lo in range(0, len(cands), step):
            acc = masks[0].take(cols[0, lo : lo + step], axis=0)
            for k in range(1, len(masks)):
                acc &= masks[k].take(cols[k, lo : lo + step], axis=0)
            hits[lo : lo + step] = np.bitwise_or.reduce(acc, axis=1) != 0
        return hits


class PackedBuckets:
    """Exact dominance test for a search that grows vectors by unit steps,
    over vectors packed by ``packing``.

    Found solutions are kept in buckets keyed by (position, value), one entry
    per nonzero coordinate: bucket (i, v) is keyed by the masked field
    ``p & fields[i]``, which no other bucket shares, so one dict holds them
    all, and 0 is never a key.  ``bounds(child, i)`` scans the one bucket
    (i, child_i) with the guard test (``Packing``).  Every vector added or
    tested must have no guard bit set.  The scan is the whole test when
    c = x + e_i has a nonzero defect, its parent x had a nonzero defect and
    was bounded by no added solution when it was tested, and every added
    solution of coordinate sum below |x| was added before that test:

    - Let s be an added solution with s <= c.  s != c, since c has a
      nonzero defect, so s < c and |s| <= |x|.
    - s <= x is impossible.  s = x has the wrong defect, and s < x would
      give |s| < |x|, so s was added before x was tested and bounded it.
    - s_j <= c_j = x_j for every j != i, so s_i > x_i, and s_i <= c_i =
      x_i + 1 gives s_i = c_i.

    Completion and the graph search expand level by level in coordinate
    sum and add each level's solutions before testing the next level's
    children, which is the condition above; ``completion.expand`` runs the
    test inline.  ``lex.prefix_walk`` meets a precondition of its own,
    under which every added s <= prefix has s_i = prefix_i (that
    function's docstring), and probes a value's key in ``buckets`` before
    it calls ``bounds``.
    """

    def __init__(self, packing: Packing):
        self.fields = packing.fields
        self.guards = packing.guards
        self.solutions: list[int] = []
        self.buckets: dict[int, list[int]] = {}

    def add(self, sol: int) -> None:
        self.solutions.append(sol)
        for mask in self.fields:
            if sol & mask:
                self.buckets.setdefault(sol & mask, []).append(sol)

    def bounds(self, child: int, i: int) -> bool:
        """Is some added solution dominated by or equal to ``child``, the
        search's last step having incremented position ``i``?  Each member
        of the bucket (i, child_i) gets the guard test, and the scan stops
        at the first hit."""
        guards = self.guards
        lifted = child | guards
        for s in self.buckets.get(child & self.fields[i], ()):
            if (lifted - s) & guards == guards:
                return True
        return False


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
