"""Lexicographic enumeration: variants, tail solvers, search invariants."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diobasis import lex, slopes
from diobasis.core import (
    Equation,
    PackedBuckets,
    WeightVector,
    build_weights,
    defect,
    dominated_or_equal,
    insert_minimal,
    oracle_basis,
    parse_equation,
)
from diobasis.lex import (
    ALL_VARIANTS,
    BoundKind,
    LexStats,
    LexVariant,
    TailKind,
    lex_solve,
    solve_two_var,
    tail_solve,
)
from diobasis.slopes import SlopesStats, slopes_solve

HUET_ONE = LexVariant(BoundKind.HUET, TailKind.LAST_ONE)
HUET_TWO = LexVariant(BoundKind.HUET, TailKind.LAST_TWO)
LAMBERT_ONE = LexVariant(BoundKind.LAMBERT, TailKind.LAST_ONE)
LAMBERT_TWO = LexVariant(BoundKind.LAMBERT, TailKind.LAST_TWO)


def random_equation(rng, max_coeff=7, max_side=3):
    lhs = tuple(rng.randint(1, max_coeff) for _ in range(rng.randint(1, max_side)))
    rhs = tuple(rng.randint(1, max_coeff) for _ in range(rng.randint(1, max_side)))
    return Equation(lhs, rhs)


class TestLexSolve:
    def test_four_combinations_exist(self):
        assert len(ALL_VARIANTS) == 4
        assert len(set(ALL_VARIANTS)) == 4

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_one_equals_two(self, variant):
        eq = Equation((1,), (2,))
        assert lex_solve(eq, variant) == oracle_basis(eq) == [(2, 1)]

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_gcd_forced(self, variant):
        assert lex_solve(Equation((2,), (2,)), variant) == [(1, 1)]

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_three_unknowns(self, variant):
        eq = Equation((2, 1), (1,))
        assert lex_solve(eq, variant) == oracle_basis(eq) == [(0, 1, 1), (1, 0, 2)]

    def test_all_variants_agree_and_match_oracle(self):
        rng = random.Random(1905)
        for _ in range(60):
            eq = random_equation(rng)
            want = oracle_basis(eq)
            for variant in ALL_VARIANTS:
                assert lex_solve(eq, variant) == want, (eq.text(), variant)

    def test_emissions_strictly_increase_in_lex_order(self, monkeypatch):
        # insert_minimal's precondition: lex passes it every vector after
        # all of that vector's dominators, since a dominator is lex-smaller.
        seen = []

        def record(basis, sol, stats):
            seen.append(sol)
            return insert_minimal(basis, sol, stats)

        monkeypatch.setattr(lex, "insert_minimal", record)
        rng = random.Random(77)
        equations = [random_equation(rng) for _ in range(40)]
        equations += [parse_equation(text) for text in WALK_COUNTERS]
        for eq in equations:
            for variant in ALL_VARIANTS:
                seen.clear()
                basis = lex_solve(eq, variant)
                assert all(a < b for a, b in zip(seen, seen[1:])), (eq.text(), variant)
                assert basis == oracle_basis(eq)

    def test_lambert_explores_subset_of_huet(self):
        rng = random.Random(40)
        for _ in range(40):
            eq = random_equation(rng)
            for tail in TailKind:
                huet = LexStats()
                lambert = LexStats()
                lex_solve(eq, LexVariant(BoundKind.HUET, tail), stats=huet)
                lex_solve(eq, LexVariant(BoundKind.LAMBERT, tail), stats=lambert)
                assert lambert.prefixes <= huet.prefixes


# (prefixes, emissions, inserted, rejected, evicted) per equation and
# variant, pinned so that any change to the walk's pruning shows.  The
# second tuple is the walk's figure before it pruned by found solutions: an
# upper bound on the first, field by field.
WALK_COUNTERS = {
    "5 = 3 2": {
        HUET_ONE: ((16, 5, 3, 2, 0), (16, 5, 3, 2, 0)),
        HUET_TWO: ((5, 5, 3, 2, 0), (5, 5, 3, 2, 0)),
        LAMBERT_ONE: ((13, 4, 3, 1, 0), (13, 4, 3, 1, 0)),
        LAMBERT_TWO: ((5, 4, 3, 1, 0), (5, 4, 3, 1, 0)),
    },
    "6 4 3 = 7": {
        HUET_ONE: ((277, 36, 9, 27, 0), (277, 36, 9, 27, 0)),
        HUET_TWO: ((52, 36, 9, 27, 0), (52, 36, 9, 27, 0)),
        LAMBERT_ONE: ((165, 17, 9, 8, 0), (165, 17, 9, 8, 0)),
        LAMBERT_TWO: ((45, 17, 9, 8, 0), (45, 17, 9, 8, 0)),
    },
    "3 2 = 4 1": {
        HUET_ONE: ((36, 8, 8, 0, 0), (48, 20, 8, 12, 0)),
        HUET_TWO: ((27, 20, 8, 12, 0), (27, 20, 8, 12, 0)),
        LAMBERT_ONE: ((30, 8, 8, 0, 0), (33, 11, 8, 3, 0)),
        LAMBERT_TWO: ((21, 11, 8, 3, 0), (21, 11, 8, 3, 0)),
    },
    "7 3 = 5 4 2": {
        HUET_ONE: ((224, 55, 25, 30, 0), (774, 288, 25, 263, 0)),
        HUET_TWO: ((126, 124, 25, 99, 0), (231, 288, 25, 263, 0)),
        LAMBERT_ONE: ((150, 44, 25, 19, 0), (238, 77, 25, 52, 0)),
        LAMBERT_TWO: ((77, 56, 25, 31, 0), (101, 77, 25, 52, 0)),
    },
    "4 6 = 5 3 2 7": {
        HUET_ONE: ((826, 66, 32, 34, 0), (15068, 1983, 32, 1951, 0)),
        HUET_TWO: ((461, 209, 32, 177, 0), (2626, 1983, 32, 1951, 0)),
        LAMBERT_ONE: ((556, 52, 32, 20, 0), (1633, 215, 32, 183, 0)),
        LAMBERT_TWO: ((292, 90, 32, 58, 0), (652, 215, 32, 183, 0)),
    },
    "9 5 2 = 8 6 3": {
        HUET_ONE: ((2195, 145, 55, 90, 0), (24561, 6621, 55, 6566, 0)),
        HUET_TWO: ((1801, 1232, 55, 1177, 0), (5976, 6621, 55, 6566, 0)),
        LAMBERT_ONE: ((912, 123, 55, 68, 0), (2582, 629, 55, 574, 0)),
        LAMBERT_TWO: ((602, 372, 55, 317, 0), (925, 629, 55, 574, 0)),
    },
}


class TestWalkCounters:
    @pytest.mark.parametrize("text", list(WALK_COUNTERS))
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_counters_pinned(self, text, variant):
        stats = LexStats()
        eq = parse_equation(text)
        assert lex_solve(eq, variant, stats=stats) == oracle_basis(eq)
        got = (
            stats.prefixes,
            stats.emissions,
            stats.insert.inserted,
            stats.insert.rejected,
            stats.insert.evicted,
        )
        pinned, unpruned = WALK_COUNTERS[text][variant]
        assert got == pinned
        assert all(g <= u for g, u in zip(got, unpruned))


class EveryKey(dict):
    """A bucket dict in which every key is filed."""

    def __contains__(self, key):
        return True


class FullScanBlockers(PackedBuckets):
    """The walk's blockers with the bucket shortcut taken out: every key
    probe hits, and ``bounds`` tests the child against every filed
    solution."""

    def __init__(self, packing):
        super().__init__(packing)
        self.buckets = EveryKey()
        self.unpack = packing.unpack

    def bounds(self, child, i):
        x = self.unpack(child)
        return any(dominated_or_equal(self.unpack(s), x) for s in self.solutions)


def walk_runs(eq):
    """(prefixes, basis) of each lex variant and of slopes on ``eq``."""
    runs = []
    for variant in ALL_VARIANTS:
        stats = LexStats()
        basis = lex_solve(eq, variant, stats=stats)
        runs.append((stats.prefixes, basis))
    stats = SlopesStats()
    basis = slopes_solve(eq, stats=stats)
    runs.append((stats.prefixes, basis))
    return runs


# The two sides of an equation of 2 to 6 unknowns, coefficients up to 15.
equation_sides = st.integers(2, 6).flatmap(
    lambda n: st.integers(1, n - 1).flatmap(
        lambda k: st.tuples(
            st.lists(st.integers(1, 15), min_size=k, max_size=k),
            st.lists(st.integers(1, 15), min_size=n - k, max_size=n - k),
        )
    )
)


class TestWalkPrune:
    @settings(max_examples=25, deadline=None)
    @given(sides=equation_sides)
    # Slopes enumerates the weights 2, -2, -4 here.  The prefix (1, 1)
    # balances, and so does its value 0 at -4, whose later values only the
    # balanced-prefix break stops: no bucket lookup finds that blocker.
    @example(sides=([2, 6], [2, 4, 3, 1]))
    def test_buckets_prune_exactly_what_a_full_scan_prunes(self, sides):
        # The bucket lookup at (order[j], value) finds every filed solution
        # that bounds the prefix: the walk visits the same prefixes as with
        # a scan of all of them, and still emits the whole basis.
        eq = Equation(tuple(sides[0]), tuple(sides[1]))
        want = oracle_basis(eq)
        bucketed = walk_runs(eq)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lex, "PackedBuckets", FullScanBlockers)
            scanned = walk_runs(eq)
        for (prefixes, basis), (full_prefixes, full_basis) in zip(bucketed, scanned):
            assert prefixes == full_prefixes, eq.text()
            assert basis == full_basis == want, eq.text()

    @settings(max_examples=40, deadline=None)
    @given(sides=equation_sides)
    @example(sides=([2, 6], [2, 4, 3, 1]))
    def test_blockers_fit_the_packing(self, sides):
        # Every blocker the walk files or tests is packed by its weights'
        # packing with no guard bit set, and every filed one is a balanced
        # nonzero prefix, zero on the tail, within the Huet caps.  Every
        # leaf gets the prefix packed the same way, with no guard bit set.
        eq = Equation(tuple(sides[0]), tuple(sides[1]))
        walks = []  # per walk: weights, tail positions, filed, tested, leaves

        def recording_walk(w, order, tail, leaf, assigned, **kwargs):
            leaves = []
            walks.append((w, order[len(order) - tail :], [], [], leaves))

            def checked_leaf(d, pos_budget, neg_budget, p):
                assert p == w.packing.pack(assigned), (eq.text(), assigned)
                leaves.append(p)
                leaf(d, pos_budget, neg_budget, p)

            prefix_walk(w, order, tail, checked_leaf, assigned, **kwargs)

        class RecordingBlockers(PackedBuckets):
            def __init__(self, packing):
                assert packing is walks[-1][0].packing
                super().__init__(packing)

            def add(self, sol):
                walks[-1][2].append(sol)
                super().add(sol)

            def bounds(self, child, i):
                walks[-1][3].append(child)
                return super().bounds(child, i)

        prefix_walk = lex.prefix_walk
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lex, "PackedBuckets", RecordingBlockers)
            mp.setattr(lex, "prefix_walk", recording_walk)
            mp.setattr(slopes, "prefix_walk", recording_walk)
            runs = walk_runs(eq)
        want = oracle_basis(eq)
        assert all(basis == want for _, basis in runs)
        # Every lex variant walks; slopes does from three unknowns on.
        assert len(walks) == len(runs) - (eq.n < 3)
        for w, tail, filed, tested, leaves in walks:
            packing = w.packing
            assert leaves
            assert not any(p & packing.guards for p in filed + tested + leaves)
            for p in filed:
                x = packing.unpack(p)
                assert any(x) and defect(w, x) == 0, (eq.text(), x)
                assert not any(x[i] for i in tail), (eq.text(), x)
                for xi, wi in zip(x, w.w):
                    assert xi <= (w.max_b if wi > 0 else w.max_a), (eq.text(), x)


class TestTailSolveOne:
    def test_exact_division(self):
        w = WeightVector((1, -2))
        assert tail_solve(w, (2,), HUET_ONE) == [(2, 1)]

    def test_indivisible_residual(self):
        assert tail_solve(WeightVector((1, -2)), (1,), HUET_ONE) == []

    def test_zero_vector_excluded(self):
        assert tail_solve(WeightVector((1, -2)), (0,), HUET_ONE) == []

    def test_bound_enforced(self):
        # Residual forces the last coordinate above the per-coordinate cap.
        w = build_weights(Equation((5,), (1,)))
        assert tail_solve(w, (2,), HUET_ONE) == []  # needs y=10 > max_a=5
        assert tail_solve(w, (1,), HUET_ONE) == [(1, 5)]


class TestTailSolveTwo:
    def test_bound_can_empty_the_solution_set(self):
        # y - 2z = -3 has (y, z) = (1, 2), which the cap z <= 1 rejects.
        assert solve_two_var(1, -2, -3, 2, 1) == []
        assert solve_two_var(1, -2, -3, 2, 2) == [(1, 2)]

    def test_homogeneous_positive_pair(self):
        assert solve_two_var(3, 5, 0, 10, 10) == [(0, 0)]

    def test_positive_right_hand_side(self):
        # Frozen from a direct scan of the box x <= 5, y <= 3.
        scan = [
            (x, y)
            for x in range(6)
            for y in range(4)
            if 3 * x + 5 * y == 15
        ]
        assert scan == [(0, 3), (5, 0)]
        assert sorted(solve_two_var(3, 5, 15, 5, 3)) == scan

    def test_progression_not_scanned(self):
        # Large caps with few solutions: the parametrized walk stays short.
        got = solve_two_var(991, -997, 0, 100000, 100000)
        assert got == [(997 * t, 991 * t) for t in range(100000 // 997 + 1)]

    def test_sum_cap(self):
        assert solve_two_var(1, 1, 4, 4, 4) == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]
        assert solve_two_var(1, 1, 4, 4, 4, sum_cap=3) == []
        # The default cap is infinite and never binds.
        assert solve_two_var(1, 1, 4, 4, 4, sum_cap=math.inf) == solve_two_var(
            1, 1, 4, 4, 4
        )

    def test_equation_level_completions(self):
        # Prefix x=1 of 5x = 3y + 2z leaves 3y + 2z = 5, whose only natural
        # solution is (1, 1).
        w = build_weights(Equation((5,), (3, 2)))
        assert tail_solve(w, (1,), LAMBERT_TWO) == [(1, 1, 1)]

    def test_zero_prefix_drops_zero_completion(self):
        w = build_weights(Equation((5,), (3, 2)))
        got = tail_solve(w, (0,), LAMBERT_TWO)
        assert (0, 0, 0) not in got


class TestTwoVarEdgeCases:
    def test_matches_brute_scan(self):
        from hypothesis import given
        from hypothesis import strategies as st

        nonzero = st.integers(-9, 9).filter(lambda v: v != 0)

        @given(nonzero, nonzero, st.integers(-30, 30), st.integers(0, 12), st.integers(0, 12))
        def check(s, t, c, bx, by):
            scan = [
                (x, y)
                for x in range(bx + 1)
                for y in range(by + 1)
                if s * x + t * y == c
            ]
            assert solve_two_var(s, t, c, bx, by) == scan

        check()

    def test_no_solution_when_gcd_fails(self):
        assert solve_two_var(4, 6, 3, 100, 100) == []

    def test_mixed_signs(self):
        got = solve_two_var(3, -2, 1, 10, 10)
        assert all(3 * x - 2 * y == 1 for x, y in got)
        scan = [(x, y) for x in range(11) for y in range(11) if 3 * x - 2 * y == 1]
        assert sorted(got) == scan

    def test_rejects_zero_coefficients(self):
        with pytest.raises(ValueError):
            solve_two_var(0, 1, 0, 1, 1)
