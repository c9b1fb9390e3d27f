"""Completion procedure: step semantics, uniqueness, level invariants."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diobasis import completion
from diobasis.completion import (
    CompletionStats,
    completion_solve,
    completion_step,
    expand,
    initial_proposals,
)
from diobasis.core import (
    Deadline,
    Equation,
    PackedBuckets,
    TimeLimitError,
    WeightVector,
    build_weights,
    defect,
    is_dominated,
    oracle_basis,
    parse_equation,
)
from diobasis.lex import lex_solve


def random_equation(rng, max_coeff=7, max_side=3):
    lhs = tuple(rng.randint(1, max_coeff) for _ in range(rng.randint(1, max_side)))
    rhs = tuple(rng.randint(1, max_coeff) for _ in range(rng.randint(1, max_side)))
    return Equation(lhs, rhs)


def unpacked(w, walks):
    """Walks with their vectors unpacked to tuples."""
    return [(w.packing.unpack(x), d) for x, d in walks]


def packed(w, walks):
    """Walks given with tuple vectors, packed."""
    return [(w.packing.pack(x), d) for x, d in walks]


def never(child, i):
    """A bucket test that bounds no child: the unpruned step."""
    return False


class TestCompletionSolve:
    def test_one_equals_two(self):
        assert completion_solve((1, -2)) == [(2, 1)]

    def test_balanced_pair(self):
        assert completion_solve((1, -1)) == [(1, 1)]

    def test_three_unknowns(self):
        assert completion_solve((2, 1, -1)) == [(0, 1, 1), (1, 0, 2)]

    def test_matches_oracle_and_lex(self):
        rng = random.Random(2024)
        for _ in range(80):
            eq = random_equation(rng)
            want = oracle_basis(eq)
            assert completion_solve(eq) == want == lex_solve(eq), eq.text()


class TestCompletionStep:
    def test_seeds_are_positive_side_units(self):
        w = WeightVector((2, 1, -1))
        seeds = initial_proposals(w)
        assert unpacked(w, seeds) == [((1, 0, 0), 2), ((0, 1, 0), 1)]

    def test_two_sided_seeds_collide(self):
        # Fed both unit vectors, each extends toward the opposite sign and
        # meets in the same vector; the step does not look for duplicates.
        w = WeightVector((1, -2))
        walks = packed(w, [((1, 0), 1), ((0, 1), -2)])
        emitted, kept, children = completion_step(w, walks, never)
        assert (emitted, unpacked(w, kept), children) == ([], [((1, 1), -1)] * 2, 2)

    def test_one_sided_seeds_never_collide(self):
        w = WeightVector((1, -2))
        emitted, kept, children = completion_step(w, initial_proposals(w), never)
        assert (emitted, unpacked(w, kept), children) == ([], [((1, 1), -1)], 1)

    def test_single_step_solution(self):
        w = WeightVector((1, -1))
        emitted, kept, children = completion_step(w, initial_proposals(w), never)
        assert (list(map(w.packing.unpack, emitted)), kept, children) == ([(1, 1)], [], 1)

    def test_check_invariants_raises_on_two_sided_seeds(self, monkeypatch):
        monkeypatch.setattr(
            completion,
            "initial_proposals",
            lambda w: packed(w, [((1, 0), 1), ((0, 1), -2)]),
        )
        with pytest.raises(AssertionError, match="duplicate walk"):
            completion_solve((1, -2), check_invariants=True)

    def test_no_zero_defect_proposals_survive(self):
        w = WeightVector((3, 2, -4, -1))
        walks = initial_proposals(w)
        found = PackedBuckets(w.packing)
        for _ in range(20):
            solutions, walks, _ = completion_step(w, walks, found.bounds)
            for s in solutions:
                found.add(s)
            assert all(d != 0 for _, d in walks)
            if not walks:
                break

    @settings(max_examples=60, deadline=None)
    @given(
        lhs=st.lists(st.integers(1, 7), min_size=1, max_size=3),
        rhs=st.lists(st.integers(1, 7), min_size=1, max_size=3),
    )
    def test_unpruned_levels_are_unique_and_confined(self, lhs, rhs):
        # The scan rule alone, with no dominance prune: every vector has one
        # path, so no walk or emission repeats within a level.  Unpruned
        # walks can outgrow the packing of w (w = (3, 2, -2) reaches
        # (1, 2, 4) at level 6), so the step runs on 8w: the scan rule reads
        # only the signs of the defects, so the walks are the same, the
        # defects are 8 times w's, and coordinates up to 7 fit its fields.
        w = WeightVector(tuple(lhs) + tuple(-b for b in rhs))
        scaled = WeightVector(tuple(8 * wi for wi in w.w))
        unpack, guards = scaled.packing.unpack, scaled.packing.guards
        walks = initial_proposals(scaled)
        for level in range(1, 7):
            emitted, walks, children = completion_step(scaled, walks, never)
            assert children == len(emitted) + len(walks)
            assert len(set(emitted)) == len(emitted)
            assert len(set(walks)) == len(walks)
            assert not any(p & guards for p in emitted + [x for x, _ in walks])
            for sol in map(unpack, emitted):
                assert defect(w, sol) == 0
                assert sum(sol) == level + 1
            for x, scaled_d in unpacked(scaled, walks):
                d, rest = divmod(scaled_d, 8)
                assert rest == 0
                assert d == defect(w, x) != 0
                assert 1 - w.max_b <= d <= w.max_a - 1
                assert sum(x) == level + 1


class CountingDeadline:
    """Counts its checks and expires on check number ``expire_at``."""

    def __init__(self, expire_at=None):
        self.checks = 0
        self.expire_at = expire_at

    def check(self):
        self.checks += 1
        if self.checks == self.expire_at:
            raise TimeLimitError("expired")


def filed(w, solutions):
    """A fresh bucket table holding ``solutions``."""
    found = PackedBuckets(w.packing)
    for sol in solutions:
        found.add(sol)
    return found


class TestCompletionDeadline:
    """``expand`` checks the deadline before each slice of 256 walks of a
    level, its first slice included."""

    @pytest.fixture(scope="class")
    def wide_level(self):
        # The showcase: its level 11 is the first of 2,000 walks or more.
        w = build_weights(parse_equation("104 167 = 165 154 148 159 174 150"))
        walks, found = initial_proposals(w), PackedBuckets(w.packing)
        while len(walks) < 2000:
            assert walks, "the search ended below 2,000 walks"
            emissions, walks, _ = completion_step(w, walks, found.bounds)
            for sol in emissions:
                found.add(sol)
        return w, walks, found.solutions

    @pytest.mark.parametrize(
        "width, checks", [(1, 1), (256, 1), (257, 2), (512, 2), (513, 3)]
    )
    def test_deadline_is_checked_every_256_walks(self, wide_level, width, checks):
        # The level's last walks branch more than its first: each slice of
        # them has more than ``width`` children alive, so the call stops
        # after one level.
        w, walks, solutions = wide_level
        stats, deadline = CompletionStats(), CountingDeadline()
        expand(w, walks[-width:], filed(w, solutions), stats, deadline, width=width)
        assert stats.levels == 1
        assert deadline.checks == checks

    def test_deadline_is_checked_inside_a_level(self, wide_level):
        w, walks, solutions = wide_level
        stats, deadline = CompletionStats(), CountingDeadline(expire_at=2)
        with pytest.raises(TimeLimitError):
            expand(w, walks, filed(w, solutions), stats, deadline, width=len(walks))
        assert deadline.checks == 2 and 256 < len(walks)
        # Only finished levels are counted.
        assert (stats.levels, stats.walks_expanded, stats.children) == (0, 0, 0)


class TestLoopDeadline:
    """``expand`` checks the deadline once per level, and again before
    every further slice of 256 walks."""

    def test_one_check_per_narrow_level(self):
        w = build_weights(parse_equation("335 = 473 1021"))
        stats, deadline = CompletionStats(), CountingDeadline()
        expand(w, initial_proposals(w), PackedBuckets(w.packing), stats, deadline)
        assert (stats.levels, stats.max_frontier) == (1355, 19)
        assert deadline.checks == stats.levels

    def test_a_wide_level_is_also_checked_every_256_walks(self):
        w = build_weights(parse_equation("104 167 = 165 154 148 159 174 150"))
        walks, found = initial_proposals(w), PackedBuckets(w.packing)
        # A call stops at the first level wider than its first: here the
        # first level of at least 2,000 walks, as in TestCompletionDeadline.
        while len(walks) < 2000:
            assert walks, "the search ended below 2,000 walks"
            walks = expand(
                w, walks, found, CompletionStats(), Deadline(None), width=len(walks)
            )
        stats, deadline = CompletionStats(), CountingDeadline()
        expand(w, walks, found, stats, deadline, width=len(walks))
        assert stats.levels == 1
        assert deadline.checks == math.ceil(len(walks) / 256) == 9

    def test_an_expiry_mid_run_raises(self):
        w = build_weights(parse_equation("335 = 473 1021"))
        stats, deadline = CompletionStats(), CountingDeadline(expire_at=100)
        with pytest.raises(TimeLimitError):
            expand(w, initial_proposals(w), PackedBuckets(w.packing), stats, deadline)
        assert stats.levels == 99


class TestCompletionInvariants:
    def test_no_duplicate_emissions_on_corpus(self):
        # check_invariants raises on a duplicate emission or walk, on a
        # dominated emission and on a bucket verdict that is_dominated
        # contradicts.
        rng = random.Random(5)
        for _ in range(60):
            eq = random_equation(rng)
            stats = CompletionStats()
            basis = completion_solve(eq, stats=stats, check_invariants=True)
            assert basis == oracle_basis(eq)
            assert stats.insert.inserted == len(basis)

    def test_dominated_emission_raises(self):
        # s = (1, 1) is filed, and the walk (2, 1) emits its child 2s, which
        # s bounds; the walk's defect is 2 and no coordinate leaves its field.
        w = WeightVector((2, -2))
        found = filed(w, [w.packing.pack((1, 1))])
        walks = packed(w, [((2, 1), 2)])
        with pytest.raises(AssertionError, match=r"dominated emission \(2, 2\)"):
            expand(w, walks, found, CompletionStats(), Deadline(None), check=True)

    def test_level_sum_invariant(self):
        w = WeightVector((5, 3, -3, -2))
        walks = initial_proposals(w)
        level = 1
        found = PackedBuckets(w.packing)
        while walks:
            assert all(sum(x) == level for x, _ in unpacked(w, walks))
            solutions, walks, _ = completion_step(w, walks, found.bounds)
            for s in solutions:
                assert sum(w.packing.unpack(s)) == level + 1
                found.add(s)
            level += 1
            assert level < 60

    def test_defect_confinement(self):
        # Every child of the whole search, pruned ones included: the step
        # runs unpruned and the level is pruned after it by a full scan.
        # Its walks are the pruned search's, so every child fits the packing.
        rng = random.Random(9)
        for _ in range(40):
            eq = random_equation(rng)
            w = build_weights(eq)
            unpack = w.packing.unpack
            walks, found = initial_proposals(w), []
            while walks:
                emitted, kept, children = completion_step(w, walks, never)
                assert children == len(emitted) + len(kept)
                assert all(-w.max_b <= d <= w.max_a for _, d in kept)
                found = sorted(found + list(map(unpack, emitted)))
                walks = [(x, d) for x, d in kept if not is_dominated(found, unpack(x))]
            assert found == oracle_basis(eq)

    def test_single_signed_weights_have_empty_basis(self):
        assert completion_solve((2, 3)) == []
