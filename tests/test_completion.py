"""Completion procedure: step semantics, uniqueness, level invariants."""

import random

import pytest

from diobasis.completion import (
    CompletionStats,
    Proposal,
    completion_solve,
    completion_step,
    initial_proposals,
)
from diobasis.core import (
    DominanceBuckets,
    Equation,
    TimeLimitError,
    WeightVector,
    build_weights,
    oracle_basis,
    parse_equation,
)
from diobasis.lex import lex_solve


def random_equation(rng, max_coeff=7, max_side=3):
    lhs = tuple(rng.randint(1, max_coeff) for _ in range(rng.randint(1, max_side)))
    rhs = tuple(rng.randint(1, max_coeff) for _ in range(rng.randint(1, max_side)))
    return Equation(lhs, rhs)


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
        assert seeds == [Proposal((1, 0, 0), 2), Proposal((0, 1, 0), 1)]

    def test_first_step_of_one_equals_two(self):
        # Fed both unit vectors, each extends toward the opposite sign and
        # meets in the same vector; the step keeps a single copy of it.
        w = WeightVector((1, -2))
        pset = [Proposal((1, 0), 1), Proposal((0, 1), -2)]
        stats = CompletionStats()
        solutions, nxt = completion_step(
            w, pset, DominanceBuckets(2), stats=stats, check_invariants=True
        )
        assert solutions == []
        assert nxt == [Proposal((1, 1), -1)]
        assert stats.duplicate_proposals == 1

    def test_one_sided_seeds_never_collide(self):
        w = WeightVector((1, -2))
        stats = CompletionStats()
        seeds = initial_proposals(w)
        solutions, nxt = completion_step(
            w, seeds, DominanceBuckets(2), stats=stats, check_invariants=True
        )
        assert solutions == []
        assert nxt == [Proposal((1, 1), -1)]
        assert stats.duplicate_proposals == 0

    def test_single_step_solution(self):
        w = WeightVector((1, -1))
        solutions, nxt = completion_step(w, initial_proposals(w), DominanceBuckets(2))
        assert solutions == [(1, 1)]
        assert nxt == []

    def test_strict_mode_raises_on_collision(self):
        w = WeightVector((1, -2))
        pset = [Proposal((1, 0), 1), Proposal((0, 1), -2)]
        with pytest.raises(AssertionError):
            completion_step(
                w, pset, DominanceBuckets(2), check_invariants=True, strict=True
            )

    def test_no_zero_defect_proposals_survive(self):
        w = WeightVector((3, 2, -4, -1))
        pset = initial_proposals(w)
        found = DominanceBuckets(len(w))
        for _ in range(20):
            solutions, pset = completion_step(w, pset, found)
            for s in solutions:
                found.add(s)
            assert all(p.d != 0 for p in pset)
            if not pset:
                break


class TestCompletionDeadline:
    def test_deadline_is_checked_inside_a_level(self):
        w = build_weights(parse_equation("53 36 29 21 = 11 38 82 107"))
        proposals, found = initial_proposals(w), DominanceBuckets(len(w))
        while len(proposals) < 2000:
            emissions, proposals = completion_step(w, proposals, found)
            for sol in emissions:
                found.add(sol)

        class SecondCheckExpires:
            checks = 0

            def check(self):
                self.checks += 1
                if self.checks == 2:
                    raise TimeLimitError("expired")

        stats = CompletionStats()
        with pytest.raises(TimeLimitError):
            completion_step(w, proposals, found, stats=stats, deadline=SecondCheckExpires())
        assert 0 < stats.proposals_processed <= 256 < len(proposals)


class TestCompletionInvariants:
    def test_no_duplicate_emissions_on_corpus(self):
        rng = random.Random(5)
        for _ in range(60):
            eq = random_equation(rng)
            stats = CompletionStats()
            completion_solve(eq, stats=stats, check_invariants=True)
            assert stats.duplicate_emissions == 0
            assert stats.duplicate_proposals == 0
            # No emission is ever rejected or evicted: solutions arrive in
            # nondecreasing coordinate-sum order and are already minimal.
            assert stats.insert.rejected == 0
            assert stats.insert.evicted == 0

    def test_level_sum_invariant(self):
        w = WeightVector((5, 3, -3, -2))
        pset = initial_proposals(w)
        level = 1
        found = DominanceBuckets(len(w))
        while pset:
            assert all(sum(p.x) == level for p in pset)
            solutions, pset = completion_step(w, pset, found)
            for s in solutions:
                assert sum(s) == level + 1
                found.add(s)
            level += 1
            assert level < 60

    def test_defect_confinement(self):
        rng = random.Random(9)
        for _ in range(40):
            eq = random_equation(rng)
            w = build_weights(eq)
            stats = CompletionStats()
            completion_solve(eq, stats=stats, check_invariants=True)
            assert stats.min_defect_seen >= -w.max_b
            assert stats.max_defect_seen <= w.max_a

    def test_single_signed_weights_have_empty_basis(self):
        assert completion_solve((2, 3)) == []
