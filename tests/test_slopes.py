"""Slopes three-unknown solver, the residual descent, and the wrapper."""

import inspect
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diobasis import lex, slopes
from diobasis.core import (
    Deadline,
    Equation,
    TimeLimitError,
    dominated_or_equal,
    oracle_basis,
    pareto_min,
    parse_equation,
)
from diobasis.graph import graph_solve
from diobasis.slopes import (
    SlopesStats,
    _record_blocks,
    slopes3,
    slopes_solve,
    solve3_general,
)


def brute3(a, b, c, v, lim):
    """Independent scan oracle for a*x = b*y + c*z + v inside a box."""
    sols = []
    for x in range(lim + 1):
        for y in range(lim + 1):
            rest = a * x - b * y - v
            if rest >= 0 and rest % c == 0 and rest // c <= lim:
                if (x, y, rest // c) != (0, 0, 0):
                    sols.append((x, y, rest // c))
    return pareto_min(sols)


def scan3_reference(a, b, c, v, x_cap=math.inf, yz_cap=math.inf):
    """Congruence scan over every z of a period, then a Pareto filter: the
    reference that ``solve3_general``'s descent must reproduce."""
    period = a // math.gcd(a, c)
    z_top = min(period + (-(v // c) if v < 0 else 0), yz_cap)

    g = math.gcd(b, a)
    step = a // g
    bg = (b // g) % step
    inv = pow(bg, -1, step)

    candidates = []
    for z in range(z_top + 1):
        rhs = -v - c * z
        if rhs % g:
            continue
        y = ((rhs // g) % step) * inv % step
        if rhs > 0:
            y_floor = -((-rhs) // b)
            if y < y_floor:
                y += -((y - y_floor) // step) * step
        if v == 0 and z == 0 and y == 0:
            y += step
        if y + z > yz_cap:
            continue
        x, r = divmod(b * y + c * z + v, a)
        assert r == 0
        if x > x_cap:
            continue
        candidates.append((x, y, z))
    return pareto_min(candidates)


class TestSlopes3:
    def test_five_three_two(self):
        assert slopes3(5, 3, 2) == [(1, 1, 1), (2, 0, 5), (3, 5, 0)]

    def test_takes_the_coefficients_only(self):
        assert list(inspect.signature(slopes3).parameters) == ["a", "b", "c"]

    def test_all_ones(self):
        # (2, 1, 1) solves it too but is bounded by both.
        assert slopes3(1, 1, 1) == [(1, 0, 1), (1, 1, 0)]

    def test_first_seed_always_present(self):
        for a in range(1, 12):
            for b in range(1, 12):
                gb = math.gcd(a, b)
                assert (b // gb, a // gb, 0) in slopes3(a, b, 7)

    def test_descent_order_and_exactness(self):
        rng = random.Random(8)
        for _ in range(200):
            a, b, c = (rng.randint(1, 30) for _ in range(3))
            basis = slopes3(a, b, c)
            for x, y, z in basis:
                assert a * x == b * y + c * z
            # A staircase: ordered by z, z strictly rises and y strictly falls.
            steps = sorted((z, y) for _, y, z in basis)
            assert all(z0 < z1 and y0 > y1 for (z0, y0), (z1, y1) in zip(steps, steps[1:]))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 300), st.integers(1, 300))
    @example(1, 1, 1)
    @example(1021, 1020, 1019)
    @example(20011, 20010, 20009)
    def test_matches_filtered_scan(self, a, b, c):
        assert slopes3(a, b, c) == scan3_reference(a, b, c, 0)

    def test_pairwise_incomparable(self):
        for a, b, c in [(12, 8, 9), (7, 7, 7), (20, 3, 17)]:
            basis = slopes3(a, b, c)
            for s in basis:
                assert not any(dominated_or_equal(t, s) for t in basis if t != s)

    def test_matches_oracle_small_grid(self):
        for a in range(1, 13):
            for b in range(1, 13):
                for c in range(1, 13):
                    assert slopes3(a, b, c) == oracle_basis(Equation((a,), (b, c)))


class TestResidualSetup:
    """``_residual_setup``'s modular inverses: inv inverts b/g modulo step
    and c_inv inverts c/h modulo t, both reduced, including modulo 1."""

    @staticmethod
    def check(a, b, c):
        g, step, inv, h, t, c_inv = slopes._residual_setup(a, b, c)[:6]
        assert (g, step) == (math.gcd(a, b), a // math.gcd(a, b))
        assert (h, t) == (math.gcd(g, c), g // math.gcd(g, c))
        assert 0 <= inv < step and 0 <= c_inv < t
        assert inv * (b // g) % step == 1 % step
        assert c_inv * (c // h) % t == 1 % t
        return step, t

    @pytest.mark.parametrize(
        "a, b, moduli",
        [
            pytest.param(3, 5, (3, 1), id="3-5"),
            pytest.param(4, 6, (2, 2), id="4-6"),
            pytest.param(7, 7, (1, 7), id="7-7"),
            pytest.param(1, 1, (1, 1), id="1-1"),
            pytest.param(12, 18, (2, 6), id="12-18"),
            pytest.param(1021, 104, (1021, 1), id="1021-104"),
        ],
    )
    def test_inverses(self, a, b, moduli):
        assert self.check(a, b, 1) == moduli

    @given(st.integers(1, 10**6), st.integers(1, 10**6), st.integers(1, 10**6))
    def test_inverses_hold_generally(self, a, b, c):
        self.check(a, b, c)


class TestSolve3General:
    def test_record_blocks_list_the_record_minima(self):
        # The descent's moves: every k whose k*d mod m (0 read as m) is
        # below that of every earlier k, against a brute-force list.
        for m in range(1, 201):
            for d in range(m):
                want, low = [], m + 1
                for k in range(1, m + 1):
                    r = k * d % m or m
                    if r < low:
                        want.append((k, r))
                        low = r
                got = [
                    (k0 + j * dk, r0 - j * dr)
                    for last, r0, k0, dr, dk in _record_blocks(m, d)
                    for j in range((r0 - last) // dr + 1)
                ]
                assert got == want, (m, d)

    def test_v_zero_matches_filtered_scan(self):
        for a in range(1, 11):
            for b in range(1, 11):
                for c in range(1, 11):
                    assert solve3_general(a, b, c, 0) == scan3_reference(a, b, c, 0)

    def test_positive_offset(self):
        # 2x = 3y + 5z + 1; frozen from the scan oracle over x,y,z <= 10.
        want = brute3(2, 3, 5, 1, 10)
        assert want == [(2, 1, 0), (3, 0, 1)]
        assert solve3_general(2, 3, 5, 1) == want

    def test_negative_offset(self):
        got = solve3_general(1, 1, 1, -1)
        assert (0, 1, 0) in got and (0, 0, 1) in got
        assert got == [(0, 0, 1), (0, 1, 0)]

    def test_random_offsets_match_scan(self):
        rng = random.Random(17)
        for _ in range(150):
            a, b, c = (rng.randint(1, 9) for _ in range(3))
            v = rng.randint(-12, 12)
            got = solve3_general(a, b, c, v)
            boxed = [t for t in got if max(t) <= 40]
            assert boxed == brute3(a, b, c, v, 40), (a, b, c, v)

    def test_congruence_soundness(self):
        rng = random.Random(18)
        for _ in range(150):
            a, b, c = (rng.randint(1, 20) for _ in range(3))
            v = rng.randint(-15, 15)
            for x, y, z in solve3_general(a, b, c, v):
                assert (b * y + c * z + v) % a == 0
                assert a * x == b * y + c * z + v

    # v down to -5000 makes long scans over the lifted z (x >= 0 forces y
    # above its residue while c*z < -v) before the descent takes over.
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 600),
        st.integers(1, 600),
        st.integers(1, 600),
        st.integers(-5000, 600),
        st.just(math.inf) | st.integers(0, 1200),
        st.just(math.inf) | st.integers(0, 6000),
    )
    @example(5, 3, 2, 0, math.inf, math.inf)  # v = 0 skips the all-zero vector
    @example(6, 4, 3, -7, math.inf, math.inf)  # only every t = 2nd z is solvable
    @example(6, 4, 2, 1, math.inf, math.inf)  # no z is solvable: []
    # After the lift, a record over yz_cap (2, 5) and over x_cap (1, 5)
    # still bounds later triples; (0, 6) is kept after each.
    @example(9, 7, 5, -21, math.inf, 6)
    @example(3, 10, 7, -30, 4, math.inf)
    def test_staircase_matches_filtered_scan(self, a, b, c, v, x_cap, yz_cap):
        got = solve3_general(a, b, c, v, x_cap=x_cap, yz_cap=yz_cap)
        assert got == scan3_reference(a, b, c, v, x_cap=x_cap, yz_cap=yz_cap)

    # The slopes wrapper solves its all-zero prefix by this identity: the
    # capped v = 0 descent is slopes3 within the same caps.
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(1, 300),
        st.integers(1, 300),
        st.integers(0, 600),
        st.integers(0, 600),
    )
    @example(5, 3, 2, 2, 5)
    def test_caps_restrict_output(self, a, b, c, x_cap, yz_cap):
        capped = solve3_general(a, b, c, 0, x_cap=x_cap, yz_cap=yz_cap)
        full = slopes3(a, b, c)
        assert capped == [t for t in full if t[0] <= x_cap and t[1] + t[2] <= yz_cap]


class TestSlopesSolve:
    def test_direct_three_unknowns(self):
        eq = Equation((5,), (3, 2))
        assert slopes_solve(eq) == oracle_basis(eq) == [(1, 1, 1), (2, 0, 5), (3, 5, 0)]

    def test_delegates_below_three_unknowns(self):
        assert slopes_solve(Equation((1,), (2,))) == [(2, 1)]

    def test_four_unknowns(self):
        eq = Equation((2, 1), (1, 1))
        assert slopes_solve(eq) == oracle_basis(eq)

    def test_single_rhs_unknown_mirrored(self):
        eq = Equation((2, 3), (5,))
        assert slopes_solve(eq) == oracle_basis(eq)

    def test_equals_graph_on_random_corpus(self):
        rng = random.Random(23)
        for _ in range(80):
            lhs = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 3)))
            rhs = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 3)))
            eq = Equation(lhs, rhs)
            assert slopes_solve(eq) == graph_solve(eq), eq.text()


def oracle_of_weights(weights):
    """The oracle's basis of a signed weight sequence, in its own order."""
    pos = [i for i, wi in enumerate(weights) if wi > 0]
    neg = [i for i, wi in enumerate(weights) if wi < 0]
    eq = Equation(tuple(weights[i] for i in pos), tuple(-weights[i] for i in neg))
    basis = []
    for sol in oracle_basis(eq):
        full = [0] * len(weights)
        for i, x in zip(pos + neg, sol):
            full[i] = x
        basis.append(tuple(full))
    return sorted(basis)


def walk_without_floors(*args, floors=None, **kwargs):
    """``prefix_walk`` with the floor test taken out."""
    return lex.prefix_walk(*args, **kwargs)


class TestFloorPrune:
    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.tuples(
            st.lists(st.integers(1, 7), min_size=1, max_size=2),
            st.lists(st.integers(1, 9), min_size=3, max_size=5),
        ).flatmap(
            lambda sides: st.one_of(
                st.just(sides[0] + [-b for b in sides[1]]),
                st.permutations(sides[0] + [-b for b in sides[1]]),
            )
        )
    )
    # One enumerated position, -3: its value 3 leaves the residual
    # (1, 0, 0), and the floor breaks the loop there (5 prefixes, not 11).
    @example(weights=[9, -3, -7, -9])
    # Slopes enumerates -3, then 2.  A floor found below -3's value 1 must
    # not break that loop: the positive position after it can undo the
    # deficit, and a loop break there loses basis members.
    @example(weights=[3, -3, -1, 2, -6])
    def test_floors_keep_the_basis_and_only_cut(self, weights):
        # Slopes enumerates one to three negative positions here, in
        # equation order or shuffled among the positive ones.
        want = oracle_of_weights(weights)
        floored = SlopesStats()
        assert slopes_solve(weights, stats=floored) == want
        unfloored = SlopesStats()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(slopes, "prefix_walk", walk_without_floors)
            assert slopes_solve(weights, stats=unfloored) == want
        assert floored.prefixes <= unfloored.prefixes
        assert floored.candidates <= unfloored.candidates


class TestSlopesCounters:
    # (prefixes, residuals_direct, residuals_scan, candidates,
    # residual_steps), pinned so that any change to the walk's pruning or
    # to the residual descent shows.  Each comes with an upper bound, field
    # by field: the figures from before the walk broke its loops above the
    # found (x, 0, 0) solutions.  Those were in turn no higher than the
    # walk's before it pruned by any found solution, the candidates from
    # before a balanced nonzero prefix became its leaf's only candidate,
    # and the z values the congruence scan visited before the descent.
    # "6 4 3 = 7" is solved mirrored; "7 3 = 5 4 2" and wider enumerate two
    # or more unknowns.
    COUNTERS = {
        "5 = 3 2": ((1, 1, 0, 3, 0), (1, 1, 0, 3, 0)),
        "6 4 3 = 7": ((9, 1, 7, 10, 10), (9, 1, 7, 10, 10)),
        "3 2 = 4 1": ((6, 1, 4, 11, 15), (6, 1, 4, 11, 15)),
        "7 3 = 5 4 2": ((33, 2, 24, 57, 87), (41, 2, 32, 66, 103)),
        "4 6 = 5 3 2 7": ((109, 4, 61, 99, 138), (170, 4, 109, 130, 197)),
        "9 5 2 = 8 6 3": ((199, 6, 138, 127, 180), (255, 6, 194, 158, 212)),
    }

    @pytest.mark.parametrize("text", list(COUNTERS))
    def test_counters_pinned(self, text):
        stats = SlopesStats()
        eq = parse_equation(text)
        assert slopes_solve(eq, stats=stats) == oracle_basis(eq)
        got = (
            stats.prefixes,
            stats.residuals_direct,
            stats.residuals_scan,
            stats.candidates,
            stats.residual_steps,
        )
        pinned, bound = self.COUNTERS[text]
        assert got == pinned
        assert all(g <= u for g, u in zip(got, bound))

    def test_hard_case(self):
        # About 0.1 s, because the walk breaks its loops above the balanced
        # prefixes and the (x, 0, 0) solutions it has met.  With the
        # balanced prefixes alone it made 41,307 prefixes and 50,621
        # candidates in about 0.3 s; with neither prune, 311,973 prefixes
        # and 478,260 candidates in about 3.3 s.  The residual descent
        # visits 130,709 z, where the congruence scan visited 415,176
        # without the floors.
        stats = SlopesStats()
        eq = parse_equation("39 20 7 = 39 30 11 3")
        basis = slopes_solve(eq, stats=stats)
        assert len(basis) == 142
        assert basis == graph_solve(eq)
        got = (
            stats.prefixes,
            stats.residuals_direct,
            stats.residuals_scan,
            stats.candidates,
            stats.residual_steps,
        )
        assert got == (8939, 19, 4282, 10975, 130709)
        assert all(g <= u for g, u in zip(got, (41307, 19, 32554, 50621, 193040)))


class TestSlopesLimits:
    HARD = Equation((1021,), (1020, 1019, 1018))

    # One enumerated unknown, each of its values followed by a residual
    # descent: the first equation makes 1,021 residuals and 87,724
    # candidates in about 0.9 s, and the second runs for more than 5 s.  At
    # a near 2^20 the all-zero prefix's v = 0 staircase (174,765 triples
    # within its caps) and each residual staircase after it are long
    # descents, so the limit falls inside one and is caught by its
    # every-4096-steps deadline check.
    @pytest.mark.parametrize(
        "eq",
        [
            HARD,
            Equation((20011,), (20010, 20009, 20008)),
            Equation((1048573,), (1048572, 1048571, 1048570)),
        ],
        ids=Equation.text,
    )
    def test_time_limit_is_honoured(self, eq):
        start = time.perf_counter()
        with pytest.raises(TimeLimitError):
            slopes_solve(eq, time_limit=0.3)
        assert time.perf_counter() - start < 0.3 + 0.5

    def test_long_residual_scan_checks_the_deadline(self):
        # One descent through 524,287 triples, 0.4 s without a deadline.
        start = time.perf_counter()
        with pytest.raises(TimeLimitError):
            solve3_general(1048573, 1048572, 1048571, -1, deadline=Deadline(0.05))
        assert time.perf_counter() - start < 0.05 + 0.5

    def test_floors_finish_a_former_timeout(self):
        # Slopes enumerates -22, -117 and -145, all negative, so no nonzero
        # prefix ever balances.  Without the floors the walk ran past 20 s
        # (4.9 M prefixes); with them it makes 10,366 in about 0.1 s.
        eq = parse_equation("434 = 22 117 145 238 503")
        basis = slopes_solve(eq, time_limit=10)
        assert len(basis) == 366
        assert basis == graph_solve(eq)

    @pytest.mark.slow
    def test_large_final_filter_stays_on_the_index(self):
        # 1,570,907 candidates for a 1,060-element basis.  The final filter
        # once took the quadratic row path, counting every candidate as
        # kept, and the solve ran about 60 s.
        eq = parse_equation("70 60 44 = 7 50 77 107")
        basis = slopes_solve(eq, time_limit=30)
        assert len(basis) == 1060
        assert basis == graph_solve(eq)

    @pytest.mark.slow
    def test_hard_case_finishes_within_its_limit(self):
        assert len(slopes_solve(self.HARD, time_limit=60)) == 87384
