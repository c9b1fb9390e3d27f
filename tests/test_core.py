"""Core types, dominance machinery, shared arithmetic, and the oracle."""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diobasis import core
from diobasis.core import (
    COEFFICIENT_LIMIT,
    Bounds,
    CoefficientRangeError,
    Deadline,
    Equation,
    EquationFormatError,
    InsertStats,
    OracleBoxError,
    TimeLimitError,
    WeightVector,
    bounds,
    build_weights,
    defect,
    dominated_or_equal,
    dominates,
    ext_gcd,
    format_basis,
    insert_minimal,
    oracle_basis,
    oracle_box_size,
    pareto_min,
    parse_equation,
    shared_weights,
    solve_normalized,
)
from diobasis.bench import SOLVERS
from diobasis.completion import CompletionStats
from diobasis.graph import GraphStats, graph_solve
from diobasis.lex import LexStats
from diobasis.slopes import SlopesStats

EQ6 = Equation((104, 167), (165, 154, 148, 159, 174, 150))


class TestBuildWeights:
    def test_single_coefficients(self):
        w = build_weights(Equation((1,), (2,)))
        assert w.w == (1, -2)
        assert (w.max_a, w.max_b) == (1, 2)

    def test_two_sided(self):
        assert build_weights(Equation((2, 3), (1, 4, 5))).w == (2, 3, -1, -4, -5)

    def test_large_application_equation(self):
        w = build_weights(EQ6)
        assert w.w == (104, 167, -165, -154, -148, -159, -174, -150)
        assert (w.max_a, w.max_b) == (167, 174)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(CoefficientRangeError):
            Equation((), (1,))
        with pytest.raises(CoefficientRangeError):
            Equation((1,), (0,))
        with pytest.raises(CoefficientRangeError):
            Equation((COEFFICIENT_LIMIT + 1,), (1,))


class TestDefect:
    def test_zero(self):
        assert defect(WeightVector((1, -2)), (2, 1)) == 0

    def test_negative(self):
        assert defect(WeightVector((1, -2)), (1, 1)) == -1

    def test_balanced_three_unknowns(self):
        # (1,1,1) really is a basis member of 5x = 3y + 2z per the oracle.
        assert (1, 1, 1) in oracle_basis(Equation((5,), (3, 2)))
        assert defect(WeightVector((5, -3, -2)), (1, 1, 1)) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            defect(WeightVector((1, -2)), (1, 2, 3))


vectors = st.integers(1, 6).flatmap(
    lambda n: st.tuples(*([st.integers(0, 9)] * n))
)
vector_pairs = st.integers(1, 6).flatmap(
    lambda n: st.tuples(
        st.tuples(*([st.integers(0, 9)] * n)), st.tuples(*([st.integers(0, 9)] * n))
    )
)
vector_triples = st.integers(1, 5).flatmap(
    lambda n: st.tuples(
        *(st.tuples(*([st.integers(0, 6)] * n)) for _ in range(3))
    )
)


class TestDominance:
    def test_spec_examples(self):
        assert dominates((1, 1), (2, 2))
        assert not dominates((1, 1), (1, 1))
        assert not dominates((1, 0, 2), (0, 1, 1))

    @given(vectors)
    def test_irreflexive(self, v):
        assert not dominates(v, v)

    @given(vector_pairs)
    def test_antisymmetric(self, pair):
        s, t = pair
        assert not (dominates(s, t) and dominates(t, s))

    @given(vector_triples)
    def test_transitive(self, triple):
        s, t, u = triple
        if dominates(s, t) and dominates(t, u):
            assert dominates(s, u)

    @given(
        st.integers(1, 5).flatmap(
            lambda n: st.tuples(
                st.lists(st.tuples(*([st.integers(0, 3)] * n)), max_size=8),
                st.tuples(*([st.integers(0, 3)] * n)),
            )
        )
    )
    @example(([], (0, 1)))
    @example(([(1, 2), (0, 3), (2, 2)], (1, 2)))
    def test_kernel_is_the_elementwise_test(self, case):
        # Small values make equal vectors and equal coordinates common.
        basis, v = case
        for t in basis + [v]:
            below = [a <= b for a, b in zip(t, v)]
            assert dominated_or_equal(t, v) == all(below)
            assert dominates(t, v) == (all(below) and t != v)
        basis = sorted(set(basis))
        expected = any(all(a <= b for a, b in zip(t, v)) for t in basis)
        assert core.is_dominated(basis, v) == expected

    @given(vector_pairs)
    def test_linearity_of_defect(self, pair):
        s, t = pair
        w = WeightVector(tuple((-1) ** i * (i + 1) for i in range(len(s))))
        both = tuple(a + b for a, b in zip(s, t))
        assert defect(w, both) == defect(w, s) + defect(w, t)


class TestInsertMinimal:
    def test_into_empty(self):
        assert insert_minimal([], (1, 1)) == [(1, 1)]

    def test_dominated_rejected(self):
        assert insert_minimal([(1, 1)], (2, 2)) == [(1, 1)]

    def test_dominating_replaces(self):
        assert insert_minimal([(2, 2)], (1, 1)) == [(1, 1)]

    def test_stats(self):
        stats = InsertStats()
        basis = []
        insert_minimal(basis, (2, 2), stats)
        insert_minimal(basis, (2, 2), stats)
        insert_minimal(basis, (1, 1), stats)
        assert (stats.inserted, stats.rejected, stats.evicted) == (2, 1, 1)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12))
    def test_order_independent(self, sols):
        sols = [s for s in sols if any(s)]
        forward = []
        backward = []
        for s in sols:
            insert_minimal(forward, s)
        for s in reversed(sols):
            insert_minimal(backward, s)
        assert forward == backward == pareto_min(sols)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)), max_size=15))
    def test_pairwise_incomparable(self, sols):
        basis = []
        for s in sols:
            insert_minimal(basis, s)
        for i, s in enumerate(basis):
            for j, t in enumerate(basis):
                if i != j:
                    assert not dominated_or_equal(s, t)
        assert basis == sorted(basis)


class TestDominanceIndex:
    @pytest.mark.parametrize(
        "chunk_bytes", [core._TEST_CHUNK_BYTES, 16], ids=["whole", "chunked"]
    )
    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 4),
        sizes=st.lists(st.integers(3, 40), min_size=1, max_size=4),
    )
    def test_any_dominator_is_the_brute_force_test(self, chunk_bytes, data, n, sizes):
        # Batches of 1, 2 and more rows all take the one vectorized insert;
        # over 128 rows cross two 64-bit word boundaries and grow the
        # capacity twice.  At 16 bytes a test splits its candidates into
        # chunks of one or two rows.
        row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
        rows = data.draw(st.lists(row, min_size=130, max_size=150))
        rows = np.array(rows, dtype=np.int32)
        cands = data.draw(st.lists(row, max_size=20))
        cands = np.array(cands, dtype=np.int32).reshape(-1, n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_TEST_CHUNK_BYTES", chunk_bytes)
            index = core.DominanceIndex(n, 4)
            assert not index.any_dominator(cands).any()
            lo = 0
            for size in itertools.cycle([1, 2, *sizes]):
                if lo >= len(rows):
                    break
                index.add(rows[lo : lo + size])
                lo += size
                expected = (rows[None, :lo] <= cands[:, None]).all(axis=2).any(axis=1)
                assert index.any_dominator(cands).tolist() == expected.tolist()
            assert index.any_dominator(cands[:0]).shape == (0,)


class TestDominanceBuckets:
    @settings(max_examples=60, deadline=None)
    @given(
        lhs=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        rhs=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    )
    def test_bucket_verdict_is_the_full_scan(self, lhs, rhs):
        # Completion's search by coordinate sum, without its scan rule so
        # that every child is reached from every parent: each nonzero-defect
        # child is tested against the solutions of smaller sum.
        w = build_weights(Equation(tuple(lhs), tuple(rhs))).w
        n = len(w)
        found, sorted_found = core.DominanceBuckets(n), []
        level = {tuple(int(j == i) for j in range(n)): w[i] for i in range(n) if w[i] > 0}
        while level:
            emitted, nxt = set(), {}
            for x, d in level.items():
                for i in range(n):
                    if d * w[i] > 0:
                        continue
                    child = x[:i] + (x[i] + 1,) + x[i + 1 :]
                    if d + w[i] == 0:
                        emitted.add(child)
                        continue
                    hit = found.bounds(child, i)
                    assert hit == core.is_dominated(sorted_found, child), (w, child)
                    if not hit:
                        nxt[child] = d + w[i]
            for sol in emitted:
                found.add(sol)
                insert_minimal(sorted_found, sol)
            level = nxt
        assert sorted_found == oracle_basis(Equation(tuple(lhs), tuple(rhs)))


def pareto_reference(vecs):
    """One vector at a time in ascending coordinate sum, then sorted: a
    sweep order of its own, the reference for both paths of pareto_min."""
    kept = []
    for v in sorted(set(vecs), key=lambda v: (sum(v), v)):
        if not any(dominated_or_equal(k, v) for k in kept):
            kept.append(v)
    return sorted(kept)


class TestParetoMin:
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)), max_size=40))
    def test_minimal_and_covering(self, vecs):
        out = pareto_min(vecs)
        assert out == pareto_reference(vecs)
        for v in vecs:
            assert any(dominated_or_equal(k, v) for k in out)
        for k in out:
            assert not any(dominates(other, k) for other in out)

    def test_numpy_path_matches_small_path(self):
        vecs = [(i % 7, (i * 3) % 5, (i * 5) % 11) for i in range(700)]
        assert pareto_min(vecs) == pareto_reference(vecs)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 6),
        top=st.sampled_from([3, 60, 2**20]),
        count=st.integers(513, 900),
        duplicates=st.integers(0, 200),
        front=st.integers(0, 200),
    )
    @example(seed=1, n=3, top=2**20, count=600, duplicates=50, front=200)
    @example(seed=2, n=5, top=3, count=900, duplicates=200, front=150)
    def test_numpy_path_matches_python_path(self, seed, n, top, count, duplicates, front):
        # A random cloud (top 3: many duplicates and crowded equal-sum
        # groups; top 2**20: rank compression) plus an antichain of
        # ``front`` vectors that the cloud never dominates, so over 128
        # vectors are kept and the index grows its word count twice.  Only
        # antichain members i - 1 and i dominate shadow i, so dominators
        # sit in every word of the index.
        rng = random.Random(seed)
        cloud = [
            tuple(rng.randint(0, top) for _ in range(2))
            + tuple(rng.randint(1, top) for _ in range(n - 2))
            for _ in range(count)
        ]
        antichain = [(i, front - i) + (0,) * (n - 2) for i in range(front)]
        shadows = [(i, front - i + 1) + (0,) * (n - 2) for i in range(front)]
        vecs = cloud + antichain + shadows + rng.choices(cloud, k=duplicates)
        rng.shuffle(vecs)
        if len(set(vecs)) <= 512:
            vecs += [(2**20 - i, i) + (2**20,) * (n - 2) for i in range(513)]
        got = pareto_min(vecs)
        assert got == pareto_reference(vecs)
        assert set(antichain) <= set(got)
        assert not set(shadows) & set(got)

    def test_row_path_matches_python_path(self, monkeypatch):
        # Past the index budget the sweep tests one row at a time.
        monkeypatch.setattr(core, "_INDEX_BYTES", 0)
        vecs = [(i % 7, (i * 3) % 5, (i * 5) % 11) for i in range(700)]
        vecs += [(i, 300 - i, 0) for i in range(300)]
        assert pareto_min(vecs) == pareto_reference(vecs)

    def test_numpy_path_checks_the_deadline_before_ranking(self, monkeypatch):
        # Building, sorting and ranking half a million vectors takes most of
        # a second, so an expired deadline must stop the setup early.
        class ExpiredDeadline:
            def check(self):
                raise TimeLimitError("expired")

        def unique(*args, **kwargs):
            pytest.fail("pareto_min ranked its columns past an expired deadline")

        monkeypatch.setattr(core.np, "unique", unique)
        vecs = [(i, 600 - i) for i in range(600)]
        with pytest.raises(TimeLimitError):
            pareto_min(vecs, deadline=ExpiredDeadline())

    @pytest.mark.parametrize("budget", [core._INDEX_BYTES, 0], ids=["index", "rows"])
    def test_numpy_path_honours_deadline(self, monkeypatch, budget):
        monkeypatch.setattr(core, "_INDEX_BYTES", budget)
        vecs = [(i, 600 - i) for i in range(600)]
        with pytest.raises(TimeLimitError):
            pareto_min(vecs, deadline=Deadline(-1.0))


class TestBounds:
    def test_single_unknown_sides(self):
        b = bounds(Equation((1,), (2,)))
        assert b == Bounds(huet_lhs=2, huet_rhs=1, lambert_lhs_sum=2, lambert_rhs_sum=1)

    def test_read_off_maxima(self):
        b = bounds(Equation((2, 3), (5,)))
        assert b.lambert_lhs_sum == 5
        assert b.lambert_rhs_sum == 3

    def test_application_equation(self):
        b = bounds(EQ6)
        assert b.lambert_lhs_sum == 174
        assert b.lambert_rhs_sum == 167

    def test_oracle_members_satisfy_both_bound_families(self):
        for eq in [
            Equation((2, 3), (4,)),
            Equation((5,), (3, 2)),
            Equation((3, 4), (2, 5)),
            Equation((1, 2, 3), (3, 1)),
        ]:
            b = bounds(eq)
            l = len(eq.lhs)
            for sol in oracle_basis(eq):
                lhs, rhs = sol[:l], sol[l:]
                assert sum(lhs) <= b.lambert_lhs_sum
                assert sum(rhs) <= b.lambert_rhs_sum
                assert all(x <= b.huet_lhs for x in lhs)
                assert all(y <= b.huet_rhs for y in rhs)


class TestExtGcd:
    @pytest.mark.parametrize(
        "a,b", [(3, 5), (4, 6), (7, 7), (1, 1), (12, 18), (1021, 104)]
    )
    def test_bezout_identity(self, a, b):
        g, ma, mb = ext_gcd(a, b)
        assert g == math.gcd(a, b)
        assert ma * a + mb * b == g

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    def test_identity_holds_generally(self, a, b):
        g, ma, mb = ext_gcd(a, b)
        assert g == math.gcd(a, b) == ma * a + mb * b


def normalized(weights):
    """``solve_normalized`` over a search that records the weight vectors it
    gets and solves them with the graph solver."""
    seen = []

    def search(w):
        seen.append(w.w)
        return graph_solve(w.w)

    return solve_normalized(weights, search), seen


class TestNormalizeZeroWeights:
    def test_fully_cancelling_shared_unknown(self):
        basis, seen = normalized(shared_weights([2], [2]))
        assert basis == [(1,)]
        assert seen == []

    def test_pass_through(self):
        basis, seen = normalized((2, 3, -1))
        assert seen == [(2, 3, -1)]
        assert basis == [(0, 1, 3), (1, 0, 2)]
        # Without zeros the search's basis comes back as it is.
        found = [(1, 0, 2)]
        assert solve_normalized((2, 3, -1), lambda w: found) is found

    def test_middle_zero(self):
        basis, seen = normalized((1, 0, -1))
        assert seen == [(1, -1)]
        assert basis == [(0, 1, 0), (1, 0, 1)]

    def test_solve_shared_equation(self):
        # x1 + 3*x2 = 2*x1 + x2 over the same unknowns: weights (-1, 2).
        for name, solve in SOLVERS.items():
            assert solve(shared_weights([1, 3], [2, 1])) == [(2, 1)], name

    def test_solve_shared_with_unit(self):
        for name, solve in SOLVERS.items():
            assert solve([1, 0, -1]) == [(0, 1, 0), (1, 0, 1)], name

    def test_zeros_and_a_common_factor(self):
        basis, seen = normalized([4, 0, -6])
        assert seen == [(2, -3)]
        assert basis == [(0, 1, 0), (3, 0, 2)]
        for name, solve in SOLVERS.items():
            assert solve([4, 0, -6]) == [(0, 1, 0), (3, 0, 2)], name

    def test_one_sign_left_has_only_unit_members(self):
        cases = [
            ((2, 3), []),
            ((2, 0, 3), [(0, 1, 0)]),
            ((0, -1, 0), [(0, 0, 1), (1, 0, 0)]),
        ]
        for weights, want in cases:
            assert normalized(weights) == (want, [])
            for name, solve in SOLVERS.items():
                assert solve(weights) == want, (name, weights)

    def test_equation_is_divided_by_its_gcd(self):
        basis, seen = normalized(Equation((6, 9), (12,)))
        assert seen == [(2, 3, -4)]
        assert basis == oracle_basis(Equation((2, 3), (4,)))


class TestFrontDoor:
    STATS = {
        "lex": LexStats,
        "completion": CompletionStats,
        "graph": GraphStats,
        "slopes": SlopesStats,
    }

    @pytest.mark.parametrize("name", SOLVERS)
    @pytest.mark.parametrize("text", ["5 = 3 2", "6 4 3 = 7", "3 2 = 4 1", "7 3 = 5 4 2"])
    def test_scaling_changes_nothing(self, name, text):
        eq = parse_equation(text)
        for k in (2, 5):
            scaled = Equation(tuple(k * c for c in eq.lhs), tuple(k * c for c in eq.rhs))
            s1, s2 = self.STATS[name](), self.STATS[name]()
            assert SOLVERS[name](scaled, stats=s1) == SOLVERS[name](eq, stats=s2)
            assert s1 == s2

    @pytest.mark.parametrize(
        "name, text, reduced",
        [
            ("lex", "60 55 50 = 45 40 35", "12 11 10 = 9 8 7"),
            ("slopes", "60 60 60 = 60 60 60", "1 1 1 = 1 1 1"),
        ],
    )
    def test_scaled_equation_finishes_within_the_limit(self, name, text, reduced):
        solve = SOLVERS[name]
        basis = solve(parse_equation(text), time_limit=5)
        assert basis == solve(parse_equation(reduced))

    @pytest.mark.parametrize("name", SOLVERS)
    @pytest.mark.parametrize(
        "weights",
        [
            (2**40, -1),
            (1, -(COEFFICIENT_LIMIT + 1)),
            (True, -1),
            (2, -1.0),
            ("2", -1),
        ],
        ids=["huge", "over_limit", "bool", "float", "str"],
    )
    def test_raw_weights_are_range_checked(self, name, weights):
        with pytest.raises(CoefficientRangeError):
            SOLVERS[name](weights)

    @pytest.mark.parametrize("name", SOLVERS)
    def test_weights_at_the_limit_are_accepted(self, name):
        assert SOLVERS[name]((COEFFICIENT_LIMIT, -COEFFICIENT_LIMIT, 0)) == [
            (0, 0, 1),
            (1, 1, 0),
        ]


class TestOracle:
    def test_unit_equation(self):
        assert oracle_basis(Equation((1,), (1,))) == [(1, 1)]

    def test_gcd_forced(self):
        assert oracle_basis(Equation((2,), (1,))) == [(1, 2)]

    def test_three_unknowns(self):
        assert oracle_basis(Equation((2, 1), (1,))) == [(0, 1, 1), (1, 0, 2)]

    def test_cap_error_names_box(self):
        eq = Equation((1000, 999, 998), (1000, 999, 998))
        with pytest.raises(OracleBoxError) as err:
            oracle_basis(eq, cap=10**6)
        assert err.value.box_size == oracle_box_size(eq)
        assert str(err.value.box_size) in str(err.value)

    def test_members_nonzero_zero_defect_and_minimal(self):
        eq = Equation((3, 2), (4, 1))
        w = build_weights(eq)
        basis = oracle_basis(eq)
        assert basis == sorted(basis)
        for sol in basis:
            assert any(sol)
            assert defect(w, sol) == 0
        for s in basis:
            assert not any(dominates(t, s) for t in basis if t != s)


class TestEquationText:
    def test_parse_round_trip(self):
        eq = parse_equation("2 3 = 1 4 5")
        assert eq == Equation((2, 3), (1, 4, 5))
        assert eq.text() == "2 3 = 1 4 5"

    def test_format_basis_lines(self):
        assert format_basis([(1, 0, 2), (0, 1, 1)]) == "0 1 1\n1 0 2"

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 1),
            ("1 2 3", 3),
            ("= 1", 1),
            ("1 =", 2),
            ("1 = 2 = 3", 4),
            ("1 x = 2", 2),
            ("1 = 0", 3),
            ("1 = -2", 3),
        ],
    )
    def test_errors_carry_position(self, text, position):
        with pytest.raises(EquationFormatError) as err:
            parse_equation(text)
        assert err.value.position == position
