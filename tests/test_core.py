"""Core types, dominance machinery, shared arithmetic, and the oracle."""

import functools
import inspect
import itertools
import math
import random
import time

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
    format_basis,
    insert_minimal,
    oracle_basis,
    oracle_box_size,
    pareto_min,
    parse_equation,
    solve_normalized,
)
from diobasis.bench import SOLVERS
from diobasis.completion import CompletionStats
from diobasis.graph import GraphStats, graph_solve
from diobasis.lex import ALL_VARIANTS, LexStats, lex_solve
from diobasis.slopes import SlopesStats, slopes_solve

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
        # is_dominated scans in any order, repeats allowed.
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
        basis = []
        assert insert_minimal(basis, (1, 1))
        assert basis == [(1, 1)]

    def test_dominated_rejected(self):
        basis = [(1, 1)]
        assert not insert_minimal(basis, (2, 2))
        assert not insert_minimal(basis, (1, 1))
        assert basis == [(1, 1)]

    def test_stats(self):
        # In coordinate-sum order: a repeat and a dominated vector are
        # rejected, an incomparable one kept, and nothing is evicted.
        stats = InsertStats()
        basis = []
        for v in [(1, 1), (1, 1), (0, 3), (2, 2)]:
            insert_minimal(basis, v, stats)
        assert basis == [(1, 1), (0, 3)]
        assert (stats.inserted, stats.rejected, stats.evicted) == (2, 2, 0)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)), max_size=15))
    def test_pairwise_incomparable(self, sols):
        # Fed in lex order, the basis is an antichain and stays sorted.
        basis = []
        for s in sorted(sols):
            insert_minimal(basis, s)
        for i, s in enumerate(basis):
            for j, t in enumerate(basis):
                if i != j:
                    assert not dominated_or_equal(s, t)
        assert basis == sorted(basis)

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(st.tuples(*([st.integers(0, 3)] * n)), max_size=20)
        )
    )
    @example([(1, 1), (2, 2), (1, 1), (0, 3)])
    def test_order_independent(self, vecs):
        # The rule's precondition holds in lex order and in (sum, lex)
        # order: each keeps exactly the minimal vectors and rejects the rest.
        vecs = {v for v in vecs if any(v)}
        for key in (None, lambda v: (sum(v), v)):
            basis, stats = [], InsertStats()
            for v in sorted(vecs, key=key):
                assert insert_minimal(basis, v, stats) == (basis[-1:] == [v])
            assert sorted(basis) == pareto_min(vecs)
            assert (stats.inserted, stats.rejected, stats.evicted) == (
                len(basis),
                len(vecs) - len(basis),
                0,
            )


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
        # chunks of one or two rows.  Candidates come as int32 rows, as graph
        # passes them, and as intp ranks, as pareto_min passes them.
        row = st.lists(st.integers(0, 3), min_size=n, max_size=n)
        rows = data.draw(st.lists(row, min_size=130, max_size=150))
        rows = np.array(rows, dtype=np.int32)
        cands = data.draw(st.lists(row, max_size=20))
        cands = np.array(cands, dtype=np.int32).reshape(-1, n)
        batches = (cands, cands.astype(np.intp))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_TEST_CHUNK_BYTES", chunk_bytes)
            index = core.DominanceIndex(n, 4)
            assert not any(index.any_dominator(c).any() for c in batches)
            lo = 0
            for size in itertools.cycle([1, 2, *sizes]):
                if lo >= len(rows):
                    break
                index.add(rows[lo : lo + size])
                lo += size
                expected = (rows[None, :lo] <= cands[:, None]).all(axis=2).any(axis=1)
                for c in batches:
                    assert index.any_dominator(c).tolist() == expected.tolist()
            assert index.any_dominator(cands[:0]).shape == (0,)

    @settings(max_examples=40, deadline=None)
    @given(sizes=st.lists(st.integers(1, 150), min_size=1, max_size=40))
    def test_add_and_peak_bytes_share_one_growth_rule(self, sizes):
        # peak_bytes(k) is what the next add of k rows holds at once: the
        # old masks, plus the grown ones if it grows.  After every add the
        # capacity is within a quarter of the words in use, plus one word.
        n, size = 3, 5
        index = core.DominanceIndex(n, size)
        for k in sizes:
            old = index.masks
            peak = index.peak_bytes(k)
            index.add(np.zeros((k, n), dtype=np.int32))
            grown = index.masks.nbytes if index.masks is not old else 0
            assert peak == old.nbytes + grown
            assert index.masks.shape[2] <= 1.25 * ((index.count + 63) >> 6) + 1

    @pytest.mark.slow
    def test_multi_pass_sweep_of_a_large_antichain(self):
        # Slopes' final pareto_min keeps 16,384 rows of this antichain in a
        # first pass and the rest in a second, whose index has more
        # capacity than words.  A test that gathered from the strided
        # in-use view of those masks copied the whole plane per call and
        # took about three times as long.
        basis = slopes_solve(parse_equation("40009 = 40008 40007"), time_limit=10)
        assert len(basis) == 20006


class TestPackedBuckets:
    @settings(max_examples=60, deadline=None)
    @given(
        lhs=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        rhs=st.lists(st.integers(1, 9), min_size=1, max_size=3),
    )
    def test_bucket_verdict_is_the_full_scan(self, lhs, rhs):
        # Completion's search by coordinate sum, without its scan rule so
        # that every child is reached from every parent: each nonzero-defect
        # child is tested against the solutions of smaller sum.  Children
        # are packed with fields up to 255, far above any coordinate here,
        # so no guard bit is ever set.
        w = build_weights(Equation(tuple(lhs), tuple(rhs))).w
        n = len(w)
        packing = core.packing(n, 255)
        found, kept = core.PackedBuckets(packing), []
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
                    assert max(child) < 1 << packing.bits
                    hit = found.bounds(packing.pack(child), i)
                    assert hit == core.is_dominated(kept, child), (w, child)
                    if not hit:
                        nxt[child] = d + w[i]
            for sol in emitted:
                found.add(packing.pack(sol))
                insert_minimal(kept, sol)
            level = nxt
        assert sorted(kept) == oracle_basis(Equation(tuple(lhs), tuple(rhs)))


@st.composite
def packed_vectors(draw, count):
    """A packing of n <= 10 coordinates of at most ``top`` and ``count``
    vectors for it, with the coordinates 0 and ``top`` drawn often."""
    n = draw(st.integers(1, 10))
    top = draw(st.sampled_from([0, 1, COEFFICIENT_LIMIT]) | st.integers(0, COEFFICIENT_LIMIT))
    coord = st.sampled_from([0, top]) | st.integers(0, top)
    vectors = draw(st.lists(st.tuples(*[coord] * n), min_size=count, max_size=count))
    return core.packing(n, top), vectors


class TestPacking:
    @settings(max_examples=200, deadline=None)
    @given(case=packed_vectors(1))
    def test_pack_round_trips_with_units_and_fields(self, case):
        packing, (x,) = case
        p = packing.pack(x)
        assert packing.unpack(p) == x
        assert not p & packing.guards
        for k, v in enumerate(x):
            assert bool(p & packing.fields[k]) == bool(v)
            if v + 1 < 1 << packing.bits:
                assert packing.unpack(p + packing.units[k]) == x[:k] + (v + 1,) + x[k + 1 :]

    @settings(max_examples=100, deadline=None)
    @given(case=packed_vectors(8))
    def test_int_order_is_lex_order(self, case):
        packing, vectors = case
        assert list(map(packing.unpack, sorted(map(packing.pack, vectors)))) == sorted(vectors)

    @settings(max_examples=200, deadline=None)
    @given(case=packed_vectors(2), data=st.data())
    def test_guard_test_is_dominated_or_equal(self, case, data):
        # Through the one bucket c and s share: position i, at a value >= 1.
        packing, (s, c) = case
        if packing.bits == 0:
            return  # every coordinate is 0: no bucket is ever filed
        i = data.draw(st.integers(0, len(s) - 1))
        v = max(s[i], 1)
        s, c = s[:i] + (v,) + s[i + 1 :], c[:i] + (v,) + c[i + 1 :]
        buckets = core.PackedBuckets(packing)
        buckets.add(packing.pack(s))
        assert buckets.bounds(packing.pack(c), i) == dominated_or_equal(s, c)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 6),
        top=st.sampled_from([1, 2, 3, COEFFICIENT_LIMIT]),
        data=st.data(),
    )
    def test_packed_buckets_are_the_tuple_buckets(self, n, top, data):
        # One sequence of adds and tests, given to the buckets and to the
        # bucket rule written out on tuples: bounds(x, i) holds when some
        # added s has s_i == x_i > 0 and s <= x.
        coord = st.sampled_from([0, 1, top]) | st.integers(0, top)
        vector = st.tuples(*[coord] * n)
        packing = core.packing(n, top)
        packed, plain = core.PackedBuckets(packing), []
        for _ in range(data.draw(st.integers(1, 40))):
            x = data.draw(vector)
            if data.draw(st.booleans()):
                packed.add(packing.pack(x))
                plain.append(x)
            else:
                i = data.draw(st.integers(0, n - 1))
                assert packed.bounds(packing.pack(x), i) == any(
                    s[i] == x[i] > 0 and dominated_or_equal(s, x) for s in plain
                )
        assert list(map(packing.unpack, packed.solutions)) == plain

    def test_weight_vector_packs_to_its_larger_side(self):
        w = build_weights(EQ6)
        assert w.packing is core.packing(8, 174)
        assert w.packing.bits == 8


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

    @pytest.fixture
    def indexes(self, monkeypatch):
        """Every ``DominanceIndex`` pareto_min builds, each with the bytes
        its old and grown masks took together at each growth."""
        built = []

        class Recording(core.DominanceIndex):
            def __init__(self, n, size):
                super().__init__(n, size)
                self.growths = []
                built.append(self)

            def add(self, rows):
                old = self.masks
                super().add(rows)
                if self.masks is not old:
                    self.growths.append(old.nbytes + self.masks.nbytes)

        monkeypatch.setattr(core, "DominanceIndex", Recording)
        return built

    def test_pass_per_batch_matches_python_path(self, monkeypatch, indexes):
        # With no budget each pass keeps its first batch alone.  The cloud
        # has one minimal row, (1, 1, 1), and bounds no antichain row.
        monkeypatch.setattr(core, "_INDEX_BYTES", 0)
        vecs = [(1 + i % 7, 1 + (i * 3) % 5, 1 + (i * 5) % 11) for i in range(700)]
        vecs += [(i, 300 - i, 0) for i in range(300)]
        expected = pareto_reference(vecs)
        assert len(expected) == 301
        assert pareto_min(vecs) == expected
        assert len(indexes) >= 3

    def test_budget_counts_kept_rows_only(self, monkeypatch, indexes):
        # 1,519 rows, 13 of them minimal (a + b == 14, c == 1): the index
        # of the kept rows fits a budget that all rows together would pass,
        # so one pass decides every row.
        vecs = [
            (a, b, c)
            for a in range(1, 15)
            for b in range(1, 15)
            for c in range(1, 8)
            if a + b >= 14
        ]
        kept = pareto_reference(vecs)
        n, size = 3, 14
        budget = n * size * 8  # one word per value: 64 kept vectors
        assert len(kept) == 13 and budget < n * size * len(vecs) // 8
        monkeypatch.setattr(core, "_INDEX_BYTES", budget)
        assert pareto_min(vecs) == kept
        assert len(indexes) == 1

    def test_budget_overflow_mid_sweep(self, monkeypatch, indexes):
        # The kept rows pass the budget partway through the sweep, and
        # later passes decide the rows that waited.
        rng = random.Random(4)
        vecs = list({tuple(rng.randint(0, 40) for _ in range(3)) for _ in range(3000)})
        expected = pareto_reference(vecs)
        size = max(len(set(col)) for col in zip(*vecs))
        monkeypatch.setattr(core, "_INDEX_BYTES", 3 * size * len(expected) // 8)
        assert pareto_min(vecs) == expected
        assert len(indexes) >= 2

    def test_budget_bounds_the_growth_peak(self, monkeypatch, indexes):
        # 700 incomparable rows of 700 distinct values per column take
        # 16,800 B per word of 64 rows, swept in batches of two words.  A
        # budget of 20 words lets the masks grow 1 -> 2 -> 4 -> 6 -> 8 -> 10
        # words (18 words while the last growth copies), but not to 12 for
        # the last 60 rows, which would hold 10 + 12 words at once.
        vecs = [(i, 700 - i, 700 - i) for i in range(700)]
        budget = 3 * 700 * 8 * 20
        monkeypatch.setattr(core, "_INDEX_BYTES", budget)
        assert pareto_min(vecs) == sorted(vecs)
        peaks = [peak for index in indexes for peak in index.growths]
        assert peaks and max(peaks) <= budget
        assert len(indexes) >= 2

    def test_numpy_path_checks_the_deadline_before_ranking(self, monkeypatch):
        # Building, sorting and ranking half a million vectors takes most of
        # a second, so an expired deadline must stop the setup early.
        class ExpiredDeadline:
            def check(self):
                raise TimeLimitError("expired")

        def unique(*args, **kwargs):
            pytest.fail("pareto_min ranked its columns past an expired deadline")

        monkeypatch.setattr(np, "unique", unique)
        vecs = [(i, 600 - i) for i in range(600)]
        with pytest.raises(TimeLimitError):
            pareto_min(vecs, deadline=ExpiredDeadline())

    @pytest.mark.parametrize("budget", [core._INDEX_BYTES, 0], ids=["index", "passes"])
    def test_numpy_path_honours_deadline(self, monkeypatch, budget):
        monkeypatch.setattr(core, "_INDEX_BYTES", budget)
        vecs = [(i, 600 - i) for i in range(600)]
        with pytest.raises(TimeLimitError):
            pareto_min(vecs, deadline=Deadline(-1.0))


class TestDeadline:
    def test_none_never_expires_and_negative_expires_at_once(self):
        Deadline(None).check()
        with pytest.raises(TimeLimitError):
            Deadline(-1.0).check()


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
        basis, seen = normalized([0])
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
            assert solve([-1, 2]) == [(2, 1)], name

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
    def test_time_limit_is_honoured(self, name):
        # No solver finishes this equation in seconds; each must raise
        # within half a second of its limit.
        start = time.perf_counter()
        with pytest.raises(TimeLimitError):
            SOLVERS[name](parse_equation("855 = 498 830 850 987 1021"), time_limit=0.3)
        assert time.perf_counter() - start < 0.3 + 0.5

    @pytest.mark.parametrize("name", SOLVERS)
    def test_nan_time_limit_is_rejected(self, name):
        # No comparison with NaN is true, so it would never expire.
        with pytest.raises(ValueError):
            SOLVERS[name](parse_equation("855 = 498 830 850 987 1021"), time_limit=math.nan)

    # Every solver configuration: each entry of SOLVERS, lex in all four
    # variants.
    CONFIGS = {
        **{name: solve for name, solve in SOLVERS.items() if name != "lex"},
        **{
            f"lex_{v.bound.value}_{v.tail.value}": functools.partial(lex_solve, variant=v)
            for v in ALL_VARIANTS
        },
    }

    @pytest.mark.slow
    @pytest.mark.parametrize("name", CONFIGS)
    def test_deadline_overrun_is_bounded(self, name):
        # The raise comes within max(0.5 s, 5%) of the limit.
        limit = 0.5
        start = time.perf_counter()
        with pytest.raises(TimeLimitError):
            self.CONFIGS[name](parse_equation("855 = 498 830 850 987 1021"), time_limit=limit)
        assert time.perf_counter() - start - limit <= max(0.5, 0.05 * limit)

    # Each entry's keyword-only parameters: a limit is a module constant or
    # time_limit, not a per-call knob.
    KEYWORDS = {
        "lex": {"stats", "time_limit"},
        "completion": {"stats", "time_limit", "check_invariants"},
        "graph": {"stats", "time_limit", "check_invariants"},
        "slopes": {"stats", "time_limit"},
    }

    @pytest.mark.parametrize("name", SOLVERS)
    def test_keywords_are_pinned(self, name):
        params = inspect.signature(SOLVERS[name]).parameters.values()
        keywords = {p.name for p in params if p.kind is p.KEYWORD_ONLY}
        assert keywords == self.KEYWORDS[name]

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
