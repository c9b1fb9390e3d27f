"""Defect digraph construction and the graph solver."""

import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diobasis import core, graph
from diobasis.bench import SOLVERS
from diobasis.completion import CompletionStats, completion_solve
from diobasis.core import (
    Equation,
    ResourceLimitError,
    WeightVector,
    build_weights,
    oracle_basis,
    parse_equation,
)
from diobasis.graph import (
    GraphStats,
    build_defect_graph,
    graph_solve,
    render_adjacency,
)

EQ6 = Equation((104, 167), (165, 154, 148, 159, 174, 150))

# Widest level expanded as tuples: 0 sends every level through the ndarray
# path, a huge value every level through the tuple path, and the default
# switches between them as the frontier narrows and widens.
PATHS = {"arrays": 0, "mixed": graph.NARROW_FRONTIER, "tuples": 2**62}
# Most solutions found while narrow levels still take the tuple path and
# test children by buckets: at 0 the buckets are empty whenever they are
# consulted and every level after the first emission takes the ndarray path,
# so every prune is the bitset index's; a huge value keeps them for the
# whole search.
BUCKET_CAPS = {"bitset": 0, "capped": graph.BUCKET_SOLUTIONS, "buckets": 2**62}


def level_paths(monkeypatch):
    """Set the narrow-level bound to each of PATHS and, for each, the bucket
    cap to each of BUCKET_CAPS, yielding their names."""
    for name, narrow in PATHS.items():
        monkeypatch.setattr(graph, "NARROW_FRONTIER", narrow)
        for cap_name, cap in BUCKET_CAPS.items():
            monkeypatch.setattr(graph, "BUCKET_SOLUTIONS", cap)
            yield name, cap_name


def random_weights(rng, max_coeff, max_n):
    n = rng.randint(2, max_n)
    w = [rng.choice([-1, 1]) * rng.randint(1, max_coeff) for _ in range(n)]
    w[0] = abs(w[0])
    w[-1] = -abs(w[-1])
    return WeightVector(tuple(w))


def edges(graph):
    """All edges of a defect digraph as (source, 0-based label, target)."""
    return [(d, i, t) for d, out in graph.items() for i, t in out]


class TestBuildDefectGraph:
    def test_small_graph_edges(self):
        g = build_defect_graph(WeightVector((1, -2)))
        assert list(g) == [-2, -1, 0, 1]
        assert set(edges(g)) == {
            (-2, 0, -1),
            (-1, 0, 0),
            (0, 0, 1),
            (0, 1, -2),
            (1, 1, -1),
        }

    def test_balanced_pair_counts(self):
        g = build_defect_graph(WeightVector((1, -1)))
        assert len(g) == 3
        assert len(edges(g)) == 4

    def test_application_equation_node_count(self):
        g = build_defect_graph(build_weights(EQ6))
        assert len(g) == 174 + 167 + 1 == 342

    def test_counts_match_closed_forms(self):
        rng = random.Random(13)
        for _ in range(30):
            w = random_weights(rng, 9, 6)
            g = build_defect_graph(w)
            nodes = w.max_a + w.max_b + 1
            assert list(g) == list(range(-w.max_b, w.max_a + 1))
            assert len(edges(g)) == sum(nodes - abs(wi) for wi in w.w)

    def test_every_edge_adds_its_weight(self):
        w = WeightVector((2, 3, -4))
        g = build_defect_graph(w)
        for d, label, target in edges(g):
            assert target == d + w.w[label]
            assert -w.max_b <= target <= w.max_a

    def test_render_format(self):
        text = render_adjacency(build_defect_graph(WeightVector((1, -2))))
        assert text.splitlines() == [
            "-2: (1->-1)",
            "-1: (1->0)",
            "0: (1->1) (2->-2)",
            "1: (2->-1)",
        ]

    @pytest.mark.parametrize(
        "seed, digest",
        [
            (None, "193fb037841b483a9c84fbfc14a53939e1e88b90d379c26dbb0440537725d90a"),
            (1, "a50cd5314c5f223553bd4159129a930db13a729b1f0238844e7dca3cfbe95505"),
            (2, "08a80a1b76931db981cc7097afe9985dfa352ee627289247c07c949fe3795eea"),
            (3, "8fe5465b43878731a066b17049af524dd44aa4e75f4cf8283d4dd8ef89f9f179"),
        ],
    )
    def test_whole_dump_digest(self, seed, digest):
        # The showcase's 342 nodes, then three seeded random weight vectors.
        if seed is None:
            w = build_weights(EQ6)
        else:
            w = random_weights(random.Random(seed), 60, 6)
        text = render_adjacency(build_defect_graph(w))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestGraphSolve:
    def test_one_equals_two(self):
        eq = Equation((1,), (2,))
        assert graph_solve(eq) == oracle_basis(eq) == [(2, 1)]

    def test_three_unknowns(self):
        eq = Equation((2, 1), (1,))
        assert graph_solve(eq) == [(0, 1, 1), (1, 0, 2)]

    def test_equals_completion_everywhere(self, monkeypatch):
        # Same search over precomputed adjacency: bases must be set-equal.
        rng = random.Random(31)
        weights = [random_weights(rng, 13, 6).w for _ in range(60)]
        expected = [completion_solve(w) for w in weights]
        for path in level_paths(monkeypatch):
            for w, basis in zip(weights, expected):
                assert graph_solve(w) == basis, (path, w)

    def test_matches_oracle(self):
        rng = random.Random(32)
        for _ in range(60):
            lhs = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 3)))
            rhs = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 3)))
            eq = Equation(lhs, rhs)
            assert graph_solve(eq) == oracle_basis(eq), eq.text()

    def test_search_is_clean(self, monkeypatch):
        # No duplicate walks, no duplicate or dominated emissions, no child
        # over a side-sum cap although the search never tests for one, and
        # no narrow child on which the buckets and is_dominated disagree:
        # the audits raise on any of them.
        for _ in level_paths(monkeypatch):
            rng = random.Random(33)
            for _ in range(40):
                w = random_weights(rng, 11, 5)
                graph_solve(w.w, check_invariants=True)

    def test_wide_levels_past_the_bucket_cap_are_clean(self):
        # EQ6, the showcase, finds 5,510 solutions and expands levels of up to
        # 9,070 walks past the bucket cap.  Each wide level compacts its
        # rows, defects and cuts with one index array; one taken out of
        # step would trip the next level's scan-cut audit or change the
        # basis.
        stats = GraphStats()
        basis = graph_solve(EQ6, stats=stats)
        assert (len(basis), stats.max_frontier) == (5510, 9070)
        assert graph_solve(EQ6, check_invariants=True) == basis

    def test_check_invariants_raises_on_two_sided_seeds(self, monkeypatch):
        # Seeded on both sides, the search builds solutions from both ends.
        def both_sides(w):
            return [(w.packing.units[i], w.w[i]) for i in range(len(w))]

        monkeypatch.setattr(graph, "initial_proposals", both_sides)
        for _ in level_paths(monkeypatch):
            with pytest.raises(AssertionError, match="duplicate walk"):
                graph_solve((3, 5, -7, -2), check_invariants=True)

    def test_check_invariants_raises_on_a_wrong_scan_cut(self, monkeypatch):
        # Cuts as if no walk used a label on either side: a seed's positive
        # cut is then past its own label, which its children carry.
        to_rows = graph._Search.to_rows

        def cuts_of_unused_sides(self, walks):
            rows, defects, cuts = to_rows(self, walks)
            cuts[:] = [len(labels) - 1 for labels in self.label_arrays]
            return rows, defects, cuts

        monkeypatch.setattr(graph._Search, "to_rows", cuts_of_unused_sides)
        eq = parse_equation("104 167 = 165 154 148")
        for path in level_paths(monkeypatch):
            if path == ("tuples", "buckets"):
                continue  # every level is narrow: no level state is made
            with pytest.raises(AssertionError, match="scan cut"):
                graph_solve(eq, check_invariants=True)

    @pytest.mark.parametrize("solve", [graph_solve, completion_solve])
    def test_check_invariants_raises_on_a_field_overflow(self, monkeypatch, solve):
        # Packed one bit too narrow, a coordinate of 8 or more carries into
        # a guard bit: "9 5 = 2 7 12" has basis members with coordinates up
        # to 12, and its search stays narrow.
        eq = parse_equation("9 5 = 2 7 12")
        monkeypatch.setattr(
            core, "packing", lambda n, top: core.Packing(n, top.bit_length() - 1)
        )
        assert build_weights(eq).packing.bits == 3
        with pytest.raises(AssertionError, match="field overflow"):
            solve(eq, check_invariants=True)

    @pytest.mark.parametrize("solve", [graph_solve, completion_solve])
    def test_check_invariants_raises_on_a_wrong_bucket_verdict(
        self, monkeypatch, solve
    ):
        # A bucket table that files no bucket keeps the first child that a
        # found solution bounds; the search of "335 = 473 1021" stays narrow.
        def file_no_bucket(self, sol):
            self.solutions.append(sol)

        monkeypatch.setattr(core.PackedBuckets, "add", file_no_bucket)
        with pytest.raises(AssertionError, match="disagrees"):
            solve(parse_equation("335 = 473 1021"), check_invariants=True)

    @pytest.mark.parametrize("fault", ["over-prunes", "under-prunes"])
    @pytest.mark.parametrize("solve", [graph_solve, completion_solve])
    def test_check_invariants_catches_a_seeded_bucket_table(
        self, monkeypatch, solve, fault
    ):
        # The audit replays each level through completion_step on its own
        # reference basis, so a fault of the bucket table, which the loop
        # probes inline, is not shared by the reference.  Either fault
        # changes the search's pinned counters when unchecked.
        text, counters = PINNED_COUNTERS[0]
        assert text == "335 = 473 1021"
        init, add = core.PackedBuckets.__init__, core.PackedBuckets.add

        def extra_vector(self, packing):
            # (0, 1, 0), no solution, filed below the live child (1, 1, 0).
            init(self, packing)
            self.buckets[packing.units[1]] = [packing.units[1]]

        def buckets_of_473_missing(self, sol):
            add(self, sol)
            self.buckets.pop(sol & self.fields[1], None)

        if fault == "over-prunes":
            monkeypatch.setattr(core.PackedBuckets, "__init__", extra_vector)
        else:
            monkeypatch.setattr(core.PackedBuckets, "add", buckets_of_473_missing)
        stats = GraphStats()
        solve(parse_equation(text), stats=stats)
        assert pinned_fields(stats) != counters
        with pytest.raises(AssertionError, match="disagrees"):
            solve(parse_equation(text), check_invariants=True)

    @pytest.mark.parametrize("solve", [graph_solve, completion_solve])
    def test_a_solve_never_calls_the_bucket_method(self, monkeypatch, solve):
        # The unit-step loop probes the bucket key and scans inline; only
        # lex calls PackedBuckets.bounds.
        def refuse(self, child, i):
            raise AssertionError("PackedBuckets.bounds called")

        monkeypatch.setattr(core.PackedBuckets, "bounds", refuse)
        for text, _ in PINNED_COUNTERS:
            eq = parse_equation(text)
            assert solve(eq) == graph_solve(eq, check_invariants=True)

    def test_frontier_cap(self):
        with pytest.raises(ResourceLimitError):
            graph_solve(Equation((104, 167), (165, 154, 148)), frontier_cap=4)
        # Its widest level holds 31 walks, all expanded as tuples.
        assert graph.NARROW_FRONTIER > 31
        with pytest.raises(ResourceLimitError):
            graph_solve(Equation((316,), (748, 951)), frontier_cap=30)

    def test_single_signed_weights(self):
        assert graph_solve((2, 3)) == []


# (levels, walks_expanded, children, pruned_dominated, max_frontier,
# insert.inserted) of the search that scans each side by coefficient size.
PINNED_COUNTERS = [
    ("335 = 473 1021", (1355, 4166, 4501, 329, 19, 7)),
    ("53 36 29 21 = 11 38 82 107", (159, 22700, 39060, 15239, 989, 1125)),
    ("104 167 = 165 154 148", (331, 36672, 48667, 11587, 496, 410)),
    ("9 5 = 2 7 12", (16, 131, 197, 35, 16, 33)),
    ("6 4 3 = 7", (12, 46, 67, 15, 6, 9)),
    ("3 5 = 7 2", (11, 50, 70, 4, 8, 18)),
]


def pinned_fields(stats):
    return (
        stats.levels,
        stats.walks_expanded,
        stats.children,
        stats.pruned_dominated,
        stats.max_frontier,
        stats.insert.inserted,
    )


class TestSearchCounters:
    @pytest.mark.parametrize("text, expected", PINNED_COUNTERS)
    def test_counters_are_pinned(self, monkeypatch, text, expected):
        for path in level_paths(monkeypatch):
            stats = GraphStats()
            basis = graph_solve(parse_equation(text), stats=stats)
            assert pinned_fields(stats) == expected, path
            assert len(basis) == stats.insert.inserted

    @pytest.mark.parametrize("text, expected", PINNED_COUNTERS)
    def test_completion_counts_the_same_search(self, text, expected):
        assert GraphStats is CompletionStats
        stats = CompletionStats()
        completion_solve(parse_equation(text), stats=stats)
        assert pinned_fields(stats) == expected

    def test_deep_search_is_pinned(self):
        # 131,070 levels of one to three walks, all tested by buckets.  The
        # time limit only keeps a regression from stalling the suite.
        stats = GraphStats()
        basis = graph_solve(parse_equation("65536 = 65535 2"), stats=stats, time_limit=30)
        assert (stats.levels, stats.walks_expanded, stats.pruned_dominated) == (
            131_070,
            196_605,
            65_534,
        )
        assert len(basis) == 3


@pytest.fixture
def events(monkeypatch):
    """Log of one search's ndarray-side builds and level expansions, in
    order: "build" per call of ``graph._Search.build_arrays`` and "narrow"
    or "wide" per level."""
    log = []
    build, wide = graph._Search.build_arrays, graph._Search.wide_level
    expand = graph.expand

    def counted_build(self):
        log.append("build")
        return build(self)

    def counted_expand(w, walks, found, stats, *args):
        levels = stats.levels
        walks = expand(w, walks, found, stats, *args)
        log.extend(["narrow"] * (stats.levels - levels))
        return walks

    def counted_wide(self, *level):
        log.append("wide")
        return wide(self, *level)

    monkeypatch.setattr(graph._Search, "build_arrays", counted_build)
    monkeypatch.setattr(graph, "expand", counted_expand)
    monkeypatch.setattr(graph._Search, "wide_level", counted_wide)
    return log


class TestArraySide:
    """The label arrays and the bitset index are built on the first wide
    level, under ``check_invariants`` too, and the search never builds the
    defect digraph."""

    def test_narrow_search_builds_nothing(self, events):
        stats = GraphStats()
        basis = graph_solve(parse_equation("335 = 473 1021"), stats=stats)
        assert (stats.max_frontier, len(basis)) == (19, 7)
        assert set(events) == {"narrow"}

    @pytest.mark.parametrize("text, expected", PINNED_COUNTERS)
    def test_built_once_before_the_first_wide_level(
        self, monkeypatch, events, text, expected
    ):
        shapes = set()
        for path in level_paths(monkeypatch):
            events.clear()
            stats = GraphStats()
            graph_solve(parse_equation(text), stats=stats)
            assert pinned_fields(stats) == expected, path
            if "wide" in events:
                assert events.count("build") == 1, path
                assert events.index("build") + 1 == events.index("wide"), path
            else:
                assert "build" not in events, path
            shapes.add(tuple(kind for kind, _ in itertools.groupby(events)))
        if text == "104 167 = 165 154 148":
            # With the buckets kept for the whole search, the frontier
            # narrows again after its wide levels.
            assert ("narrow", "build", "wide", "narrow") in shapes

    def test_search_never_builds_the_digraph(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the search built the defect digraph")

        monkeypatch.setattr(graph, "build_defect_graph", refuse)
        eq = parse_equation("9 5 = 2 7 12")
        for path in level_paths(monkeypatch):
            for check in (False, True):
                basis = graph_solve(eq, check_invariants=check)
                assert basis == oracle_basis(eq), (path, check)

    def test_check_mode_builds_nothing_on_a_narrow_search(self, events):
        # The narrow audit is completion's, on tuples: it reads no bitset.
        graph_solve(parse_equation("335 = 473 1021"), check_invariants=True)
        assert set(events) == {"narrow"}


sides = st.lists(st.integers(1, 12), min_size=1, max_size=3)


@pytest.mark.parametrize("solve", SOLVERS.values(), ids=SOLVERS.keys())
class TestMetamorphic:
    @settings(max_examples=40, deadline=None)
    @given(lhs=sides, rhs=sides)
    def test_swapping_sides_swaps_the_coordinate_blocks(self, solve, lhs, rhs):
        m = len(lhs)
        basis = solve(Equation(tuple(lhs), tuple(rhs)))
        swapped = solve(Equation(tuple(rhs), tuple(lhs)))
        assert swapped == sorted(x[m:] + x[:m] for x in basis)

    @settings(max_examples=40, deadline=None)
    @given(lhs=sides, rhs=sides, factor=st.integers(2, 5))
    def test_common_factor_leaves_the_basis_unchanged(self, solve, lhs, rhs, factor):
        scaled = Equation(tuple(factor * c for c in lhs), tuple(factor * c for c in rhs))
        assert solve(scaled) == solve(Equation(tuple(lhs), tuple(rhs)))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), lhs=sides, rhs=sides)
    def test_permuting_a_side_permutes_the_coordinates(self, solve, data, lhs, rhs):
        m = len(lhs)
        lhs_perm = data.draw(st.permutations(range(m)))
        rhs_perm = data.draw(st.permutations(range(m, m + len(rhs))))
        perm = list(lhs_perm) + list(rhs_perm)  # new coordinate j is old perm[j]
        coeffs = lhs + rhs
        permuted = Equation(
            tuple(coeffs[j] for j in lhs_perm), tuple(coeffs[j] for j in rhs_perm)
        )
        basis = solve(Equation(tuple(lhs), tuple(rhs)))
        assert solve(permuted) == sorted(tuple(x[j] for j in perm) for x in basis)


distinct_sides = st.lists(st.integers(1, 30), min_size=1, max_size=4, unique=True)


@pytest.mark.parametrize("solve", [graph_solve, completion_solve])
class TestScanOrder:
    """The unit-step search scans each side by increasing coefficient size
    (``core.WeightVector.scan_orders``), and its scan rule is exact under
    any fixed per-side order."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), lhs=distinct_sides, rhs=distinct_sides)
    def test_the_search_does_not_depend_on_input_order(self, solve, data, lhs, rhs):
        # With distinct coefficients on a side, permuting the side relabels
        # the walks of the search and changes none of its counters.
        stats, permuted_stats = GraphStats(), GraphStats()
        solve(Equation(tuple(lhs), tuple(rhs)), stats=stats)
        permuted = Equation(
            tuple(data.draw(st.permutations(lhs))), tuple(data.draw(st.permutations(rhs)))
        )
        solve(permuted, stats=permuted_stats)
        assert pinned_fields(permuted_stats) == pinned_fields(stats)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), lhs=sides, rhs=sides)
    def test_the_scan_rule_is_exact_under_any_per_side_order(
        self, solve, data, lhs, rhs
    ):
        eq = Equation(tuple(lhs), tuple(rhs))
        m = len(lhs)
        orders = (
            tuple(data.draw(st.permutations(range(m)))),
            tuple(data.draw(st.permutations(range(m, eq.n)))),
        )

        class AnyOrder(WeightVector):
            def __post_init__(self):
                super().__post_init__()
                self.__dict__["scan_orders"] = orders

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "WeightVector", AnyOrder)
            paths = level_paths(mp) if solve is graph_solve else [None]
            for path in paths:
                assert solve(eq, check_invariants=True) == oracle_basis(eq), path
