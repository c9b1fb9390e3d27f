"""Harness: grid, corpus generation, timing policy, scoring, reports."""

import json
import stat

import pytest

from diobasis.bench import (
    A_VALUES,
    BenchClass,
    class_pool_size,
    ClassResult,
    BenchReport,
    RunOutcome,
    SolverLaunchError,
    TESTS_PER_CLASS,
    TimingPolicy,
    class_grid,
    fmt_points,
    fmt_seconds_cell,
    generate_class,
    make_internal_runner,
    make_subprocess_runner,
    measure,
    parse_class_spec,
    render_reports,
    run_benchmark,
    score_class,
)
from diobasis.core import Equation

POLICY = TimingPolicy()


class TestGrid:
    def test_exactly_160_cells(self):
        grid = class_grid()
        assert len(grid) == 160
        assert len(set(grid)) == 160

    def test_layout_matches_published_shape(self):
        # Row lengths of the populated grid, frozen independently of the
        # ROW_MAX_A table the implementation uses.
        expected_row_lengths = {
            (1, 2): 9, (1, 3): 9, (1, 4): 9, (1, 5): 9,
            (1, 6): 8, (1, 7): 8, (1, 8): 7, (1, 9): 6,
            (2, 2): 9, (2, 3): 9, (2, 4): 9, (2, 5): 8,
            (2, 6): 7, (2, 7): 6, (2, 8): 6,
            (3, 3): 8, (3, 4): 7, (3, 5): 7, (3, 6): 6,
            (4, 4): 7, (4, 5): 6,
        }
        grid = class_grid()
        by_row = {}
        for bc in grid:
            by_row.setdefault((bc.lhs_count, bc.rhs_count), []).append(bc.max_value)
        assert {row: len(vals) for row, vals in by_row.items()} == expected_row_lengths
        for row, vals in by_row.items():
            assert vals == sorted(vals)
            assert vals == [a for a in A_VALUES if a <= max(vals)]

    def test_rows_respect_n_le_m(self):
        for bc in class_grid():
            assert 1 <= bc.lhs_count <= bc.rhs_count

    def test_parse_class_spec(self):
        assert parse_class_spec("all") == class_grid()
        assert parse_class_spec("1,2,5; 2,3,13") == [
            BenchClass(1, 2, 5),
            BenchClass(2, 3, 13),
        ]
        with pytest.raises(ValueError):
            parse_class_spec("1,2")


class TestGenerateClass:
    def test_structural_postconditions(self):
        tests, _ = generate_class(BenchClass(1, 2, 2), seed=0)
        assert len(tests) == 10
        for eq in tests:
            assert len(eq.lhs) == 1 and len(eq.rhs) == 2
            assert max(eq.rhs) == 2
            assert list(eq.rhs) == sorted(eq.rhs)

    def test_distinct_when_pool_allows(self):
        assert class_pool_size(BenchClass(1, 2, 2)) == 4  # too small for 10
        assert class_pool_size(BenchClass(2, 3, 13)) > 10
        tests, _ = generate_class(BenchClass(2, 3, 13), seed=0)
        assert len(set(tests)) == 10

    def test_coefficient_ranges_and_pinned_max(self):
        tests, _ = generate_class(BenchClass(2, 3, 1021), seed=4)
        for eq in tests:
            assert all(1 <= c <= 1021 for c in eq.lhs + eq.rhs)
            assert 1021 in eq.rhs
            assert list(eq.lhs) == sorted(eq.lhs, reverse=True)
            assert list(eq.rhs) == sorted(eq.rhs)

    def test_determinism(self):
        a, _ = generate_class(BenchClass(3, 4, 29), seed=99)
        b, _ = generate_class(BenchClass(3, 4, 29), seed=99)
        assert a == b
        c, _ = generate_class(BenchClass(3, 4, 29), seed=100)
        assert a != c


class _ScriptedRunner:
    """Replays fixed outcomes so aggregation rules can be pinned exactly."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)

    def __call__(self, eq, timeout_s):
        return self.outcomes.pop(0)


EQ = Equation((1,), (1,))


class TestMeasure:
    def test_early_stop_worked_example(self):
        runner = _ScriptedRunner(
            [RunOutcome(14.9), RunOutcome(14.9), RunOutcome(15.2)]
        )
        result = measure(EQ, runner, POLICY)
        assert result.aggregate_s == 15.0
        assert result.early_stopped and not result.timed_out
        assert result.runs == [14.9, 14.9, 15.2]

    def test_middle_three_mean(self):
        runner = _ScriptedRunner([RunOutcome(float(t)) for t in (1, 2, 3, 4, 5)])
        result = measure(EQ, runner, POLICY)
        assert result.aggregate_s == 3.0
        assert not result.early_stopped

    def test_trimming_drops_extremes_not_positions(self):
        runner = _ScriptedRunner([RunOutcome(float(t)) for t in (9, 1, 2, 1, 4)])
        result = measure(EQ, runner, POLICY)
        assert result.aggregate_s == pytest.approx((1 + 2 + 4) / 3)

    def test_timeout_recorded_at_full_value(self):
        runner = _ScriptedRunner([RunOutcome(600.0, timed_out=True)])
        result = measure(EQ, runner, POLICY)
        assert result.timed_out
        assert result.aggregate_s == 600.0
        assert result.runs == [600.0]

    def test_fast_runs_do_all_five(self):
        runner = _ScriptedRunner([RunOutcome(0.01)] * 5)
        result = measure(EQ, runner, POLICY)
        assert result.runs == [0.01] * 5


class TestTimingPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"runs": 0},
            {"runs": -1},
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
            {"early_stop_s": 0.0},
            {"early_stop_s": float("nan")},
            {"epsilon_s": -0.01},
            {"epsilon_s": float("inf")},
        ],
        ids=str,
    )
    def test_rejects_a_policy_that_cannot_time(self, kwargs):
        with pytest.raises(ValueError):
            TimingPolicy(**kwargs)

    def test_zero_epsilon_is_exact_ties(self):
        assert TimingPolicy(epsilon_s=0.0).epsilon_s == 0.0


class TestScoreClass:
    def test_six_four(self):
        a = [1.0] * 6 + [3.0] * 4
        b = [2.0] * 6 + [1.0] * 4
        score = score_class(a, b)
        assert (score.points_a, score.points_b) == (6.0, 4.0)
        assert score.winner is None

    def test_all_ties_under_epsilon(self):
        a = [1.000] * 10
        b = [1.005] * 10
        score = score_class(a, b, epsilon=0.01)
        assert (score.points_a, score.points_b) == (5.0, 5.0)

    def test_nine_and_a_half(self):
        a = [1.0] * 9 + [2.0]
        b = [3.0] * 9 + [2.0]
        score = score_class(a, b)
        assert (score.points_a, score.points_b) == (9.5, 0.5)
        assert score.winner == "a"

    def test_points_always_sum_to_ten(self):
        import random

        rng = random.Random(3)
        for _ in range(50):
            a = [rng.random() for _ in range(10)]
            b = [rng.random() for _ in range(10)]
            eps = rng.choice([None, 0.01, 0.2])
            score = score_class(a, b, eps)
            assert score.points_a + score.points_b == 10.0

    def test_exact_tie_without_epsilon(self):
        score = score_class([1.0] * 10, [1.0] * 10)
        assert (score.points_a, score.points_b) == (5.0, 5.0)


class TestCellFormats:
    def test_seconds_cells(self):
        assert fmt_seconds_cell(0.049) == ".0"
        assert fmt_seconds_cell(2.9) == "2.9"
        assert fmt_seconds_cell(0.84) == ".8"
        assert fmt_seconds_cell(550.04) == "550.0"

    def test_points_cells(self):
        assert fmt_points(6.0) == "6"
        assert fmt_points(9.5) == "9.5"


def _fake_report():
    policy = TimingPolicy()
    report = BenchReport("graph", "slopes", seed=0, policy=policy, mode="internal")
    report.classes = [
        ClassResult(BenchClass(1, 2, 2), [0.001] * 6 + [0.003] * 4,
                    [0.002] * 6 + [0.001] * 4, 0, 0, 0),
        ClassResult(BenchClass(1, 2, 13), [0.29] * 10, [0.301] * 10, 0, 0, 0),
        ClassResult(BenchClass(1, 2, 1021), [600.0] * 10, [0.2] * 10, 10, 0, 1),
    ]
    return report


class TestRenderReports:
    def test_files_and_shapes(self, tmp_path):
        report = _fake_report()
        written = render_reports(report, tmp_path)
        for name in ("wins", "wins_epsilon", "timeouts", "totals"):
            for ext in ("txt", "csv", "tex"):
                assert f"{name}.{ext}" in written
        assert "results.csv" in written and "metadata.json" in written

        wins = (tmp_path / "wins.txt").read_text().splitlines()
        assert wins[0].split() == ["N", "M", "A=2", "A=13", "A=1021"]
        assert wins[1].split() == ["1", "2", "6:4", "10:0", "0:10"]

    def test_totals_excludes_small_a_columns(self, tmp_path):
        report = _fake_report()
        render_reports(report, tmp_path)
        totals = (tmp_path / "totals.txt").read_text()
        assert "A=2" not in totals
        assert "A=13" in totals
        # 10 tests at 0.29s -> 2.9; 10 at 0.301 -> 3.0
        assert "2.9:3.0" in totals
        assert "6000.0:2.0" in totals

    def test_grand_totals_cover_hidden_columns(self, tmp_path):
        report = _fake_report()
        render_reports(report, tmp_path)
        totals = (tmp_path / "totals.txt").read_text()
        assert f"{report.grand_total_a:.2f}" in totals
        expected_a = 0.001 * 6 + 0.003 * 4 + 0.29 * 10 + 600.0 * 10
        assert abs(report.grand_total_a - expected_a) < 1e-9

    def test_timeout_cells(self, tmp_path):
        report = _fake_report()
        render_reports(report, tmp_path)
        timeouts = (tmp_path / "timeouts.txt").read_text()
        assert "0:0" in timeouts and "10:0" in timeouts

    def test_timeout_contribution_to_totals(self):
        report = _fake_report()
        assert report.classes[2].total_a == 6000.0

    def test_metadata(self, tmp_path):
        report = _fake_report()
        render_reports(report, tmp_path)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["schema"] == "diobasis.bench/1"
        assert meta["seed"] == 0
        assert meta["policy"]["runs"] == 5
        assert meta["regenerated_duplicate_tests"] == 1
        assert "Mersenne Twister" in meta["prng"]

    def test_epsilon_table_differs(self, tmp_path):
        report = _fake_report()
        render_reports(report, tmp_path)
        plain = (tmp_path / "wins.txt").read_text()
        eps = (tmp_path / "wins_epsilon.txt").read_text()
        # Class (1,2,2) times differ by 0.001-0.002 < 0.01: all ties.
        assert "5:5" in eps
        assert "5:5" not in plain

    def test_tex_body(self, tmp_path):
        report = _fake_report()
        render_reports(report, tmp_path)
        tex = (tmp_path / "wins.tex").read_text()
        assert r"1 & 2 & 6:4 & 10:0 & 0:10 \\" in tex


class TestRunners:
    def test_internal_runner_measures(self):
        runner = make_internal_runner("graph")
        outcome = runner(Equation((2, 1), (1,)), timeout_s=60.0)
        assert not outcome.timed_out
        assert outcome.seconds >= 0

    def test_internal_runner_timeout(self):
        runner = make_internal_runner("graph")
        outcome = runner(Equation((104, 167), (165, 154, 148, 159)), timeout_s=0.0)
        assert outcome.timed_out

    def test_subprocess_runner(self, tmp_path):
        script = tmp_path / "fake_solver"
        script.write_text("#!/bin/sh\ncat > /dev/null\necho '1 1'\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        runner = make_subprocess_runner(str(script))
        outcome = runner(EQ, timeout_s=30.0)
        assert not outcome.timed_out
        assert outcome.seconds > 0

    def test_subprocess_timeout(self, tmp_path):
        script = tmp_path / "sleepy"
        script.write_text("#!/bin/sh\nsleep 5\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        runner = make_subprocess_runner(str(script))
        outcome = runner(EQ, timeout_s=0.2)
        assert outcome.timed_out
        assert outcome.seconds == 0.2

    def test_launch_failure_is_not_a_timeout(self):
        runner = make_subprocess_runner("/nonexistent/solver-binary")
        with pytest.raises(SolverLaunchError):
            runner(EQ, timeout_s=1.0)

    def test_crashing_solver_reported(self, tmp_path):
        script = tmp_path / "crashy"
        script.write_text("#!/bin/sh\nexit 3\n")
        script.chmod(script.stat().st_mode | stat.S_IEXEC)
        with pytest.raises(SolverLaunchError):
            make_subprocess_runner(str(script))(EQ, timeout_s=5.0)


class TestTimeoutPropagation:
    def test_timeouts_flow_into_reports(self, tmp_path):
        from diobasis.bench import run_benchmark

        # An impossible timeout forces every graph measurement to time out at
        # its first repetition; the slow side must then carry one timeout per
        # test and exactly timeout_s seconds each in the totals.
        policy = TimingPolicy(runs=2, early_stop_s=15.0, timeout_s=0.000001)
        report = run_benchmark(
            [BenchClass(1, 2, 13)],
            seed=0,
            policy=policy,
            runner_a=make_internal_runner("graph"),
            runner_b=make_internal_runner("slopes"),
        )
        result = report.classes[0]
        assert result.timeouts_a == 10
        assert result.total_a == pytest.approx(10 * policy.timeout_s)
        render_reports(report, tmp_path)
        timeouts = (tmp_path / "timeouts.txt").read_text()
        assert f"10:{result.timeouts_b}" in timeouts


class TestSmallPools:
    def test_duplicates_kept_are_counted_and_summed(self, tmp_path):
        # Class 1,2,2 has 4 distinct equations and 1,2,3 has 9, so both
        # keep the duplicates they draw.
        classes = [BenchClass(1, 2, 2), BenchClass(1, 2, 3)]
        report = run_benchmark(
            classes,
            seed=0,
            policy=TimingPolicy(runs=1),
            runner_a=lambda eq, timeout_s: RunOutcome(0.001),
            runner_b=lambda eq, timeout_s: RunOutcome(0.002),
        )
        kept = []
        for bc, result in zip(classes, report.classes):
            tests, regenerated = generate_class(bc, seed=0)
            assert regenerated == result.regenerated == 0
            assert result.duplicates_kept == TESTS_PER_CLASS - len(set(tests))
            kept.append(result.duplicates_kept)
        assert kept[0] >= 6
        render_reports(report, tmp_path)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["duplicate_tests_kept_in_small_pools"] == sum(kept)
