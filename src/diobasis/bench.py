"""Benchmark harness: class grid, seeded corpus, timing policy, scoring, reports.

The experiment grid pairs unknown counts (N on the left, M on the right,
N <= M) with a maximum coefficient A; larger grids drop the most expensive
A columns, giving 160 populated cells.  Every class holds 10 random
equations.  Each (test, algorithm) pair is timed up to 5 times and scored
as the mean of the middle 3 runs, except that any run over the early-stop
threshold ends the repetitions and the mean of the completed runs stands; a
run hitting the hard timeout is recorded at the timeout value.  Per class,
the faster algorithm on a test earns 1 point (0.5 each on ties, optionally
up to an epsilon), and 8 of the 10 points win the class.

Measurements run strictly serially.  Timing uses the monotonic
high-resolution wall clock, either around in-process solver calls or around
spawned external processes speaking the equation/basis text protocol.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import random
import statistics
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from . import SOLVERS, __version__
from .core import DiobasisError, Equation, TimeLimitError

A_VALUES = (2, 3, 5, 13, 29, 39, 107, 503, 1021)

# Populated (N, M) rows and the largest A column each one carries; the grid
# has exactly 160 cells.
ROW_MAX_A: dict[tuple[int, int], int] = {
    (1, 2): 1021, (1, 3): 1021, (1, 4): 1021, (1, 5): 1021,
    (1, 6): 503, (1, 7): 503, (1, 8): 107, (1, 9): 39,
    (2, 2): 1021, (2, 3): 1021, (2, 4): 1021, (2, 5): 503,
    (2, 6): 107, (2, 7): 39, (2, 8): 39,
    (3, 3): 503, (3, 4): 107, (3, 5): 107, (3, 6): 39,
    (4, 4): 107, (4, 5): 39,
}

TESTS_PER_CLASS = 10
WIN_THRESHOLD = 8.0


class SolverLaunchError(DiobasisError):
    """Spawning or running an external solver failed (not a timeout)."""


@dataclass(frozen=True)
class BenchClass:
    lhs_count: int
    rhs_count: int
    max_value: int

    def __post_init__(self):
        if not (1 <= self.lhs_count <= self.rhs_count):
            raise ValueError("need 1 <= N <= M")
        if self.max_value not in A_VALUES:
            raise ValueError(f"A must be one of {A_VALUES}")

    @property
    def label(self) -> str:
        return f"{self.lhs_count},{self.rhs_count},{self.max_value}"


def class_grid() -> list[BenchClass]:
    """All 160 populated grid cells, row-major."""
    out = []
    for (n, m), top in ROW_MAX_A.items():
        for a in A_VALUES:
            if a <= top:
                out.append(BenchClass(n, m, a))
    return out


def parse_class_spec(spec: str) -> list[BenchClass]:
    """Parse ``all`` or a semicolon-separated list of ``N,M,A`` triples."""
    if spec.strip() == "all":
        return class_grid()
    out = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        try:
            n, m, a = (int(p) for p in part.split(","))
        except ValueError:
            raise ValueError(f"class spec {part!r} is not N,M,A") from None
        out.append(BenchClass(n, m, a))
    if not out:
        raise ValueError("empty class spec")
    return out


@dataclass(frozen=True)
class TimingPolicy:
    runs: int = 5
    early_stop_s: float = 15.0
    timeout_s: float = 600.0
    epsilon_s: float = 0.01

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        for name, zero_ok in (("early_stop_s", False), ("timeout_s", False), ("epsilon_s", True)):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0 or (value == 0 and not zero_ok):
                bound = ">= 0" if zero_ok else "> 0"
                raise ValueError(f"{name} must be a finite number {bound}, got {value}")


def class_seed(seed: int, bench_class: BenchClass) -> int:
    """Portable per-class PRNG seed derived by hashing, stable across platforms."""
    key = f"{seed}:{bench_class.lhs_count}:{bench_class.rhs_count}:{bench_class.max_value}"
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


def class_pool_size(bench_class: BenchClass) -> int:
    """Distinct equations the generator can produce for a class: sorted
    multisets per side, with one rhs slot pinned to the maximum."""
    lhs = math.comb(bench_class.max_value + bench_class.lhs_count - 1, bench_class.lhs_count)
    rhs = math.comb(bench_class.max_value + bench_class.rhs_count - 2, bench_class.rhs_count - 1)
    return lhs * rhs


def generate_class(
    bench_class: BenchClass, seed: int
) -> tuple[list[Equation], int]:
    """The 10 test equations of a class, plus how many duplicate draws were
    regenerated to keep the tests distinct.

    Coefficients are uniform on [1, A]; one rhs coefficient is pinned to A so
    the class's maximum is always realized on the larger side.  The lhs is
    sorted descending and the rhs ascending.  Small classes whose distinct
    pool holds fewer than 10 equations necessarily repeat tests; for those
    the duplicate rejection is disabled.
    """
    rng = random.Random(class_seed(seed, bench_class))
    a = bench_class.max_value
    reject_duplicates = class_pool_size(bench_class) >= TESTS_PER_CLASS
    seen: set[Equation] = set()
    tests: list[Equation] = []
    regenerated = 0
    while len(tests) < TESTS_PER_CLASS:
        lhs = sorted(
            (rng.randint(1, a) for _ in range(bench_class.lhs_count)), reverse=True
        )
        rhs = sorted(
            [rng.randint(1, a) for _ in range(bench_class.rhs_count - 1)] + [a]
        )
        eq = Equation(tuple(lhs), tuple(rhs))
        if reject_duplicates and eq in seen:
            regenerated += 1
            continue
        seen.add(eq)
        tests.append(eq)
    return tests, regenerated


@dataclass
class RunOutcome:
    seconds: float
    timed_out: bool = False


# A runner measures one execution of one algorithm on one equation,
# honouring the passed timeout.
Runner = Callable[[Equation, float], RunOutcome]


@dataclass
class TimingResult:
    runs: list[float]
    aggregate_s: float
    early_stopped: bool
    timed_out: bool


def measure(eq: Equation, runner: Runner, policy: TimingPolicy) -> TimingResult:
    """Time one test under the repetition policy.

    Up to ``runs`` repetitions; with all of them completed the aggregate is
    the mean of the middle values (smallest and largest dropped).  A
    repetition over the early-stop threshold ends the loop and the mean of
    the recorded repetitions stands.  A repetition killed at the hard
    timeout is recorded at the full timeout value.
    """
    times: list[float] = []
    timed_out = False
    early = False
    for _ in range(policy.runs):
        outcome = runner(eq, policy.timeout_s)
        if outcome.timed_out:
            times.append(policy.timeout_s)
            timed_out = True
            early = True
            break
        times.append(outcome.seconds)
        if outcome.seconds > policy.early_stop_s:
            early = True
            break
    if early or policy.runs < 3:
        aggregate = statistics.fmean(times)
    else:
        trimmed = sorted(times)[1:-1]
        aggregate = statistics.fmean(trimmed)
    return TimingResult(times, aggregate, early, timed_out)


@dataclass
class ClassScore:
    points_a: float
    points_b: float

    @property
    def winner(self) -> str | None:
        if self.points_a >= WIN_THRESHOLD:
            return "a"
        if self.points_b >= WIN_THRESHOLD:
            return "b"
        return None


def score_class(
    times_a: Sequence[float],
    times_b: Sequence[float],
    epsilon: float | None = None,
) -> ClassScore:
    """Per-test points: 1 to the faster algorithm, 0.5 each on a tie.

    Without epsilon only exact equality ties; with it, times closer than
    epsilon count as equal.
    """
    if len(times_a) != len(times_b):
        raise ValueError("need timings for the same tests")
    pa = pb = 0.0
    for ta, tb in zip(times_a, times_b):
        tie = abs(ta - tb) < epsilon if epsilon is not None else ta == tb
        if tie:
            pa += 0.5
            pb += 0.5
        elif ta < tb:
            pa += 1.0
        else:
            pb += 1.0
    return ClassScore(pa, pb)


def make_internal_runner(name: str) -> Runner:
    """In-process runner: no spawn noise; the timeout is enforced
    cooperatively at the solvers' safe points."""
    solve = SOLVERS[name]

    def run(eq: Equation, timeout_s: float) -> RunOutcome:
        start = time.perf_counter()
        try:
            solve(eq, time_limit=timeout_s)
        except TimeLimitError:
            return RunOutcome(time.perf_counter() - start, timed_out=True)
        return RunOutcome(time.perf_counter() - start)

    return run


def make_subprocess_runner(path: str) -> Runner:
    """Whole-process runner for an external solver.

    The executable receives one equation in text form on stdin and must
    print the basis in the line format on stdout.  Processes still alive at
    the timeout are killed.  Launch failures and nonzero exits raise
    :class:`SolverLaunchError`, distinct from timeouts.
    """

    def run(eq: Equation, timeout_s: float) -> RunOutcome:
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [path],
                input=eq.text() + "\n",
                capture_output=True,
                text=True,
                timeout=timeout_s,
            )
        except subprocess.TimeoutExpired:
            return RunOutcome(timeout_s, timed_out=True)
        except OSError as exc:
            raise SolverLaunchError(f"cannot run {path!r}: {exc}") from exc
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise SolverLaunchError(
                f"{path!r} exited with {proc.returncode}: {proc.stderr.strip()[:200]}"
            )
        return RunOutcome(elapsed)

    return run


@dataclass
class ClassResult:
    bench_class: BenchClass
    aggregates_a: list[float]
    aggregates_b: list[float]
    timeouts_a: int
    timeouts_b: int
    regenerated: int
    duplicates_kept: int = 0

    def score(self, epsilon: float | None = None) -> ClassScore:
        return score_class(self.aggregates_a, self.aggregates_b, epsilon)

    @property
    def total_a(self) -> float:
        return sum(self.aggregates_a)

    @property
    def total_b(self) -> float:
        return sum(self.aggregates_b)


@dataclass
class BenchReport:
    name_a: str
    name_b: str
    seed: int
    policy: TimingPolicy
    mode: str
    classes: list[ClassResult] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def grand_total_a(self) -> float:
        return sum(c.total_a for c in self.classes)

    @property
    def grand_total_b(self) -> float:
        return sum(c.total_b for c in self.classes)


def run_benchmark(
    classes: Sequence[BenchClass],
    seed: int,
    policy: TimingPolicy,
    runner_a: Runner,
    runner_b: Runner,
    *,
    name_a: str = "graph",
    name_b: str = "slopes",
    mode: str = "internal",
    progress: Callable[[str], None] | None = None,
) -> BenchReport:
    """Measure both algorithms over every class, one measurement at a time."""
    report = BenchReport(name_a=name_a, name_b=name_b, seed=seed, policy=policy, mode=mode)
    started = time.perf_counter()
    for bc in classes:
        tests, regenerated = generate_class(bc, seed)
        agg_a: list[float] = []
        agg_b: list[float] = []
        to_a = to_b = 0
        for eq in tests:
            ra = measure(eq, runner_a, policy)
            rb = measure(eq, runner_b, policy)
            agg_a.append(ra.aggregate_s)
            agg_b.append(rb.aggregate_s)
            to_a += ra.timed_out
            to_b += rb.timed_out
        report.classes.append(
            ClassResult(
                bc, agg_a, agg_b, to_a, to_b, regenerated,
                duplicates_kept=TESTS_PER_CLASS - len(set(tests)),
            )
        )
        if progress:
            score = report.classes[-1].score()
            progress(
                f"class {bc.label}: {fmt_points(score.points_a)}:{fmt_points(score.points_b)}"
                f" ({report.classes[-1].total_a:.2f}s vs {report.classes[-1].total_b:.2f}s)"
            )
    report.elapsed_s = time.perf_counter() - started
    return report


def fmt_points(p: float) -> str:
    return str(int(p)) if p == int(p) else f"{p:.1f}"


def fmt_seconds_cell(v: float) -> str:
    """Totals-cell style: one decimal, leading zero stripped below one second."""
    s = f"{v:.1f}"
    return s[1:] if s.startswith("0.") else s


def _grid_cells(
    report: BenchReport,
    cell: Callable[[ClassResult], str],
    min_a: int = 0,
) -> tuple[list[tuple[int, int]], list[int], dict[tuple[int, int], dict[int, str]]]:
    kept = [c for c in report.classes if c.bench_class.max_value >= min_a]
    rows = sorted({(c.bench_class.lhs_count, c.bench_class.rhs_count) for c in kept})
    cols = sorted({c.bench_class.max_value for c in kept})
    table: dict[tuple[int, int], dict[int, str]] = {r: {} for r in rows}
    for c in kept:
        key = (c.bench_class.lhs_count, c.bench_class.rhs_count)
        table[key][c.bench_class.max_value] = cell(c)
    return rows, cols, table


def _render_text(rows, cols, table, footer: str = "") -> str:
    header = ["N", "M"] + [f"A={a}" for a in cols]
    body = [
        [str(n), str(m)] + [table[(n, m)].get(a, "") for a in cols]
        for n, m in rows
    ]
    widths = [
        max(len(line[i]) for line in [header] + body) for i in range(len(header))
    ]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in [header] + body]
    if footer:
        lines.append(footer)
    return "\n".join(lines) + "\n"


def _render_csv(rows, cols, table, footer: str = "") -> str:
    lines = ["N,M," + ",".join(str(a) for a in cols)]
    for n, m in rows:
        lines.append(f"{n},{m}," + ",".join(table[(n, m)].get(a, "") for a in cols))
    if footer:
        lines.append(f"# {footer}")
    return "\n".join(lines) + "\n"


def _render_tex(rows, cols, table, footer: str = "") -> str:
    lines = ["N & M & " + " & ".join(str(a) for a in cols) + r" \\", r"\hline"]
    for n, m in rows:
        cells = [table[(n, m)].get(a, "") for a in cols]
        lines.append(f"{n} & {m} & " + " & ".join(cells) + r" \\")
    if footer:
        lines.append(f"% {footer}")
    return "\n".join(lines) + "\n"


_FORMATS = {"txt": _render_text, "csv": _render_csv, "tex": _render_tex}


def render_reports(report: BenchReport, out_dir: Path | str) -> dict[str, Path]:
    """Write the four tables (wins, epsilon wins, timeouts, totals) in
    aligned-text, CSV, and TeX-body form, plus raw results and metadata."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eps = report.policy.epsilon_s
    tables = {
        "wins": (
            lambda c: _score_cell(c, None),
            0,
            f"win threshold: {fmt_points(WIN_THRESHOLD)} of {TESTS_PER_CLASS} points",
        ),
        "wins_epsilon": (
            lambda c: _score_cell(c, eps),
            0,
            f"ties within epsilon = {eps} s",
        ),
        "timeouts": (
            lambda c: f"{c.timeouts_a}:{c.timeouts_b}",
            0,
            f"timeout: {report.policy.timeout_s:.0f} s per run",
        ),
        "totals": (
            lambda c: f"{fmt_seconds_cell(c.total_a)}:{fmt_seconds_cell(c.total_b)}",
            13,
            "grand totals over all classes: "
            f"{report.name_a} {report.grand_total_a:.2f} s, "
            f"{report.name_b} {report.grand_total_b:.2f} s"
            " (columns with A < 13 excluded from the grid)",
        ),
    }
    written: dict[str, Path] = {}
    for name, (cell, min_a, footer) in tables.items():
        rows, cols, grid = _grid_cells(report, cell, min_a)
        for ext, renderer in _FORMATS.items():
            path = out / f"{name}.{ext}"
            path.write_text(renderer(rows, cols, grid, footer))
            written[f"{name}.{ext}"] = path

    results = out / "results.csv"
    lines = ["N,M,A,test,seconds_a,seconds_b,timeouts_a,timeouts_b"]
    for c in report.classes:
        bc = c.bench_class
        for i, (ta, tb) in enumerate(zip(c.aggregates_a, c.aggregates_b)):
            lines.append(
                f"{bc.lhs_count},{bc.rhs_count},{bc.max_value},{i},"
                f"{ta:.9f},{tb:.9f},{c.timeouts_a},{c.timeouts_b}"
            )
    results.write_text("\n".join(lines) + "\n")
    written["results.csv"] = results

    meta = out / "metadata.json"
    meta.write_text(json.dumps(_metadata(report), indent=2) + "\n")
    written["metadata.json"] = meta
    return written


def _score_cell(c: ClassResult, epsilon: float | None) -> str:
    s = c.score(epsilon)
    return f"{fmt_points(s.points_a)}:{fmt_points(s.points_b)}"


def _metadata(report: BenchReport) -> dict:
    return {
        "schema": "diobasis.bench/1",
        "package_version": __version__,
        "algorithm_a": report.name_a,
        "algorithm_b": report.name_b,
        "seed": report.seed,
        "prng": "random.Random (Mersenne Twister); per-class seed = first 8 bytes of SHA-256('seed:N:M:A')",
        "timing_mode": report.mode,
        "timing_clock": "time.perf_counter around whole solver calls or whole processes",
        "policy": asdict(report.policy),
        "classes_measured": len(report.classes),
        "regenerated_duplicate_tests": sum(c.regenerated for c in report.classes),
        "duplicate_tests_kept_in_small_pools": sum(c.duplicates_kept for c in report.classes),
        "grand_total_a_s": report.grand_total_a,
        "grand_total_b_s": report.grand_total_b,
        "machine": f"{platform.platform()} / Python {platform.python_version()}",
        "harness_elapsed_s": report.elapsed_s,
    }
