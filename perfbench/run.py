#!/usr/bin/env python3
"""Benchmark of diobasis: one workload per run, a closed loop, checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload graph_wide --seed 0 --seconds 28 --trace 0

One client in this process sends one call at a time and the next only when
the previous one returns.  A run repeats passes over the workload's equations
until ``--seconds`` would be exceeded (always at least one pass).  Every
output is checked outside the timed region.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate and it holds the per-layer
metrics.  End-to-end times are wall times scaled by the host's speed around
each call, measured with ``probe``.  README.md in this directory says why
the workloads are what they are, why times are scaled, and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import os

# One numpy thread, set before numpy is imported here or in a child process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SPEC = ROOT / "BENCHMARK.json"  # the metric names and units

# Host speed.  Between calls, at most every PROBE_EVERY_S, the run times
# probe(), and every call's wall time is scaled by REFERENCE_PROBE_S over the
# mean of the probes around it.  REFERENCE_PROBE_S is the probe's median on
# the 2-vCPU VM the baseline in README.md was measured on, so scaled times
# read as seconds on that host at its typical speed.
PROBE_EVERY_S = 0.05
REFERENCE_PROBE_S = 1.5e-3
CALL_LIMIT_S = 30.0  # cooperative time limit handed to every solver call
RUN_CAP_S = 120.0  # calls not started by then fail, so a run ends in time
SETUP_STARTS = 7
IMPORT_STARTS = 3
SETUP_CALL = ("2 1 = 1", "0 1 1\n1 0 2\nbasis size: 2\n")
WARMUP_EQUATION = "3 2 = 5 4 7"

# Root span name of each timed call.
SPAN_NAMES = {
    "graph": "graph.solve",
    "slopes": "slopes.solve",
    "completion": "completion.solve",
    "oracle": "core.oracle",
    "acu": "acu.unify",
}

# Counters read from the public stats records: metric -> (call prefix, field).
STATS_FIELDS = {
    "graph.levels": ("graph", "levels"),
    "graph.walks_expanded": ("graph", "walks_expanded"),
    "graph.children": ("graph", "children"),
    "graph.pruned_dominated": ("graph", "pruned_dominated"),
    "slopes.prefixes": ("slopes", "prefixes"),
    "slopes.residuals_scan": ("slopes", "residuals_scan"),
    "slopes.residuals_direct": ("slopes", "residuals_direct"),
    "slopes.candidates": ("slopes", "candidates"),
    "lex.prefixes": ("lex", "prefixes"),
    "lex.emissions": ("lex", "emissions"),
    "completion.levels": ("completion", "levels"),
    "completion.children": ("completion", "children"),
}


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now, best of two.

    It uses nothing of the package, so its time follows only the speed the
    host gives this process.  On a shared VM that speed drifts by up to half
    within minutes, more than any bound a later change is judged by."""
    clock = time.perf_counter
    best = math.inf
    for _ in range(2):
        start = clock()
        table, acc = {}, 0
        for i in range(8000):
            key = (i * 7919) % 1009
            table[key] = acc
            acc += key & 7
        best = min(best, clock() - start)
    return best


def scaled(times: list[float], probes: list[float], before: list[int]) -> list[float]:
    """Wall times scaled to the reference host speed.  ``before[i]`` is the
    index of the last probe taken before call ``i``; the probe after it was
    the first taken after the call."""
    return [
        t * 2 * REFERENCE_PROBE_S / (probes[j] + probes[j + 1])
        for t, j in zip(times, before)
    ]


def tail(times: list[float]) -> tuple[int, float]:
    """(percentile, value): the highest whole percentile with at least 10
    samples above it, by nearest rank.  With 10 samples or fewer no
    percentile qualifies and the maximum is reported as percentile 100."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return 100, ordered[-1]
    p = 100 * (n - 10) // n
    return p, ordered[max(1, math.ceil(p * n / 100)) - 1]


class Run:
    """State of one workload run: inputs, check cache, counts and timings."""

    def __init__(self, workload_name: str, seed: int, limit: int | None = None):
        import workloads

        self.w = workloads
        self.workload = workloads.WORKLOADS[workload_name]
        self.seed = seed
        self.equations = workloads.corpus(self.workload)[:limit]
        self.references = workloads.load_references()
        self.checked: dict[tuple[str, str], str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.deadline = time.perf_counter() + RUN_CAP_S
        self.counters: dict[str, float] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def check_basis(self, task, basis) -> tuple[str | None, str | None]:
        """(error, digest) of a timed basis, checked against the pinned
        reference of its corpus equation."""
        arr = self.w.canonical(basis, task)
        digest = self.w.digest(arr)
        key = (task.original.text(), digest)
        if key not in self.checked:
            error = self.w.structure_error(arr, task.original)
            ref = self.references.get(task.original.text())
            if error is None and ref is None:
                error = "no pinned reference for this equation"
            elif error is None and (ref["size"], ref["sha256"]) != (len(arr), digest):
                error = f"basis of size {len(arr)} differs from the pinned reference (size {ref['size']})"
            self.checked[key] = error
        return self.checked[key], digest

    def setup_starts(self, count: int) -> tuple[list[float], list[float]]:
        """Wall times of fresh CLI processes solving a trivial equation, as
        measured and scaled to the reference host speed."""
        text, expected = SETUP_CALL
        times = []
        probes = [probe()]
        for _ in range(count):
            self.attempted += 1
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "diobasis.cli", "solve", "--no-timing", text],
                cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
            )
            times.append(time.perf_counter() - start)
            probes.append(probe())
            if proc.returncode != 0 or proc.stdout != expected:
                self.fail(f"cli start: exit {proc.returncode}, output {proc.stdout!r}")
        return times, scaled(times, probes, list(range(count)))

    def warm_up(self) -> None:
        """One untimed call of every kind the workload makes."""
        eq = self.w.parse_equation(WARMUP_EQUATION)
        basis = None
        for call in self.workload.calls:
            if call == "acu":
                self.w.unify(eq, basis)
            else:
                basis = self.w.CALLS[call][1](eq, None, CALL_LIMIT_S)

    def run_pass(self, tracer=None, pass_no: int = 0) -> tuple[list[float], list[float]]:
        """Solve every equation of the pass once; returns the wall time of
        every call, as measured and scaled to the reference host speed."""
        tasks = self.w.tasks(self.workload, self.equations, self.seed, pass_no)
        gc.collect()
        times: list[float] = []
        before: list[int] = []
        clock = time.perf_counter
        probes = [probe()]
        probed = clock()
        for task in tasks:
            oracle = None  # (digest, basis) of this task's oracle call
            for call in self.workload.calls:
                if clock() - probed >= PROBE_EVERY_S:
                    probes.append(probe())
                    probed = clock()
                self.attempted += 1
                where = f"{task.eq_id} [{task.eq.text()}] {call}"
                remaining = self.deadline - clock()
                if remaining <= 0:
                    self.fail(f"{where}: not started, run over {RUN_CAP_S:.0f} s")
                    continue
                if call == "acu":
                    stats = None
                    if oracle is None:
                        self.fail(f"{where}: no oracle basis to unify")
                        continue
                    func, args = self.w.unify, (task.eq, oracle[1])
                else:
                    factory, solve = self.w.CALLS[call]
                    stats = factory() if tracer is not None and factory else None
                    func, args = solve, (task.eq, stats, min(CALL_LIMIT_S, remaining))
                error = None
                start = clock()
                if tracer is not None:
                    tracer.begin(SPAN_NAMES.get(call, call), task.eq_id, pass_no, start)
                try:
                    out = func(*args)
                except Exception as exc:  # any failure of the call is scored
                    error = f"raised {type(exc).__name__}: {exc}"
                stop = clock()
                if tracer is not None:
                    tracer.end(stop)
                times.append(stop - start)
                before.append(len(probes) - 1)
                if error is None:
                    error, digest = self.check(call, task, out, oracle)
                    if call == "oracle" and error is None:
                        oracle = (digest, out)
                if error is not None:
                    self.fail(f"{where}: {error}")
                elif stats is not None:
                    self.count(call, stats, len(out))
        probes.append(probe())
        return times, scaled(times, probes, before)

    def check(self, call: str, task, out, oracle) -> tuple[str | None, str | None]:
        """(error, digest) of one call's output; the digest of a basis."""
        if call == "acu":
            return (None if out == len(oracle[1]) else f"unifier check gave {out}"), None
        error, digest = self.check_basis(task, out)
        if error is None and "oracle" in self.workload.calls and call != "oracle":
            if oracle is None:
                error = "no oracle basis to compare with"
            elif digest != oracle[0]:
                error = f"basis of size {len(out)} differs from the oracle's (size {len(oracle[1])})"
        return error, digest

    def count(self, call: str, stats, basis_size: int) -> None:
        prefix = call.split(".")[0]
        c = self.counters
        for metric, (owner, field) in STATS_FIELDS.items():
            if owner == prefix:
                c[metric] = c.get(metric, 0) + getattr(stats, field)
        if prefix == "lex":
            c["lex.evicted"] = c.get("lex.evicted", 0) + stats.insert.evicted
        if prefix == "graph":
            c["graph.max_frontier"] = max(c.get("graph.max_frontier", 0), stats.max_frontier)
        if prefix in ("graph", "slopes"):
            c[f"{prefix}.basis"] = c.get(f"{prefix}.basis", 0) + basis_size


def fresh_import_times(count: int) -> tuple[list[float], list[float]]:
    """Per fresh process: seconds to import numpy, then diobasis on top."""
    code = (
        "import time; t0 = time.perf_counter(); import numpy; "
        "t1 = time.perf_counter(); import diobasis; "
        "print(t1 - t0, time.perf_counter() - t1)"
    )
    numpy_s, package_s = [], []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=60, check=True,
        )
        a, b = proc.stdout.split()
        numpy_s.append(float(a))
        package_s.append(float(b))
    return numpy_s, package_s


def timing_summary(passes: list[list[float]], calls: int) -> dict:
    """total_s, solve_p50_s and solve_tail_s of a run's passes.

    Each call's time is its median over the passes, and total_s sums them.
    The percentiles are taken over these, one sample per call of a pass, so
    their rank does not shift with the number of passes a run fits in.  A
    pass cut short by the run cap is left out unless it is the only one."""
    complete = [t for t in passes if len(t) == calls] or passes[:1]
    samples = [statistics.median(s) for s in zip(*complete)]
    p, value = tail(samples)
    return {
        "total_s": sum(samples),
        "solve_p50_s": statistics.median(samples),
        "solve_tail_s": value,
        "tail_percentile": p,
        "counts": {"samples": len(samples), "passes": len(complete)},
    }


def layer_metrics(
    run: Run, tracer, traced: list[float], untraced: list[float], overhead_s: float
) -> dict:
    """Per-layer metrics per traced pass; layers the workload never calls read 0.

    ``traced`` and ``untraced`` are wall-time pass totals.  ``overhead_s`` is
    the median scaled traced pass total minus the median scaled untraced one:
    a pass and its traced twin run seconds apart, at different host speeds."""
    passes = len(traced)
    selfs = tracer.self_times()

    def self_s(*names: str) -> float:
        return sum(selfs.get(n, (0, 0.0))[1] for n in names) / passes

    def calls(*names: str) -> float:
        return sum(selfs.get(n, (0, 0.0))[0] for n in names) / passes

    counters = {k: v / passes for k, v in run.counters.items()}
    # A maximum over the run's calls, not a sum.
    counters["graph.max_frontier"] = run.counters.get("graph.max_frontier", 0)
    m = {k: counters.get(k, 0) for k in (*STATS_FIELDS, "graph.max_frontier", "lex.evicted")}
    m["graph.search_s"] = self_s("graph.solve")
    m["graph.build_s"] = self_s("graph.build")
    walks, levels = m["graph.walks_expanded"], m["graph.levels"]
    m["graph.us_per_walk"] = 1e6 * m["graph.search_s"] / walks if walks else 0
    m["graph.us_per_level"] = 1e6 * m["graph.search_s"] / levels if levels else 0
    children = m["graph.children"]
    m["graph.useful_ratio"] = counters.get("graph.basis", 0) / children if children else 0
    m["slopes.walk_s"] = self_s("slopes.solve")
    m["slopes.residual_s"] = self_s("slopes.solve3_general")
    m["slopes.pareto_s"] = self_s("slopes.pareto_min")
    m["slopes.slopes3_s"] = self_s("slopes.slopes3")
    cands = m["slopes.candidates"]
    m["slopes.useful_ratio"] = counters.get("slopes.basis", 0) / cands if cands else 0
    for variant in ("huet_one", "huet_two", "lambert_one", "lambert_two"):
        m[f"lex.solve_s.{variant}"] = self_s(f"lex.{variant}")
    m["lex.insert_s"] = self_s("lex.insert_minimal")
    m["completion.solve_s"] = self_s("completion.solve")
    m["completion.is_dominated_s"] = self_s("completion.is_dominated")
    m["completion.insert_s"] = self_s("completion.insert_minimal")
    m["core.oracle_s"] = self_s("core.oracle")
    m["core.pareto_min_s"] = self_s("core.pareto_min", "slopes.pareto_min")
    m["core.pareto_min_calls"] = calls("core.pareto_min", "slopes.pareto_min")
    m["core.insert_minimal_calls"] = calls("lex.insert_minimal", "completion.insert_minimal")
    m["acu.unify_s"] = self_s("acu.unify")
    numpy_s, package_s = fresh_import_times(IMPORT_STARTS)
    m["cli.numpy_import_s"] = statistics.median(numpy_s)
    m["cli.package_import_s"] = statistics.median(package_s)
    # Means, not medians, so that the self times sum to trace.total_s.
    m["trace.total_s"] = statistics.fmean(traced)
    m["trace.untraced_total_s"] = statistics.fmean(untraced)
    m["trace.overhead_s"] = overhead_s
    m["trace.self_sum_s"] = sum(entry[1] for entry in selfs.values()) / passes
    return m


def git_sha() -> str | None:
    """HEAD of the repository this benchmark sits in, or None outside one."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, limit: int | None = None) -> dict:
    """Measure one workload; returns the result object and a run record."""
    import numpy
    from spans import Tracer

    run = Run(name, seed, limit)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "classes": list(run.workload.classes),
        "tests_per_class": run.workload.tests_per_class,
        "extra_equations": list(run.workload.extra),
        "equations": len(run.equations),
        "calls_per_equation": list(run.workload.calls),
    }
    metrics: dict[str, float] = {}
    if not trace:
        setup_wall, setup = run.setup_starts(SETUP_STARTS)
        metrics["setup_s"] = statistics.median(setup)
        record["setup_wall_s"] = setup_wall
        record["setup_samples"] = len(setup)
    run.warm_up()
    tracer = Tracer(name)
    walls: list[list[float]] = []  # per untraced pass, every call in order
    times: list[list[float]] = []  # the same, scaled to the reference host speed
    traced_totals: list[float] = []
    traced_scaled: list[float] = []
    start = time.perf_counter()
    while True:
        wall, scaled_times = run.run_pass(pass_no=len(walls))
        walls.append(wall)
        times.append(scaled_times)
        if trace:
            with tracer.installed():
                traced, traced_times = run.run_pass(tracer, pass_no=len(traced_totals))
            traced_totals.append(sum(traced))
            traced_scaled.append(sum(traced_times))
        elapsed = time.perf_counter() - start
        if elapsed * (len(walls) + 1) / len(walls) > seconds or time.perf_counter() > run.deadline:
            break
    record["passes"] = len(walls)
    record["pass_totals_s"] = [sum(t) for t in walls]
    record["call_times_s"] = walls
    record["scaled_call_times_s"] = times
    if trace:
        record["traced_pass_totals_s"] = traced_totals
        overhead_s = statistics.median(traced_scaled) - statistics.median(map(sum, times))
        metrics = layer_metrics(run, tracer, traced_totals, record["pass_totals_s"], overhead_s)
        record["spans"] = len(tracer.spans)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
    else:
        calls = len(run.equations) * len(run.workload.calls)
        summary = timing_summary(times, calls)
        metrics.update({k: summary[k] for k in ("total_s", "solve_p50_s", "solve_tail_s")})
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["percentiles"] = {
            "solve_p50_s": {"percentile": 50, **summary["counts"]},
            "solve_tail_s": {"percentile": summary["tail_percentile"], **summary["counts"]},
        }
        record["wall"] = timing_summary(walls, calls)
        record["wall"]["setup_s"] = statistics.median(setup_wall)
    record["attempted"] = run.attempted
    record["failed"] = run.failed
    record["fail_ratio"] = run.failed / run.attempted
    record["failures"] = run.failures
    spec = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    return {"result": result, "record": record}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diobasis" / "__init__.py").is_file():
        print(f"error: no diobasis sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    # One CPU for this process and the CLI starts it makes, so that the probes
    # measure the CPU the timed work runs on.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result, record = out["result"], out["record"]
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(out) + "\n"
    )
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {record['passes']} passes, "
        f"fail_ratio {record['fail_ratio']:.6g} ({record['failed']} of {record['attempted']})"
    )
    for name, metric in result["metrics"].items():
        note = record.get("percentiles", {}).get(name)
        suffix = (
            f"  (p{note['percentile']} of {note['samples']} calls, each a median of {note['passes']} passes)"
            if note else ""
        )
        if name in record.get("wall", {}):
            suffix += f"  [unscaled {record['wall'][name]:.6g}]"
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{suffix}")
    print("record: " + json.dumps(
        {k: v for k, v in record.items() if k not in ("call_times_s", "scaled_call_times_s")}
    ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
