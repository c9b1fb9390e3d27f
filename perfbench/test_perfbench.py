"""Self-tests of the benchmark, on tiny slices of every workload.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = 2  # equations per tiny run


def metric_names(kind: str) -> list[str]:
    return [m["name"] for m in SPEC[kind]]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_prints_exactly_the_named_metrics(name):
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    out = run.run_workload(name, 0, 0.0, trace=False, limit=TINY)
    result = out["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == metric_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    traced = run.run_workload(name, 0, 0.0, trace=True, limit=TINY)["result"]
    assert list(traced["metrics"]) == metric_names("per_layer")


def test_corrupted_basis_counts_as_failure(monkeypatch):
    factory, solve = workloads.CALLS["graph"]

    def corrupted(eq, stats, limit):
        basis = solve(eq, stats, limit)
        return basis[1:]  # drop one element: structurally fine, incomplete

    monkeypatch.setitem(workloads.CALLS, "graph", (factory, corrupted))
    out = run.run_workload("graph_deep", 0, 0.0, trace=False, limit=TINY)
    result = out["result"]
    assert not result["correct"]
    assert result["failed"] == TINY
    assert out["record"]["fail_ratio"] == TINY / result["attempted"]


def test_structure_check_rejects_bad_bases():
    eq = workloads.parse_equation("2 1 = 1")
    task = workloads.Task("t", eq, eq, (0, 1, 2))
    good = workloads.canonical([(0, 1, 1), (1, 0, 2)], task)
    assert workloads.structure_error(good, eq) is None
    for bad in ([(0, 1, 1), (1, 0, 2), (1, 1, 3)], [(0, 1, 1), (0, 1, 1)], [(0, 1, 2)], [(0, 0, 0)]):
        assert workloads.structure_error(workloads.canonical(bad, task), eq)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_changes_equations_not_metric_names(name):
    w = workloads.WORKLOADS[name]
    equations = workloads.corpus(w)

    def eqs(seed, pass_no):
        return [t.eq for t in workloads.tasks(w, equations, seed, pass_no)]

    assert eqs(0, 0) == eqs(0, 0)
    assert eqs(0, 0) != eqs(1, 0)
    assert eqs(0, 0) != eqs(0, 1)
    out = run.run_workload(name, 1, 0.0, trace=False, limit=TINY)["result"]
    assert out["correct"]
    assert list(out["metrics"]) == metric_names("end_to_end")


def test_permuted_basis_maps_back_to_the_pinned_reference():
    refs = workloads.load_references()
    w = workloads.WORKLOADS["graph_wide"]
    for task in workloads.tasks(w, workloads.corpus(w)[:3], 3, 0):
        basis = workloads.CALLS["graph"][1](task.eq, None, None)
        arr = workloads.canonical(basis, task)
        ref = refs[task.original.text()]
        assert (len(arr), workloads.digest(arr)) == (ref["size"], ref["sha256"])
    assert refs[workloads.SHOWCASE]["size"] == workloads.SHOWCASE_SIZE


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_self_times_account_for_traced_total(name):
    from spans import Tracer

    r = run.Run(name, 0, TINY)
    tracer = Tracer(name)
    with tracer.installed():
        total = sum(r.run_pass(tracer)[0])
    assert r.failed == 0
    self_times = [s["self_s"] for s in tracer.spans]
    self_times += [c[2] for s in tracer.spans for c in s["calls"].values()]
    assert min(self_times) >= -1e-9
    assert sum(self_times) <= total + 1e-9
    assert sum(self_times) == pytest.approx(total, rel=1e-6)
    roots = [s for s in tracer.spans if s["parent"] is None]
    assert len(roots) == TINY * len(workloads.WORKLOADS[name].calls)


def test_tail_percentile_keeps_ten_samples_beyond():
    times = [float(i) for i in range(1, 101)]
    assert run.tail(times) == (90, 90.0)
    p, value = run.tail(times[:37])
    assert sum(t > value for t in times[:37]) >= 10 and p == 72
