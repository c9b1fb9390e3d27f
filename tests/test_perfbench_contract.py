"""What the benchmark under ``perfbench/`` needs from the package.

The benchmark's own self-tests live in ``perfbench/`` and take tens of
seconds; this keeps the names it wraps and imports checked by the fast
suite, so renaming one of them breaks a test here too.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from diobasis import completion_solve, graph_solve, slopes_solve
from diobasis.core import Equation, oracle_basis

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module,attribute",
    [point[:2] for point in load("spans").WRAP_POINTS],
    ids="{0[0]}.{0[1]}".format,
)
def test_wrap_point_resolves_to_a_callable(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))


def test_workloads_import():
    assert load("workloads").WORKLOADS


def stats_reads():
    """(call, field) for every counter the benchmark reads off a stats record."""
    calls = load("workloads").CALLS
    fields = [*load("run").STATS_FIELDS.values(), ("lex", "insert.evicted"), ("graph", "max_frontier")]
    return [
        pytest.param(call, field, id=f"{call}:{field}")
        for owner, field in fields
        for call in calls
        if call.split(".")[0] == owner
    ]


@pytest.mark.parametrize("call,field", stats_reads())
def test_stats_field_resolves(call, field):
    record = load("workloads").CALLS[call][0]()
    for name in field.split("."):
        record = getattr(record, name)
    assert isinstance(record, int)


def test_every_stats_owner_has_a_call():
    prefixes = {call.split(".")[0] for call in load("workloads").CALLS}
    assert {owner for owner, _ in load("run").STATS_FIELDS.values()} <= prefixes


@pytest.mark.parametrize("call", list(load("workloads").CALLS))
def test_every_call_solves_a_small_equation(call):
    # Called as the benchmark calls it, with its stats record, so that a
    # signature change in a solver entry fails here and not only there.
    factory, solve = load("workloads").CALLS[call]
    eq = Equation((3, 2), (4, 1, 5))
    assert solve(eq, factory() if factory else None, 10.0) == oracle_basis(eq)


@pytest.mark.parametrize(
    "workload,solve",
    [
        ("verify_small", graph_solve),
        ("graph_deep", graph_solve),
        ("graph_wide", graph_solve),
        ("verify_small", completion_solve),
        ("slopes_grid", slopes_solve),
        ("verify_small", slopes_solve),
    ],
    ids=[
        "graph-verify_small",
        "graph-graph_deep",
        "graph-graph_wide",
        "completion-verify_small",
        "slopes-slopes_grid",
        "slopes-verify_small",
    ],
)
def test_basis_matches_the_pinned_reference(workload, solve):
    # The benchmark's pinned size and SHA-256 of each corpus basis, checked
    # on the corpus as drawn (no coefficient permutation).
    workloads = load("workloads")
    references = workloads.load_references()
    for eq_id, eq in workloads.corpus(workloads.WORKLOADS[workload]):
        task = workloads.Task(eq_id, eq, eq, tuple(range(eq.n)))
        arr = workloads.canonical(solve(eq), task)
        ref = references[eq.text()]
        assert (len(arr), workloads.digest(arr)) == (ref["size"], ref["sha256"]), eq_id
