"""Workloads of the diobasis benchmark: their inputs, their timed calls, and
the checks every timed output goes through.

The package is used only through its public functions: ``bench.generate_class``
draws the inputs, the ``*_solve`` functions, ``oracle_basis`` and the ``acu``
functions are the timed calls.  Nothing here reaches into solver internals,
so a change inside a solver cannot change what the benchmark checks.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from diobasis import (
    BoundKind,
    CompletionStats,
    Equation,
    LexVariant,
    TailKind,
    basis_to_unifier,
    bench,
    completion_solve,
    equation_to_problem,
    graph_solve,
    lex_solve,
    oracle_basis,
    parse_equation,
    slopes_solve,
    verify_unifier,
)
from diobasis.graph import GraphStats
from diobasis.lex import LexStats
from diobasis.slopes import SlopesStats

SHOWCASE = "104 167 = 165 154 148 159 174 150"
SHOWCASE_SIZE = 5510

# First generator seed of the pinned corpus.  The references (basis size and
# digest per equation) are pinned for it in references.json; a run seed
# permutes coefficients within each side, which permutes the basis
# coordinates and nothing else, so every run is checked against those
# references.
CORPUS_SEED = 0

REFERENCES = Path(__file__).resolve().parent / "references.json"


@dataclass(frozen=True)
class Workload:
    name: str
    classes: tuple[str, ...]
    tests_per_class: int
    calls: tuple[str, ...]
    extra: tuple[str, ...] = ()
    draws: int = 1  # generator seeds per class: 0 .. draws-1
    # Whether the run seed permutes the rhs as well as the lhs.  slopes solves
    # the last two rhs unknowns directly and enumerates the others in order,
    # so reordering the rhs changed single slopes calls by up to 3x and spread
    # solve_tail_s by 35% across seeds.
    permute_rhs: bool = True


LEX_CALLS = tuple(f"lex.{b.value}_{t.value}" for b in BoundKind for t in TailKind)

# Why each workload is what it is: README.md in this directory.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "graph_wide",
            ("4,4,107", "3,5,107", "2,8,39"),
            3,
            ("graph",),
            extra=(SHOWCASE,),
        ),
        Workload(
            "graph_deep",
            ("1,2,1021", "1,2,503", "1,3,503"),
            10,
            ("graph",),
        ),
        Workload(
            "slopes_grid",
            ("1,3,503", "1,4,107", "2,2,503", "3,4,13", "1,6,29", "2,3,39"),
            10,
            ("slopes",),
            permute_rhs=False,
        ),
        Workload(
            "verify_small",
            # No 3,3,13: the oracle's box for it holds 7.5 million vectors.
            tuple(
                f"{n},{m},{a}"
                for n, m in ((1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
                for a in (2, 3, 5)
            )
            + ("1,2,13", "1,3,13", "2,2,13", "2,3,13"),
            10,
            ("oracle",) + LEX_CALLS + ("completion", "graph", "slopes", "acu"),
            draws=2,
        ),
    )
}


@dataclass(frozen=True)
class Task:
    """One equation as the program receives it, plus what maps its basis
    back to the corpus equation the reference was pinned for."""

    eq_id: str
    eq: Equation
    original: Equation
    perm: tuple[int, ...]  # timed coordinate j is corpus coordinate perm[j]


def corpus(workload: Workload) -> list[tuple[str, Equation]]:
    """(id, equation) pairs drawn with ``bench.generate_class``."""
    out = [(f"extra{i}", parse_equation(text)) for i, text in enumerate(workload.extra)]
    for spec in workload.classes:
        (bc,) = bench.parse_class_spec(spec)
        for draw in range(CORPUS_SEED, CORPUS_SEED + workload.draws):
            tests, _ = bench.generate_class(bc, draw)
            out += [
                (f"{spec}@{draw}#{i}", eq)
                for i, eq in enumerate(tests[: workload.tests_per_class])
            ]
    return out


def tasks(
    workload: Workload, equations: list[tuple[str, Equation]], seed: int, pass_no: int
) -> list[Task]:
    """The equations one pass of a run solves: the corpus ``equations`` with
    coefficients permuted within each side.  The same seed and pass give the
    same list.

    Each pass draws its own permutations.  A solver's cost on one equation
    changes with the coefficient order (graph walks, by up to a factor of 4), so a
    call's median over the passes of a run averages over several orders, and
    the seed-to-seed spread of a run's figures comes less from the orders one
    seed happened to draw."""
    rng = random.Random(f"perfbench:{seed}:{pass_no}")
    out = []
    for eq_id, eq in equations:
        lhs_order = rng.sample(range(len(eq.lhs)), len(eq.lhs))
        rhs_order = list(range(len(eq.rhs)))
        if workload.permute_rhs:
            rng.shuffle(rhs_order)
        timed = Equation(
            tuple(eq.lhs[i] for i in lhs_order), tuple(eq.rhs[j] for j in rhs_order)
        )
        perm = tuple(lhs_order) + tuple(len(eq.lhs) + j for j in rhs_order)
        out.append(Task(eq_id, timed, eq, perm))
    return out


# Timed calls: name -> (stats factory or None, call(eq, stats, time_limit)).
# Each returns a basis, except "acu", which gets the oracle's basis and
# returns the unifier's fresh-variable count, or -1 if the unifier fails
# verification.
def _lex_call(name: str):
    bound, tail = name.split(".")[1].split("_")
    variant = LexVariant(BoundKind(bound), TailKind(tail))
    return LexStats, lambda eq, stats, limit: lex_solve(
        eq, variant, stats=stats, time_limit=limit
    )


def unify(eq: Equation, basis) -> int:
    problem = equation_to_problem(eq)
    unifier = basis_to_unifier(problem, basis)
    return len(unifier.fresh_names) if verify_unifier(problem, unifier) else -1


CALLS: dict[str, tuple[Callable | None, Callable]] = {
    "graph": (GraphStats, lambda eq, stats, limit: graph_solve(eq, stats=stats, time_limit=limit)),
    "slopes": (SlopesStats, lambda eq, stats, limit: slopes_solve(eq, stats=stats, time_limit=limit)),
    "completion": (
        CompletionStats,
        lambda eq, stats, limit: completion_solve(eq, stats=stats, time_limit=limit),
    ),
    "oracle": (None, lambda eq, stats, limit: oracle_basis(eq)),
    **{name: _lex_call(name) for name in LEX_CALLS},
}


def load_references() -> dict[str, dict]:
    """Pinned per-equation references, keyed by corpus equation text."""
    return json.loads(REFERENCES.read_text())["equations"]


def canonical(basis, task: Task) -> np.ndarray:
    """The basis in corpus coordinates, rows in lexicographic order."""
    timed = np.array(basis, dtype=np.int64).reshape(len(basis), task.eq.n)
    arr = np.empty_like(timed)
    arr[:, list(task.perm)] = timed
    return arr[np.lexsort(arr.T[::-1])] if len(arr) else arr


def digest(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.astype("<i8").tobytes()).hexdigest()


def structure_error(arr: np.ndarray, eq: Equation) -> str | None:
    """Why ``arr`` cannot be a basis of ``eq``, or None.

    Every element must be natural and nonzero with zero defect, and no
    element may be bounded by another (duplicates included).  The last test
    keeps, per coordinate and value, a bitset of the elements whose
    coordinate is at most that value; ANDing the rows an element selects
    leaves the elements bounded by it, which must be only itself.
    """
    if not len(arr):
        return None
    if arr.min() < 0:
        return "negative coordinate"
    if not arr.any(axis=1).all():
        return "zero element"
    w = np.array(eq.lhs + tuple(-b for b in eq.rhs), dtype=np.int64)
    if (arr @ w).any():
        return "element with nonzero defect"
    k, n = arr.shape
    words = (k + 63) // 64
    rows = np.arange(k)
    word = rows // 64
    flag = np.left_shift(np.uint64(1), (rows % 64).astype(np.uint64))
    masks = np.zeros((n, int(arr.max()) + 1, words), dtype=np.uint64)
    for c in range(n):
        np.bitwise_or.at(masks[c], (arr[:, c], word), flag)
    np.bitwise_or.accumulate(masks, axis=1, out=masks)
    for start in range(0, k, 256):
        block = arr[start : start + 256]
        acc = masks[0, block[:, 0]]
        for c in range(1, n):
            acc &= masks[c, block[:, c]]
        own = rows[start : start + 256]
        acc[own - start, word[own]] &= ~flag[own]
        if acc.any():
            return "element bounded by another element"
    return None
