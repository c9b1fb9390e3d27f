"""Unifier construction for top-most ACU problems.

A top-most problem equates two flattened applications of one variadic
AC-with-unit symbol to variables with multiplicities; it maps one-to-one
onto an equation whose coefficient vectors are those multiplicities.  Every
minimal solution of the equation contributes one fresh variable, and each
original variable receives the multiset of fresh variables weighted by its
coordinate across the basis.  The unit element permits empty assignments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import BasisList, Equation, Solution


@dataclass(frozen=True)
class TopMostProblem:
    """f*(u_1...u_l) = f*(v_1...v_k) with per-variable multiplicities."""

    symbol: str
    lhs: tuple[int, ...]
    rhs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "lhs", tuple(self.lhs))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        if min(self.lhs + self.rhs, default=0) < 1:
            raise ValueError("multiplicities must be >= 1")

    @property
    def variable_names(self) -> tuple[str, ...]:
        lhs = tuple(f"u{i + 1}" for i in range(len(self.lhs)))
        rhs = tuple(f"v{j + 1}" for j in range(len(self.rhs)))
        return lhs + rhs


@dataclass
class Unifier:
    """Assignment of a fresh-variable multiset to every original variable."""

    fresh_names: tuple[str, ...]
    assignments: dict[str, dict[str, int]]


def problem_to_equation(problem: TopMostProblem) -> Equation:
    """The Diophantine equation whose coefficients are the multiplicities."""
    return Equation(problem.lhs, problem.rhs)


def equation_to_problem(eq: Equation, symbol: str = "f") -> TopMostProblem:
    return TopMostProblem(symbol, eq.lhs, eq.rhs)


def basis_to_unifier(problem: TopMostProblem, basis: Iterable[Solution]) -> Unifier:
    """Combine the minimal solutions into a most general ACU unifier.

    Fresh variables z1..zm follow the lexicographic order of the basis, and
    variable number i receives fresh variable j with the multiplicity of
    coordinate i in basis element j.  Zero multiplicities are simply absent,
    which the unit element allows.
    """
    ordered: BasisList = sorted(basis)
    names = problem.variable_names
    fresh = tuple(f"z{j + 1}" for j in range(len(ordered)))
    assignments: dict[str, dict[str, int]] = {name: {} for name in names}
    for j, sol in enumerate(ordered):
        if len(sol) != len(names):
            raise ValueError(
                f"basis element of length {len(sol)} for a {len(names)}-variable problem"
            )
        for i, count in enumerate(sol):
            if count:
                assignments[names[i]][fresh[j]] = count
    return Unifier(fresh_names=fresh, assignments=assignments)


def verify_unifier(problem: TopMostProblem, unifier: Unifier) -> bool:
    """Check the substitution equates both sides as flat multisets.

    After substituting and flattening, each fresh variable must occur equally
    often on both sides: its lhs count is the multiplicity-weighted sum over
    the u_i assignments, and likewise on the right.
    """
    names = problem.variable_names
    if set(unifier.assignments) != set(names):
        return False
    l = len(problem.lhs)
    for z in unifier.fresh_names:
        left = sum(
            problem.lhs[i] * unifier.assignments[names[i]].get(z, 0)
            for i in range(l)
        )
        right = sum(
            problem.rhs[j] * unifier.assignments[names[l + j]].get(z, 0)
            for j in range(len(problem.rhs))
        )
        if left != right:
            return False
    # No assignment may mention a variable outside the declared fresh set.
    known = set(unifier.fresh_names)
    return all(set(m) <= known for m in unifier.assignments.values())


def format_unifier(unifier: Unifier, unit: str = "e") -> str:
    """One line per variable: ``u1 = z3 + 2*z7``; the unit marks empty multisets."""
    index = {z: j for j, z in enumerate(unifier.fresh_names)}
    lines = []
    for name, multiset in unifier.assignments.items():
        if multiset:
            terms = [
                z if multiset[z] == 1 else f"{multiset[z]}*{z}"
                for z in sorted(multiset, key=index.__getitem__)
            ]
            lines.append(f"{name} = " + " + ".join(terms))
        else:
            lines.append(f"{name} = {unit}")
    return "\n".join(lines)
