"""Minimal-solution bases of homogeneous linear Diophantine equations.

Four solvers (lexicographic enumeration, completion, graph, slopes) compute
the same canonical basis; a brute-force oracle cross-checks them, an ACU
module turns bases into unifiers, and a benchmark harness compares solver
timings over a seeded class grid.
"""

__version__ = "0.1.0"

from .core import (
    COEFFICIENT_LIMIT,
    DEFAULT_ORACLE_CAP,
    BasisList,
    Bounds,
    CoefficientRangeError,
    DiobasisError,
    Equation,
    EquationFormatError,
    OracleBoxError,
    ResourceLimitError,
    Solution,
    TimeLimitError,
    WeightVector,
    bounds,
    build_weights,
    defect,
    dominates,
    format_basis,
    oracle_basis,
    pareto_min,
    parse_equation,
    solve_normalized,
)
from .lex import (
    ALL_VARIANTS,
    BoundKind,
    LexVariant,
    TailKind,
    lex_solve,
    tail_solve,
)
from .completion import (
    CompletionStats,
    completion_solve,
    completion_step,
)
from .graph import (
    build_defect_graph,
    graph_solve,
    render_adjacency,
)
from .slopes import (
    slopes3,
    slopes_solve,
    solve3_general,
)
from .acu import (
    TopMostProblem,
    Unifier,
    basis_to_unifier,
    equation_to_problem,
    format_unifier,
    problem_to_equation,
    verify_unifier,
)

# Algorithm name -> ``solve(eq, *, time_limit=...)``; ``lex_solve`` also
# takes ``variant=``.
SOLVERS = {
    "lex": lex_solve,
    "completion": completion_solve,
    "graph": graph_solve,
    "slopes": slopes_solve,
}

__all__ = [name for name in dir() if not name.startswith("_")]
