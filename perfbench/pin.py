#!/usr/bin/env python3
"""Pin the reference basis of every corpus equation at the default seed.

    python3 perfbench/pin.py

For each equation, the first of the workload's reference algorithms that
finishes within PIN_LIMIT_S computes the basis.  None of them is the
algorithm the workload times on that equation, except that verify_small
times everything and is pinned with the graph solver.  Where none finishes,
the workload's own algorithm pins the basis and the entry says
``"independent": false``; the showcase's size is then still pinned
independently, by the 5,510 the paper reports.  The basis is checked for
structure, and its size and SHA-256 digest (rows in lexicographic order,
little-endian int64) go to references.json.
Existing entries are kept, so an interrupted pin resumes.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402
from diobasis import TimeLimitError  # noqa: E402

PIN_LIMIT_S = 60.0  # time limit of each reference call

REFERENCE_CALLS = {
    "graph_wide": ("completion",),
    "graph_deep": ("slopes", "completion"),
    "slopes_grid": ("graph",),
    "verify_small": ("graph",),
}


def main() -> int:
    path = workloads.REFERENCES
    pinned = json.loads(path.read_text())["equations"] if path.exists() else {}
    for name, reference_calls in REFERENCE_CALLS.items():
        workload = workloads.WORKLOADS[name]
        for eq_id, eq in workloads.corpus(workload):
            if eq.text() in pinned:
                continue
            for call in reference_calls:
                start = time.perf_counter()
                try:
                    basis = workloads.CALLS[call][1](eq, None, PIN_LIMIT_S)
                except TimeLimitError:
                    print(f"{name} {eq_id}: {call} over {PIN_LIMIT_S:.0f} s", flush=True)
                    continue
                seconds = time.perf_counter() - start
                break
            else:
                call = workload.calls[0]
                start = time.perf_counter()
                basis = workloads.CALLS[call][1](eq, None, None)
                seconds = time.perf_counter() - start
            task = workloads.Task(eq_id, eq, eq, tuple(range(eq.n)))
            arr = workloads.canonical(basis, task)
            error = workloads.structure_error(arr, eq)
            if error:
                print(f"{name} {eq_id}: {call} basis rejected: {error}", file=sys.stderr)
                return 1
            if eq.text() == workloads.SHOWCASE and len(arr) != workloads.SHOWCASE_SIZE:
                print(f"showcase basis has {len(arr)} elements", file=sys.stderr)
                return 1
            pinned[eq.text()] = {
                "size": len(arr),
                "sha256": workloads.digest(arr),
                "by": call,
                "independent": call not in workload.calls,
                "seconds": round(seconds, 3),
            }
            print(f"{name} {eq_id}: {len(arr)} elements by {call} in {seconds:.2f} s", flush=True)
            path.write_text(json.dumps(
                {"corpus_seed": workloads.CORPUS_SEED, "equations": pinned}, indent=1
            ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
