"""In-memory spans around the calls one diobasis layer makes into another.

Only the benchmark's traced run installs these wrappers; the untraced runs
that give the end-to-end metrics call the package as it is.  A wrapper is
installed where the caller looks the function up (a module global), so
``pareto_min`` as seen from ``slopes`` is traced separately from
``pareto_min`` as seen from ``core``.

A span's self time is its duration minus the time of the wrapped calls made
inside it.  Calls made once per child or residual are not kept as spans of
their own: each such call adds to a count, a summed time and a summed self
time under the nearest enclosing span, so tracing them costs little memory.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name, aggregated under the enclosing span)
WRAP_POINTS = (
    ("diobasis.graph", "build_defect_graph", "graph.build", False),
    ("diobasis.slopes", "slopes3", "slopes.slopes3", False),
    ("diobasis.slopes", "solve3_general", "slopes.solve3_general", True),
    ("diobasis.slopes", "pareto_min", "slopes.pareto_min", True),
    ("diobasis.lex", "insert_minimal", "lex.insert_minimal", True),
    ("diobasis.completion", "insert_minimal", "completion.insert_minimal", True),
    ("diobasis.completion", "is_dominated", "completion.is_dominated", True),
    ("diobasis.core", "pareto_min", "core.pareto_min", True),
)


class Tracer:
    """Collects spans of one workload run.

    An open frame is ``[name, start, child_time, calls, span_id, parent_id]``.
    A span's ``calls`` maps a name to ``[count, total_s, self_s]`` of the
    aggregated calls made inside it; an aggregated call's frame shares the
    ``calls`` table and the id of its enclosing span and has no parent id.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[list] = []
        self._eq_id = ""
        self._pass = 0

    def _open(self, name: str, start: float, parent: int | None) -> list:
        self.spans.append({})  # reserve the id so children can point at it
        return [name, start, 0.0, {}, len(self.spans) - 1, parent]

    def begin(self, name: str, eq_id: str, pass_no: int, start: float) -> None:
        """Open the root span of one timed call; ``start`` is its timer start."""
        self._eq_id = eq_id
        self._pass = pass_no
        self._stack.append(self._open(name, start, None))

    def end(self, stop: float) -> None:
        self._close(self._stack.pop(), stop)

    def _close(self, frame: list, stop: float) -> None:
        name, start, child, calls, span_id, parent = frame
        self.spans[span_id] = {
            "id": span_id,
            "parent": parent,
            "name": name,
            "start": start,
            "end": stop,
            "self_s": stop - start - child,
            "workload": self.workload,
            "eq": self._eq_id,
            "pass": self._pass,
            "calls": calls,
        }

    def _wrap(self, fn, name: str, aggregated: bool):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            start = clock()
            outer = stack[-1]
            if aggregated:
                frame = [name, start, 0.0, outer[3], outer[4], None]
            else:
                frame = self._open(name, start, outer[4])
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stop = clock()
                stack.pop()
                duration = stop - start
                outer[2] += duration
                if aggregated:
                    entry = frame[3].setdefault(name, [0, 0.0, 0.0])
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[2]
                else:
                    self._close(frame, stop)

        return traced

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, aggregated in WRAP_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, aggregated))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> dict[str, list[float]]:
        """Per name: [calls, summed self seconds], spans and aggregates alike."""
        out: dict[str, list[float]] = {}
        for span in self.spans:
            entry = out.setdefault(span["name"], [0, 0.0])
            entry[0] += 1
            entry[1] += span["self_s"]
            for name, (count, _, self_s) in span["calls"].items():
                entry = out.setdefault(name, [0, 0.0])
                entry[0] += count
                entry[1] += self_s
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
