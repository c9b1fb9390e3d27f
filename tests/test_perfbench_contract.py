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
