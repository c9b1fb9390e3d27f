"""Every name a package module imports at module level is read somewhere in
that module: an import nothing reads is dead code."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "diobasis"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def module_imports(body):
    """(bound name, line) of each import among module-level statements,
    those under a module-level ``if`` (``TYPE_CHECKING``) included;
    ``__future__`` imports bind nothing that is read."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno
        elif isinstance(node, ast.If):
            yield from module_imports(node.body + node.orelse)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.name}:{line} {name}"
        for name, line in module_imports(tree.body)
        if name not in read
    ]
    assert not unread, unread
