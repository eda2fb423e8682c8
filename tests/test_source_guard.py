"""Checks on the program's source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "opfbench"


def _imports(tree):
    """Every module name an import statement in tree reads, with each
    name a ``from`` import takes as module.name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_scipy_optimize():
    # HiGHS is the tests' LP oracle (``helpers.lp_oracle``); a solve path
    # through it would make the oracle check the program against itself
    paths = sorted(SRC.rglob("*.py"))
    assert len(paths) >= 10
    found = [
        f"{path.relative_to(SRC)}: {name}"
        for path in paths
        for name in _imports(ast.parse(path.read_text(), str(path)))
        if name == "scipy.optimize" or name.startswith("scipy.optimize.")
    ]
    assert found == []
