"""Count the code lines of Python files.

Usage: python tools/code_lines.py [FILE ...]

A code line is one that is neither blank, nor a comment alone, nor inside
the docstring of a module, class or function (found with ``ast``).  The
script prints one line per file, its code lines and its path, then their
total.  With no FILE it counts every module of the ``src/opfbench``
package next to this script, the bundled ``cases`` package included.  It
imports nothing from ``src``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "opfbench"


def docstring_lines(tree) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text, str(path)))
    return sum(1 for k, line in enumerate(text.splitlines(), start=1)
               if k not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def main(argv: list[str]) -> int:
    paths = ([Path(a) for a in argv] if argv
             else sorted(PACKAGE.rglob("*.py")))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        try:
            shown = path.resolve().relative_to(ROOT)
        except ValueError:
            shown = path
        print(f"{count:6d}  {shown}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
