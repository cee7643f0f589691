"""Count the code lines of kvq's modules.

A code line is a line of src/kvq/*.py that is not blank, not a comment
alone and not inside a docstring: the first string statement of a module,
class or function, found with an ast walk.  Prints each module's count and
the total.

    python tools/code_lines.py [SRC_DIR]

SRC_DIR defaults to the src/kvq directory next to this script's parent.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers (1-based) covered by the module's, classes' and
    functions' docstrings."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    return sum(1 for i, line in enumerate(text.splitlines(), 1)
               if i not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "kvq"
    counts = {path.name: code_lines(path) for path in sorted(src.glob("*.py"))}
    for name, n in counts.items():
        print(f"{name:<16}{n:>6}")
    print(f"{'total':<16}{sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
