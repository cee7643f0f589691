"""Count the code lines of kvq's modules and its public settable values.

A code line is a line of src/kvq/*.py that is not blank, not a comment
alone and not inside a docstring: the first string statement of a module,
class or function, found with an ast walk.  Prints each module's count and
the total.

A settable value is a public setting a user can give kvq: each field of
ModelConfig and of CalibConfig, each mode of model.MODES, and each flag of
every kvq subcommand (cli.build_parser(), --help aside) and each of its
choices.  Prints each group's count and the total, from the kvq package
under SRC_DIR's parent, imported.

    python tools/code_lines.py [SRC_DIR]

SRC_DIR defaults to the src/kvq directory next to this script's parent.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
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


def settable_values(src: Path) -> dict[str, int]:
    """The count of each group of settable values of the kvq package in
    src's parent directory."""
    sys.path.insert(0, str(src.parent))
    from kvq.calibration import CalibConfig
    from kvq.cli import build_parser
    from kvq.model import MODES, ModelConfig

    counts = {"ModelConfig": len(dataclasses.fields(ModelConfig)),
              "CalibConfig": len(dataclasses.fields(CalibConfig)),
              "model.MODES": len(MODES)}
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name, parser in commands.items():
        options = [a for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        counts[f"kvq {name}"] = sum(1 + len(a.choices or ()) for a in options)
    return counts


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "kvq"
    for title, counts in (("code lines", {path.name: code_lines(path)
                                          for path in sorted(src.glob("*.py"))}),
                          ("settable values", settable_values(src))):
        print(title)
        for name, n in counts.items():
            print(f"  {name:<16}{n:>6}")
        print(f"  {'total':<16}{sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
