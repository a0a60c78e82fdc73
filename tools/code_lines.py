#!/usr/bin/env python3
"""Count the code lines of each Python module: lines that are not blank, not comments and not docstrings.

  python3 tools/code_lines.py [PATH ...]

Each PATH is a module or a directory of modules (default: src/momentsdp).
One line `LINES PHYSICAL PATH` goes out per module, then `LINES PHYSICAL total`:
LINES the code lines and PHYSICAL every line of the file, as `wc -l` counts
them.  A line counts as code when some token of the module other than a
comment, a newline or an indent starts or runs on it, and no docstring (the
first statement of a module, class or function, when it is a string
literal, as `ast` finds it) covers it.  So deleting comments or docstrings
changes no count; joining the lines of one statement does, so compare two
trees only where lines were not joined.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines that the docstrings of the module, its classes and its functions cover."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the module ``source``."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=[Path("src/momentsdp")], type=Path)
    args = parser.parse_args(argv)
    files = sorted(f for p in args.paths for f in ([p] if p.is_file() else p.glob("*.py")))
    total = physical_total = 0
    for f in files:
        source = f.read_text()
        n, physical = code_lines(source), len(source.splitlines())
        total, physical_total = total + n, physical_total + physical
        print(f"{n:7d} {physical:7d} {f}")
    print(f"{total:7d} {physical_total:7d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
