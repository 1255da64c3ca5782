"""Print the code lines of each ``src/curvfun`` module and their total.

A line counts unless it is blank, a comment, or inside a module, class or
function docstring.  Run it from the repository root:

    python tools/code_lines.py
"""

import ast
import sys
from pathlib import Path

_DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text):
    """The number of code lines in one module's source text."""
    skip = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DEFS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for no, line in enumerate(text.splitlines(), 1)
               if no not in skip and line.strip() and not line.strip().startswith("#"))


def main(root=Path(__file__).resolve().parent.parent / "src" / "curvfun"):
    total = 0
    for path in sorted(root.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print("%-16s %5d" % (path.name, n))
    print("%-16s %5d" % ("total", total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
