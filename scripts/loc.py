"""Count the code, docstring or comment, and blank lines of src/quaddisc.

A docstring is the first statement of a module, class or function when it is
a string, and every non-blank line it spans counts as docstring.  A comment
line is one whose text starts with `#`.  Every other non-blank line is code.
Prints one line per module and the totals; it reports and gates nothing.

    python scripts/loc.py
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quaddisc"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that docstrings span in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int, int]:
    """(code, docstring or comment, blank) lines of one source file."""
    text = path.read_text()
    docs = docstring_lines(ast.parse(text))
    code = notes = blank = 0
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            blank += 1
        elif number in docs or stripped.startswith("#"):
            notes += 1
        else:
            code += 1
    return code, notes, blank


def main() -> int:
    totals = [0, 0, 0]
    print(f"{'module':<20} {'code':>6} {'notes':>6} {'blank':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        counts = count(path)
        totals = [t + c for t, c in zip(totals, counts)]
        print(f"{path.name:<20} {counts[0]:>6} {counts[1]:>6} {counts[2]:>6}")
    print(f"{'total':<20} {totals[0]:>6} {totals[1]:>6} {totals[2]:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
