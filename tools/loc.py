"""Line counts of the mubsic package, per module and in total.

    python3 tools/loc.py [DIR]

DIR defaults to the ``src/mubsic`` beside this tool.  One line per ``*.py``
file under DIR, in path order, gives its non-blank lines and its code lines,
and a last line their totals.  A code line is a non-blank line that lies
outside every docstring (found with ``ast``) and holds a token other than a
comment (found with ``tokenize``).
"""

from __future__ import annotations

import ast
import io
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mubsic"

# Tokens that are not code: comments, line ends, indentation and the end.
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of the docstrings of the module ``source``, of its
    classes and of its functions."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source: str) -> tuple[int, int]:
    """(non-blank lines, code lines) of the Python ``source``."""
    nonblank = {n for n, line in enumerate(source.splitlines(), 1) if line.strip()}
    tokens = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            tokens.update(range(tok.start[0], tok.end[0] + 1))
    return len(nonblank), len(nonblank & tokens - docstring_lines(source))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = pathlib.Path(args[0]) if args else PACKAGE
    rows = [(str(path.relative_to(root)), *counts(path.read_text(encoding="utf-8")))
            for path in sorted(root.rglob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  non-blank  code")
    for name, nonblank, code in rows:
        print(f"{name:<{width}}  {nonblank:>9}  {code:>4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
