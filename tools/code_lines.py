"""Code lines of a Python source tree: blanks, comments and docstrings not counted.

    python3 tools/code_lines.py [DIR]

Prints one ``<count>  <file>`` line per ``*.py`` file under ``DIR``
(``src/fluctus`` by default, relative to the repository root), sorted by
path, then ``<total>  total``.  A line counts when a token other than a
comment or a line break starts on it or a multi-line string token spans
it, unless that token is a docstring: the leading string constant of a
module, a class or a function.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> int:
    """The number of code lines in ``source``, a module's text."""
    skip = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def count_tree(root: Path) -> dict[str, int]:
    """Code lines per ``*.py`` file under ``root``, keyed by the relative path."""
    return {path.relative_to(root).as_posix(): count(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src" / "fluctus",
                        help="source tree to count (default: src/fluctus)")
    counts = count_tree(parser.parse_args(argv).root)
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
