"""Count the code lines of a Python source tree.

A code line holds at least one token that is neither a comment nor part of
a docstring (the leading string of a module, class or function body);
blank lines do not count.  Prints one line per module, ``<lines> <path>``,
and the total last.

Usage: python tools/code_lines.py [DIR ...]   (default: src)
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that never make a line count.
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers spanned by the docstrings of ``tree``."""
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


def code_lines(path):
    """The number of code lines in the Python file ``path``."""
    source = Path(path).read_bytes()
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv):
    roots = [Path(arg) for arg in argv] or [Path("src")]
    total = 0
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            count = code_lines(path)
            total += count
            print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
