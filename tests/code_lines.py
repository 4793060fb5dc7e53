"""Count the code lines of ``src/``: the lines that hold a token, without
docstrings, comments and blank lines.

A line counts when ``tokenize`` finds a token on it other than a comment,
a line break or an indent; the lines of a module's, class's or function's
docstring (``ast``) do not count.  Prints one line per module and the
total.  Run from the repository root::

    python tests/code_lines.py [SRC_DIR]

The name keeps pytest from collecting it.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers spanned by every docstring of ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    text = path.read_text()
    with path.open("rb") as f:
        lines = {tok.start[0] for tok in tokenize.tokenize(f.readline)
                 if tok.type not in SKIP}
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv) -> None:
    root = Path(argv[1]) if len(argv) > 1 \
        else Path(__file__).resolve().parent.parent / "src"
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
