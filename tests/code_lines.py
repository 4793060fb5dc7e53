"""Count the code lines of ``src/``: the lines that hold a token, without
docstrings, comments and blank lines.

A line counts when ``tokenize`` finds a token on it other than a comment,
a line break or an indent; the lines of a module's, class's or function's
docstring (``ast``) do not count.  Prints one line per module and the
total.  Given a git revision, prints that revision's count of each module
beside the tree's, with the difference; the revision's files are read with
``git show``, so nothing is checked out.  Run from the repository root::

    python tests/code_lines.py [REV] [--src SRC_DIR]

The name keeps pytest from collecting it.
"""

import argparse
import ast
import io
import subprocess
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


def code_lines(text: str) -> int:
    """The code lines of the module source ``text``."""
    readline = io.BytesIO(text.encode()).readline
    lines = {tok.start[0] for tok in tokenize.tokenize(readline)
             if tok.type not in SKIP}
    return len(lines - docstring_lines(ast.parse(text)))


def tree_counts(src: Path) -> dict:
    """The code lines of every module under ``src``, by relative path."""
    return {str(path.relative_to(src)): code_lines(path.read_text())
            for path in src.rglob("*.py")}


def revision_counts(rev: str, src: Path) -> dict:
    """The code lines of every module under ``src`` at the git revision
    ``rev``, read with ``git show``."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], check=True,
                              capture_output=True, text=True).stdout
    names = git("ls-tree", "-r", "--name-only", rev, ".").split()
    return {name: code_lines(git("show", f"{rev}:./{name}"))
            for name in names if name.endswith(".py")}


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", nargs="?",
                    help="a git revision to compare the tree with")
    ap.add_argument("--src", type=Path,
                    default=Path(__file__).resolve().parent.parent / "src")
    args = ap.parse_args(argv)
    tree = tree_counts(args.src)
    if args.rev is None:
        for name in sorted(tree):
            print(f"{tree[name]:6d}  {name}")
        print(f"{sum(tree.values()):6d}  total")
        return
    old = revision_counts(args.rev, args.src)
    rows = [(old.get(name, 0), tree.get(name, 0), name)
            for name in sorted(old.keys() | tree.keys())]
    rows.append((sum(old.values()), sum(tree.values()), "total"))
    print(f"{args.rev[:12]:>12}  {'tree':>6}  {'diff':>6}")
    for a, b, name in rows:
        print(f"{a:12d}  {b:6d}  {b - a:+6d}  {name}")


if __name__ == "__main__":
    main()
