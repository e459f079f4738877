"""Physical and code lines of each module in src/lassocrescent, and in total.

Code lines leave out blank lines, comment-only lines, and the docstrings of
modules, classes and functions; a line counts when it holds any other token.

    python tools/linecount.py              # the working tree
    python tools/linecount.py --rev REV    # REV -> working tree, per file

With ``--rev`` each file of REV is read through ``git show REV:path``, and
a file present on one side only counts 0 lines on the other.
"""

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/lassocrescent"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def count(source):
    """(physical lines, code lines) of the Python text ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def _git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout


def _counts_now():
    return {p.name: count(p.read_text()) for p in sorted((ROOT / PACKAGE).glob("*.py"))}


def _counts_at(rev):
    names = _git("ls-tree", "--name-only", f"{rev}:{PACKAGE}").split()
    return {n: count(_git("show", f"{rev}:{PACKAGE}/{n}")) for n in names if n.endswith(".py")}


def _total(counts):
    return tuple(map(sum, zip(*counts.values()))) if counts else (0, 0)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", help="git revision to compare the working tree against")
    args = parser.parse_args(argv)
    after = _counts_now()
    if args.rev is None:
        print(f"{'file':<22}{'physical':>10}{'code':>8}")
        for name, (phys, code) in [*after.items(), ("total", _total(after))]:
            print(f"{name:<22}{phys:>10}{code:>8}")
        return
    before = _counts_at(args.rev)
    rows = [(n, before.get(n, (0, 0)), after.get(n, (0, 0))) for n in sorted({*before, *after})]
    rows.append(("total", _total(before), _total(after)))
    print(f"{args.rev} -> working tree")
    print(f"{'file':<22}{'physical':>24}{'code':>24}")
    for name, (p0, c0), (p1, c1) in rows:
        print(f"{name:<22}{f'{p0} -> {p1} ({p1 - p0:+d})':>24}{f'{c0} -> {c1} ({c1 - c0:+d})':>24}")


if __name__ == "__main__":
    main()
