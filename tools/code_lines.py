"""Count code lines per module: lines that hold code, not counting blank
lines, comment lines or docstring lines.

    python tools/code_lines.py [--rev REV | --against REV] [DIR]

prints one "<lines>  <module>" row per .py file under DIR (default
src/stepladder), then the total.  With --rev, it counts DIR as it is at
the git revision REV of the repository in the current directory, read
with git archive, so neither the working tree nor the index is touched.
With --against, it prints "<at REV> <on disk> <delta>  <module>" for
every module at REV or on disk (0 where it is absent), then the totals.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tarfile
import tokenize
from pathlib import Path, PurePosixPath

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of source that hold a token of code outside
    every docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def _sources(root: str, rev: str | None):
    """(path under root, source) for every .py file under root, on disk or
    at git revision rev."""
    if rev is None:
        for path in Path(root).rglob("*.py"):
            yield (PurePosixPath(path.relative_to(root).as_posix()),
                   path.read_text(encoding="utf-8"))
        return
    done = subprocess.run(["git", "archive", "--format=tar", f"{rev}:{root}"],
                          capture_output=True)
    if done.returncode:
        raise SystemExit(done.stderr.decode(errors="replace").strip())
    with tarfile.open(fileobj=io.BytesIO(done.stdout)) as archive:
        for member in archive:
            if member.isfile() and member.name.endswith(".py"):
                yield (PurePosixPath(member.name),
                       archive.extractfile(member).read().decode("utf-8"))


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description="count code lines per module")
    parser.add_argument("dir", nargs="?", default="src/stepladder")
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--rev", help="count DIR at this git revision")
    which.add_argument("--against", metavar="REV",
                       help="count DIR at REV and on disk, side by side")
    args = parser.parse_args(argv)
    if args.against:
        old = {path: code_lines(source) for path, source in _sources(args.dir, args.against)}
        new = {path: code_lines(source) for path, source in _sources(args.dir, None)}
        rows = [(old.get(path, 0), new.get(path, 0), path) for path in sorted({*old, *new})]
        rows.append((sum(old.values()), sum(new.values()), "total"))
        for before, after, path in rows:
            print(f"{before:6} {after:6} {after - before:+6}  {path}")
        return 0
    total = 0
    for path, source in sorted(_sources(args.dir, args.rev)):
        n = code_lines(source)
        total += n
        print(f"{n:6}  {path}")
    print(f"{total:6}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
