"""tools/code_lines.py, the code-line counter that ROADMAP and CHANGES.md
quote, and tools/uncovered.py, which lists the lines no test runs."""

from __future__ import annotations

import ast
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
TOOLS = ROOT / "tools"

_spec = importlib.util.spec_from_file_location("code_lines", TOOLS / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts as code

# a comment line


class A:
    """Class docstring."""

    x = """a string that is
    not a docstring"""

    def f(self):
        \'\'\'Function docstring.\'\'\'
        return (1,
                2)


async def g():
    "One-line docstring."
    pass
'''


def test_code_lines_skips_blank_comment_and_docstring_lines():
    # import, class, x's two lines, def, return's two lines, async def, pass
    assert code_lines.code_lines(SOURCE) == 9


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# c\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "     1  b.py\n     9  pkg/a.py\n    10  total\n"


def test_code_lines_counts_a_git_revision_and_leaves_the_tree_alone(tmp_path, monkeypatch,
                                                                     capsys):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=tmp_path, check=True, capture_output=True)

    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text(SOURCE, encoding="utf-8")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    (pkg / "b.py").write_text("x = 1\n", encoding="utf-8")
    git("add", "-A")
    git("commit", "-q", "-m", "two")
    (pkg / "a.py").write_text("y = 2\n", encoding="utf-8")  # left uncommitted
    monkeypatch.chdir(tmp_path)
    status = subprocess.run(["git", "status", "--porcelain"], capture_output=True).stdout

    assert code_lines.main(["--rev", "HEAD~1", "src/pkg"]) == 0
    assert capsys.readouterr().out == "     9  a.py\n     9  total\n"
    assert code_lines.main(["--rev", "HEAD", "src/pkg"]) == 0
    assert capsys.readouterr().out == "     9  a.py\n     1  b.py\n    10  total\n"
    assert code_lines.main(["src/pkg"]) == 0  # the files on disk
    assert capsys.readouterr().out == "     1  a.py\n     1  b.py\n     2  total\n"
    # a.py shrank on disk and b.py is new since HEAD~1
    assert code_lines.main(["--against", "HEAD~1", "src/pkg"]) == 0
    assert capsys.readouterr().out == ("     9      1     -8  a.py\n"
                                       "     0      1     +1  b.py\n"
                                       "     9      2     -7  total\n")
    assert (pkg / "a.py").read_text(encoding="utf-8") == "y = 2\n"
    assert subprocess.run(["git", "status", "--porcelain"], capture_output=True).stdout == status


def test_uncovered_lists_the_lines_the_tests_do_not_run():
    done = subprocess.run([sys.executable, str(TOOLS / "uncovered.py"), "-q",
                           "-p", "no:cacheprovider", "tests/test_scorer.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    missed = set(re.findall(r"^(\w+\.py):(\d+): ", done.stdout, re.MULTILINE))
    # The scorer tests harvest nothing, and they run all of score_corpus.
    assert any(module == "harvester.py" for module, _line in missed)
    tree = ast.parse((ROOT / "src" / "stepladder" / "scorer.py").read_text(encoding="utf-8"))
    [score_corpus] = [node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name == "score_corpus"]
    assert not {("scorer.py", str(line))
                for line in range(score_corpus.lineno, score_corpus.end_lineno + 1)} & missed
    assert re.search(r"^ +\d+  scorer\.py$", done.stdout, re.MULTILINE)
