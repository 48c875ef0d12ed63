"""tools/code_lines.py, the code-line counter that ROADMAP and CHANGES.md
quote."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).parent.parent / "tools"

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
