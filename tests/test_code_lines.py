"""`tools/code_lines.py`: the code lines of a small module and of a package."""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import code_lines  # noqa: E402

SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


# a comment line does not
class A:
    """Class docstring."""

    x = """a string that is
    no docstring"""

    def f(self, a,
          b):
        """Function docstring."""
        return (a +
                b)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class, x = (2 lines), def (2 lines), return (2 lines)
    assert code_lines.code_lines(SNIPPET) == 8


def test_a_package_is_counted_per_module(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# end\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.count(str(tmp_path)) == {"a.py": 8, "b.py": 1}
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["a.py", "8", "b.py", "1", "total", "9"]
