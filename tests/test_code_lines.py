"""The code-line count of ``tools/code_lines.py``, on a fixture source."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment does not matter

# a comment line


class Box:
    """Class docstring."""

    side: float = 1.0

    def volume(self):
        """Method docstring,

        over three lines."""
        text = """a string that is not a docstring
        spans two lines"""
        return (self.side
                * self.side * self.side), text


def f():
    "A single-quoted docstring."
    return math.pi
'''


def test_blanks_comments_and_docstrings_are_not_counted():
    # import, class, side, def volume, the two-line string, the two-line
    # return, def f and its return
    assert code_lines.count(FIXTURE) == 10


def test_a_string_after_the_first_statement_is_code():
    assert code_lines.count('x = 1\n"""not a docstring"""\n') == 2
    assert code_lines.count('def f():\n    pass\n    "not a docstring"\n') == 3


def test_the_tree_is_counted_per_file_and_printed_with_its_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("y = 2\n\n# done\n")
    assert code_lines.count_tree(tmp_path) == {"a.py": 10, "pkg/b.py": 1}
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "    10  a.py\n     1  pkg/b.py\n    11  total\n"
