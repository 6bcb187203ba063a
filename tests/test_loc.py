"""tools/loc.py's line counts, on a small fixture module."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "loc.py"
spec = importlib.util.spec_from_file_location("loc", TOOL)
loc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(loc)

# Non-blank: lines 1, 2, 4, 5, 8, 9, 11-14, 16 and 17.  Code: lines 5 (its
# trailing comment aside), 8, 11, 14, 16 and 17; the string that is not a
# docstring spans 14-16, but its blank line 15 is not counted.
FIXTURE = '''"""Module docstring,
over two lines."""

# a comment
import os  # trailing comment


class A:
    """One line."""

    def f(self):
        """Two
        lines."""
        text = """not a

docstring"""
        return text
'''


def test_counts_non_blank_and_code_lines():
    assert loc.counts(FIXTURE) == (12, 6)
    assert loc.counts("") == (0, 0)


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "non-blank", "code"], ["a.py", "12", "6"],
                    ["sub/b.py", "1", "1"], ["total", "13", "7"]]
