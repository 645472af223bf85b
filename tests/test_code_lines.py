"""The code-line counter in tools/ that the project's size figures quote."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a comment

# a whole-line comment


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring,
        over two lines.
        """
        text = """a multi-line string
assigned to a name"""
        return os.path.join(
            text,
            "b",
        )
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_blanks_comments_and_docstrings(tmp_path, capsys):
    # counted: the import, the class and def lines, both lines of the
    # assigned string and all four lines of the call
    tool = load_tool()
    assert tool.code_lines(FIXTURE) == 9
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert tool.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out == "10\n"
