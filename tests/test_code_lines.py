import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import sys  # a trailing comment


def f(x):
    """Function docstring."""
    text = """a string
that is not a docstring"""
    return (x,
            text)


class C:
    """Class docstring."""

    y = 1
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # import, def, two lines of ``text``, two of ``return``, class, y
    assert code_lines.code_lines(FIXTURE) == 8


def test_code_lines_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "__main__.py").write_text("import sys\n")
    (tmp_path / "mod.py").write_text(FIXTURE)
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out == (
        f"     1  {tmp_path / '__main__.py'}\n"
        f"     8  {tmp_path / 'mod.py'}\n"
        "     9  total\n"
    )
