"""The code-line counter in ``tools/code_lines.py`` counts what its docstring says."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# Code lines: 4 (import), 9 (class), 12-13 (a signature over two lines),
# 17-18 (a two-line string that is not a docstring), 19-20 (a bracketed
# continuation), 23 and 25. Not code: the docstrings (1-2, 10, 14-16, 24),
# the comment line 6 and the blank lines.
SAMPLE = '''"""Module docstring
spanning two lines."""

import os  # a trailing comment

# a comment line


class A:
    """Class docstring."""

    def f(self, a,
          b):
        """Function docstring,

        with a blank line."""
        text = """not a
docstring"""
        return (a +
                b)


async def g():
    \'\'\'Async docstring.\'\'\'
    return 1
'''
SAMPLE_CODE_LINES = 10


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_code_lines_of_a_sample_file(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert load_tool().code_lines(path) == SAMPLE_CODE_LINES


def test_main_prints_each_module_and_the_total(tmp_path, monkeypatch, capsys):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "sub" / "one.py").write_text('"""Only a docstring."""\nx = 1\n')
    tool = load_tool()
    monkeypatch.setattr(tool, "PACKAGE", tmp_path)
    assert tool.main() == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{SAMPLE_CODE_LINES:6d}  sample.py",
        f"{1:6d}  {pathlib.Path('sub', 'one.py')}",
        f"{SAMPLE_CODE_LINES + 1:6d}  total",
    ]
