"""The code-line counter's rules, on a small inline source."""

from code_lines import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

# A comment line.
import os  # a trailing comment


def f(x):
    """Function docstring."""
    "and a second string " \\
        "statement, implicitly joined"
    text = """a string that is
not a statement"""
    return (x +
            len(text))
'''


def test_code_lines_counts_every_line_with_a_token_but_layout_comments_and_docstrings():
    # import, def, text = ... over two lines, return over two lines.
    assert code_lines(SOURCE) == 6


def test_code_lines_of_layout_alone_is_zero():
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0
