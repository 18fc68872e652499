"""The code-line rule of ``scripts/src_lines.py`` on fixed sources."""

import sys
import textwrap
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import src_lines  # noqa: E402


def count(source: str) -> tuple[int, int]:
    return src_lines.count(textwrap.dedent(source).lstrip("\n"))


def test_docstrings_comments_and_blank_lines_are_not_code():
    total, code = count('''
        """A module docstring
        over two lines."""

        # a comment-only line
        import math


        class A:
            """A class docstring."""

            def f(self):
                """A function
                docstring."""
                return math.pi   # a trailing comment


        async def g():
            """An async function docstring."""
            # another comment
            return 1
    ''')
    # code: import, class, def, return, async def, return
    assert (total, code) == (20, 6)


def test_each_line_of_a_multi_line_statement_counts():
    assert count('''
        x = f(
            1,

            2,
        )
    ''') == (5, 4)


def test_multi_line_string_that_is_not_a_docstring_counts():
    # an assigned string, and a bare string after a function's first statement
    assert count('''
        TEXT = """one
        two
        three"""


        def f():
            y = 1
            """not a docstring:
            the function's body starts above"""
            return y
    ''') == (10, 8)


@pytest.mark.parametrize("source, want", [
    ("", (0, 0)),
    ("# only a comment\n\n", (2, 0)),
    ('"""only a docstring"""\n', (1, 0)),
    ('x = 1\n"""a string after a statement"""\n', (2, 2)),
])
def test_small_sources(source, want):
    assert src_lines.count(source) == want
