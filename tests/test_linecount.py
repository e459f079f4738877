"""``tools/linecount.py`` counts code lines by the rule CHANGES reports."""

import importlib
import os

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def test_code_lines_leave_out_docstrings_comments_and_blanks(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)
    linecount = importlib.import_module("linecount")
    source = '"""A module docstring."""\n# a comment\n\nx = 1\ny = x + 1\n'
    assert linecount.count(source) == (5, 2)
