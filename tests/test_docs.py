"""The examples in README.md and in module docstrings run as written."""

import doctest
from pathlib import Path

import pytest

from cuescope import bench, corpus

ROOT = Path(__file__).resolve().parents[1]


def test_readme_examples(monkeypatch):
    monkeypatch.chdir(ROOT)  # the examples load data/ by a relative path
    failed, attempted = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert attempted > 0
    assert failed == 0


@pytest.mark.parametrize("module", [bench, corpus])
def test_docstring_examples(module):
    failed, attempted = doctest.testmod(module)
    assert attempted > 0
    assert failed == 0
