"""The ``>>>`` examples in ``src`` docstrings run and print what they show."""

import doctest
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts)
    for path in SRC.rglob("*.py")
    if ">>>" in path.read_text()
)


def test_some_module_has_examples():
    assert MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0
