"""The sources parse as the oldest Python that ``pyproject.toml`` promises, which the
test machines need not have."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = tuple(int(x) for x in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())
SOURCES = sorted((ROOT / "src" / "fatscreens").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def test_oldest_python_refuses_newer_syntax():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_as_oldest_python(path):
    ast.parse(path.read_text(), str(path), feature_version=OLDEST)
