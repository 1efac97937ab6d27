"""Every Python file parses as the oldest Python that pyproject.toml
allows (requires-python >= 3.10), so a newer-only construct such as
``except*`` fails here before it fails on that CI leg."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
OLDEST = (3, 10)
FILES = sorted(
    path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")
)


def test_files_found():
    assert any(path.name == "sift.py" for path in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_as_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
