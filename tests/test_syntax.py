"""Every Python file parses as the oldest Python that pyproject.toml's
requires-python allows, so a newer-only construct fails here, on any
newer Python, before it fails on the oldest one."""

import ast
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
with open(ROOT / "pyproject.toml", "rb") as f:
    # a single ">=major.minor" floor
    FLOOR = tomllib.load(f)["project"]["requires-python"]
OLDEST = tuple(int(part) for part in FLOOR.removeprefix(">=").split("."))
FILES = sorted(
    path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")
)


def test_files_found():
    assert any(path.name == "sift.py" for path in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_parses_as_oldest_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)
