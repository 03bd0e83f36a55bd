"""The package promises Python 3.10 (pyproject's requires-python): every
source file of the package, its tests and its benchmark must parse under
the 3.10 grammar, so newer syntax fails here before it reaches a 3.10 user."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "bench")
                 for p in (ROOT / d).rglob("*.py"))


def test_sources_are_found():
    assert any(p.name == "engine.py" for p in SOURCES)
    assert any(p.name == "run.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))
