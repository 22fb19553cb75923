"""Every module of the package parses as Python 3.10, the floor that
``pyproject.toml`` declares, so syntax newer than the floor fails here on
whichever newer interpreter runs the suite."""

import ast
from importlib import resources
from pathlib import Path

import pytest

FLOOR = (3, 10)
PACKAGE = resources.files("pnbundles")


def test_floor_is_the_declared_one():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'requires-python = ">=3.10"' in pyproject.read_text()


@pytest.mark.parametrize("name", sorted(f.name for f in PACKAGE.iterdir() if f.name.endswith(".py")))
def test_module_parses_at_the_floor(name):
    ast.parse((PACKAGE / name).read_text(encoding="utf-8"), filename=name, feature_version=FLOOR)
