"""README's "Exported names" table agrees with the modules' ``__all__``."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = ["cli", "data", "kernels", "model", "optim", "tuners"]


def table_rows() -> dict[str, str]:
    """Each module row of the table, keyed by its module."""
    section = README.split("## Exported names", 1)[1].split("\n## ", 1)[0]
    return {m.group(1): m.group(0) for m in re.finditer(r"^\| `(\w+)` \|.*$", section, re.M)}


def test_one_row_per_module():
    assert sorted(table_rows()) == MODULES


@pytest.mark.parametrize("name", MODULES)
def test_row_names_every_export(name):
    named = set(re.findall(r"`([\w.]+)`", table_rows()[name]))
    module = importlib.import_module(f"mkridge.{name}")
    assert [n for n in module.__all__ if n not in named] == []


@pytest.mark.parametrize("name", MODULES)
def test_row_names_only_what_exists(name):
    """Every name of a row is an attribute path of its module, a member of a
    class the module holds, or another module of the package."""
    module = importlib.import_module(f"mkridge.{name}")
    classes = [c for c in vars(module).values() if inspect.isclass(c)]

    def exists(token):
        obj = module
        for part in token.split("."):
            if not hasattr(obj, part):
                return "." not in token and (
                    token in MODULES or any(hasattr(c, token) for c in classes)
                )
            obj = getattr(obj, part)
        return True

    named = set(re.findall(r"`([\w.]+)`", table_rows()[name]))
    assert [t for t in sorted(named) if not exists(t)] == []
