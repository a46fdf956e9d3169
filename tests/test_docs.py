"""README's "Exported names" table agrees with the modules' ``__all__``, and
every cross-reference in the package's docstrings names something that exists."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import mkridge

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
MODULES = ["cli", "data", "kernels", "model", "optim", "tuners"]
SOURCES = sorted(p for p in Path(mkridge.__file__).parent.glob("*.py") if p.stem != "__main__")


def exists(module, token):
    """True if ``token`` is an attribute path of ``module``, a member of a
    class the module holds, or another module of the package."""
    classes = [c for c in vars(module).values() if inspect.isclass(c)]
    obj = module
    for part in token.split("."):
        if not hasattr(obj, part):
            return "." not in token and (
                token in MODULES or any(hasattr(c, token) for c in classes)
            )
        obj = getattr(obj, part)
    return True


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
    named = set(re.findall(r"`([\w.]+)`", table_rows()[name]))
    assert [t for t in sorted(named) if not exists(module, t)] == []


def docstring_references(path: Path) -> set[str]:
    """The targets of the ``:func:``, ``:meth:``, ``:attr:`` and ``:class:``
    roles in a source file's docstrings, without a leading ``~``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docs = [
        ast.get_docstring(node) or ""
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    return set(re.findall(r":(?:func|meth|attr|class):`~?([\w.]+)`", "\n".join(docs)))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_docstring_references_resolve(path):
    """A reference resolves in its own module, in the package (also as
    ``mkridge.x`` or ``.x``), or as a member of a class of its module."""
    module = importlib.import_module(f"mkridge.{path.stem}" if path.stem != "__init__" else "mkridge")

    def resolves(token):
        if token.startswith("."):
            token = "mkridge" + token
        if token.startswith("mkridge."):
            return exists(mkridge, token.removeprefix("mkridge."))
        return exists(module, token) or exists(mkridge, token)

    assert [t for t in sorted(docstring_references(path)) if not resolves(t)] == []
