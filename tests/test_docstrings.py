"""Names the package's docstrings cite must exist."""

import ast
import importlib
import pathlib
import re

import surrloss

PACKAGE = pathlib.Path(surrloss.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def _cited_names():
    """(file, name) of every backticked dotted name in a docstring of the
    package whose first part is one of its modules."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                for name in DOTTED.findall(ast.get_docstring(node) or ""):
                    if name.split(".")[0] in MODULES:
                        yield path.name, name


def _resolves(name):
    first, *rest = name.split(".")
    obj = importlib.import_module(f"surrloss.{first}")
    for part in rest:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_docstrings_cite_only_names_that_exist():
    cited = list(_cited_names())
    assert len(cited) >= 20  # the scan finds the package's citations
    assert [(f, name) for f, name in cited if not _resolves(name)] == []
