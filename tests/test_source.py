"""Static checks on the package source."""
import ast
import pathlib

import pytest

PACKAGE = sorted((pathlib.Path(__file__).parent.parent / "src" / "qhedge").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    src = "import os\nfrom typing import Optional, List\nx: Optional[int] = os.sep\n"
    assert unused_imports(src) == [(2, "List")]


def unread_private_definitions(sources: dict) -> list:
    """Module-level private functions and classes (one leading underscore)
    whose name no module of the package reads, as (module, name) pairs.
    `sources` maps module names to their source text."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted((module, node.name) for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, defs) and node.name.startswith("_")
                  and not node.name.startswith("__") and node.name not in read)


def test_no_unread_private_definitions():
    assert unread_private_definitions({p.name: p.read_text() for p in PACKAGE}) == []


def test_unread_private_definition_is_found():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _orphan():\n    pass\n\n\n"
                "class _Gone:\n    pass\n\n\ndef __dunder__():\n    pass\n",
        "b.py": "from . import a\n\nx = a._used()\n\n\ndef public():\n    return _Local()\n\n\n"
                "class _Local:\n    pass\n",
    }
    assert unread_private_definitions(sources) == [("a.py", "_Gone"), ("a.py", "_orphan")]
