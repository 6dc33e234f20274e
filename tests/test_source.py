"""Static checks on the package source."""
import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent
PACKAGE = sorted((ROOT / "src" / "qhedge").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
TESTS = sorted(ROOT.glob("tests/*.py"))
BENCH = sorted(ROOT.glob("bench/*.py"))


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


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_unused_imports_in_tests(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    src = "import os\nfrom typing import Optional, List\nx: Optional[int] = os.sep\n"
    assert unused_imports(src) == [(2, "List")]


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_read(node) -> set:
    """Every name that `node` or a node inside it reads, as a variable or
    as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unread_private_definitions(sources: dict) -> list:
    """Module-level private functions and classes (one leading underscore)
    whose name no module of the package reads, as (module, name) pairs.
    `sources` maps module names to their source text."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    return sorted((module, node.name) for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, DEFINITIONS) and node.name.startswith("_")
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


def unreached_public_definitions(sources: dict, bench_text: str, exempt=("oracles.py",)) -> list:
    """Module-level public functions and classes that nothing outside the
    tests reaches, as (module, name) pairs.  `sources` maps module names to
    their source text.  Reached are: definitions whose name is a whole word
    of `bench_text`, definitions of the modules in `exempt` (references for
    the tests), module-level statements other than definitions, and every
    definition whose name a reached statement reads.
    Re-exports in `__init__.py` are not reads."""
    bench_words = set(re.findall(r"\w+", bench_text))
    statements = [(module, node) for module, text in sources.items()
                  if module != "__init__.py" for node in ast.parse(text).body]
    by_name = {}
    for module, node in statements:
        if isinstance(node, DEFINITIONS):
            by_name.setdefault(node.name, []).append(node)
    todo = [node for module, node in statements
            if not isinstance(node, DEFINITIONS) or module in exempt or node.name in bench_words]
    reached = {id(node) for node in todo}
    while todo:
        node = todo.pop()
        for name in names_read(node):
            for target in by_name.get(name, ()):
                if id(target) not in reached:
                    reached.add(id(target))
                    todo.append(target)
    return sorted((module, node.name) for module, node in statements
                  if isinstance(node, DEFINITIONS) and not node.name.startswith("_")
                  and id(node) not in reached)


def test_no_unreached_public_definitions():
    sources = {p.name: p.read_text() for p in PACKAGE}
    bench = "\n".join(p.read_text() for p in BENCH)
    assert unreached_public_definitions(sources, bench) == []


def test_unreached_public_definition_is_found():
    sources = {
        "__init__.py": "from .a import Kept, helper, orphan, Result, traced\n",
        "a.py": "def helper():\n    return 1\n\n\ndef orphan():\n    return orphan(), Result()\n\n\n"
                "class Result:\n    pass\n\n\nclass Kept:\n    pass\n\n\n"
                "def traced():\n    return _private()\n\n\ndef _private():\n    return helper()\n",
        "b.py": "from .a import Kept\n\nDEFAULT = Kept()\n",
        "oracles.py": "def closed_form():\n    return 0.0\n",
    }
    bench = "tracing.wrap(qhedge.a.traced)  # orphans stay untraced"
    # orphan reads itself and Result, and nothing reached reads either
    assert unreached_public_definitions(sources, bench) == [("a.py", "Result"), ("a.py", "orphan")]
