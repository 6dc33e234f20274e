"""Static checks on the package source."""
import ast
import os
import pathlib
import re
import subprocess
import sys

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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


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


def bound_names(node) -> list:
    """The names a module-level statement binds by def, class or
    assignment."""
    if isinstance(node, DEFINITIONS):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)]


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def attributes_loaded(node) -> set:
    """Every attribute that `node` or a node inside it reads; an attribute
    only assigned, augmented included, is not read."""
    return {sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}


def private_members(cls) -> list:
    """The private methods of a class body, and the private attributes its
    methods assign on self, as (name, is_method) pairs."""
    methods = [node for node in cls.body if isinstance(node, FUNCTIONS)]
    attributes = {sub.attr for method in methods for sub in ast.walk(method)
                  if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                  and isinstance(sub.value, ast.Name) and sub.value.id == "self"}
    return [(node.name, True) for node in methods if is_private(node.name)] + [
        (name, False) for name in sorted(attributes) if is_private(name)]


def unread_private_definitions(sources: dict) -> list:
    """Private names (one leading underscore) that no module of the package
    reads, as (module, name) pairs: module-level functions, classes and
    assigned names, and the methods of module-level classes and the
    attributes those set on self, named "Class._name".  A method counts as
    read where its name is, an attribute where it is read as an attribute.
    `sources` maps module names to their source text."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    loaded = set().union(*map(attributes_loaded, trees.values()))
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            found += [(module, name) for name in bound_names(node)
                      if is_private(name) and name not in read]
            if isinstance(node, ast.ClassDef):
                found += [(module, f"{node.name}.{name}") for name, method in private_members(node)
                          if name not in (read if method else loaded)]
    return sorted(found)


def test_no_unread_private_definitions():
    assert unread_private_definitions({p.name: p.read_text() for p in PACKAGE}) == []


def test_unread_private_definition_is_found():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _orphan():\n    pass\n\n\n"
                "class _Gone:\n    pass\n\n\ndef __dunder__():\n    pass\n\n\n"
                "_LIMIT = 1.0\n_REGION_A, (_REGION_B, *_REST) = 0, (1, 2)\n"
                "_TABLE: dict = {}\n_TABLE[_LIMIT] = 0\n__all__ = []\n",
        "b.py": "from . import a\n\nx = a._used() + a._REGION_A\n\n\n"
                "def public():\n    return _Local()\n\n\nclass _Local:\n    pass\n",
    }
    # a subscript assignment reads _TABLE; only names bound are candidates
    assert unread_private_definitions(sources) == [
        ("a.py", "_Gone"), ("a.py", "_REGION_B"), ("a.py", "_REST"), ("a.py", "_orphan")]


def test_unread_private_member_is_found():
    sources = {
        "a.py": "class Box:\n"
                "    def __init__(self):\n        self._kept, (self._spent, self._shared) = 1, (2, 3)\n"
                "        self._count = 0\n        self.size = 1\n        self._fill()\n\n"
                "    def _fill(self):\n        self._count += self._kept\n\n"
                "    def _orphan(self):\n        return self.size\n\n"
                "    def __repr__(self):\n        return 'Box'\n",
        "b.py": "from .a import Box\n\nBOX = Box()\nSHARED = BOX._shared\n",
    }
    # _fill is called and _shared read from another module; _count is
    # only assigned, augmented included, and _spent only assigned
    assert unread_private_definitions(sources) == [
        ("a.py", "Box._count"), ("a.py", "Box._orphan"), ("a.py", "Box._spent")]


def public_methods(cls) -> list:
    """The public methods and properties defined in a class body."""
    return [node for node in cls.body
            if isinstance(node, FUNCTIONS) and not node.name.startswith("_")]


def own_reads(node) -> set:
    """names_read of a statement; for a class, without the bodies of its
    public methods, which are reached on their own."""
    if not isinstance(node, ast.ClassDef):
        return names_read(node)
    methods = {id(m) for m in public_methods(node)}
    parts = node.decorator_list + node.bases + node.keywords
    parts += [stmt for stmt in node.body if id(stmt) not in methods]
    return set().union(*map(names_read, parts))


def unreached_public_definitions(sources: dict, bench_text: str, exempt=("oracles.py",)) -> list:
    """Public functions and classes of the package, and public methods and
    properties of its classes, that nothing outside the tests reaches, as
    (module, name) pairs; a method is named "Class.method".  `sources` maps
    module names to their source text.  Reached are: definitions whose name
    is a whole word of `bench_text`, definitions of the modules in `exempt`
    (references for the tests), module-level statements other than
    definitions, and every definition whose name a reached statement reads
    (a class's private and dunder methods belong to the class).
    Re-exports in `__init__.py` are not reads."""
    bench_words = set(re.findall(r"\w+", bench_text))
    statements = [(module, node) for module, text in sources.items()
                  if module != "__init__.py" for node in ast.parse(text).body]
    definitions = []
    for module, node in statements:
        if isinstance(node, DEFINITIONS):
            definitions.append((module, node.name, node))
        if isinstance(node, ast.ClassDef):
            definitions += [(module, f"{node.name}.{m.name}", m) for m in public_methods(node)]
    by_name = {}
    for module, label, node in definitions:
        by_name.setdefault(node.name, []).append(node)
    todo = [node for module, node in statements if not isinstance(node, DEFINITIONS)]
    todo += [node for module, label, node in definitions
             if module in exempt or node.name in bench_words]
    reached = {id(node) for node in todo}
    while todo:
        node = todo.pop()
        for name in own_reads(node):
            for target in by_name.get(name, ()):
                if id(target) not in reached:
                    reached.add(id(target))
                    todo.append(target)
    return sorted((module, label) for module, label, node in definitions
                  if not node.name.startswith("_") and id(node) not in reached)


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


def test_unreached_public_method_is_found():
    sources = {
        "a.py": "class Box:\n"
                "    def __init__(self):\n        self._fill()\n\n"
                "    def _fill(self):\n        self.used()\n\n"
                "    def used(self):\n        return self.size\n\n"
                "    @property\n    def size(self):\n        return 1\n\n"
                "    def orphan(self):\n        return self.stale\n\n"
                "    @property\n    def stale(self):\n        return 2\n\n"
                "    def traced(self):\n        return 3\n",
        "b.py": "from .a import Box\n\nBOX = Box()\n",
    }
    # used is read by the private _fill, which belongs to Box, and reads
    # size; orphan reads stale, but nothing reached reads orphan
    found = unreached_public_definitions(sources, "wrap(Box.traced)")
    assert found == [("a.py", "Box.orphan"), ("a.py", "Box.stale")]


def scipy_modules(statement: str) -> set:
    """The scipy modules that a fresh interpreter has loaded after running
    `statement`."""
    probe = (statement + "\nimport sys\n"
             "print(*[n for n in list(sys.modules) if n.split('.')[0] == 'scipy'])")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    return set(run.stdout.split())


TINY_MC = """
[model]
kind = gbm
b = 0.05
s = 0.3

[run]
method = mc
seed = 1
n_paths = 2000
scheme = exact-gbm
epsilons = 0.5 0.2
n_probe = 5
p_points = 5
"""

TINY_PDE = """
[model]
kind = gbm
b = 0.05
s = 0.3

[grid]
n_t = 4
x_min = 0.5
x_max = 2.0
n_x = 12
n_z = 12
z_max = 3.0

[run]
method = pipeline
epsilons = 0.2
p_points = 5
"""


def six_subcommands(out) -> str:
    """A statement that runs each qhedge subcommand once on a tiny config
    under the directory `out`, and fails unless each one succeeds."""
    return f"""
import pathlib
from qhedge.cli import main
out = pathlib.Path({str(out)!r})
(out / "mc.ini").write_text({TINY_MC!r})
(out / "pde.ini").write_text({TINY_PDE!r})
codes = [main([command, "--config", str(out / "mc.ini"), "--out", str(out / command)])
         for command in ("price", "dual", "study-epsilon", "compare-oracle")]
codes.append(main(["solve", "--config", str(out / "pde.ini"), "--out", str(out / "solve")]))
codes.append(main(["verify", "--config", str(out / "pde.ini"), "--out", str(out / "verify"),
                   str(out / "solve" / "primal_eps0p2.bin")]))
assert codes == [0] * 6, codes
"""


@pytest.mark.parametrize("step", ["import qhedge", "import qhedge.cli", "six subcommands"])
def test_runtime_loads_no_scipy(tmp_path, step):
    # a run needs numpy only: importing scipy.special alone cost 0.23-0.26 s
    # and 20 MB of resident memory on every command, on 2 vCPUs
    statement = six_subcommands(tmp_path) if step == "six subcommands" else step
    assert scipy_modules(statement) == set()


def test_scipy_subpackage_import_is_found():
    assert "scipy.interpolate" in scipy_modules("import qhedge.cli, scipy.interpolate")


def third_party_imports(sources) -> set:
    """The top-level modules that `sources` (source texts) import, at any
    depth, other than the standard library's and relative imports."""
    names = set()
    for text in sources:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__"}


def test_runtime_dependencies_are_the_imports():
    # a re-added scipy import, or a dependency nothing imports, fails here
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in project["dependencies"]}
    assert third_party_imports(p.read_text() for p in PACKAGE) == declared


def test_third_party_import_is_found():
    src = ("from __future__ import annotations\nimport math, numpy.linalg as la\n"
           "from . import engine\nfrom .errors import Nonfinite\n\n\n"
           "def lazy():\n    from scipy.special import ndtr\n    return ndtr\n")
    assert third_party_imports([src]) == {"numpy", "scipy"}


def passed_arguments(trees) -> dict:
    """For every name called in `trees`, as a function or as a method: the
    keywords its calls pass and the most positional arguments one call
    passes.  A call that unpacks *args or **kwargs passes every parameter
    (keywords None)."""
    out = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords, most = out.get(name, (set(), 0))
            if keywords is None or any(isinstance(a, ast.Starred) for a in node.args) or any(
                    kw.arg is None for kw in node.keywords):
                out[name] = (None, 0)
            else:
                out[name] = (keywords | {kw.arg for kw in node.keywords},
                             max(most, len(node.args)))
    return out


def unset_keyword_parameters(sources: dict, callers) -> list:
    """Defaulted parameters of the package's public functions and public
    methods that no call in `callers` (source texts) passes, by keyword or
    by position, as (module, "function.parameter") pairs; a method is named
    "Class.method".  A call counts for every definition of its name; a
    definition that no call names is left to the reachability check.
    `sources` maps module names to their source text."""
    passed = passed_arguments([ast.parse(text) for text in callers])
    defs = []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, FUNCTIONS):
                defs.append((module, node.name, node, 0))
            elif isinstance(node, ast.ClassDef):
                for m in public_methods(node):
                    static = any(getattr(dec, "id", None) == "staticmethod"
                                 for dec in m.decorator_list)
                    defs.append((module, f"{node.name}.{m.name}", m, 0 if static else 1))
    found = []
    for module, label, node, skip in defs:
        if node.name.startswith("_") or node.name not in passed:
            continue
        keywords, most = passed[node.name]
        if keywords is None:
            continue
        args = node.args.posonlyargs + node.args.args
        defaulted = [(a.arg, i) for i, a in enumerate(args)
                     if i >= len(args) - len(node.args.defaults)]
        defaulted += [(a.arg, None) for a, default in zip(node.args.kwonlyargs,
                                                           node.args.kw_defaults)
                      if default is not None]
        found += [(module, f"{label}.{arg}") for arg, i in defaulted
                  if arg not in keywords and (i is None or i - skip >= most)]
    return sorted(found)


def test_no_unset_keyword_parameters():
    sources = {p.name: p.read_text() for p in SOURCES}
    callers = [p.read_text() for p in SOURCES + BENCH]
    assert unset_keyword_parameters(sources, callers) == []


def test_unset_keyword_parameter_is_found():
    sources = {
        "a.py": "def solve(grid, refine=None, *, pad=0, knob=2, steps=None):\n    pass\n\n\n"
                "def blur(x, width=1.0, *, mode='same'):\n    pass\n\n\n"
                "class Box:\n"
                "    def fill(self, value=0.0, extra=None):\n        pass\n\n"
                "    @staticmethod\n    def make(size=1):\n        pass\n",
    }
    callers = [
        "from .a import Box, blur, solve\n\n"
        "solve(grid, 2, pad=1)\nsolve(grid)\nblur(*args)\n"
        "Box().fill(1.0)\nBox.make(3)\n",
        "def wrap(fn):\n    return fn(steps=1)\n",
    ]
    # refine and pad are passed, knob never, steps only to another name;
    # blur(*args) may pass anything; fill's self takes no argument of the
    # call, while the static make has no self
    assert unset_keyword_parameters(sources, callers) == [
        ("a.py", "Box.fill.extra"), ("a.py", "solve.knob"), ("a.py", "solve.steps")]
