"""Source hygiene without a linter: every name a library module imports is
read somewhere in that module, every private module-level name is read
somewhere in the package, and so is every public function, class and
method, the package's exports and a listed few that only the benchmark
tracer binds aside."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "proxcalc"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """{bound name: line} for every import statement in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    unused = {name: line for name, line in _imported(tree).items()
              if name not in _read(tree)}
    assert not unused, f"{path.name} imports names it never reads: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import math\nfrom os import path, sep\nprint(sep)\n")
    assert {n for n in _imported(tree) if n not in _read(tree)} == {"math", "path"}


def _private_definitions(tree):
    """{name: line} for the module-level defs, classes and assignments whose
    names start with a single underscore."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        names.update({t: node.lineno for t in targets
                      if t.startswith("_") and not t.startswith("__")})
    return names


def _read_anywhere(trees):
    """Names read as a bare name or as an attribute in any of the trees."""
    return set().union(*(_read(t) for t in trees)) | {
        node.attr for t in trees for node in ast.walk(t)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_private_name_is_read_in_the_package():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    read = _read_anywhere(trees.values())
    unread = {f"{name}:{line} {private}" for name, tree in trees.items()
              for private, line in _private_definitions(tree).items() if private not in read}
    assert not unread, f"private names nothing in the package reads: {sorted(unread)}"


def test_the_check_sees_an_unread_private_name():
    tree = ast.parse("_A = 1\n_B = 2\n__all__ = []\ndef _f():\n    return _A\n"
                     "class _C:\n    pass\nx = m._C(_f())\n")
    assert set(_private_definitions(tree)) - _read_anywhere([tree]) == {"_B"}


# Public names that nothing in the package reads and perfbench/tracer.py binds;
# the list shrinks as the tracer lets go of them.
TRACER_ONLY = {"check_path_independence", "sampled_conjugate_infimum", "prox_many_closed_form",
               "TabulatedConjugate", "Lcg.point_in_cube", "Lcg.point_in_ball", "Lcg.unit_vector"}
TRACER = PACKAGE.parents[1] / "perfbench" / "tracer.py"


def _public_definitions(tree):
    """{name: line} for the module-level defs and classes, and the methods of
    those classes (as Class.method), whose names do not start with an underscore."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names[node.name] = node.lineno
        if isinstance(node, ast.ClassDef):
            names.update({f"{node.name}.{m.name}": m.lineno for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")})
    return names


def _unread_public(trees, init):
    """Public names of the trees that none of them reads and ``init`` does not
    export; a method counts as read where its name is read as an attribute."""
    read = _read_anywhere(trees) | set(_imported(init))
    return {name for tree in trees for name in _public_definitions(tree)
            if name.rsplit(".", 1)[-1] not in read}


def test_every_public_name_is_read_in_the_package():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(PACKAGE.glob("*.py"))}
    unread = _unread_public(list(trees.values()), trees["__init__.py"])
    assert unread == TRACER_ONLY, (f"unread, not allowed: {sorted(unread - TRACER_ONLY)}; "
                                   f"allowed, now read or gone: {sorted(TRACER_ONLY - unread)}")


def test_the_tracer_still_binds_every_allowed_name():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"), filename=str(TRACER))
    named = _read_anywhere([tree]) | {node.value for node in ast.walk(tree)
                                      if isinstance(node, ast.Constant)
                                      and isinstance(node.value, str)}
    assert {n for n in TRACER_ONLY if n.rsplit(".", 1)[-1] not in named} == set()


def test_the_check_sees_an_unread_public_name():
    module = ast.parse("def f():\n    return g()\ndef g():\n    pass\ndef h():\n    pass\n"
                       "def exported():\n    pass\nclass C:\n    def used(self):\n        pass\n"
                       "    def unused(self):\n        pass\n    def _hidden(self):\n        pass\n"
                       "class D:\n    pass\nC().used()\n")
    init = ast.parse("from .m import exported\n")
    assert _unread_public([module, init], init) == {"f", "h", "C.unused", "D"}
