import ast
from collections import Counter
from pathlib import Path

import xideform

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "xideform").glob("*.py"))
BENCH = [path for path in sorted((ROOT / "perfbench").glob("*.py")) if path.name != "test_perfbench.py"]


def test_every_exported_name_resolves():
    missing = [name for name in xideform.__all__ if not hasattr(xideform, name)]
    assert not missing
    assert len(set(xideform.__all__)) == len(xideform.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from xideform import *", namespace)
    assert set(xideform.__all__) <= namespace.keys()


def _definitions(tree):
    """(name, node) of each module-level function and constant; dunders are left out."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    yield target.id, node


def _members(tree):
    """(class name, member name, node) of each method, property and staticmethod of a
    module-level class; dunders, which Python itself calls, are left out."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    yield cls.name, node.name, node


def _attribute_loads(node):
    """Every attribute that node reads: a method, property or staticmethod is reached as
    `obj.member` or `Class.member`, so a local variable of the same name does not count."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _loads(node):
    """Every name that node reads: an attribute, a Name in Load context, or an imported name."""
    yield from _attribute_loads(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _package_trees():
    """The parsed package and benchmark modules."""
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES + BENCH}


def test_no_module_level_name_of_the_package_serves_only_the_tests():
    # each function and constant of src/xideform is exported or read by the package or the
    # benchmark outside its own definition; a reference that only tests call lives in the tests
    trees = _package_trees()
    loads = Counter(name for tree in trees.values() for name in _loads(tree))
    unused = [f"{path.stem}.{name}" for path in SOURCES for name, node in _definitions(trees[path])
              if name not in xideform.__all__ and loads[name] == Counter(_loads(node))[name]]
    assert not unused


def test_no_class_member_of_the_package_serves_only_the_tests():
    # the same rule for each method, property and staticmethod of a src/xideform class,
    # counting attribute reads only
    trees = _package_trees()
    loads = Counter(name for tree in trees.values() for name in _attribute_loads(tree))
    unused = [f"{path.stem}.{cls}.{name}" for path in SOURCES for cls, name, node in _members(trees[path])
              if loads[name] == Counter(_attribute_loads(node))[name]]
    assert not unused
