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


def _loads(node):
    """Every name that node reads: a Name or Attribute in Load context, or an imported name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_no_module_level_name_of_the_package_serves_only_the_tests():
    # each function and constant of src/xideform is exported or read by the package or the
    # benchmark outside its own definition; a reference that only tests call lives in the tests
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES + BENCH}
    loads = Counter(name for tree in trees.values() for name in _loads(tree))
    unused = [f"{path.stem}.{name}" for path in SOURCES for name, node in _definitions(trees[path])
              if name not in xideform.__all__ and loads[name] == Counter(_loads(node))[name]]
    assert not unused
