"""Every public name of the package has a reader outside its definition.

Public names are the module-level functions, classes and assignments and
the public methods and properties of every class.  References are
collected with ast from the package, the scripts and the benchmark
harness: a name read as a variable, an attribute or an import alias (a
method or property counts as read when its name is read as an
attribute).  Operators (dunder methods) are not names and are not
checked here.  Method readers are not keyed by class: a read of an
attribute of the same name on any object counts, so a method with a
common name (`T`, `block`, `level`, `gram`, `act`; numpy's `.T` alone
keeps every `T` alive) passes however it is used, and a sweep for
unused methods needs a line tracer besides this test.  Strings do not count, so neither __all__ nor a docstring
keeps a name alive, and tests do not count either: a helper only tests
call belongs in the tests.  The only exceptions are the oracles that tests
check the builder against.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "vircut").glob("*.py"))
READERS = PACKAGE + sorted((ROOT / "scripts").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))

# Independent routes the tests compare the builder against.
ORACLES = {"gram_entry_direct", "enumerate_partitions", "exact_rank_nullspace"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _public_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if not n.startswith("_")]


def _public_methods(tree: ast.Module) -> list[tuple[str, str]]:
    """(class, name) of every public method and property of the module's
    classes."""
    return [(node.name, item.name) for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


def _references(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def test_every_public_name_has_a_reader():
    read = set().union(*(_references(_tree(path)) for path in READERS))
    unread = [f"{path.stem}.{name}" for path in PACKAGE
              for name in _public_definitions(_tree(path))
              if name not in read and name not in ORACLES]
    assert unread == []


def test_every_public_method_has_a_reader():
    read = set().union(*(_references(_tree(path)) for path in READERS))
    unread = [f"{path.stem}.{cls}.{name}" for path in PACKAGE
              for cls, name in _public_methods(_tree(path)) if name not in read]
    assert unread == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in PACKAGE:
        tree = _tree(path)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.stem}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.partition(".")[0]) not in used]
    assert unused == []
