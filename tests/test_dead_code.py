"""Every module-level function and class of the package has a caller, and
so does every public method or property of a package class (dunder and
_-prefixed names are exempt).

A name counts as used when a non-test file of src/, scripts/ or perfbench/
mentions it outside its own definition: as a name, as an attribute, or as
a string constant equal to the name (perfbench's tracer wraps functions by
their string names).  Assignments to __all__ do not count.  Code that only
tests call belongs in tests/helpers.py, not in the package.

Every module-level import of a package module is used in that module.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "autfilt"
CALLER_DIRS = ("src", "scripts", "perfbench")


def _caller_files():
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path


def _mentions(node, out):
    """Add the names mentioned in node to out, __all__ assignments left out."""
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        return out
    if isinstance(node, ast.Name):
        out.add(node.id)
    elif isinstance(node, ast.Attribute):
        out.add(node.attr)
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        out.add(node.value)
    for child in ast.iter_child_nodes(node):
        _mentions(child, out)
    return out


def _statements():
    """(path, statement, names it mentions) for each top-level statement of
    the caller files: one name set per statement, so a definition's own
    body (a recursive call, say) does not count as a use of it."""
    return [
        (path, stmt, _mentions(stmt, set()))
        for path in _caller_files()
        for stmt in ast.parse(path.read_text()).body
    ]


def test_every_module_level_definition_has_a_caller():
    statements = _statements()
    unused = [
        f"{path.stem}.{stmt.name}"
        for path, stmt, _ in statements
        if path.parent == PACKAGE
        and isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not any(stmt.name in names for _, other, names in statements if other is not stmt)
    ]
    assert not unused, f"defined but never used outside tests: {unused}"


def test_every_public_method_has_a_caller():
    # a method counts as used when a statement other than its class, or
    # another member of its class, mentions it
    statements = _statements()
    unused = []
    for path, cls, _ in statements:
        if path.parent != PACKAGE or not isinstance(cls, ast.ClassDef):
            continue
        outside = [names for _, other, names in statements if other is not cls]
        members = [(item, _mentions(item, set())) for item in cls.body]
        for item, _ in members:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            inside = [names for other, names in members if other is not item]
            if not item.name.startswith("_") and not any(
                item.name in names for names in outside + inside
            ):
                unused.append(f"{path.stem}.{cls.name}.{item.name}")
    assert not unused, f"public methods never used outside tests: {unused}"


def _bound_names(stmt):
    """The names a module-level import binds; __future__ imports bind none."""
    if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return []
    if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
        return []
    return [(alias.asname or alias.name).split(".")[0] for alias in stmt.names]


def test_every_module_level_import_is_used_in_its_module():
    unused = []
    # __init__ imports the submodules to export them
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        body = ast.parse(path.read_text()).body
        for stmt in body:
            names = _bound_names(stmt)
            if names:
                used = set()
                for other in body:
                    if other is not stmt:
                        _mentions(other, used)
                unused += [f"{path.stem}: {name}" for name in names if name not in used]
    assert not unused, f"imported but never used: {unused}"
