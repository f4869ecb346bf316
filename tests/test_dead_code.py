"""Every module-level function and class of the package has a caller, and
so does every public method or property of a package class (dunder and
_-prefixed names are exempt).

A caller is a non-test file of src/, scripts/ or perfbench/, outside the
definition itself.  A module-level name X of package module m counts as
used only where it is X of that module: the attribute m.X (or
autfilt.m.X), an import of X from m, or the bare name X inside m.  A
public method counts as used as an attribute of any value, or as a bare
name inside its own class (``__call__ = apply``).  String constants count
only in perfbench/tracing.py, whose tracer wraps functions by their string
names.  So a string or an attribute of another module that happens to
equal a name does not keep it alive.  Assignments to __all__ do not count.
Code that only tests call belongs in tests/helpers.py, not in the package.

Every module-level import of a package module is used in that module.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "autfilt"
TRACER = ROOT / "perfbench" / "tracing.py"
CALLER_DIRS = ("src", "scripts", "perfbench")


def _caller_files():
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path


def _uses(node, out):
    """Add to out what node mentions, __all__ assignments left out:
    ("name", x) for a bare name, ("attr", x) for an attribute,
    ("module", m, x) for an attribute x of a name or attribute m, and for
    x imported from module m, and ("string", x) for a string constant."""
    if isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    ):
        return out
    if isinstance(node, ast.Name):
        out.add(("name", node.id))
    elif isinstance(node, ast.Attribute):
        out.add(("attr", node.attr))
        base = node.value
        if isinstance(base, (ast.Name, ast.Attribute)):
            out.add(("module", base.id if isinstance(base, ast.Name) else base.attr, node.attr))
    elif isinstance(node, ast.ImportFrom) and node.module:
        for alias in node.names:
            out.add(("module", node.module.rsplit(".", 1)[-1], alias.name))
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        out.add(("string", node.value))
    for child in ast.iter_child_nodes(node):
        _uses(child, out)
    return out


def _statements():
    """(path, statement, what it mentions) for each top-level statement of
    the caller files: one set per statement, so a definition's own body (a
    recursive call, say) does not count as a use of it."""
    return [
        (path, stmt, _uses(stmt, set()))
        for path in _caller_files()
        for stmt in ast.parse(path.read_text()).body
    ]


def _string_use(path, uses, name):
    return path == TRACER and ("string", name) in uses


def test_every_module_level_definition_has_a_caller():
    statements = _statements()
    unused = []
    for path, stmt, _ in statements:
        if path.parent != PACKAGE or not isinstance(
            stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        module, name = path.stem, stmt.name
        if not any(
            ("module", module, name) in uses
            or (other_path == path and ("name", name) in uses)
            or _string_use(other_path, uses, name)
            for other_path, other, uses in statements
            if other is not stmt
        ):
            unused.append(f"{module}.{name}")
    assert not unused, f"defined but never used outside tests: {unused}"


def test_every_public_method_has_a_caller():
    # a method counts as used when a statement other than its class, or
    # another member of its class, mentions it
    statements = _statements()
    unused = []
    for path, cls, _ in statements:
        if path.parent != PACKAGE or not isinstance(cls, ast.ClassDef):
            continue
        outside = [(p, uses) for p, other, uses in statements if other is not cls]
        members = [(item, _uses(item, set())) for item in cls.body]
        for item, _ in members:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            name = item.name
            inside = [uses for other, uses in members if other is not item]
            if not name.startswith("_") and not (
                any(("attr", name) in uses or _string_use(p, uses, name) for p, uses in outside)
                or any(("attr", name) in uses or ("name", name) in uses for uses in inside)
            ):
                unused.append(f"{path.stem}.{cls.name}.{name}")
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
                        _uses(other, used)
                unused += [f"{path.stem}: {name}" for name in names if ("name", name) not in used]
    assert not unused, f"imported but never used: {unused}"
