"""Every public top-level function or class of the package, and every
public method or property of a package class, is reached from the package
itself (by a CLI handler, a selftest suite or another kernel), or is one
of the few names kept only for the tests."""

import ast
from pathlib import Path

import kedges

PKG = Path(kedges.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# Test oracles and the halfperiod tools the property tests use; nothing in
# the package calls them.
TEST_SUPPORT = ("k_center", "rotate_halfperiod", "reverse_halfperiod", "write_halfperiod",
                "edge_vector_bruteforce", "collinear_triples", "convex_polygon_set", "P")
# The exact comparators of SqrtExpr that test_explicit_bound_values checks the
# explicit bound with; the package prints the bound through to_float only.
TEST_SUPPORT_METHODS = ("SqrtExpr.le", "SqrtExpr.ge")


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PKG.glob("*.py"))}


def _referenced(modules) -> set:
    """Every name read (Name), looked up on an imported module (Attribute,
    such as `bnd.bound_table`) or imported (ImportFrom) by a package module
    other than __init__.py.  An attribute of any other object (`ps.name`)
    is a method or property, not a module-level name."""
    names = set()
    for filename, tree in modules.items():
        if filename == "__init__.py":
            continue
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.value, ast.Name) and node.value.id in imported:
                    names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def _public_defs(modules):
    for filename, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield filename, node.name


def _attributes(modules) -> set:
    """Every attribute name any package module other than __init__.py looks
    up, on any object: for a method or property, `obj.name` anywhere in the
    package counts as a reference."""
    return {node.attr for filename, tree in modules.items() if filename != "__init__.py"
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def _public_methods(modules):
    """(file, "Class.name") of each public method or property defined in the
    body of a top-level class."""
    for filename, tree in modules.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        yield filename, f"{cls.name}.{node.name}"


def _other_tests_text() -> str:
    return "\n".join(path.read_text(encoding="utf-8") for path in TESTS.glob("test_*.py")
                     if path.name != Path(__file__).name)


def test_every_public_name_is_reached():
    modules = _modules()
    referenced = _referenced(modules)
    unreached = [
        f"{filename}:{name}" for filename, name in _public_defs(modules)
        if not (name in referenced or name.startswith("cmd_") or name == "main"
                or name in TEST_SUPPORT)
    ]
    assert unreached == []


def test_every_public_method_is_reached():
    modules = _modules()
    attributes = _attributes(modules)
    unreached = [f"{filename}:{name}" for filename, name in _public_methods(modules)
                 if name.split(".")[1] not in attributes and name not in TEST_SUPPORT_METHODS]
    assert unreached == []


def test_test_support_methods_are_test_only_and_used():
    modules = _modules()
    defined = {name for _, name in _public_methods(modules)}
    attributes = _attributes(modules)
    tests = _other_tests_text()
    for name in TEST_SUPPORT_METHODS:
        method = name.split(".")[1]
        assert name in defined, name
        assert method not in attributes, f"{name} is reached from the package; drop it here"
        assert f".{method}(" in tests, f"{name} is used by no test"


def test_test_support_names_are_test_only_and_used():
    modules = _modules()
    defined = {name for _, name in _public_defs(modules)}
    referenced = _referenced(modules)
    tests = _other_tests_text()
    for name in TEST_SUPPORT:
        assert name in defined, name
        assert name not in referenced, f"{name} is reached from the package; drop it here"
        assert f"{name}(" in tests, f"{name} is used by no test"


def test_attribute_of_a_non_module_is_not_a_reference():
    source = ("from . import geom\n"
              "def oracle(): ...\n"
              "def use(ps):\n"
              "    return ps.oracle, geom.kernel\n")
    referenced = _referenced({"m.py": ast.parse(source)})
    assert "oracle" not in referenced
    assert "kernel" in referenced
