"""Every public top-level function or class of the package, every public
method or property of a package class, and every public field (annotated
name) of a package class is reached from the package itself (by a CLI
handler, a selftest suite or another kernel); the oracles only the tests
use live in tests/oracles.py.  A method is reached only by a call,
`obj.name(...)`; a property by any lookup, `obj.name`; a field by a lookup
in the package or in perfbench/, or by a positional unpacking.  Every
defaulted parameter of a public function is passed by some package
call."""

import ast
from pathlib import Path

import kedges

PKG = Path(kedges.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def _attributes(modules) -> tuple[set, set]:
    """(looked up, called): every attribute name any package module other
    than __init__.py looks up on any object (`obj.name`), and those it calls
    (`obj.name(...)`)."""
    looked_up, called = set(), set()
    for filename, tree in modules.items():
        if filename == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                looked_up.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                called.add(node.func.attr)
    return looked_up, called


def _name(node):
    """The name a decorator or base class is spelled with: `name`,
    `module.name` or either one called, `name(...)`."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _is_property(fn: ast.FunctionDef) -> bool:
    """Decorated @property or @functools.cached_property (either spelling)."""
    return any(_name(d) in ("property", "cached_property") for d in fn.decorator_list)


def _public_methods(modules):
    """(file, "Class.name", is a property) of each public method or property
    defined in the body of a top-level class."""
    for filename, tree in modules.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                        yield filename, f"{cls.name}.{node.name}", _is_property(node)


def _unreached_methods(modules) -> list:
    """The public methods no package call reaches and the public properties
    no package lookup reaches: a field read `row.leq` does not reach a
    method `leq`."""
    looked_up, called = _attributes(modules)
    return [f"{filename}:{name}" for filename, name, is_property in _public_methods(modules)
            if name.split(".")[1] not in (looked_up if is_property else called)]


def _fields(modules):
    """(file, "Class.name", field count) of each public field, an annotated
    name in the body of a top-level class (NamedTuple, dataclass or plain
    class); the count is None unless the class is a NamedTuple (any
    spelling), since only a NamedTuple's instances unpack."""
    for filename, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            named_tuple = any(_name(b) == "NamedTuple" for b in cls.bases)
            names = [node.target.id for node in cls.body
                     if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)]
            for name in names:
                if not name.startswith("_"):
                    yield filename, f"{cls.name}.{name}", len(names) if named_tuple else None


def _unpacked_lengths(modules) -> set:
    """The length of every tuple or list target without a starred element
    in a package module other than __init__.py (`a, b = t`,
    `for a, (b, c) in ...`).  The scan cannot tell the type of the value
    unpacked, so a target as long as a NamedTuple's fields counts as an
    unpacking of it."""
    return {len(node.elts) for filename, tree in modules.items() if filename != "__init__.py"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Tuple, ast.List)) and isinstance(node.ctx, ast.Store)
            and not any(isinstance(elt, ast.Starred) for elt in node.elts)}


def _perfbench_lookups() -> set:
    """Every attribute name perfbench/*.py looks up (`out.config`)."""
    return {node.attr for path in sorted(PERFBENCH.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute)}


def _unread_fields(modules, lookups=frozenset()) -> list:
    """The public fields no package lookup, no lookup in `lookups` and no
    positional unpacking reaches."""
    looked_up = _attributes(modules)[0] | lookups
    unpacked = _unpacked_lengths(modules)
    return [f"{filename}:{name}" for filename, name, count in _fields(modules)
            if name.split(".")[1] not in looked_up and count not in unpacked]


def test_every_public_name_is_reached():
    modules = _modules()
    referenced = _referenced(modules)
    unreached = [
        f"{filename}:{name}" for filename, name in _public_defs(modules)
        if not (name in referenced or name.startswith("cmd_") or name == "main")
    ]
    assert unreached == []


def test_every_public_method_is_reached():
    assert _unreached_methods(_modules()) == []


def test_every_public_field_is_reached():
    assert _unread_fields(_modules(), _perfbench_lookups()) == []


def _defaulted_params(fn: ast.FunctionDef):
    """(name, position) of each parameter of fn that has a default; the
    position is None for a keyword-only parameter."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def _calls(modules):
    """(function name, call node) of each call in a package module other than
    __init__.py to a bare name or to an attribute of an imported module,
    with the name an import gave it (`classify as classify_records`)
    resolved to the name it is defined under."""
    for filename, tree in modules.items():
        if filename == "__init__.py":
            continue
        modules_imported, aliases = set(), {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    local = (alias.asname or alias.name).split(".")[0]
                    aliases[local] = alias.name
                    if isinstance(node, ast.Import) or node.module is None:
                        modules_imported.add(local)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                yield aliases.get(func.id, func.id), node
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and func.value.id in modules_imported):
                yield func.attr, node


def _passes(call: ast.Call, name: str, position) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):  # None: **mapping
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def _unused_knobs(modules):
    calls = {}
    for name, call in _calls(modules):
        calls.setdefault(name, []).append(call)
    for filename, tree in modules.items():
        for fn in tree.body:
            if (not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_")
                    or fn.name == "main"):
                continue
            for param, position in _defaulted_params(fn):
                if not any(_passes(call, param, position) for call in calls.get(fn.name, ())):
                    yield f"{filename}:{fn.name}({param})"


def test_every_defaulted_parameter_is_passed():
    """A default that no package call overrides is a knob nothing turns;
    main(argv) is the process entry point."""
    assert list(_unused_knobs(_modules())) == []


def test_unused_knob_scan_resolves_aliases_and_positions():
    source = ("from .central import classify as classify_records\n"
              "from . import geom\n"
              "def classify(h, k, s_value=None): ...\n"
              "def kernel(ps, cap=3, *, tie_break=False): ...\n"
              "def draw(n, box=None): ...\n"
              "def use(h, ps):\n"
              "    classify_records(h, 1, s_value=2)\n"
              "    geom.kernel(ps, 4)\n"
              "    kernel(ps, tie_break=True)\n"
              "    draw(5)\n")
    assert list(_unused_knobs({"m.py": ast.parse(source)})) == ["m.py:draw(box)"]


def test_attribute_of_a_non_module_is_not_a_reference():
    source = ("from . import geom\n"
              "def oracle(): ...\n"
              "def use(ps):\n"
              "    return ps.oracle, geom.kernel\n")
    referenced = _referenced({"m.py": ast.parse(source)})
    assert "oracle" not in referenced
    assert "kernel" in referenced


def test_a_method_is_reached_only_by_a_call():
    source = ("import functools\n"
              "class Counts:\n"
              "    def leq(self, k): ...\n"
              "    @property\n"
              "    def halving(self): ...\n"
              "    @functools.cached_property\n"
              "    def total(self): ...\n"
              "def use(row, ev):\n"
              "    return row.leq, ev.halving, ev.total\n")
    assert _unreached_methods({"m.py": ast.parse(source)}) == ["m.py:Counts.leq"]
    called = source.replace("row.leq,", "ev.leq(3),")
    assert _unreached_methods({"m.py": ast.parse(called)}) == []


def test_a_field_is_reached_by_a_lookup_or_an_unpacking():
    source = ("from dataclasses import dataclass\n"
              "from typing import NamedTuple\n"
              "@dataclass(frozen=True)\n"
              "class Result:\n"
              "    value: int\n"
              "    margin: tuple\n"
              "class Row(NamedTuple):\n"
              "    k: int\n"
              "    leq: int\n"
              "def use(res, rows):\n"
              "    return res.value, [a + b for a, b in rows]\n")
    assert _unread_fields({"m.py": ast.parse(source)}) == ["m.py:Result.margin"]
    assert _unread_fields({"m.py": ast.parse(source)}, {"margin"}) == []
    starred = source.replace("a, b in rows", "a, *b in rows")
    assert _unread_fields({"m.py": ast.parse(starred)}) == [
        "m.py:Result.margin", "m.py:Row.k", "m.py:Row.leq"]


def test_a_plain_class_field_is_reached_only_by_a_lookup():
    source = ("class Config:\n"
              "    r: int\n"
              "    far: int\n"
              "    scale = 3\n"
              "    def __init__(self, r):\n"
              "        vars(self).update(r=r, far=2 * r)\n"
              "def use(cfg):\n"
              "    a, b = cfg.r, cfg.scale\n"
              "    return a + b\n")
    assert _unread_fields({"m.py": ast.parse(source)}) == ["m.py:Config.far"]
