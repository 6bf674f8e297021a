"""No function, class or method of the package sits unused.

An AST scan of `src/pudsim` lists each top-level function and class
whose name occurs nowhere else in `src/pudsim` or `perfbench/*.py` (no
reference, attribute access or import of it), and each method that is
not a dunder and that no attribute access there names.  Tests do not
count as users, and neither do the package's `__init__.py` re-exports.
The list must equal ALLOWED, which names what is kept although the
package does not use it, and why.

A second scan lists each field of a record class of `src/pudsim` (a
dataclass, or a class built on `namedtuple`) that no attribute read in
those sources names, and must equal ALLOWED_FIELDS.

A third counts the package's settable values, which must equal
SETTABLE_VALUES: a change that adds a knob raises that number and says
why.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pudsim"

ALLOWED = {
    "harness.discover_simra_groups": "group reverse engineering, criterion 4",
    "harness.discover_subarrays": "subarray reverse engineering, criterion 4",
    "harness.random_layout_and_groups": "random ground truth of criterion 4",
    "harness.run_combined": "RowHammer after PuD hammers, criterion 10c",
    "mitigation.PracState.on_refresh": "periodic refresh of PRAC counters, "
    "pinned to its reference; the perf model issues no REF yet",
    "mitigation.weight": "counter weights from first-flip counts, criterion 1",
}

ALLOWED_FIELDS = {
    "disturbance.ChipProfile.vendor": "each profile file names its vendor; "
    "profile metadata that no output reports",
    "disturbance.Bitflip.bit": "which bit of the row flipped; tests pin the "
    "weak bit and the escalation over distinct bits",
    "disturbance.Bitflip.direction": "the value change of a flip by kind; "
    "tests pin the direction of each kind",
    "trreval.BypassResult.per_victim": "flips victim by victim; the TRR pins "
    "compare run_bypass with its references on it",
}


def _sources():
    return [
        *sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]


def _used_names(tree):
    """Every identifier the module refers to, imports or accesses, and
    every name it accesses as an attribute."""
    names, attrs = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
            attrs[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            names[node.arg] += 1
    return names, attrs


def _definitions(module, tree):
    """(qualified name, name, owning class or None) of each top-level
    function and class and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, None
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{item.name}", item.name, node


def _class_level_names(cls):
    """Names the class body refers to outside its methods, such as a
    dispatch table of its methods."""
    return {n.id for item in cls.body if not isinstance(item, ast.FunctionDef)
            for n in ast.walk(item) if isinstance(n, ast.Name)}


def unused_definitions():
    # a method is used only where it is accessed as an attribute or named
    # in its class body: a local variable of the same name does not use it
    used, accessed = Counter(), Counter()
    for path in _sources():
        names, attrs = _used_names(ast.parse(path.read_text(encoding="utf-8")))
        used.update(names)
        accessed.update(attrs)
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, name, cls in _definitions(path.stem, tree):
            if cls is None:
                if not used[name]:
                    unused.add(qualname)
            elif not accessed[name] and name not in _class_level_names(cls):
                unused.add(qualname)
    return unused


def _is_dataclass(cls):
    for d in cls.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if isinstance(f, ast.Name) and f.id == "dataclass":
            return True
    return False


def _namedtuple_fields(cls):
    """Fields of a class built on `namedtuple(name, "field ...")`."""
    for base in cls.bases:
        if (isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
                and base.func.id == "namedtuple"):
            return base.args[1].value.split()
    return []


def _fields(cls):
    """Field names of a record class, in order; none for other classes."""
    if _is_dataclass(cls):
        return [item.target.id for item in cls.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    return _namedtuple_fields(cls)


def unread_fields():
    read = set()
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(cls, ast.ClassDef):
                unread.update(f"{path.stem}.{cls.name}.{name}"
                              for name in _fields(cls) if name not in read)
    return unread


def test_every_definition_is_used_or_allowed():
    assert unused_definitions() == set(ALLOWED)


def test_every_dataclass_field_is_read_or_allowed():
    assert unread_fields() == set(ALLOWED_FIELDS)


# Settable values of the package: each field of a record class, each
# default of a function's parameters, and each command-line option.  The
# defaults of a namedtuple class's `__new__` are its fields' defaults, so
# they count once, with the fields, as a dataclass field's default does.
SETTABLE_VALUES = 137


def settable_values():
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        restated = {id(item) for cls in ast.walk(tree)
                    if isinstance(cls, ast.ClassDef) and _namedtuple_fields(cls)
                    for item in cls.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__new__"}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                count += len(_fields(node))
            elif isinstance(node, ast.FunctionDef) and id(node) not in restated:
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "add_argument"):
                count += 1
    return count


def test_settable_values_are_counted():
    assert settable_values() == SETTABLE_VALUES
