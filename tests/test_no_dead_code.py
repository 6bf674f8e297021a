"""No function, class or method of the package sits unused.

An AST scan of `src/pudsim` lists each top-level function and class,
and each method that is not a dunder, whose name occurs nowhere else in
`src/pudsim` or `perfbench/*.py`: no reference, attribute access or
import of it.  Tests do not count as users, and neither do the package's
`__init__.py` re-exports.  The list must equal ALLOWED, which names what
is kept although the package does not use it, and why.

A second scan lists each field of a dataclass of `src/pudsim` that no
attribute read in those sources names, and must equal ALLOWED_FIELDS.
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
    "mitigation.PracUpdate.backoff": "the device's back-off signal; the perf "
    "model reads PracState.backoff_pending, tests pin both",
    "trreval.BypassResult.per_victim": "flips victim by victim; the TRR pins "
    "compare run_bypass with its references on it",
}


def _sources():
    return [
        *sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]


def _used_names(tree):
    """Every identifier the module refers to, imports or accesses."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.keyword) and node.arg:
            names[node.arg] += 1
    return names


def _definitions(module, tree):
    """(qualified name, name) of each top-level function and class and
    each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{module}.{node.name}.{item.name}", item.name


def unused_definitions():
    used = Counter()
    for path in _sources():
        used.update(_used_names(ast.parse(path.read_text(encoding="utf-8"))))
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualname, name in _definitions(path.stem, tree):
            if not used[name]:
                unused.add(qualname)
    return unused


def _is_dataclass(cls):
    for d in cls.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if isinstance(f, ast.Name) and f.id == "dataclass":
            return True
    return False


def unread_fields():
    read = set()
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for item in cls.body:
                if (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                        and item.target.id not in read):
                    unread.add(f"{path.stem}.{cls.name}.{item.target.id}")
    return unread


def test_every_definition_is_used_or_allowed():
    assert unused_definitions() == set(ALLOWED)


def test_every_dataclass_field_is_read_or_allowed():
    assert unread_fields() == set(ALLOWED_FIELDS)
