"""No function, class or method of the package sits unused.

An AST scan of `src/pudsim` lists each top-level function and class,
and each method that is not a dunder, whose name occurs nowhere else in
`src/pudsim` or `perfbench/*.py`: no reference, attribute access or
import of it.  Tests do not count as users, and neither do the package's
`__init__.py` re-exports.  The list must equal ALLOWED, which names what
is kept although the package does not use it, and why.
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


def test_every_definition_is_used_or_allowed():
    assert unused_definitions() == set(ALLOWED)
