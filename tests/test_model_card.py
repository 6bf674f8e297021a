"""README's model card names every model constant and profile key family.

The card is README's "Model card" section, and a row names what it is
about in backquotes in its first cell.  Each module-level numeric
constant of the modules below (a number, or a tuple, list or dict of
numbers, bound by a top-level assignment) must have a row, and so must
each family of `PROFILE_KEYS`.  Each constant a row names must still
exist, so a row does not outlive its constant.
"""

import ast
import importlib
import re
from pathlib import Path

from pudsim.profiles import PROFILE_KEYS

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("disturbance", "dram", "perf", "mitigation", "trreval")


def _numeric(value):
    if isinstance(value, bool):
        return False
    if isinstance(value, (int, float)):
        return True
    if isinstance(value, dict):
        value = list(value.values())
    return isinstance(value, (tuple, list)) and bool(value) and all(map(_numeric, value))


def model_constants():
    """(module, name) of each module-level numeric constant."""
    found = []
    for name in MODULES:
        module = importlib.import_module(f"pudsim.{name}")
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            found += [(name, t.id) for t in targets
                      if isinstance(t, ast.Name) and _numeric(getattr(module, t.id))]
    return found


def row_names():
    """The backquoted names in the first cell of each row of the card."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("\n## Model card\n")
    end = text.find("\n## ", start + 1)
    rows = [line.split("|")[1] for line in text[start:end].splitlines()
            if line.startswith("| ")]
    return {name for cell in rows for name in re.findall(r"`([^`]+)`", cell)}


def test_the_scan_finds_the_constants():
    names = [name for _, name in model_constants()]
    assert {"T_REF_C", "P_ACT", "T_HIT", "OPENED_MEMO_SIZE", "MAX_WINDOW_VALUES"} <= set(names)


def test_every_constant_has_a_row():
    named = row_names()
    assert [f"{module}.{name}" for module, name in model_constants() if name not in named] == []


def test_every_profile_key_family_has_a_row():
    families = {name.split(".", 1)[0] for name in row_names()}
    assert sorted({key.split(".", 1)[0] for key in PROFILE_KEYS} - families) == []


def test_every_constant_the_card_names_exists():
    modules = [importlib.import_module(f"pudsim.{name}") for name in MODULES]
    constants = {name for name in row_names() if re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name)}
    assert {n for n in constants if not any(hasattr(m, n) for m in modules)} == set()
