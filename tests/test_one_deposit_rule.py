"""The simulator has one deposit rule, written in `disturbance` only.

Which rows a hammer disturbs, how far each is from the op and how hard
it is hit are decided by the blast radius `MAX_DISTANCE`, the neighbour
offsets, the nearest member of a group op (found by bisection) and the
group-size factor `simra_n_factor`, whose base is the model constant
`SIMRA_N32_MULT`.  An AST scan of `src/pudsim` finds each of them: the
radius, the offsets and the bisection belong to `disturbance`, the
nearest member is searched once, the group factor is applied by
`contribution` alone, and no chip profile carries a group-strength
field.  Every other module asks `deposits` or `victim_distances`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pudsim"

GROUP_FACTOR = {"simra_n_factor"}
BISECT = {"bisect", "bisect_left", "bisect_right"}


def _callee(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def calls_by_function(tree, names):
    """Name of the innermost function around each call of one of `names`
    (None at module level), in source order."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call) and _callee(node) in names:
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def radius_reads(tree):
    """Lines that name the blast radius `MAX_DISTANCE`."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "MAX_DISTANCE")
        or (isinstance(node, ast.Attribute) and node.attr == "MAX_DISTANCE")
        or (isinstance(node, ast.ImportFrom)
            and any(a.name == "MAX_DISTANCE" for a in node.names))
    )


def _signed(node):
    """(row, offset, sign) of `row - offset` or `row + offset`, the row
    and offset as AST dumps, else None."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return ast.dump(node.left), ast.dump(node.right), isinstance(node.op, ast.Add)
    return None


def _sides(node):
    try:
        return sorted(ast.literal_eval(node)) == [-1, 1]
    except (ValueError, TypeError):
        return False


def neighbour_offsets(tree):
    """Lines of each literal that spells out the rows around a row: the
    sides `(-1, 1)`, a pair `(row - d, row + d)` at a distance d that is
    not a literal, or pairs at two or more distances.  One pair at a
    literal distance, such as the aggressors either side of a victim,
    is not one."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Tuple, ast.List)):
            continue
        signed = {s for s in map(_signed, node.elts) if s is not None}
        offsets = {off for row, off, up in signed if (row, off, not up) in signed}
        if _sides(node) or len(offsets) > 1 or any(
                not off.startswith("Constant(") for off in offsets):
            lines.append(node.lineno)
    return sorted(lines)


def group_strength_fields(tree):
    """Fields of `ChipProfile` that scale a group op by its size."""
    return [
        item.target.id
        for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "ChipProfile"
        for item in cls.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
        and ("simra_n" in item.target.id or "group" in item.target.id)
    ]


def _scan(find):
    """(module, finding) of each finding in the package."""
    return [
        (path.stem, found)
        for path in sorted(PACKAGE.glob("*.py"))
        for found in find(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_group_factor_is_applied_by_contribution_alone():
    assert _scan(lambda t: calls_by_function(t, GROUP_FACTOR)) == [
        ("disturbance", "contribution")]


def test_nearest_member_is_searched_once_in_disturbance():
    assert _scan(lambda t: calls_by_function(t, BISECT)) == [
        ("disturbance", "nearest_member")]


def test_blast_radius_and_offsets_live_in_disturbance():
    assert {module for module, _ in _scan(radius_reads)} == {"disturbance"}
    assert {module for module, _ in _scan(neighbour_offsets)} == {"disturbance"}


def test_chip_profile_has_no_group_strength_field():
    assert _scan(group_strength_fields) == []


def test_scan_finds_each_form_an_old_copy_took():
    # the copies the one-row fold, the every-row fold, the TRR doses,
    # the PRAC refresh and the profile each wrote out before there was
    # one rule
    old = (
        "from .disturbance import MAX_DISTANCE\n"
        "class ChipProfile:\n"
        "    simra_n32_mult: float = 1.47\n"
        "def accumulate(agg, profile):\n"
        "    n_factor = profile.simra_n_factor(len(agg))\n"
        "def accumulate_row(agg, row, profile):\n"
        "    i = bisect_left(agg, row)\n"
        "    n_factor = profile.simra_n_factor(len(set(agg)))\n"
        "def _window_doses(exp, opened):\n"
        "    nf = exp.profile.simra_n_factor(len(opened))\n"
        "def rfm(target):\n"
        "    return [v for d in range(1, MAX_DISTANCE + 1) for v in (target - d, target + d)]\n"
        "AROUND = [(side * d, d) for d in (1, 2) for side in (-1, 1)]\n"
        "NEAR = (t - 1, t + 1, t - 2, t + 2)\n"
        "aggressors = (victim - 1, victim + 1)\n"
    )
    tree = ast.parse(old)
    assert calls_by_function(tree, GROUP_FACTOR) == ["accumulate", "accumulate_row",
                                                      "_window_doses"]
    assert calls_by_function(tree, BISECT) == ["accumulate_row"]
    assert radius_reads(tree) == [1, 12]
    assert neighbour_offsets(tree) == [12, 13, 14]
    assert group_strength_fields(tree) == ["simra_n32_mult"]
