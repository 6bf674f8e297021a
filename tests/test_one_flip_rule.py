"""The simulator has one flip rule, written in `disturbance` only.

An AST scan of `src/pudsim` finds each flip threshold written as a
literal (`1 - c` with a tiny constant c, or a constant a hair below 1)
and each power of the escalation factor `BIT_ESCALATION`, the way
further bits of a row flip.  Both belong to `disturbance`, the threshold
exactly once; every other module calls `FLIP_AT`, `bits_flipped` or
`hammers_to_flip`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pudsim"


def _number(node):
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool))


def flip_thresholds(tree):
    """Lines of each flip-threshold literal."""
    lines = []
    for node in ast.walk(tree):
        if _number(node) and 1.0 - 1e-6 < node.value < 1.0:
            lines.append(node.lineno)
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
              and _number(node.left) and node.left.value == 1
              and _number(node.right) and 0 < node.right.value < 1e-6):
            lines.append(node.lineno)
    return sorted(lines)


# the escalation factor as `disturbance` names it, and as a profile
# attribute did before it became a model constant
ESCALATION = {"BIT_ESCALATION", "bit_escalation"}


def _escalation_read(node):
    return ((isinstance(node, ast.Attribute) and node.attr in ESCALATION)
            or (isinstance(node, ast.Name) and node.id in ESCALATION))


def escalation_powers(tree):
    """Lines of each power of the escalation factor, read directly or
    through a name assigned from it."""
    aliases = {
        target.id
        for node in ast.walk(tree) if isinstance(node, ast.Assign)
        if any(_escalation_read(n) for n in ast.walk(node.value))
        for target in node.targets if isinstance(target, ast.Name)
    }

    def escalation(node):
        return _escalation_read(node) or (isinstance(node, ast.Name) and node.id in aliases)

    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and escalation(node.left)
    )


def _scan(find):
    """Module name of each finding in the package, one entry per line."""
    return [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for _ in find(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_flip_threshold_is_written_once_in_disturbance():
    assert _scan(flip_thresholds) == ["disturbance"]


def test_bit_escalation_is_raised_only_in_disturbance():
    assert set(_scan(escalation_powers)) == {"disturbance"}


def test_scan_finds_each_form_a_second_rule_took():
    # the rules the deterministic probe, the sweep's flip count, the TRR
    # evaluator and `accumulate` each wrote out before there was one
    old = (
        "esc = exp.profile.bit_escalation\n"
        "hit = n * per >= 1.0 - 1e-12\n"
        "while f >= esc**flips:\n"
        "    flips += 1\n"
        "while f >= profile.bit_escalation ** nf * (1 - 1e-9):\n"
        "    nf += 1\n"
        "slack = 0.999999999\n"
    )
    tree = ast.parse(old)
    assert flip_thresholds(tree) == [2, 5, 7]
    assert escalation_powers(tree) == [3, 5]
