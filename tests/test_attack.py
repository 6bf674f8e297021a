"""`attack --victim` is one cell of `characterize`: the same placement of
each kind's aggressors against a victim, the same search, the same
HC_first; a victim the kind cannot attack is bad input."""

import csv
import itertools

import pytest

from pudsim.cli import main

# small first-flip thresholds keep the op-by-op stochastic search short
_PROFILE = """\
name = small_chip
vendor = test
threshold.rh = 6700 14800
threshold.comra = 5260 10610
threshold.simra = 100 120
"""

# 256 rows in two subarrays of 128, SiMRA groups of 8 rows
_CHIP = {
    "profile": "small_chip",
    "geometry.rows": "256",
    "layout.subarrays": "2",
    "groups.n": "8",
    "search.repeats": "2",
}

KINDS = ("rowhammer", "comra", "simra")


@pytest.fixture
def run(tmp_path, monkeypatch):
    """Run the CLI on _CHIP plus settings; the exit code and the run's
    output directory."""
    (tmp_path / "profiles").mkdir()
    (tmp_path / "profiles" / "small_chip.profile").write_text(_PROFILE)
    monkeypatch.setenv("PUDSIM_PROFILE_DIR", str(tmp_path / "profiles"))
    runs = itertools.count()

    def call(args, **settings):
        d = tmp_path / f"run{next(runs)}"
        d.mkdir()
        cfg = d / "in.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {**_CHIP, **settings}.items()))
        return main([*args, "--config", str(cfg), "--out", str(d / "out")]), d / "out"

    return call


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.mark.parametrize("gap", [None, "1.0"], ids=["nominal", "partial"])
def test_attack_writes_characterize_hcfirst_cell_by_cell(run, gap):
    settings = {} if gap is None else {"pattern.act_gap_ns": gap}
    rc, out = run(["characterize", "--kinds", " ".join(KINDS)], **settings)
    assert rc == 0
    cells = _rows(out / "results.csv")
    assert {c["kind"] for c in cells} == set(KINDS)
    for cell in cells:
        rc, out = run(["attack", "--victim", cell["row"]],
                      **settings, **{"pattern.kind": cell["kind"]})
        assert rc == 0
        assert _rows(out / "attack.csv") == [{
            "pattern": cell["kind"], "victim": cell["row"],
            "hcfirst": cell["hcfirst"], "seed": cell["seed"],
        }]


@pytest.mark.parametrize("kind, victim, message", [
    ("rowhammer", 0, "rowhammer cannot attack row 0: it needs a row on each side in the bank"),
    ("rowhammer", 255, "rowhammer cannot attack row 255: it needs a row on each side in the bank"),
    ("rowpress", 0, "rowpress cannot attack row 0: it needs a row on each side in the bank"),
    # rows 127 and 128 are the last and the first of their subarrays
    ("comra", 127, "comra cannot attack row 127: it needs a row on each side in its subarray"),
    ("comra", 128, "comra cannot attack row 128: it needs a row on each side in its subarray"),
    ("simra", 0, "simra cannot attack row 0: the row below it does not end a group "
                 "of 8 rows in its subarray"),
    # row 8 is a group's first row, and row 127 ends a group of subarray 0
    ("simra", 9, "simra cannot attack row 9: the row below it does not end a group "
                 "of 8 rows in its subarray"),
    ("simra", 128, "simra cannot attack row 128: the row below it does not end a group "
                   "of 8 rows in its subarray"),
    ("rowhammer", 256, "victim 256 outside bank of 256 rows"),
])
def test_attack_on_a_victim_the_kind_cannot_attack_is_bad_input(
    run, caplog, kind, victim, message
):
    rc, out = run(["attack", "--victim", str(victim)], **{"pattern.kind": kind})
    assert rc == 1
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [message]
    assert not out.exists()


def test_attack_places_each_kind_around_the_victim(run, capsys):
    for kind, victim, aggressors in [("rowhammer", 128, (127, 129)), ("rowpress", 1, (0, 2)),
                                     ("comra", 129, (128, 130)), ("simra", 8, (7, 7))]:
        rc, out = run(["attack", "--victim", str(victim)], **{"pattern.kind": kind})
        assert rc == 0 and (out / "manifest.cfg").exists()
        assert f"victim={victim} aggressors={aggressors}:" in capsys.readouterr().out
