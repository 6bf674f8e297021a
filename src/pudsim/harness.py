"""Characterization harness: first-flip search, reverse engineering of
subarray boundaries and activation groups, and victim sweeps.

An Experiment is one chip under fixed conditions: it owns its
thresholds and seed and builds a fresh bank for every replay, so
searches on it are independent and reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from functools import partial
from typing import Iterable, Optional

from .dram import (
    PARTIAL_GAP_MAX,
    ROW_BYTES,
    Bank,
    CommandEvent,
    SimraGroupMap,
    SubarrayLayout,
    TimingParams,
)
from .disturbance import (
    T_REF_C,
    ChipProfile,
    DisturbanceState,
    accumulate,
    accumulate_row,
    bits_flipped,
    classify_region,
    hammers_to_flip,
    sample_thresholds,
)
from .errors import ConfigError
from .patterns import PatternSpec, generate, repeated_events
from .rng import substream


# independent searches, each on its own RNG substream, whose minimum a
# stochastic first-flip search reports
REPEATS = 5


def default_cap(timing: TimingParams) -> int:
    """Hammer budget bound: hammers of two ACTs each issuable to one bank
    within one tREFW."""
    acts = timing.acts_per_refi * timing.refs_per_refw
    return max(1, acts // 2)


class Experiment:
    """One simulated chip under fixed experiment conditions: the object
    `characterize`, `attack` and `trr-eval` build from their config and
    read the chip, its thresholds and its conditions from; its layout is
    its group map's, `SimraGroupMap(layout, ())` for a chip without
    groups.  A probe folds its replayed ops into the victim's damage alone."""

    def __init__(
        self,
        profile: ChipProfile,
        groups: SimraGroupMap,
        timing: Optional[TimingParams] = None,
        seed: int = 0,
        temp_c: float = T_REF_C,
        dp_aggr: Optional[int] = None,
    ):
        self.profile = profile
        self.layout = groups.layout
        self.groups = groups
        self.timing = timing or TimingParams()
        self.seed = seed
        self.temp_c = temp_c
        self.dp_aggr = dp_aggr
        self.thresholds = sample_thresholds(profile, self.layout, seed)
        self._damage: dict[PatternSpec, dict[int, float]] = {}

    def fresh_bank(self, label: str = "bank") -> Bank:
        return Bank(self.timing, self.groups, rng=substream(self.seed, label))

    # -- replay ------------------------------------------------------------

    def _replay(self, spec: PatternSpec, label: str, n: int, fold) -> None:
        """Replay `n` hammers of the pattern op by op on a fresh bank
        drawing from substream `label`, handing each command's effects,
        then the bank's flush, to `fold(effects)`; stops after a hammer
        whose last fold returned true."""
        bank = self.fresh_bank(label)
        one = generate(spec, self.timing)
        done = False
        applied = map(bank.apply, repeated_events(one, range(n)))
        # the effect lists of one hammer's commands at a time
        for hammer in zip(*[applied] * len(one.events)):
            for effects in hammer:
                if effects:
                    done = fold(effects)
            if done:
                break
        fold(bank.flush())

    def hammer_damage(self, spec: PatternSpec) -> dict[int, float]:
        """Damage fraction one hammer of the pattern deposits per victim,
        replayed once per spec on a fresh bank.

        Valid for deterministic patterns (every hammer identical); the
        partial-activation window makes group ops stochastic, which the
        search handles by stepwise simulation instead.
        """
        damage = self._damage.get(spec)
        if damage is None:
            state = DisturbanceState(rows=self.layout.rows)
            self._replay(spec, "bank", 1, partial(
                accumulate, state, thresholds=self.thresholds, profile=self.profile,
                temp_c=self.temp_c, dp=self.dp_aggr))
            damage = self._damage[spec] = state.damage
        return damage

    def is_stochastic(self, spec: PatternSpec) -> bool:
        return spec.kind == "simra" and spec.act_gap <= PARTIAL_GAP_MAX

    def probe(self, spec: PatternSpec, victim: int, n: int, rep: int = 0) -> bool:
        """Does `n` hammers flip the victim at least once?  Replayed op by
        op on a fresh bank drawing from the repeat's substream, since a
        stochastic pattern's op strength varies per draw, and folded into
        the victim's damage alone (`accumulate_row`).  A victim outside
        the bank never flips, as `accumulate` skips it."""
        if not 0 <= victim < self.layout.rows:
            return False
        damage, flipped = 0.0, 0
        thresholds, profile, temp_c, dp = self.thresholds, self.profile, self.temp_c, self.dp_aggr

        def fold(effects) -> bool:
            nonlocal damage, flipped
            damage, flipped = accumulate_row(victim, damage, flipped, effects,
                                             thresholds, profile, temp_c, dp)
            return flipped > 0

        self._replay(spec, f"probe.{rep}.{victim}", n, fold)
        return flipped > 0


def find_hcfirst(
    spec: PatternSpec, victim: int, exp: Experiment, repeats: int = REPEATS
) -> Optional[int]:
    """Smallest hammer count that flips the victim, or None if no flip
    happens within the budget, `default_cap`.

    Every hammer of a deterministic pattern deposits the same damage, so
    its count follows from one hammer's.  A stochastic pattern is
    searched `repeats` times, each on its own RNG substream, and the
    minimum is reported.  Each search is exact: every probe of a repeat
    replays the same substream on a fresh bank, so a flip within n
    hammers implies one within n + 1, and bisection down to one hammer
    finds the smallest count that flips.
    """
    if repeats < 1:
        raise ConfigError("search.repeats must be >= 1")
    cap = default_cap(exp.timing)
    if not exp.is_stochastic(spec):
        hc = hammers_to_flip(exp.hammer_damage(spec).get(victim, 0.0))
        return hc if hc is not None and hc <= cap else None
    best: Optional[int] = None
    for rep in range(repeats):
        if not exp.probe(spec, victim, cap, rep):
            continue
        lo, hi = 0, cap
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if exp.probe(spec, victim, mid, rep):
                hi = mid
            else:
                lo = mid
        best = hi if best is None else min(best, hi)
    return best


# ---------------------------------------------------------------------------
# Reverse engineering


class Sequencer:
    """Thin cursor over a bank for scripted command sequences."""

    def __init__(self, bank: Bank):
        self.bank = bank
        self.t = max(0.0, bank.last_time + 1.0)

    def _do(self, kind: str, row=None, payload=None, dt: float = 0.0):
        self.t += dt
        self.bank.apply(CommandEvent(self.t, kind, row, payload))

    def act(self, row: int, gap: float):
        self._do("ACT", row, dt=gap)

    def pre(self, after: float):
        self._do("PRE", dt=after)

    def wr(self, row: int, payload: bytes, after: float = 1.0):
        self._do("WR", row, payload, dt=after)


def _write_row(seq: Sequencer, row: int, payload: bytes, timing: TimingParams):
    seq.act(row, gap=timing.t_rp + 1.0)
    seq.wr(row, payload)
    seq.pre(after=timing.t_ras)


def discover_subarrays(bank: Bank) -> SubarrayLayout:
    """Recover subarray boundaries by probing every adjacent row pair with
    a copy cycle: the copy lands only when both rows share sense amps."""
    timing = bank.timing
    rows = bank.layout.rows
    marker = bytes([0xA7]) * ROW_BYTES
    anti = bytes([0x58]) * ROW_BYTES
    seq = Sequencer(bank)
    boundaries = [0]
    for r in range(rows - 1):
        saved = (bank.row_data(r), bank.row_data(r + 1))
        _write_row(seq, r, marker, timing)
        _write_row(seq, r + 1, anti, timing)
        # copy cycle r -> r+1 through the violated gap
        seq.act(r, gap=timing.t_rp + 1.0)
        seq.pre(after=timing.t_ras)
        seq.act(r + 1, gap=PatternSpec.pre_act_gap)
        seq.pre(after=timing.t_ras)
        if bank.row_data(r + 1) != marker:
            boundaries.append(r + 1)
        bank.set_row_data(r, saved[0])
        bank.set_row_data(r + 1, saved[1])
    boundaries.append(rows)
    extents = [
        (a, b - a) for a, b in zip(boundaries, boundaries[1:])
    ]
    return SubarrayLayout(extents)


def discover_simra_groups(bank: Bank, layout: SubarrayLayout) -> SimraGroupMap:
    """Recover the activation-group map: fire ACT-PRE-ACT at every row,
    write a marker through the open group, and read back which rows took
    it.  A lone marked row means the row belongs to no group."""
    timing = bank.timing
    marker = bytes([0xC3]) * ROW_BYTES
    found: set[frozenset[int]] = set()
    seq = Sequencer(bank)
    for start, count in layout.extents:
        extent_rows = range(start, start + count)
        for r2 in extent_rows:
            saved = {r: bank.row_data(r) for r in extent_rows}
            seq.act(r2, gap=timing.t_rp + 1.0)
            seq.pre(after=PatternSpec.act_gap)
            seq.act(r2, gap=PatternSpec.act_gap)
            seq.wr(r2, marker)
            seq.pre(after=timing.t_ras)
            marked = frozenset(r for r in extent_rows if bank.row_data(r) == marker)
            if len(marked) > 1:
                found.add(marked)
            for r, data in saved.items():
                bank.set_row_data(r, data)
    return SimraGroupMap(layout, found)


def random_layout_and_groups(
    rows: int, seed: int
) -> tuple[SubarrayLayout, SimraGroupMap]:
    """Seeded random ground truth for reverse-engineering tests."""
    rng = substream(seed, "layout")
    extents = []
    pos = 0
    while pos < rows:
        count = int(rng.integers(8, 40))
        if rows - pos - count < 8:
            count = rows - pos
        extents.append((pos, count))
        pos += count
    layout = SubarrayLayout(extents)
    sizes = [2, 4, 8, 16, 32]
    # one group size per map, like a real die; stride occasionally 2
    n = int(rng.choice([s for s in sizes if s <= min(c for _, c in extents)]))
    stride = int(rng.choice([1, 2])) if all(c >= 2 * n for _, c in extents) else 1
    return layout, SimraGroupMap.aligned_blocks(layout, n, stride)


# ---------------------------------------------------------------------------
# Sweeps


# `hcfirst` of a cell that did not flip within the search budget
NO_FLIP = "noflip"

RESULT_COLUMNS = (
    "pattern", "kind", "N", "dp_aggr", "dp_victim", "temp_c",
    "t_aggon_ns", "gap_ns", "region", "row", "hcfirst", "flips", "seed",
)


def aggressors_for(exp: Experiment, spec: PatternSpec, victim: int) -> tuple[int, int]:
    """The rows a pattern of the spec's kind hammers to attack `victim`:
    both neighbours inside the bank for row hammering and pressing, both
    inside the victim's subarray for a copy (which lands only between
    rows that share sense amplifiers), and the last row of a group of
    `spec.n` rows right below the victim, in its subarray, for SiMRA."""
    layout, kind = exp.layout, spec.kind
    if not 0 <= victim < layout.rows:
        raise ConfigError(f"victim {victim} outside bank of {layout.rows} rows")
    below, above = victim - 1, victim + 1
    if kind == "simra":
        grp = exp.groups.group(victim, below) if victim else None
        if grp is None or len(grp) != spec.n or grp[-1] != below:
            raise ConfigError(f"simra cannot attack row {victim}: the row below it does "
                              f"not end a group of {spec.n} rows in its subarray")
        return below, below
    if not victim or above == layout.rows or (
            kind == "comra" and not layout.same_subarray(below, above)):
        raise ConfigError(f"{kind} cannot attack row {victim}: it needs a row on each "
                          "side in " + ("its subarray" if kind == "comra" else "the bank"))
    return below, above


def _victims_for(
    exp: Experiment, template: PatternSpec, per_subarray: int
) -> list[tuple[int, PatternSpec]]:
    """Up to `per_subarray` victim rows per subarray on the experiment's
    chip, each with the template placed to attack it."""
    layout, simra = exp.layout, template.kind == "simra"
    if simra:  # the row right above each group
        candidates = [grp[-1] + 1 for grp in exp.groups.groups]
    else:  # rows spread over each subarray
        candidates = [v for start, count in layout.extents for v in
                      range(start + 1, start + count - 1, max(1, (count - 2) // per_subarray))]
    picks: list[tuple[int, PatternSpec]] = []
    chosen: Counter = Counter()
    for victim in candidates:
        try:
            aggr = aggressors_for(exp, template, victim)
        except ConfigError:
            continue
        sub = layout.subarray_of(victim)
        if chosen[sub] < per_subarray:
            chosen[sub] += 1
            picks.append((victim, replace(template, aggressors=aggr)))
    if not picks:
        raise ConfigError(f"no group of {template.n} rows has its next row in its subarray"
                          if simra else "no subarray has a row between two others")
    return picks


def sweep_cell(exp: Experiment, spec: PatternSpec, victim: int, repeats: int) -> dict:
    """The result row of one first-flip search: the placed pattern
    against the victim, under the experiment's conditions."""
    hc = find_hcfirst(spec, victim, exp, repeats)
    # a stochastic search knows of one flip; a deterministic one scales a hammer
    flips = 0 if hc is None else 1 if exp.is_stochastic(spec) else bits_flipped(
        hc * exp.hammer_damage(spec).get(victim, 0.0))
    simra, dp = spec.kind == "simra", exp.dp_aggr
    return {
        "pattern": spec.kind,
        "kind": spec.kind,
        "N": spec.n if simra else "",
        "dp_aggr": "" if dp is None else f"0x{dp:02X}",
        "dp_victim": "" if dp is None else f"0x{dp ^ 0xFF:02X}",
        "temp_c": exp.temp_c,
        "t_aggon_ns": spec.t_on(exp.timing),
        "gap_ns": spec.act_gap if simra else "",
        "region": classify_region(victim, exp.layout.extent(victim)),
        "row": victim,
        "hcfirst": NO_FLIP if hc is None else hc,
        "flips": flips,
        "seed": exp.seed,
    }


def run_sweep(
    exp: Experiment,
    kinds: Iterable[str],
    template: PatternSpec,
    repeats: int = REPEATS,
    per_subarray: int = 3,
) -> tuple[list[dict], list[str]]:
    """`sweep_cell` on up to `per_subarray` victims per subarray for each
    kind.  Every pattern parameter but the kind and the aggressors comes
    from the template.

    Returns the result rows and the failures: a kind with no victim on
    the chip, or a victim whose search fails, is recorded and skipped."""
    rows: list[dict] = []
    failures: list[str] = []
    for kind in kinds:
        try:
            victims = _victims_for(exp, replace(template, kind=kind), per_subarray)
        except ConfigError as e:
            failures.append(f"{kind}: {e}")
            continue
        for victim, spec in victims:
            try:
                rows.append(sweep_cell(exp, spec, victim, repeats))
            except ConfigError as e:
                failures.append(f"{kind} victim {victim}: {e}")
    return rows, failures


# ---------------------------------------------------------------------------
# Combined patterns


def run_combined(
    exp: Experiment,
    victim: int,
    fractions: dict[str, float],
    comra_rows: tuple[int, int],
    simra_rows: tuple[int, int],
    simra_n: int = 2,
) -> Optional[dict]:
    """Spend the given fraction of the victim's per-kind first-flip count
    on each violation kind, then hammer conventionally until the first
    flip.  Returns per-phase hammer counts, or None if even the full
    budget never flips the victim."""
    specs = {
        "simra": PatternSpec(kind="simra", aggressors=simra_rows, n=simra_n),
        "comra": PatternSpec(kind="comra", aggressors=comra_rows),
        "rowhammer": PatternSpec(
            kind="rowhammer", aggressors=(victim - 1, victim + 1)
        ),
    }
    spent = {"simra": 0, "comra": 0, "rowhammer": 0}
    damage = 0.0
    cap = default_cap(exp.timing)
    for kind in ("simra", "comra"):
        frac = fractions.get(kind, 0.0)
        if frac <= 0.0:
            continue
        per = exp.hammer_damage(specs[kind]).get(victim, 0.0)
        hc = hammers_to_flip(per)
        if hc is None or hc > cap:
            continue
        budget = int(frac * hc)
        to_flip = hammers_to_flip(per, damage)
        if to_flip is not None and to_flip <= budget:
            spent[kind] = to_flip
            return {"hammers": spent, "total": sum(spent.values()), "flipped_in": kind}
        spent[kind] = budget
        damage += budget * per
    per_rh = exp.hammer_damage(specs["rowhammer"]).get(victim, 0.0)
    need = hammers_to_flip(per_rh, damage)
    if need is None or need > cap:
        return None
    spent["rowhammer"] = need
    return {"hammers": spent, "total": sum(spent.values()), "flipped_in": "rowhammer"}
