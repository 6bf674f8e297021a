"""Characterization harness: the experiment, exact first-flip search and
victim sweeps.

An Experiment is one chip under fixed conditions: it owns its
thresholds and seed and builds a fresh bank for every replay, so
searches on it are independent and reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from functools import partial
from typing import Iterable, Optional

from .dram import PARTIAL_GAP_MAX, Bank, SimraGroupMap, TimingParams
from .disturbance import (
    SIMRA,
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
from .patterns import CommandStream, PatternSpec, generate, repeated_events
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

    def _replay(self, spec: PatternSpec, label: str, n: int, fold) -> int:
        """Replay up to `n` hammers of the pattern op by op on a fresh
        bank drawing from substream `label`, handing each command's
        effects, then the bank's flush, to `fold(effects)`.  Stops after
        the first hammer whose last fold returned true and returns the
        number of hammers replayed: that hammer's, or `n` if none was."""
        bank = self.fresh_bank(label)
        one = generate(spec, self.timing)
        done = False
        applied = map(bank.apply, repeated_events(one, range(n)))
        # the effect lists of one hammer's commands at a time; `n` ends
        # as the count of hammers replayed
        for n, hammer in enumerate(zip(*[applied] * len(one.events)), 1):
            for effects in hammer:
                if effects:
                    done = fold(effects)
            if done:
                break
        fold(bank.flush())
        return n

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

    def probe(self, spec: PatternSpec, victim: int, n: int, rep: int = 0) -> int:
        """Do `n` hammers flip the victim at least once?  The count of
        hammers after which it had flipped, at most `n`, or 0 if it did
        not.  Replayed op by op on a fresh bank drawing from the repeat's
        substream, since a stochastic pattern's op strength varies per
        draw, folded into the victim's damage alone (`accumulate_row`),
        and stopped at the hammer that flips it.  A count below `n` is
        not always the smallest that flips: a replay of fewer hammers
        ends in a flush that may deposit the last damage.  A victim
        outside the bank never flips, as `accumulate` skips it."""
        if not 0 <= victim < self.layout.rows:
            return 0
        damage, flipped = 0.0, 0
        thresholds, profile, temp_c, dp = self.thresholds, self.profile, self.temp_c, self.dp_aggr

        def fold(effects) -> bool:
            nonlocal damage, flipped
            damage, flipped = accumulate_row(victim, damage, flipped, effects,
                                             thresholds, profile, temp_c, dp)
            return flipped > 0

        hammers = self._replay(spec, f"probe.{rep}.{victim}", n, fold)
        return hammers if flipped else 0


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
    hammers implies one within n + 1.  A probe of the whole budget stops
    at the hammer that flips the victim, `hi`; a replay of fewer hammers
    flips only if its final flush deposits the last damage, so if
    `hi - 1` hammers do not flip, `hi` is the smallest count that flips,
    and if they do, bisection below `hi - 1` finds it.  Only a repeat
    that flips below the best count so far can lower the minimum, so
    each later repeat probes `best - 1` hammers and searches below the
    count that flips, if any; after a best of 1, no repeat is searched.
    On a profile without SiMRA thresholds no group op flips a bit, so
    nothing is probed.
    """
    if repeats < 1:
        raise ConfigError("search.repeats must be >= 1")
    cap = default_cap(exp.timing)
    if not exp.is_stochastic(spec):
        hc = hammers_to_flip(exp.hammer_damage(spec).get(victim, 0.0))
        return hc if hc is not None and hc <= cap else None
    if SIMRA not in exp.thresholds.theta:
        return None  # group ops cannot flip a bit of this profile's chip
    best: Optional[int] = None
    for rep in range(repeats):
        hi = cap if best is None else best - 1
        if hi < 1:
            break
        hi = exp.probe(spec, victim, hi, rep)
        if not hi:
            continue
        # the hammer that flipped; bisect only if one fewer flips too
        lo = hi - 1
        if lo and exp.probe(spec, victim, lo, rep):
            lo, hi = 0, lo
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if exp.probe(spec, victim, mid, rep):
                hi = mid
            else:
                lo = mid
        best = hi
    return best


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


# what a sweep searches, by kind: its one-hammer stream and its victims,
# each with the pattern placed to attack it
SweepPlan = dict[str, tuple[CommandStream, list[tuple[int, PatternSpec]]]]


def sweep_plan(
    exp: Experiment,
    kinds: Iterable[str],
    template: PatternSpec,
    per_subarray: int = 3,
) -> tuple[SweepPlan, list[str]]:
    """What a sweep searches for each kind: the kind's one-hammer stream
    and up to `per_subarray` victims per subarray, each with the
    template placed to attack it.  Every pattern parameter but the kind
    and the aggressors comes from the template.

    Returns the plan and the failures: a kind whose stream cannot be
    generated, such as a copy at a gap that does not violate tRP, or
    with no victim on the chip, is recorded and left out."""
    plan: SweepPlan = {}
    failures: list[str] = []
    for kind in kinds:
        try:
            spec = replace(template, kind=kind)
            plan[kind] = generate(spec, exp.timing), _victims_for(exp, spec, per_subarray)
        except ConfigError as e:
            failures.append(f"{kind}: {e}")
    return plan, failures


def run_sweep(exp: Experiment, plan: SweepPlan, repeats: int = REPEATS) -> list[dict]:
    """The result rows of `sweep_cell` on every victim of a
    `sweep_plan`, kind by kind."""
    return [sweep_cell(exp, spec, victim, repeats)
            for _, victims in plan.values() for victim, spec in victims]
