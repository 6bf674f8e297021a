"""Characterization harness: first-flip search, reverse engineering of
subarray boundaries and activation groups, and parameter sweeps.

Experiments own their full simulator state (bank, thresholds, damage)
and a seed, so sweep cells are independent and reproducible.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .dram import (
    AnalogConfig,
    Bank,
    CommandEvent,
    Geometry,
    SimraGroupMap,
    SubarrayLayout,
    TimingParams,
)
from .disturbance import (
    ChipProfile,
    DisturbanceState,
    ThresholdSet,
    accumulate,
    classify_region,
    sample_thresholds,
)
from .errors import ConfigError
from .patterns import PatternSpec, gen_comra, gen_rowhammer, gen_simra
from .rng import substream


@dataclass(frozen=True)
class BisectionConfig:
    tolerance: float = 0.01
    repeats: int = 5
    cap: Optional[int] = None  # None -> hammers issuable within one tREFW

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.cap is not None and self.cap < 1:
            raise ConfigError("cap must be >= 1")


def default_cap(timing: TimingParams) -> int:
    """Hammer budget bound: hammers of two ACTs each issuable to one bank
    within one tREFW."""
    acts = timing.acts_per_refi * timing.refs_per_refw
    return max(1, acts // 2)


class Experiment:
    """One simulated chip under fixed experiment conditions."""

    def __init__(
        self,
        profile: ChipProfile,
        layout: SubarrayLayout,
        groups: Optional[SimraGroupMap] = None,
        timing: Optional[TimingParams] = None,
        geometry: Optional[Geometry] = None,
        analog: Optional[AnalogConfig] = None,
        seed: int = 0,
        temp_c: float = 80.0,
        dp_aggr: Optional[int] = None,
        thresholds: Optional[ThresholdSet] = None,
    ):
        self.profile = profile
        self.layout = layout
        self.groups = groups
        self.timing = timing or TimingParams()
        self.geometry = geometry or Geometry(rows=layout.rows)
        if self.geometry.rows != layout.rows:
            raise ConfigError("geometry rows must match the subarray layout")
        self.analog = analog or AnalogConfig()
        self.seed = seed
        self.temp_c = temp_c
        self.dp_aggr = dp_aggr
        self.thresholds = thresholds or sample_thresholds(
            profile, layout, seed, row_bits=self.geometry.row_bytes * 8
        )

    def fresh_bank(self, label: str = "bank") -> Bank:
        return Bank(
            self.geometry,
            self.timing,
            self.layout,
            self.groups,
            self.analog,
            rng=substream(self.seed, label),
        )

    def run_stream(
        self,
        events: Iterable[CommandEvent],
        bank: Optional[Bank] = None,
        state: Optional[DisturbanceState] = None,
    ) -> tuple[DisturbanceState, Bank]:
        bank = bank or self.fresh_bank()
        state = state or DisturbanceState(rows=self.geometry.rows)
        for e in events:
            effects = bank.apply(e)
            if effects:
                accumulate(
                    state, effects, self.thresholds, self.profile,
                    temp_c=self.temp_c, dp=self.dp_aggr,
                )
        accumulate(
            state, bank.flush(), self.thresholds, self.profile,
            temp_c=self.temp_c, dp=self.dp_aggr,
        )
        return state, bank

    # -- per-hammer damage kernel -------------------------------------------

    def hammer_damage(self, spec: PatternSpec) -> dict[int, float]:
        """Damage fraction one hammer of the pattern deposits per victim.

        Valid for deterministic patterns (every hammer identical); the
        partial-activation window makes group ops stochastic, which the
        search handles by stepwise simulation instead.
        """
        one = replace(spec, hammers=1)
        stream = _generate(one, self.timing)
        state, _ = self.run_stream(stream.events)
        return dict(state.damage)

    def is_stochastic(self, spec: PatternSpec) -> bool:
        return spec.kind == "simra" and spec.act_gap <= self.analog.partial_gap_max

    def probe(self, spec: PatternSpec, victim: int, n: int, rep: int = 0) -> bool:
        """Does `n` hammers flip the victim at least once?"""
        if not self.is_stochastic(spec):
            per = self.hammer_damage(spec).get(victim, 0.0)
            return n * per >= 1.0 - 1e-12
        # op strength varies per draw: replay op by op with a fresh bank
        bank = self.fresh_bank(f"probe.{rep}.{victim}")
        state = DisturbanceState(rows=self.geometry.rows)
        one = _generate(replace(spec, hammers=1), self.timing)
        dt = one.end_time
        hammer = [(e.time, e.kind, e.bank, e.row, e.payload) for e in one.events]
        flipped = state.flipped
        for i in range(n):
            shift = i * dt
            for time, kind, bank_id, row, payload in hammer:
                effects = bank.apply(CommandEvent(time + shift, kind, bank_id, row, payload))
                if effects:
                    accumulate(
                        state, effects, self.thresholds, self.profile,
                        temp_c=self.temp_c, dp=self.dp_aggr,
                    )
            if flipped.get(victim):
                return True
        return False


def _generate(spec: PatternSpec, timing: TimingParams):
    if spec.kind in ("rowhammer", "rowpress"):
        return gen_rowhammer(spec, timing)
    if spec.kind == "comra":
        return gen_comra(spec, timing)
    if spec.kind == "simra":
        return gen_simra(spec, timing)
    raise ConfigError(f"no single-kind generator for {spec.kind!r}")


def find_hcfirst(
    spec: PatternSpec,
    victim: int,
    exp: Experiment,
    config: BisectionConfig = BisectionConfig(),
) -> Optional[int]:
    """Smallest hammer count that flips the victim, or None if no flip
    happens within the budget cap.

    Bisection starts from the bracket [1, cap] with the first probe at
    the cap, stops when successive probe points differ by less than the
    tolerance, repeats with fresh state, and reports the minimum.
    """
    cap = config.cap or default_cap(exp.timing)
    repeats = config.repeats if exp.is_stochastic(spec) else 1
    best: Optional[int] = None
    for rep in range(repeats):
        r = _bisect_once(spec, victim, exp, cap, config.tolerance, rep)
        if r is not None and (best is None or r < best):
            best = r
    return best


def _bisect_once(
    spec: PatternSpec, victim: int, exp: Experiment, cap: int, tol: float, rep: int
) -> Optional[int]:
    if not exp.probe(spec, victim, cap, rep):
        return None
    lo, hi = 0, cap
    prev = cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if exp.probe(spec, victim, mid, rep):
            hi = mid
        else:
            lo = mid
        if abs(mid - prev) <= tol * prev:
            break
        prev = mid
    return hi


# ---------------------------------------------------------------------------
# Reverse engineering


class Sequencer:
    """Thin cursor over a bank for scripted command sequences."""

    def __init__(self, bank: Bank, start: float = 0.0):
        self.bank = bank
        self.t = max(start, bank.last_time + 1.0)
        self.effects: list = []

    def _do(self, kind: str, row=None, payload=None, dt: float = 0.0):
        self.t += dt
        self.effects.extend(
            self.bank.apply(CommandEvent(self.t, kind, 0, row, payload))
        )

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
    rows = bank.geometry.rows
    marker = bytes([0xA7]) * bank.geometry.row_bytes
    anti = bytes([0x58]) * bank.geometry.row_bytes
    seq = Sequencer(bank)
    boundaries = [0]
    for r in range(rows - 1):
        saved = (bank.row_data(r), bank.row_data(r + 1))
        _write_row(seq, r, marker, timing)
        _write_row(seq, r + 1, anti, timing)
        # copy cycle r -> r+1 through the violated gap
        seq.act(r, gap=timing.t_rp + 1.0)
        seq.pre(after=timing.t_ras)
        seq.act(r + 1, gap=7.5)
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
    marker = bytes([0xC3]) * bank.geometry.row_bytes
    table: dict[int, frozenset[int]] = {}
    seq = Sequencer(bank)
    for start, count in layout.extents:
        extent_rows = range(start, start + count)
        for r2 in extent_rows:
            saved = {r: bank.row_data(r) for r in extent_rows}
            seq.act(r2, gap=timing.t_rp + 1.0)
            seq.pre(after=3.0)
            seq.act(r2, gap=3.0)
            seq.wr(r2, marker)
            seq.pre(after=timing.t_ras)
            marked = frozenset(r for r in extent_rows if bank.row_data(r) == marker)
            if len(marked) > 1:
                table[r2] = marked
            for r, data in saved.items():
                bank.set_row_data(r, data)
    return SimraGroupMap(layout, table)


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


@dataclass
class ExperimentResult:
    rows: list[dict] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def add(self, **kw):
        self.rows.append({c: kw.get(c, "") for c in RESULT_COLUMNS})

    def hcfirst_values(self) -> list[int]:
        return [r["hcfirst"] for r in self.rows if r["hcfirst"] != NO_FLIP]

    def aggregate(self) -> dict:
        vals = self.hcfirst_values()
        if not vals:
            return {"count": 0}
        vals = sorted(vals)
        return {
            "count": len(vals),
            "min": vals[0],
            "mean": sum(vals) / len(vals),
            "p50": vals[len(vals) // 2],
            "max": vals[-1],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=RESULT_COLUMNS, lineterminator="\n")
        w.writeheader()
        for r in self.rows:
            out = dict(r)
            if out["hcfirst"] is None:
                out["hcfirst"] = NO_FLIP
            w.writerow(out)
        return buf.getvalue()


@dataclass
class SweepGrid:
    """Full-factorial sweep coordinates."""

    kinds: tuple[str, ...] = ("rowhammer",)
    ns: tuple[int, ...] = (2,)
    dp_aggrs: tuple[Optional[int], ...] = (None,)
    temps: tuple[float, ...] = (80.0,)
    t_aggons: tuple[Optional[float], ...] = (None,)
    gaps: tuple[float, ...] = (3.0,)


def _victims_for(
    kind: str, n: int, layout: SubarrayLayout, groups: Optional[SimraGroupMap],
    per_subarray: int,
) -> list[tuple[int, PatternSpec]]:
    """Victim rows and the aggressor placement that attacks each."""
    picks: list[tuple[int, PatternSpec]] = []
    if kind == "simra":
        if groups is None:
            raise ConfigError("simra sweep needs a group map")
        seen_subarrays: dict[int, int] = {}
        for r2 in sorted(groups.table):
            grp = groups.table[r2]
            if len(grp) != n or r2 != max(grp):
                continue
            sub = layout.subarray_of(r2)
            if seen_subarrays.get(sub, 0) >= per_subarray:
                continue
            victim = max(grp) + 1
            start, count = layout.extent(r2)
            if victim >= start + count:
                continue
            seen_subarrays[sub] = seen_subarrays.get(sub, 0) + 1
            picks.append((victim, PatternSpec(kind="simra", aggressors=(r2, r2), n=n)))
        return picks
    for start, count in layout.extents:
        step = max(1, (count - 2) // per_subarray)
        chosen = 0
        for victim in range(start + 1, start + count - 1, step):
            if chosen >= per_subarray:
                break
            chosen += 1
            aggr = (victim - 1, victim + 1)
            picks.append((victim, PatternSpec(kind=kind, aggressors=aggr)))
    return picks


def run_sweep(
    grid: SweepGrid,
    profile: ChipProfile,
    layout: SubarrayLayout,
    groups: Optional[SimraGroupMap] = None,
    seed: int = 0,
    per_subarray: int = 3,
    search: BisectionConfig = BisectionConfig(),
    timing: Optional[TimingParams] = None,
) -> ExperimentResult:
    """Full-factorial sweep; failed cells are recorded and skipped."""
    result = ExperimentResult()
    timing = timing or TimingParams()
    for kind in grid.kinds:
        for n in grid.ns if kind == "simra" else (0,):
            try:
                victims = _victims_for(kind, n or 2, layout, groups, per_subarray)
            except ConfigError as e:
                result.failures.append(f"{kind}/N={n}: {e}")
                continue
            for dp in grid.dp_aggrs:
                for temp in grid.temps:
                    for t_on in grid.t_aggons:
                        for gap in grid.gaps if kind == "simra" else (None,):
                            _sweep_cell(
                                result, kind, n, dp, temp, t_on, gap, victims,
                                profile, layout, groups, seed, search, timing,
                            )
    return result


def _sweep_cell(
    result, kind, n, dp, temp, t_on, gap, victims,
    profile, layout, groups, seed, search, timing,
):
    exp = Experiment(
        profile, layout, groups, timing=timing, seed=seed, temp_c=temp, dp_aggr=dp
    )
    for victim, base_spec in victims:
        spec = replace(base_spec, t_aggon=t_on)
        if gap is not None:
            spec = replace(spec, act_gap=gap)
        try:
            hc = find_hcfirst(spec, victim, exp, search)
        except ConfigError as e:
            result.failures.append(f"{kind} victim {victim}: {e}")
            continue
        flips = 0
        if hc is not None and not exp.is_stochastic(spec):
            per = exp.hammer_damage(spec).get(victim, 0.0)
            f = hc * per
            esc = profile.bit_escalation
            while f >= esc**flips:
                flips += 1
        elif hc is not None:
            flips = 1
        result.add(
            pattern=spec.kind,
            kind=kind,
            N=n or "",
            dp_aggr="" if dp is None else f"0x{dp:02X}",
            dp_victim="" if dp is None else f"0x{dp ^ 0xFF:02X}",
            temp_c=temp,
            t_aggon_ns=t_on if t_on is not None else timing.t_ras,
            gap_ns=gap if gap is not None else "",
            region=classify_region(victim, layout.extent(victim)),
            row=victim,
            hcfirst=hc if hc is not None else NO_FLIP,
            flips=flips,
            seed=seed,
        )


# ---------------------------------------------------------------------------
# Combined patterns


def run_combined(
    exp: Experiment,
    victim: int,
    fractions: dict[str, float],
    comra_rows: tuple[int, int],
    simra_rows: tuple[int, int],
    simra_n: int = 2,
    search: BisectionConfig = BisectionConfig(),
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
    for kind in ("simra", "comra"):
        frac = fractions.get(kind, 0.0)
        if frac <= 0.0:
            continue
        hc = find_hcfirst(specs[kind], victim, exp, search)
        if hc is None:
            continue
        budget = int(frac * hc)
        per = exp.hammer_damage(specs[kind]).get(victim, 0.0)
        room = max(0.0, 1.0 - damage)
        to_flip = math.ceil(room / per) if per > 0 else budget + 1
        if to_flip <= budget:
            spent[kind] = to_flip
            return {"hammers": spent, "total": sum(spent.values()), "flipped_in": kind}
        spent[kind] = budget
        damage += budget * per
    per_rh = exp.hammer_damage(specs["rowhammer"]).get(victim, 0.0)
    if per_rh <= 0:
        return None
    need = math.ceil(max(0.0, 1.0 - damage) / per_rh)
    cap = search.cap or default_cap(exp.timing)
    if need > cap:
        return None
    spent["rowhammer"] = max(1, need)
    return {"hammers": spent, "total": sum(spent.values()), "flipped_in": "rowhammer"}
