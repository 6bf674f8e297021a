"""Charge-disturbance model: per-row flip thresholds and damage accrual.

Each victim row has one threshold per disturbance kind, expressed in
effective hammer units (one nominal aggressor activation at reference
conditions = 1 unit).  Disturbing events add units scaled by data
pattern, temperature, aggressor-on time, and distance; a row's state is
its accrued damage *fraction* toward the kind-specific threshold, so
different access patterns compose additively.  A bit flips when the
fraction reaches 1; further bits on the same row need 5% more each.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from .dram import (
    KIND_COMRA,
    KIND_RH,
    KIND_SIMRA,
    ROW_BYTES,
    HammerEffect,
    RefreshEffect,
    SubarrayLayout,
)
from .errors import CalibrationError, ConfigError
from .rng import stable_hash_each, substream

RH = KIND_RH
COMRA = KIND_COMRA
SIMRA = KIND_SIMRA
KINDS = (RH, COMRA, SIMRA)

T_REF_C = 80.0

# bit positions of a row: a row's weak bit and the bits after it flip
ROW_BITS = 8 * ROW_BYTES

REGIONS = ("Beginning", "Beginning-Middle", "Middle", "Middle-End", "End")

# Model constants, the same for every chip.  Units one event of each kind
# deposits on a victim at distance 1, before scaling: per aggressor row
# for activations and copy cycles, per op for a group op.
BASE_UNITS = {RH: 1.0, COMRA: 10.0, SIMRA: 200.0}
# rows on each side of an aggressor that a hammer disturbs, and the
# attenuation per row of distance past the first
MAX_DISTANCE = 2
BLAST_DECAY = 0.05
# a group op over 32 rows is this much stronger than one over 2 (log-interpolated)
SIMRA_N32_MULT = 1.47
# each further bit of a row needs this factor more damage than the last
BIT_ESCALATION = 1.05
# the bit value change of a flip, by the kind that caused it
FLIP_DIRECTION = {RH: "1to0", COMRA: "1to0", SIMRA: "0to1"}


def classify_region(row: int, extent: tuple[int, int]) -> str:
    """Five proportional bins across a subarray extent."""
    start, count = extent
    idx = row - start
    if not 0 <= idx < count:
        raise ConfigError(f"row {row} outside extent {extent}")
    return REGIONS[min(4, idx * 5 // count)]


@dataclass
class ChipProfile:
    """Vulnerability profile of one DRAM module.

    thresholds: per kind, (min, mean) first-flip hammer count over the row
    population, in hammers of that kind (copy cycles / multi-activation
    ops for the violation kinds).  A kind absent from the map is not
    expressible on the module (the simulator reports no flips for it).
    """

    name: str
    vendor: str = ""
    thresholds: dict[str, tuple[float, float]] = field(default_factory=dict)
    # temperature scaling per +10 C step from 80 C, per kind
    temp_step: dict[str, float] = field(
        default_factory=lambda: {RH: 1.0, COMRA: 1.0, SIMRA: 1.467}
    )
    # aggressor-on-time anchors (t_on ns, multiplier), log-log interpolated
    t_on_anchors: dict[str, tuple[tuple[float, float], ...]] = field(
        default_factory=lambda: {
            RH: ((36.0, 1.0), (144.0, 2.2), (7800.0, 12.0), (70200.0, 31.15)),
            COMRA: ((36.0, 1.0), (144.0, 2.4), (7800.0, 16.0), (70200.0, 45.0)),
            SIMRA: ((36.0, 1.0), (144.0, 3.0), (7800.0, 60.0), (70200.0, 200.0)),
        }
    )
    # data-pattern multiplier by (kind, aggressor byte); absent -> 1.0
    dp_mult: dict[str, dict[int, float]] = field(
        default_factory=lambda: {
            RH: {0x55: 1.0, 0xAA: 1.0, 0x00: 0.8, 0xFF: 0.8},
            COMRA: {0x55: 1.0, 0xAA: 1.0, 0x00: 0.8, 0xFF: 0.8},
            SIMRA: {0x00: 1.0, 0xFF: 0.6, 0x55: 1.0 / 57.8, 0xAA: 1.0 / 57.8},
        }
    )
    region_mult: dict[str, float] = field(
        default_factory=lambda: {r: 1.0 for r in REGIONS}
    )

    def __post_init__(self):
        for kind, (lo, mean) in self.thresholds.items():
            if kind not in KINDS:
                raise ConfigError(f"unknown disturbance kind {kind!r}")
            if lo <= 0 or mean < lo:
                raise ConfigError(f"threshold.{kind}: need 0 < min <= mean, got ({lo}, {mean})")
        for kind, anchors in self.t_on_anchors.items():
            ts = [t for t, _ in anchors]
            ms = [m for _, m in anchors]
            if ts != sorted(ts) or ms != sorted(ms):
                raise ConfigError(f"t_on.{kind}: anchors must be non-decreasing")
            if any(m <= 0 for m in ms) or any(t <= 0 for t in ts):
                raise ConfigError(f"t_on.{kind}: anchors must be positive")
        positive = {f"temp_step.{k}": m for k, m in self.temp_step.items()}
        positive.update({f"region_mult.{r}": m for r, m in self.region_mult.items()})
        for key, m in positive.items():
            if m <= 0:
                raise ConfigError(f"{key} must be positive, got {m:g}")
        for kind, table in self.dp_mult.items():
            if any(m < 0 for m in table.values()):
                raise ConfigError(f"dp_mult.{kind} must not be negative")
        self._contrib_cache: dict = {}
        self._deposit_cache: dict = {}

    def units_per_hammer(self, kind: str) -> float:
        """Effective units one calibration hammer deposits on the reference
        victim: a double-sided pair for activations and copy cycles, one
        op for group activation."""
        if kind not in KINDS:
            raise ConfigError(f"unknown disturbance kind {kind!r}")
        return BASE_UNITS[kind] * (1.0 if kind == SIMRA else 2.0)

    def temp_factor(self, kind: str, temp_c: float) -> float:
        return self.temp_step.get(kind, 1.0) ** ((temp_c - T_REF_C) / 10.0)

    def t_on_factor(self, kind: str, t_on: float) -> float:
        anchors = self.t_on_anchors.get(kind)
        if not anchors:
            return 1.0
        if t_on <= anchors[0][0]:
            return anchors[0][1]
        if t_on >= anchors[-1][0]:
            return anchors[-1][1]
        for (t0, m0), (t1, m1) in zip(anchors, anchors[1:]):
            if t0 <= t_on <= t1:
                w = (math.log(t_on) - math.log(t0)) / (math.log(t1) - math.log(t0))
                v = math.exp(math.log(m0) * (1 - w) + math.log(m1) * w)
                # exp/log round-trip can overshoot the segment ends by 1 ulp
                return min(max(v, m0), m1)
        raise AssertionError("unreachable")

    def dp_factor(self, kind: str, dp: Optional[int]) -> float:
        if dp is None:
            return 1.0
        return self.dp_mult.get(kind, {}).get(dp & 0xFF, 1.0)


def simra_n_factor(n: int) -> float:
    """Strength multiplier for a group op that activated n rows.

    The calibrated thresholds describe the strongest case (N=32), so
    the factor is 1.0 there and decays geometrically toward N=2, where
    an op is `SIMRA_N32_MULT` times weaker.  Keeping the factor <= 1
    also keeps one op's damage within its counting weight, which the
    back-off security bound relies on.
    """
    if n < 2:
        n = 2  # a degenerate partial activation acts like the smallest group
    return SIMRA_N32_MULT ** (math.log2(min(n, 32) / 32.0) / 4.0)


def contribution(
    kind: str,
    dp: Optional[int],
    temp_c: float,
    t_on: float,
    dist: int,
    opened: int,
    profile: ChipProfile,
) -> float:
    """Effective units one event of `kind` deposits on a victim at `dist`.

    For activations and copy cycles this is per aggressor row; for a group
    op it is per op, with dist the victim's distance to the nearest group
    member, and scaled by the number of rows the op `opened`.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown disturbance kind {kind!r}")
    if dist < 1:
        raise ConfigError("distance must be >= 1")
    key = (kind, dp, temp_c, t_on, dist, opened if kind == SIMRA else None)
    cache = profile._contrib_cache
    hit = cache.get(key)
    if hit is not None:
        return hit
    c = (
        BASE_UNITS[kind]
        * profile.dp_factor(kind, dp)
        * profile.temp_factor(kind, temp_c)
        * profile.t_on_factor(kind, t_on)
        * BLAST_DECAY ** (dist - 1)
        * (simra_n_factor(opened) if kind == SIMRA else 1.0)
    )
    cache[key] = c
    return c


# (row offset, distance) of each neighbour a hammer disturbs, nearest
# first, below first
_AROUND = tuple((side * d, d) for d in range(1, MAX_DISTANCE + 1) for side in (-1, 1))


def nearest_member(members: Sequence[int], row: int) -> int:
    """Distance from `row` to the nearest of the ascending `members`."""
    i = bisect_left(members, row)
    if i == len(members):
        return row - members[-1]
    return members[i] - row if i == 0 else min(members[i] - row, row - members[i - 1])


def victim_distances(kind: str, aggressors: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """(victim, distance) pairs one hammer of `kind` over the rows
    `aggressors` disturbs, rows past the bank's edges included; each
    aggressor's neighbours come nearest first, below first.  Activations
    and copy cycles disturb per aggressor; a group op disturbs each
    victim once, at its distance to the nearest member."""
    return _victim_distances(kind, tuple(aggressors))


# memoized: an attack, and a PRAC back-off, repeat a few ops many times
@lru_cache(maxsize=1024)
def _victim_distances(kind: str, aggressors: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    agg = set(aggressors)
    if kind != SIMRA:
        return tuple([(a + o, d) for a in agg for o, d in _AROUND if a + o not in agg])
    victims = dict.fromkeys([v for a in agg for o, _ in _AROUND if (v := a + o) not in agg])
    members = sorted(agg)
    return tuple([(v, nearest_member(members, v)) for v in victims])


# distinct ops whose deposits a profile keeps; past that it forgets them
# all, so that a scatter stream over a large bank cannot grow the memo
# without limit
DEPOSIT_MEMO_SIZE = 1024


def deposits(kind: str, aggressors: tuple[int, ...], t_on: float, dp: Optional[int],
             temp_c: float, profile: ChipProfile) -> tuple[tuple[int, float], ...]:
    """(row, units) of every row one hammer of `kind` over `aggressors`,
    held open `t_on`, disturbs, in `victim_distances` order.

    Memoized per profile, as `contribution` is, so the profile must not
    change once in use: a PRAC stream repeats a few ops many times."""
    key = (kind, tuple(aggressors), t_on, dp, temp_c)
    cache = profile._deposit_cache
    hit = cache.get(key)
    if hit is not None:
        return hit
    opened = len(set(aggressors))
    units = [contribution(kind, dp, temp_c, t_on, d, opened, profile)
             for d in range(1, MAX_DISTANCE + 1)]
    if len(cache) >= DEPOSIT_MEMO_SIZE:
        cache.clear()
    hit = cache[key] = tuple([(v, units[d - 1]) for v, d in victim_distances(kind, key[1])])
    return hit


# ---------------------------------------------------------------------------
# Threshold sampling


def _fit_sigma(lo: float, mean: float, n: int) -> float:
    """Lognormal sigma whose 1/(n+1) quantile sits at min for the target
    mean (quantile-matched; samples are affine-corrected afterwards)."""
    if math.isclose(lo, mean):
        return 0.0
    spread = math.log(mean / lo)
    z = statistics.NormalDist().inv_cdf(1.0 / (n + 1))  # negative
    sigma = z + math.sqrt(z * z + 2.0 * spread)
    if not sigma > 0:
        raise CalibrationError(f"cannot fit spread min={lo} mean={mean} n={n}")
    return min(sigma, 3.0)


def _sample_hc(lo: float, mean: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n per-row first-flip hammer counts with sample min == lo and sample
    mean == mean (exact, via affine correction of a lognormal draw)."""
    if n == 1:
        return np.full(1, mean)
    sigma = _fit_sigma(lo, mean, n)
    if sigma == 0.0:
        return np.full(n, mean)
    mu = math.log(mean) - sigma * sigma / 2.0
    raw = rng.lognormal(mu, sigma, size=n)
    raw_min = raw.min()
    raw_mean = raw.mean()
    if math.isclose(raw_mean, raw_min):
        return np.full(n, mean)
    a = (mean - lo) / (raw_mean - raw_min)
    b = lo - a * raw_min
    return a * raw + b


@dataclass
class ThresholdSet:
    """Per-row, per-kind flip thresholds in effective units, plus each
    row's deterministic weakest bit position.

    The arrays must not change once the set is in use: `theta_list`
    keeps a copy of each.
    """

    theta: dict[str, np.ndarray]
    weak_bit: np.ndarray
    seed: int
    _theta_lists: dict[str, list[float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def theta_list(self, kind: str) -> Optional[list[float]]:
        """`theta[kind]` as a Python list, for fast reads of single rows;
        built on first use, None when the kind has no thresholds."""
        rows = self._theta_lists.get(kind)
        if rows is None and kind in self.theta:
            rows = self._theta_lists[kind] = self.theta[kind].tolist()
        return rows


def _region_mults(profile: ChipProfile, layout: SubarrayLayout) -> np.ndarray:
    """Per-row region multiplier; bins as `classify_region`."""
    per_bin = np.array([profile.region_mult[r] for r in REGIONS], dtype=np.float64)
    mults = np.empty(layout.rows, dtype=np.float64)
    for start, count in layout.extents:
        bins = np.minimum(4, np.arange(count) * 5 // count)
        mults[start : start + count] = per_bin[bins]
    return mults


def sample_thresholds(profile: ChipProfile, layout: SubarrayLayout, seed: int) -> ThresholdSet:
    rows = layout.rows
    mults = _region_mults(profile, layout)
    theta: dict[str, np.ndarray] = {}
    for kind in KINDS:
        if kind not in profile.thresholds:
            continue
        lo, mean = profile.thresholds[kind]
        rng = substream(seed, f"theta.{kind}")
        hc = _sample_hc(lo, mean, rows, rng)
        t = hc * profile.units_per_hammer(kind)
        theta[kind] = np.maximum(t * mults, 1e-9)
    hashes = stable_hash_each(seed, np.arange(rows))
    weak = (hashes % np.uint64(ROW_BITS)).astype(np.int64)
    return ThresholdSet(theta=theta, weak_bit=weak, seed=seed)


# ---------------------------------------------------------------------------
# Damage accrual

# The one flip rule: a row's bit k flips once its damage fraction reaches
# BIT_ESCALATION**k * FLIP_AT, a hair below 1 so that exactly reaching
# the threshold flips despite the rounding of summed deposits.
FLIP_AT = 1.0 - 1e-9


def bits_flipped(f: float, done: int = 0) -> int:
    """Bits flipped on a row at damage fraction `f`, counting on from
    `done` bits that a lower fraction flipped."""
    n = done
    while f >= BIT_ESCALATION**n * FLIP_AT:
        n += 1
    return n


def hammers_to_flip(per: float, damage: float = 0.0) -> Optional[int]:
    """Fewest deposits of `per` that flip the first bit of a row at
    damage fraction `damage` below FLIP_AT: the smallest n with
    damage + n * per >= FLIP_AT, or None if `per` adds nothing."""
    if per <= 0:
        return None
    # the rounded quotient may miss by one either way: step up from below
    n = max(1, math.ceil((FLIP_AT - damage) / per) - 1)
    while damage + n * per < FLIP_AT:
        n += 1
    return n


@dataclass(frozen=True)
class Bitflip:
    row: int
    bit: int
    direction: str
    kind: str
    time: float


@dataclass
class DisturbanceState:
    """Mutable per-bank damage state; damage is a fraction of the victim's
    kind-specific threshold, so mixed-kind patterns add up."""

    rows: int
    damage: dict[int, float] = field(default_factory=dict)
    flipped: dict[int, int] = field(default_factory=dict)
    flips: list[Bitflip] = field(default_factory=list)
    skipped_victims: int = 0


def accumulate(
    state: DisturbanceState,
    effects: Sequence,
    thresholds: ThresholdSet,
    profile: ChipProfile,
    temp_c: float = T_REF_C,
    dp: Optional[int] = None,
) -> list[Bitflip]:
    """Fold a batch of analog effects into the damage state; returns the
    bitflips they caused (also appended to state.flips)."""
    out: list[Bitflip] = []
    slack = FLIP_AT
    rows = state.rows
    damage = state.damage
    flipped = state.flipped
    for eff in effects:
        # a restored row loses its damage and flipped bits; `flipped`
        # stays empty until a row flips, so it is popped only then
        if isinstance(eff, RefreshEffect):
            for r in eff.rows:
                damage.pop(r, None)
                if flipped:
                    flipped.pop(r, None)
            continue
        if not isinstance(eff, HammerEffect):
            raise ConfigError(f"unknown effect {type(eff).__name__}")
        kind = eff.kind
        theta = thresholds.theta_list(kind)
        for a in eff.aggressors:
            damage.pop(a, None)
            if flipped:
                flipped.pop(a, None)
        if theta is None:
            continue  # kind not expressible on this module
        for v, units in deposits(kind, eff.aggressors, eff.t_on, dp, temp_c, profile):
            if not 0 <= v < rows:
                state.skipped_victims += 1
                continue
            f = damage.get(v, 0.0) + units / theta[v]
            damage[v] = f
            if f < slack:
                continue  # below even the first bit's threshold
            done = flipped.get(v, 0)
            nf = bits_flipped(f, done)
            for bit in range(done, nf):
                out.append(Bitflip(
                    row=v,
                    bit=int((thresholds.weak_bit[v] + bit) % ROW_BITS),
                    direction=FLIP_DIRECTION[kind],
                    kind=kind,
                    time=eff.time,
                ))
            flipped[v] = nf
    state.flips.extend(out)
    return out


def accumulate_row(row: int, damage: float, flipped: int, effects: Sequence,
                   thresholds: ThresholdSet, profile: ChipProfile, temp_c: float,
                   dp: Optional[int]) -> tuple[float, int]:
    """One row's share of `accumulate`, its reference: the row's damage
    fraction and flipped bits after the batch, from `damage` and `flipped`
    before it, bit for bit as `accumulate` leaves them in `state`.  A
    group op's aggressors must be distinct and sorted, as `Bank` emits
    them."""
    for eff in effects:
        refresh = isinstance(eff, RefreshEffect)
        if row in (eff.rows if refresh else eff.aggressors):
            damage, flipped = 0.0, 0
            continue
        theta = None if refresh else thresholds.theta_list(eff.kind)
        if theta is None:
            continue
        agg, kind = eff.aggressors, eff.kind
        if kind == SIMRA:  # a group op deposits once, at the nearest member
            opened, dists = len(agg), (nearest_member(agg, row),)
        else:
            members = set(agg)
            opened, dists = len(members), [abs(a - row) for a in members]
        for d in dists:
            if d <= MAX_DISTANCE:
                damage += contribution(kind, dp, temp_c, eff.t_on, d, opened, profile) / theta[row]
        if damage >= FLIP_AT:
            flipped = bits_flipped(damage, flipped)
    return damage, flipped
