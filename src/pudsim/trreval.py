"""Refresh-window-level evaluation of sampler TRR against bypass patterns.

The bypass schedule (one aggressor window, three decoy windows, REF at
every window boundary) is regular, so instead of replaying millions of
bus events this evaluator advances one refresh window at a time: victim
dosage per aggressor window is a precomputed constant, and each REF
draws the TRR sample analytically from the known ring composition.  A
bus-event reference implementation in the test suite pins the two routes
to each other on small spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .disturbance import RH, SIMRA, ChipProfile, ThresholdSet, contribution
from .dram import SimraGroupMap, SubarrayLayout, TimingParams
from .errors import ConfigError
from .mitigation import TrrConfig
from .rng import substream


@dataclass
class BypassSetup:
    """Aggressor/victim placement for one bypass run."""

    technique: str  # 'rh' or 'simra'
    aggressors: tuple[int, ...]  # bus-visible rows (r2 rows for simra)
    groups: dict[int, tuple[int, ...]] = field(default_factory=dict)  # r2 -> members
    n: int = 2  # group size for simra


@dataclass
class BypassResult:
    technique: str
    trr_enabled: bool
    seed: int
    windows: int
    bitflips: int
    flipped_rows: int
    trr_refreshes: int
    per_victim: dict[int, int] = field(default_factory=dict)


def make_rh_setup(pairs: int, base: int = 8, spacing: int = 8) -> BypassSetup:
    """`pairs` double-sided aggressor pairs, each sandwiching one victim."""
    aggr = []
    for i in range(pairs):
        b = base + i * spacing
        aggr.extend((b, b + 2))
    return BypassSetup(technique="rh", aggressors=tuple(aggr))


def make_simra_setup(groups: SimraGroupMap, n: int, count: int) -> BypassSetup:
    """Pick `count` groups of size n; the bus row is an interior member,
    so a bus-watching sampler never lands next to the real victims."""
    chosen: dict[int, tuple[int, ...]] = {}
    for r2 in sorted(groups.table):
        grp = sorted(groups.table[r2])
        if len(grp) != n:
            continue
        interior = grp[len(grp) // 2]
        if interior in chosen or interior == grp[0] or interior == grp[-1]:
            continue
        if any(interior in g for g in chosen.values()):
            continue
        chosen[interior] = tuple(grp)
        if len(chosen) >= count:
            break
    if len(chosen) < count:
        raise ConfigError(f"only {len(chosen)} groups of size {n} available")
    return BypassSetup(
        technique="simra", aggressors=tuple(sorted(chosen)), groups=chosen, n=n
    )


def _window_doses(
    setup: BypassSetup,
    profile: ChipProfile,
    timing: TimingParams,
    rows: int,
    t_on: float,
) -> tuple[dict[int, float], dict[int, tuple[int, ...]]]:
    """Per-victim effective units deposited by one aggressor window, and
    the victims each bus-sampled aggressor address protects (±reach is
    applied by the caller)."""
    n_aggr = len(setup.aggressors)
    acts = timing.acts_per_refi
    per_op = 2 if setup.technique == "simra" else 1
    ops = acts // per_op
    # round-robin split of the window's op budget
    ops_per_aggr = [ops // n_aggr + (1 if i < ops % n_aggr else 0) for i in range(n_aggr)]
    dose: dict[int, float] = {}
    victims_of: dict[int, tuple[int, ...]] = {}
    max_d = profile.max_distance
    if setup.technique == "simra":
        nf = profile.simra_n_factor(setup.n)
        for i, r2 in enumerate(setup.aggressors):
            members = set(setup.groups[r2])
            vs = []
            for v in range(min(members) - max_d, max(members) + max_d + 1):
                if v in members or not 0 <= v < rows:
                    continue
                d = min(abs(v - m) for m in members)
                if d > max_d:
                    continue
                c = contribution(SIMRA, None, 80.0, t_on, d, profile) * nf
                dose[v] = dose.get(v, 0.0) + ops_per_aggr[i] * c
                vs.append(v)
            victims_of[r2] = tuple(vs)
    else:
        aggr = set(setup.aggressors)
        for i, a in enumerate(setup.aggressors):
            vs = []
            for d in range(1, max_d + 1):
                for v in (a - d, a + d):
                    if v in aggr or not 0 <= v < rows:
                        continue
                    c = contribution(RH, None, 80.0, t_on, d, profile)
                    dose[v] = dose.get(v, 0.0) + ops_per_aggr[i] * c
                    vs.append(v)
            victims_of[a] = tuple(vs)
    return dose, victims_of


def run_bypass(
    setup: BypassSetup,
    profile: ChipProfile,
    thresholds: ThresholdSet,
    layout: SubarrayLayout,
    trr: Optional[TrrConfig],
    seed: int,
    windows: int,
    timing: Optional[TimingParams] = None,
) -> BypassResult:
    """Advance the bypass schedule `windows` refresh windows and count the
    bitflips it produces on the victims of the configured aggressors."""
    timing = timing or TimingParams()
    rows = layout.rows
    kind = SIMRA if setup.technique == "simra" else RH
    theta = thresholds.theta.get(kind)
    if theta is None:
        raise ConfigError(f"profile has no thresholds for {kind!r}")
    dose_units, victims_of = _window_doses(setup, profile, timing, rows, timing.t_ras)
    victims = sorted(dose_units)
    # fraction of each victim's own threshold deposited per aggressor window
    dose = {v: dose_units[v] / float(theta[v]) for v in victims}
    rng = substream(seed, "trr.sampler")
    esc = profile.bit_escalation
    acts = timing.acts_per_refi
    n_aggr = len(setup.aggressors)
    per_op = 2 if setup.technique == "simra" else 1

    damage = {v: 0.0 for v in victims}
    flipped = {v: 0 for v in victims}
    cum = {v: 0 for v in victims}
    bitflips = 0
    trr_refreshes = 0
    per_ref = -(-rows // timing.refs_per_refw)  # ceil, matches the bank model
    cursor = 0

    def window_kind(w: int) -> str:
        return "agg" if w % 4 == 0 else "dummy"

    for w in range(windows):
        if window_kind(w) == "agg":
            for v in victims:
                f = damage[v] + dose[v]
                damage[v] = f
                nf = flipped[v]
                while f >= esc**nf:
                    bitflips += 1
                    cum[v] += 1
                    nf += 1
                flipped[v] = nf
        # REF at the window boundary
        if trr is not None and (w + 1) % trr.ref_cadence == 0:
            avail = min(trr.sampler_size, acts * (w + 1))
            j = int(rng.integers(avail))  # offset back from the newest ACT
            back_w = w - j // acts
            pos = (acts - 1) - (j % acts)  # position within that window
            if window_kind(back_w) == "agg":
                # round-robin schedule: position p went to aggressor p % n
                op_idx = pos // per_op
                a = setup.aggressors[op_idx % n_aggr]
                trr_refreshes += 1  # the sampler caught an attack address
                for d in range(1, trr.reach + 1):
                    for v in (a - d, a + d):
                        if v in damage:
                            damage[v] = 0.0
                            flipped[v] = 0
        # periodic refresh slice
        for r in range(cursor, cursor + per_ref):
            v = r % rows
            if v in damage:
                damage[v] = 0.0
                flipped[v] = 0
        cursor = (cursor + per_ref) % rows
    return BypassResult(
        technique=setup.technique,
        trr_enabled=trr is not None,
        seed=seed,
        windows=windows,
        bitflips=bitflips,
        flipped_rows=sum(1 for v in victims if cum[v]),
        trr_refreshes=trr_refreshes,
        per_victim=cum,
    )
