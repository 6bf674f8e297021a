"""Refresh-window-level evaluation of sampler TRR against bypass patterns.

The modelled TRR watches the command bus only: it keeps the row address
of the last `sampler_size` bus ACTs and, on every REF, refreshes the
two neighbours of one uniformly sampled address.  Rows a group
activation opens internally never appear on the bus, so the sampler
cannot see them: it can only pick the group's bus-visible row.

The bypass schedule (one aggressor window, three decoy windows, REF at
every window boundary) is regular, so instead of replaying millions of
bus events this evaluator advances one refresh window at a time: victim
dosage per aggressor window is a precomputed constant, and each REF
draws the TRR sample analytically from the known ring composition.  A
bus-event reference in the test suite pins the two routes to each other
on small spans, with TRR off and on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .disturbance import FLIP_AT, RH, SIMRA, bits_flipped, contribution, victim_distances
from .dram import SimraGroupMap
from .errors import ConfigError
from .harness import Experiment
from .rng import substream


@dataclass
class TrrConfig:
    sampler_size: int = 450  # bus ACT addresses the sampler remembers

    def __post_init__(self):
        if self.sampler_size < 1:
            raise ConfigError("sampler_size must be >= 1")


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
    trr_refreshes: int
    per_victim: dict[int, int] = field(default_factory=dict)


# first RowHammer aggressor row, and the rows between successive pairs
_RH_BASE = 8
_RH_SPACING = 8


def make_rh_setup(pairs: int) -> BypassSetup:
    """`pairs` double-sided aggressor pairs, each sandwiching one victim."""
    aggr = []
    for i in range(pairs):
        b = _RH_BASE + i * _RH_SPACING
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


def _window_doses(exp: Experiment, setup: BypassSetup, t_on: float) -> dict[int, float]:
    """Per-victim effective units deposited by one aggressor window."""
    profile, rows = exp.profile, exp.layout.rows
    simra = setup.technique == "simra"
    kind = SIMRA if simra else RH
    n_aggr = len(setup.aggressors)
    ops = exp.timing.acts_per_refi // (2 if simra else 1)
    # round-robin split of the window's op budget
    ops_per_aggr = [ops // n_aggr + (1 if i < ops % n_aggr else 0) for i in range(n_aggr)]
    nf = profile.simra_n_factor(setup.n) if simra else 1.0
    # a RowHammer aggressor's own ACTs restore it; a chosen group's ops
    # would restore its rows too, which is not modelled yet
    # (test_simra_group_rows_agree)
    restored = set() if simra else set(setup.aggressors)
    dose: dict[int, float] = {}
    for i, a in enumerate(setup.aggressors):
        opened = set(setup.groups[a]) if simra else {a}
        for v, d in victim_distances(kind, opened):
            if v in restored or not 0 <= v < rows:
                continue
            c = contribution(kind, exp.dp_aggr, exp.temp_c, t_on, d, profile) * nf
            dose[v] = dose.get(v, 0.0) + ops_per_aggr[i] * c
    return dose


def run_bypass(
    exp: Experiment,
    setup: BypassSetup,
    trr: Optional[TrrConfig],
    windows: int,
    t_on: float,
) -> BypassResult:
    """Advance the bypass schedule `windows` refresh windows on the
    experiment's chip and count the bitflips it produces on the victims
    of the configured aggressors.

    Aggressors are held open `t_on` ns at the experiment's temperature
    and hold its data pattern; the TRR sampler draws from the
    experiment's seed."""
    timing = exp.timing
    rows = exp.layout.rows
    kind = SIMRA if setup.technique == "simra" else RH
    theta = exp.thresholds.theta.get(kind)
    if theta is None:
        raise ConfigError(f"profile has no thresholds for {kind!r}")
    dose_units = _window_doses(exp, setup, t_on)
    victims = sorted(dose_units)
    # fraction of each victim's own threshold deposited per aggressor window
    dose = {v: dose_units[v] / float(theta[v]) for v in victims}
    rng = substream(exp.seed, "trr.sampler")
    acts = timing.acts_per_refi
    n_aggr = len(setup.aggressors)
    per_op = 2 if setup.technique == "simra" else 1

    damage = {v: 0.0 for v in victims}
    flipped = {v: 0 for v in victims}
    cum = {v: 0 for v in victims}
    trr_refreshes = 0
    per_ref = timing.rows_per_ref(rows)
    cursor = 0

    for w in range(windows):
        if w % 4 == 0:  # an aggressor window; the three after it are decoys
            for v in victims:
                f = damage[v] + dose[v]
                damage[v] = f
                if f < FLIP_AT:
                    continue  # below even the first bit's threshold
                nf = bits_flipped(f, flipped[v])
                cum[v] += nf - flipped[v]
                flipped[v] = nf
        # REF at the window boundary
        if trr is not None:
            avail = min(trr.sampler_size, acts * (w + 1))
            j = int(rng.integers(avail))  # offset back from the newest ACT
            back_w = w - j // acts
            pos = (acts - 1) - (j % acts)  # position within that window
            if back_w % 4 == 0:
                # round-robin schedule: position p went to aggressor p % n
                op_idx = pos // per_op
                a = setup.aggressors[op_idx % n_aggr]
                trr_refreshes += 1  # the sampler caught an attack address
                for v in (a - 1, a + 1):
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
        seed=exp.seed,
        windows=windows,
        bitflips=sum(cum.values()),
        trr_refreshes=trr_refreshes,
        per_victim=cum,
    )
