"""Refresh-window-level evaluation of sampler TRR against bypass patterns.

The modelled TRR watches the command bus only: it keeps the row address
of the last `sampler_size` bus ACTs and, on every REF, refreshes the
two neighbours of one uniformly sampled address.  Rows a group
activation opens internally never appear on the bus, so the sampler
cannot see them: it can only pick the group's bus-visible row.

The bypass schedule (one aggressor window, three decoy windows, REF at
every window boundary) is regular, so instead of replaying millions of
bus events this evaluator works per victim: each aggressor window adds a
fixed dose, and the REFs that reset the victim (its periodic refresh and
the TRR samples, drawn from the known ring composition, that catch a
neighbouring aggressor) cut its windows into segments whose flips follow
from their dose counts.  A bus-event reference in the test suite pins
this on small spans, and a window-by-window loop under every setting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .disturbance import FLIP_AT, RH, SIMRA, bits_flipped, deposits, victim_distances
from .dram import SimraGroupMap, SubarrayLayout, TimingParams
from .errors import ConfigError
from .harness import Experiment
from .rng import substream


@dataclass
class TrrConfig:
    sampler_size: int = 450  # bus ACT addresses the sampler remembers

    def __post_init__(self):
        # `run_bypass` draws each sample below the size in int64
        if not 1 <= self.sampler_size <= 2**63 - 1:
            raise ConfigError(f"mitigation.sampler_size must be from 1 to {2**63 - 1}, "
                              f"got {self.sampler_size}")


@dataclass
class BypassSetup:
    """Aggressor placement for one bypass run: each bus-visible row, in
    schedule order, with the rows its op opens (the whole group for
    SiMRA)."""

    kind: str  # RH or SIMRA
    opened: dict[int, tuple[int, ...]]


@dataclass
class BypassResult:
    windows: int
    bitflips: int
    trr_refreshes: int
    per_victim: dict[int, int] = field(default_factory=dict)


# first RowHammer aggressor row, and the rows between successive pairs
_RH_BASE = 8
_RH_SPACING = 8
# SiMRA groups a bypass run hammers
_SIMRA_GROUPS = 4


def make_rh_setup(layout: SubarrayLayout, pairs: int) -> BypassSetup:
    """`pairs` double-sided aggressor pairs, each sandwiching one victim,
    all inside the bank."""
    bases = [_RH_BASE + i * _RH_SPACING for i in range(pairs)]
    if bases and bases[-1] + 2 >= layout.rows:
        raise ConfigError(f"aggressor row {bases[-1] + 2} outside the bank of {layout.rows} rows")
    return BypassSetup(RH, {a: (a,) for b in bases for a in (b, b + 2)})


def make_simra_setup(groups: SimraGroupMap, n: int) -> BypassSetup:
    """The first `_SIMRA_GROUPS` groups of size n; the bus row is each
    group's middle row, so a bus-watching sampler never lands next to the
    real victims.  An error names the config keys that set n and the map."""
    if n < 3:
        raise ConfigError(f"groups.n = {n}: a SiMRA group of {n} rows has no interior row "
                          "to put on the bus")
    picks = [grp for grp in groups.groups if len(grp) == n][:_SIMRA_GROUPS]
    if len(picks) < _SIMRA_GROUPS:
        raise ConfigError(f"groups.n = {n}: only {len(picks)} groups of {n} rows fit, and the "
                          f"SiMRA bypass needs {_SIMRA_GROUPS}; geometry.rows, layout.subarrays "
                          "and groups.stride set how many fit")
    return BypassSetup(SIMRA, dict(sorted((grp[n // 2], grp) for grp in picks)))


def _window_doses(exp: Experiment, setup: BypassSetup, t_on: float) -> dict[int, float]:
    """Per-victim effective units deposited by one aggressor window."""
    profile, rows, kind = exp.profile, exp.layout.rows, setup.kind
    simra = kind == SIMRA
    n_aggr = len(setup.opened)
    ops = exp.timing.acts_per_refi // (2 if simra else 1)
    # round-robin split of the window's op budget
    ops_per_aggr = [ops // n_aggr + (1 if i < ops % n_aggr else 0) for i in range(n_aggr)]
    # a RowHammer aggressor's own ACTs restore it; a chosen group's ops
    # would restore its rows too, which is not modelled yet
    # (test_simra_group_rows_agree)
    restored = set() if simra else set(setup.opened)
    dose: dict[int, float] = {}
    for i, opened in enumerate(setup.opened.values()):
        for v, units in deposits(kind, opened, t_on, exp.dp_aggr, exp.temp_c, profile):
            if v in restored or not 0 <= v < rows:
                continue
            dose[v] = dose.get(v, 0.0) + ops_per_aggr[i] * units
    return dose


# most int64 values `run_bypass` keeps for a run's refresh windows: up to
# eight a window (window numbers, TRR draws), and four for each time a REF
# resets a victim (its segment ends, sorted); 2**24 of them take 128 MB
MAX_WINDOW_VALUES = 2**24


def max_windows(timing: TimingParams, rows: int, setup: BypassSetup) -> int:
    """Most refresh windows `run_bypass` advances for `setup` on a bank
    of `rows` rows."""
    # every victim, and a few rows more (past the bank's edges, or
    # restored); periodic refresh resets each about once every
    # rows / rows_per_ref windows, TRR up to once a window
    victims = {v for opened in setup.opened.values()
               for v, _ in victim_distances(setup.kind, opened)}
    return MAX_WINDOW_VALUES // (8 + -(-4 * len(victims) * timing.rows_per_ref(rows) // rows))


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
    rows, kind, timing = exp.layout.rows, setup.kind, exp.timing
    theta = exp.thresholds.theta.get(kind)
    if theta is None:
        raise ConfigError(f"profile has no thresholds for {kind!r}")
    dose_units = _window_doses(exp, setup, t_on)
    # each victim's segments end at the last window and at the REFs that
    # reset it: its periodic refreshes and the TRR samples that catch an
    # aggressor beside it
    ends = {v: [[windows - 1], timing.row_refs(v, rows, windows)] for v in sorted(dose_units)}
    trr_refreshes = 0
    if trr is not None:
        # one sample per REF: an offset back from the newest ACT
        rng = substream(exp.seed, "trr.sampler")
        acts = timing.acts_per_refi
        w = np.arange(max(windows, 0))
        back, j = np.divmod(rng.integers(np.minimum(trr.sampler_size, acts * (w + 1))), acts)
        caught = (w - back) % 4 == 0  # the sampler caught an attack address
        at = w[caught]
        trr_refreshes = len(at)
        # the op at that position within its aggressor window went, in the
        # round-robin schedule, to aggressor op % n
        aggr = ((acts - 1) - j[caught]) // (2 if kind == SIMRA else 1) % len(setup.opened)
        for i, a in enumerate(setup.opened):
            for v in (a - 1, a + 1):
                if v in ends:
                    ends[v].append(at[aggr == i])

    # a segment (start, end] takes one dose in each of its aggressor
    # windows (w % 4 == 0), the reset window's included, as that dose lands
    # before the REF.  Victim i keys its ends by their dose counts plus i * q
    # (q aggressor windows in the run), so one sort orders every victim's
    # ends, and successive keys differ by a segment's doses
    q = (windows + 3) // 4
    key = np.sort(np.concatenate([[-1]] + [np.concatenate(e) // 4 + i * q
                                           for i, e in enumerate(ends.values())]))
    c = np.diff(key)
    key, c = key[1:][c > 0], c[c > 0]
    first = np.searchsorted(key, np.arange(len(ends) + 1) * q).tolist()
    per_victim: dict[int, int] = {}
    for v, a, b in zip(ends, first, first[1:]):
        n = c[a:b]
        # damage after n doses, added up in the order the windows add it
        damage = np.cumsum(np.full(n.max(initial=0), dose_units[v] / float(theta[v])))[n - 1]
        per_victim[v] = sum(bits_flipped(f) for f in damage[damage >= FLIP_AT].tolist())
    return BypassResult(
        windows=windows,
        bitflips=sum(per_victim.values()),
        trr_refreshes=trr_refreshes,
        per_victim=per_victim,
    )
