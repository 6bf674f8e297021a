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

from .disturbance import FLIP_AT, RH, SIMRA, bits_flipped, deposits
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


# most int64 values `run_bypass` keeps for a run's refresh windows: one a
# window for each row a REF refreshes, and about eight more a window (REF
# numbers, TRR draws, segment ends); 2**24 of them take 128 MB
MAX_WINDOW_VALUES = 2**24


def max_windows(timing: TimingParams, rows: int) -> int:
    """Most refresh windows `run_bypass` advances on a bank of `rows` rows."""
    return MAX_WINDOW_VALUES // (timing.rows_per_ref(rows) + 8)


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
    rows, kind = exp.layout.rows, setup.kind
    theta = exp.thresholds.theta.get(kind)
    if theta is None:
        raise ConfigError(f"profile has no thresholds for {kind!r}")
    dose_units = _window_doses(exp, setup, t_on)
    vic = np.array(sorted(dose_units), dtype=np.int64)
    # each victim's segments end at its reset windows and at the last window
    seg_v, seg_end = [np.arange(len(vic))], [np.full(len(vic), windows - 1)]

    def reset(at, row):
        """The REFs closing windows `at` reset `row`; keep the victims."""
        hit = np.isin(row, vic)
        seg_v.append(np.searchsorted(vic, row[hit]))
        seg_end.append(at[hit])

    w = np.arange(max(windows, 0))
    # REF w's periodic refresh slice
    for row in exp.timing.ref_rows(w, rows):
        reset(w, row)
    trr_refreshes = 0
    if trr is not None:
        # one sample per REF: an offset back from the newest ACT
        rng = substream(exp.seed, "trr.sampler")
        acts = exp.timing.acts_per_refi
        back, j = np.divmod(rng.integers(np.minimum(trr.sampler_size, acts * (w + 1))), acts)
        caught = (w - back) % 4 == 0  # the sampler caught an attack address
        pos = (acts - 1) - j[caught]  # position within that aggressor window
        # round-robin schedule: op p went to aggressor p % n
        op_idx = pos // (2 if kind == SIMRA else 1)
        aggr = np.array(list(setup.opened))[op_idx % len(setup.opened)]
        trr_refreshes = len(aggr)
        reset(w[caught], aggr - 1)
        reset(w[caught], aggr + 1)

    seg_v, seg_end = np.concatenate(seg_v), np.concatenate(seg_end)
    # every victim's segment ends, in order, one victim after another
    order = np.lexsort((seg_end, seg_v))
    seg_end = seg_end[order]
    first = np.searchsorted(seg_v[order], np.arange(len(vic) + 1)).tolist()
    per_victim: dict[int, int] = {}
    for i, v in enumerate(vic.tolist()):
        # doses per segment (start, end]: its aggressor windows (w % 4 ==
        # 0), the reset window's included, as its dose lands before the REF
        c = np.diff(seg_end[first[i]:first[i + 1]] // 4, prepend=-1)
        # damage after c doses, added up in the order the windows add it
        damage = np.cumsum(np.full(c.max(), dose_units[v] / float(theta[v])))[c[c > 0] - 1]
        per_victim[v] = sum(bits_flipped(f) for f in damage[damage >= FLIP_AT].tolist())
    return BypassResult(
        windows=windows,
        bitflips=sum(per_victim.values()),
        trr_refreshes=trr_refreshes,
        per_victim=per_victim,
    )
