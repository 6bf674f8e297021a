"""In-DRAM mitigation models: a sampling target-row-refresh (TRR) and a
per-row activation counter scheme with back-off (PRAC).

The TRR sampler watches the command bus only: it records the row address
of every bus ACT into a bounded ring and, on each TRR-capable REF,
refreshes the neighbors of one uniformly sampled recent address.  Rows a
group activation opens internally never appear on the bus, so the
sampler cannot see them.

The counter scheme keeps one counter per physical row and weights each
in-DRAM operation kind by how much more disturbing it is than a nominal
activation.  When any counter reaches the back-off threshold the device
signals the controller, which must issue RFM; servicing RFM refreshes
the neighbors of the highest-count row and clears its counter.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .disturbance import COMRA, RH, SIMRA
from .dram import TimingParams
from .errors import ConfigError

# ---------------------------------------------------------------------------
# TRR


@dataclass
class TrrConfig:
    sampler_size: int = 450
    reach: int = 1  # refresh aggressor +/- reach
    ref_cadence: int = 1  # every k-th REF is TRR-capable

    def __post_init__(self):
        if self.sampler_size < 1:
            raise ConfigError("sampler_size must be >= 1")
        if self.reach < 1:
            raise ConfigError("reach must be >= 1")
        if self.ref_cadence < 1:
            raise ConfigError("ref_cadence must be >= 1")


class TrrState:
    def __init__(self, config: TrrConfig, rng: np.random.Generator, rows: int):
        self.config = config
        self.rng = rng
        self.rows = rows
        self.ring: deque[int] = deque(maxlen=config.sampler_size)
        self.ref_count = 0
        self.targeted_refreshes = 0

    def observe_act(self, row: int) -> None:
        """Record one bus ACT address (internally opened rows never call this)."""
        self.ring.append(row)

    def on_ref(self) -> tuple[int, ...]:
        """Rows the device refreshes on this REF beyond the periodic slice."""
        self.ref_count += 1
        if self.ref_count % self.config.ref_cadence != 0 or not self.ring:
            return ()
        pick = self.ring[int(self.rng.integers(len(self.ring)))]
        victims = tuple(
            v
            for d in range(1, self.config.reach + 1)
            for v in (pick - d, pick + d)
            if 0 <= v < self.rows
        )
        self.targeted_refreshes += len(victims)
        return victims


@dataclass
class MitigationConfig:
    """Which engines run and how; consumed by the harness and perf sim."""

    trr: Optional["TrrConfig"] = None
    prac: Optional["PracConfig"] = None
    rfm_latency_ns: Optional[float] = None  # None -> tRC x refreshed neighbors

    @property
    def label(self) -> str:
        if self.prac is not None:
            tag = "wc" if self.prac.weighted else "naive"
            return f"prac-{self.prac.mode}-{tag}"
        if self.trr is not None:
            return "trr"
        return "none"


# ---------------------------------------------------------------------------
# PRAC


def weight(kind: str, lowest_hc: dict[str, float]) -> int:
    """Counter increment for one operation of `kind`.

    Scaled so one unit of count tracks comparable disturbance across
    kinds: the ratio of the most resistant module's first-flip activation
    count to the kind's first-flip count, rounded up.  Nominal
    activations weigh 1 by definition.
    """
    if kind == RH:
        return 1
    if kind not in lowest_hc:
        raise ConfigError(f"no configured lowest first-flip count for {kind!r}")
    if lowest_hc[kind] <= 0 or lowest_hc.get(RH, 0) <= 0:
        raise ConfigError("lowest first-flip counts must be positive")
    return math.ceil(lowest_hc[RH] / lowest_hc[kind])


@dataclass
class PracConfig:
    mode: str = "po"  # 'ao': update all opened rows; 'po': addressed row only
    rdt: int = 1024  # back-off threshold
    weights: dict[str, int] = field(default_factory=lambda: {RH: 1, COMRA: 10, SIMRA: 200})
    reach: int = 2  # RFM refreshes target +/- reach
    weighted: bool = True  # False: every op counts 1 (activation-only baseline)

    def __post_init__(self):
        if self.mode not in ("ao", "po"):
            raise ConfigError("mode must be 'ao' or 'po'")
        if self.rdt < 1:
            raise ConfigError("rdt must be >= 1")
        if self.reach < 1:
            raise ConfigError("reach must be >= 1")
        for k, w in self.weights.items():
            if w < 1:
                raise ConfigError(f"weight[{k}] must be >= 1")


@dataclass(frozen=True)
class PracUpdate:
    latency: float
    backoff: bool  # device asserted back-off; controller must RFM


class PracState:
    def __init__(self, config: PracConfig, rows: int, t_rc: float = TimingParams().t_rc):
        self.config = config
        self.rows = rows
        self.t_rc = t_rc
        self.counters: dict[int, int] = {}
        self._at_rdt = 0  # counters at or above the back-off threshold
        self.backoff_pending = False
        self.backoffs = 0
        self.rfms = 0

    def on_op(self, kind: str, opened: Iterable[int]) -> PracUpdate:
        """Count one completed operation.

        `opened` is every row the op physically opened (all group members
        for a group op, src and dst for a copy cycle).  The counters see
        the same updates in both modes; 'ao' serializes one counter
        read-modify-write per row while 'po' hides them in one precharge
        slot, so only the blocking latency differs.
        """
        cfg = self.config
        w = cfg.weights.get(kind, 1) if cfg.weighted else 1
        rows = set(opened)
        if not rows:
            raise ConfigError("an operation must open at least one row")
        if min(rows) < 0 or max(rows) >= self.rows:
            bad = min(r for r in rows if not 0 <= r < self.rows)
            raise ConfigError(f"row {bad} outside [0, {self.rows})")
        counters = self.counters
        rdt = cfg.rdt
        for r in rows:
            old = counters.get(r, 0)
            counters[r] = old + w
            if old < rdt <= old + w:
                self._at_rdt += 1
        if self._at_rdt and not self.backoff_pending:
            self.backoff_pending = True
            self.backoffs += 1
        latency = self.t_rc * len(rows) if cfg.mode == "ao" else self.t_rc
        return PracUpdate(latency=latency, backoff=self.backoff_pending)

    def _clear(self, row: int) -> None:
        if self.counters.pop(row, 0) >= self.config.rdt:
            self._at_rdt -= 1

    def rfm(self) -> tuple[int, ...]:
        """Service one RFM: refresh neighbors of the hottest row and clear
        its counter.  Returns the refreshed victim rows."""
        self.rfms += 1
        if not self.counters:
            self.backoff_pending = False
            return ()
        # highest count; ties broken toward the higher row address
        _, target = max(zip(self.counters.values(), self.counters.keys()))
        self._clear(target)
        self.backoff_pending = self._at_rdt > 0
        return tuple(
            v
            for d in range(1, self.config.reach + 1)
            for v in (target - d, target + d)
            if 0 <= v < self.rows
        )

    def on_refresh(self, rows: Iterable[int]) -> None:
        """Periodic refresh clears the refreshed rows' counters."""
        for r in rows:
            self._clear(r)
        self.backoff_pending = self._at_rdt > 0


def secure_rdt(
    theta_eff_min: float, weights: dict[str, int], blast_decay: float = 0.05
) -> int:
    """Largest back-off threshold that provably prevents any flip.

    Between two refreshes of a victim, each neighbor can accrue at most
    RDT - 1 + w_max weighted count before back-off fires, two neighbors
    and second-distance leakage give the 2 * (1 + decay) factor; keeping
    that product below the smallest effective threshold guarantees no row
    ever reaches its flip threshold.
    """
    w_max = max(weights.values())
    bound = theta_eff_min / (2.0 * (1.0 + blast_decay))
    rdt = int(math.floor(bound)) + 1 - w_max
    while rdt > 1 and 2.0 * (1.0 + blast_decay) * (rdt - 1 + w_max) >= theta_eff_min:
        rdt -= 1
    if rdt < 1:
        raise ConfigError("no secure back-off threshold exists for these weights")
    return rdt
