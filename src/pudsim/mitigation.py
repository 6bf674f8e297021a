"""Per-row activation counting with back-off (PRAC).

The counter scheme keeps one counter per physical row and weights each
in-DRAM operation kind by how much more disturbing it is than a nominal
activation.  When any counter reaches the back-off threshold the device
signals the controller, which must issue RFM; servicing RFM refreshes
the neighbors of the highest-count row and clears its counter.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

from .disturbance import BLAST_DECAY, COMRA, RH, SIMRA, victim_distances
from .dram import TimingParams
from .errors import ConfigError


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
    weighted: bool = True  # False: every op counts 1 (activation-only baseline)

    def __post_init__(self):
        if self.mode not in ("ao", "po"):
            raise ConfigError("mode must be 'ao' or 'po'")
        if self.rdt < 1:
            raise ConfigError("rdt must be >= 1")
        for k, w in self.weights.items():
            if w < 1:
                raise ConfigError(f"weight[{k}] must be >= 1")

    def increment(self, kind: str) -> int:
        """Counter increment of one op of `kind` on each row it opens."""
        return self.weights.get(kind, 1) if self.weighted else 1


@lru_cache(maxsize=4096)
def rfm_victims(target: int, rows: int) -> tuple[int, ...]:
    """The rows an RFM on `target` refreshes in a bank of `rows` rows: the
    in-bank rows a hammer of it disturbs, as `victim_distances` orders
    them."""
    return tuple(v for v, _ in victim_distances(RH, (target,)) if 0 <= v < rows)


# distinct ops whose checked rows a `PracState` keeps; past that it
# forgets them all, so that a scatter stream cannot grow them without limit
OPENED_MEMO_SIZE = 1024


class PracState:
    """One bank's PRAC counters and back-off state.

    `on_op` counts one op and `rfm` serves one RFM.  Between back-offs
    the counters also take two kinds of traffic in bulk, each with the
    result of counting it op by op: a stream of one-row activations
    whose every back-off is served before the next (`on_activations`),
    and whole repeats of a fixed set of ops up to the repeat that would
    raise a back-off (`on_repeats`).

    An op and an RFM cost in proportion to the rows they touch, not to
    the number of live counters: the rows at or above the back-off
    threshold are kept as a set, and an op's checked rows are kept for
    the next op that repeats it.
    """

    def __init__(self, config: PracConfig, rows: int, t_rc: float = TimingParams().t_rc):
        self.config = config
        self.rows = rows
        self.t_rc = t_rc
        self.counters: dict[int, int] = {}
        self._hot: set[int] = set()  # rows whose counter is at or above rdt
        # a heap of -(count * rows + row), the hottest row on top, for an
        # RFM burst: of the hot rows, or of every counter once none is hot;
        # None once stale
        self._order: Optional[list[int]] = None
        self._checked: dict[tuple, Collection[int]] = {}  # op's rows -> `_opened`
        self.backoff_pending = False
        self.backoffs = 0

    def _opened(self, opened: Iterable[int]) -> Collection[int]:
        """The distinct rows an op opens, every one checked to lie in the
        bank before any is counted.  An op is checked once: the next op
        that opens an equal sequence of rows reuses its distinct rows."""
        key = tuple(opened)
        rows = self._checked.get(key)
        if rows is not None:
            return rows
        if len(key) == 1:
            rows = key
            lo = hi = key[0]
        else:
            rows = set(key)
            if not rows:
                raise ConfigError("an operation must open at least one row")
            lo, hi = min(rows), max(rows)
        if lo < 0 or hi >= self.rows:
            bad = min(r for r in rows if not 0 <= r < self.rows)
            raise ConfigError(f"row {bad} outside [0, {self.rows})")
        if len(self._checked) >= OPENED_MEMO_SIZE:
            self._checked.clear()
        self._checked[key] = rows
        return rows

    def on_op(self, kind: str, opened: Iterable[int]) -> float:
        """Count one completed operation; returns the time it blocks the
        bank.

        `opened` is every row the op physically opened (all group members
        for a group op, src and dst for a copy cycle).  The counters see
        the same updates in both modes; 'ao' serializes one counter
        read-modify-write per row while 'po' hides them in one precharge
        slot, so only the blocking latency differs.
        """
        cfg = self.config
        w = cfg.increment(kind)
        rows = self._opened(opened)
        self._order = None
        counters, hot = self.counters, self._hot
        rdt = cfg.rdt
        lo = rdt - w  # a counter from here up to rdt - 1 reaches rdt
        for r in rows:
            old = counters.get(r, 0)
            counters[r] = old + w
            if lo <= old < rdt:
                hot.add(r)
        if hot and not self.backoff_pending:
            self.backoff_pending = True
            self.backoffs += 1
        return self.t_rc * len(rows) if cfg.mode == "ao" else self.t_rc

    def on_repeats(self, ops: Sequence[tuple[str, Iterable[int]]]) -> int:
        """Count, in one step, as many whole repeats of `ops` (each a kind
        and the rows it opens) as keep every counter they raise below the
        back-off threshold, so that none of them raises a back-off;
        returns how many.  The next repeat brings a row it opens to the
        threshold."""
        per_repeat: dict[int, int] = {}
        for kind, opened in ops:
            w = self.config.increment(kind)
            for r in self._opened(opened):
                per_repeat[r] = per_repeat.get(r, 0) + w
        counters = self.counters
        rdt = self.config.rdt
        m = max(0, min((rdt - 1 - counters.get(r, 0)) // w for r, w in per_repeat.items()))
        if m:
            self._order = None
            for r, w in per_repeat.items():
                counters[r] = counters.get(r, 0) + m * w
        return m

    def on_activations(self, rows: Sequence[int]) -> np.ndarray:
        """Count a stream of one-row activations (kind `RH`), one per entry
        of `rows`, on fresh counters, every back-off served before the
        next activation; returns the positions in `rows` of the
        activations that raise one.

        Only its own RFM clears a counter, and each activation raises one
        row by w, so a row's k-th activation since its last clear reaches
        the threshold exactly when k is a multiple of ceil(rdt / w).  No
        other counter is at the threshold then, so one RFM, which targets
        that row (`rfm_victims`), serves the back-off.  The state is left
        as `on_op` and those RFMs leave it: a back-off raised by the last
        activation stays pending.
        """
        if self.counters:
            raise ValueError("bulk counting needs fresh counters")
        rows = np.asarray(rows, dtype=np.int64)
        outside = np.flatnonzero((rows < 0) | (rows >= self.rows))
        if outside.size:
            self._opened((int(rows[outside[0]]),))  # raises on_op's error
        w = self.config.increment(RH)
        k = -(-self.config.rdt // w)  # activations per back-off of a row
        # each activation's index among its row's, from 1
        order = np.argsort(rows, kind="stable")
        i = np.arange(len(rows))
        first = np.maximum.accumulate(np.where(np.diff(rows[order], prepend=-1) != 0, i, 0))
        nth = np.empty_like(i)
        nth[order] = i - first + 1
        raised = np.flatnonzero(nth % k == 0)
        self._order = None
        self.backoffs += len(raised)
        seen, counts = np.unique(rows, return_counts=True)
        self.counters = {r: c % k * w for r, c in zip(seen.tolist(), counts.tolist()) if c % k}
        if len(raised) and raised[-1] == len(rows) - 1:
            self.counters[int(rows[-1])] = k * w
            self._hot = {int(rows[-1])}
            self.backoff_pending = True
        return raised

    def rfm(self) -> tuple[int, ...]:
        """Service one RFM: refresh the rows a hammer of the hottest row
        (highest count, ties broken toward the higher row address)
        disturbs, as `victim_distances` orders them, and clear its
        counter.  Returns the refreshed victim rows.

        Back-to-back RFMs, with no op between them, share one order, and
        each pops the hottest row left, the row a scan would find.  The
        first heaps only the rows at or above the threshold, which outrank
        every other counter; an RFM after those are used up heaps every
        counter left.
        """
        counters = self.counters
        if not counters:
            self.backoff_pending = False
            return ()
        order = self._order
        if not order:
            # count * rows + row orders as the pair (count, row), since every
            # counted row lies in the bank, and ints compare faster than pairs
            rows = self.rows
            order = self._order = [-(counters[r] * rows + r) for r in self._hot or counters]
            heapq.heapify(order)
        target = -heapq.heappop(order) % self.rows
        del counters[target]
        self._hot.discard(target)
        self.backoff_pending = bool(self._hot)
        return rfm_victims(target, self.rows)


def secure_rdt(theta_eff_min: float, weights: dict[str, int]) -> int:
    """Largest back-off threshold that provably prevents any flip.

    Between two refreshes of a victim, each neighbor can accrue at most
    RDT - 1 + w_max weighted count before back-off fires, two neighbors
    and second-distance leakage give the 2 * (1 + BLAST_DECAY) factor;
    keeping that product below the smallest effective threshold
    guarantees no row ever reaches its flip threshold.
    """
    w_max = max(weights.values())
    bound = theta_eff_min / (2.0 * (1.0 + BLAST_DECAY))
    rdt = int(math.floor(bound)) + 1 - w_max
    while rdt > 1 and 2.0 * (1.0 + BLAST_DECAY) * (rdt - 1 + w_max) >= theta_eff_min:
        rdt -= 1
    if rdt < 1:
        raise ConfigError("no secure back-off threshold exists for these weights")
    return rdt
