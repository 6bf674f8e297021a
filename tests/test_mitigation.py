"""Per-row activation counting (PRAC) and its weights."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pudsim import PracConfig, PracState
from pudsim.disturbance import COMRA, MAX_DISTANCE, RH, SIMRA, victim_distances
from pudsim.errors import ConfigError
from pudsim.mitigation import rfm_victims, secure_rdt, weight

T_RC = 49.5


# -- weighted counting ----------------------------------------------------------


def test_weights_from_lowest_first_flip_counts():
    lowest = {RH: 4000.0, SIMRA: 20.0, COMRA: 400.0}
    assert weight(SIMRA, lowest) == 200
    assert weight(COMRA, lowest) == 10
    assert weight(RH, lowest) == 1


def test_weight_rounds_up():
    assert weight(COMRA, {RH: 4000.0, COMRA: 401.0}) == 10


def test_weight_requires_positive_counts():
    with pytest.raises(ConfigError):
        weight(SIMRA, {RH: 4000.0})
    with pytest.raises(ConfigError):
        weight(SIMRA, {RH: 4000.0, SIMRA: 0.0})


# -- PRAC counters ----------------------------------------------------------------


def make_prac(mode="po", rdt=1000, weighted=True):
    return PracState(PracConfig(mode=mode, rdt=rdt, weighted=weighted), rows=256)


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from([RH, COMRA, SIMRA]),
        st.integers(min_value=0, max_value=6),  # group index
    ),
    max_size=60,
)


def rows_for(kind, idx):
    if kind == RH:
        return (idx * 33 % 256,)
    if kind == COMRA:
        base = idx * 8
        return (base, base + 1)
    return tuple(range(idx * 32, idx * 32 + 32))


@given(ops_strategy)
def test_ao_and_po_counters_identical(ops):
    ao, po = make_prac("ao"), make_prac("po")
    for kind, idx in ops:
        rows = rows_for(kind, idx)
        ao.on_op(kind, rows)
        po.on_op(kind, rows)
    assert ao.counters == po.counters


def test_latency_differs_by_mode():
    ao, po = make_prac("ao"), make_prac("po")
    rows = tuple(range(32))
    assert ao.on_op(SIMRA, rows) == pytest.approx(32 * T_RC)
    assert po.on_op(SIMRA, rows) == pytest.approx(T_RC)


@given(ops_strategy)
def test_counter_conservation(ops):
    """Total count equals the sum of weights of all opened rows."""
    st_ = make_prac(rdt=10**9)
    expected = 0
    for kind, idx in ops:
        rows = rows_for(kind, idx)
        st_.on_op(kind, rows)
        expected += st_.config.weights[kind] * len(rows)
    assert sum(st_.counters.values()) == expected


def test_unweighted_mode_counts_one_per_row():
    st_ = make_prac(rdt=10**9, weighted=False)
    st_.on_op(SIMRA, tuple(range(32)))
    assert all(c == 1 for c in st_.counters.values())


def test_backoff_asserts_at_rdt_and_rfm_clears_top():
    st_ = make_prac(rdt=30)
    for _ in range(3):
        st_.on_op(RH, (50,))
    assert not st_.backoff_pending
    st_.on_op(RH, (52,))
    for _ in range(29):
        st_.on_op(RH, (50,))
    assert st_.backoff_pending
    refreshed = st_.rfm()
    assert set(refreshed) == {48, 49, 51, 52}
    assert 50 not in st_.counters
    assert not st_.backoff_pending


@given(st.integers(min_value=0, max_value=255))
def test_rfm_refreshes_the_rows_a_hammer_of_its_target_disturbs(target):
    """The rows an RFM refreshes are the in-bank victims of one hammer of
    its target, as the damage model counts them."""
    st_ = make_prac(rdt=1)
    st_.on_op(RH, (target,))
    disturbed = tuple(v for v, _ in victim_distances(RH, {target}) if 0 <= v < st_.rows)
    assert st_.rfm() == disturbed


def test_rfm_tie_breaks_toward_higher_address():
    st_ = make_prac(rdt=5)
    for _ in range(5):
        st_.on_op(RH, (10,))
        st_.on_op(RH, (20,))
    assert st_.backoff_pending
    st_.rfm()
    assert 20 not in st_.counters and 10 in st_.counters


def test_rfm_recomputes_pending_for_remaining_rows():
    st_ = make_prac(rdt=5)
    for _ in range(5):
        st_.on_op(RH, (10,))
        st_.on_op(RH, (20,))
    st_.rfm()
    assert st_.backoff_pending  # row 10 still at threshold
    st_.rfm()
    assert not st_.backoff_pending


def test_empty_op_rejected():
    with pytest.raises(ConfigError):
        make_prac().on_op(RH, ())


@pytest.mark.parametrize("row", [-1, 256])
def test_out_of_range_single_row_rejected(row):
    st_ = make_prac()
    with pytest.raises(ConfigError, match=rf"^row {row} outside \[0, 256\)$"):
        st_.on_op(RH, (row,))
    assert st_.counters == {}


def test_single_row_op_counts_from_any_iterable():
    st_ = make_prac()
    st_.on_op(RH, [7])
    st_.on_op(RH, iter([7]))
    st_.on_op(COMRA, {7})
    assert st_.counters == {7: 12}


def test_out_of_range_row_rejected():
    st_ = make_prac()
    with pytest.raises(ConfigError):
        st_.on_op(RH, (999,))
    # every row is checked before any is counted, and an op refused once
    # is refused again: nothing of it is kept
    for _ in range(2):
        with pytest.raises(ConfigError, match="row 300 outside"):
            st_.on_op(SIMRA, (999, 5, 300))
    assert st_.counters == {}


class ReferencePrac:
    """The scan-based counters `PracState` is pinned to: rows sorted on
    every op, the RFM target and the back-off state found by scanning
    every counter."""

    def __init__(self, config, rows, t_rc=T_RC):
        self.config, self.rows, self.t_rc = config, rows, t_rc
        self.counters = {}
        self.backoff_pending = False
        self.backoffs = 0

    def on_op(self, kind, opened):
        cfg = self.config
        w = cfg.weights.get(kind, 1) if cfg.weighted else 1
        rows = sorted(set(opened))
        for r in rows:
            c = self.counters.get(r, 0) + w
            self.counters[r] = c
            if c >= cfg.rdt and not self.backoff_pending:
                self.backoff_pending = True
                self.backoffs += 1
        latency = self.t_rc * len(rows) if cfg.mode == "ao" else self.t_rc
        return latency, self.backoff_pending

    def rfm(self):
        if not self.counters:
            self.backoff_pending = False
            return ()
        target = max(self.counters, key=lambda r: (self.counters[r], r))
        self.counters.pop(target)
        self.backoff_pending = any(c >= self.config.rdt for c in self.counters.values())
        return tuple(
            v
            for d in range(1, MAX_DISTANCE + 1)
            for v in (target - d, target + d)
            if 0 <= v < self.rows
        )


_opened = st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=40)
_prac_step = st.one_of(
    # an op's rows, as a list or a tuple, are kept checked for the next
    # op that repeats them
    st.tuples(st.just("op"), st.sampled_from([RH, COMRA, SIMRA]),
              st.one_of(_opened, _opened.map(tuple))),
    st.tuples(st.just("rfm")),
    # back-to-back RFMs: every one after the first pops the burst's order
    st.tuples(st.just("burst"), st.integers(min_value=1, max_value=40)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_prac_step, max_size=80), st.sampled_from(["ao", "po"]),
       st.integers(min_value=1, max_value=600), st.booleans())
def test_prac_matches_scanning_reference(steps, mode, rdt, weighted):
    cfg = PracConfig(mode=mode, rdt=rdt, weighted=weighted)
    fast, slow = PracState(cfg, rows=64), ReferencePrac(cfg, rows=64)
    for step in steps:
        if step[0] == "op":
            latency = fast.on_op(step[1], step[2])
            assert (latency, fast.backoff_pending) == slow.on_op(step[1], step[2])
        elif step[0] == "rfm":
            assert fast.rfm() == slow.rfm()
        else:
            for _ in range(step[1]):
                assert fast.rfm() == slow.rfm()
                assert fast.counters == slow.counters
                assert fast.backoff_pending == slow.backoff_pending
        assert fast.counters == slow.counters
        assert fast.backoff_pending == slow.backoff_pending
    assert fast.backoffs == slow.backoffs


def test_prac_burst_past_the_hot_rows_and_a_repeated_op_match_the_reference():
    """One group op lifts several counters to the threshold at once, its
    burst serves more RFMs than there are rows at the threshold, so that
    the later ones heap every counter left, and later ops repeat the same
    rows, as a tuple and then as a list."""
    cfg = PracConfig(rdt=400)
    fast, slow = PracState(cfg, rows=64), ReferencePrac(cfg, rows=64)
    group = (11, 9, 8, 10, 9)  # a repeat of it must count row 9 once
    for kind, opened in [(RH, (3,)), (COMRA, (20, 21)), (SIMRA, group), (SIMRA, group)]:
        assert (fast.on_op(kind, opened), fast.backoff_pending) == slow.on_op(kind, opened)
    assert fast.backoff_pending and fast.backoffs == 1
    targets = [11, 10, 9, 8, 21, 20, 3]
    for i, target in enumerate(targets):
        assert fast.rfm() == slow.rfm() == rfm_victims(target, 64)
        assert fast.counters == slow.counters
        assert fast.backoff_pending == slow.backoff_pending == (i < 3)
    assert fast.rfm() == slow.rfm() == ()
    for opened in (group, list(group)):
        assert (fast.on_op(SIMRA, opened), fast.backoff_pending) == slow.on_op(SIMRA, opened)
    assert fast.counters == slow.counters == {r: 400 for r in group}
    assert (fast.backoffs, fast.backoff_pending) == (slow.backoffs, slow.backoff_pending) == (2, True)
    assert fast.rfm() == slow.rfm() == rfm_victims(11, 64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 2, 30, 62, 63]), max_size=200),
       st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=7),
       st.booleans())
def test_bulk_activations_match_op_by_op_counting(rows, rdt, w, weighted):
    """`on_activations` leaves the state that `on_op` per activation,
    with every back-off but one on the last activation served by `rfm`,
    leaves, and each served back-off takes one RFM on its own row."""
    cfg = PracConfig(rdt=rdt, weights={RH: w}, weighted=weighted)
    bulk, step = PracState(cfg, rows=64), PracState(cfg, rows=64)
    raised, targets = [], []
    for i, r in enumerate(rows):
        step.on_op(RH, (r,))
        if step.backoff_pending:
            raised.append(i)
        while i + 1 < len(rows) and step.backoff_pending:
            targets.append(r)
            assert step.rfm() == rfm_victims(r, 64)
    assert targets == [rows[i] for i in raised if i + 1 < len(rows)]
    assert bulk.on_activations(rows).tolist() == raised
    assert bulk.counters == step.counters
    assert (bulk.backoffs, bulk.backoff_pending) == (step.backoffs, step.backoff_pending)
    # the back-off the last activation raised, one more RFM, then more
    # ops, after the bulk count go as after op-by-op counting
    while step.backoff_pending:
        assert bulk.rfm() == step.rfm() == rfm_victims(rows[-1], 64)
        assert bulk.counters == step.counters
        assert bulk.backoff_pending == step.backoff_pending
    assert not bulk.backoff_pending
    assert bulk.rfm() == step.rfm() and bulk.counters == step.counters
    for r in rows:
        bulk.on_op(RH, (r,))
        step.on_op(RH, (r,))
        assert (bulk.backoffs, bulk.backoff_pending) == (step.backoffs, step.backoff_pending)


def test_bulk_activations_leave_their_last_row_at_the_threshold():
    """A row the bulk count leaves at the threshold, with its back-off
    pending, still outranks the rows a later op brings there: the burst
    serves both, as after op-by-op counting."""
    cfg = PracConfig(rdt=3, weighted=False)
    bulk, step = PracState(cfg, rows=64), PracState(cfg, rows=64)
    bulk.on_activations([5, 5, 7, 7, 5])
    for r in [5, 5, 7, 7, 5]:
        step.on_op(RH, (r,))
    for prac in (bulk, step):
        prac.on_op(RH, (7,))
        assert prac.counters == {5: 3, 7: 3}
        assert (prac.backoffs, prac.backoff_pending) == (1, True)
        assert prac.rfm() == rfm_victims(7, 64) and prac.backoff_pending
        assert prac.rfm() == rfm_victims(5, 64) and not prac.backoff_pending


def test_bulk_activations_need_fresh_counters_and_in_bank_rows():
    st_ = make_prac(rdt=5)
    with pytest.raises(ConfigError, match=r"^row 300 outside \[0, 256\)$"):
        st_.on_activations([3, 300, 7, -4])
    assert st_.counters == {} and st_.backoffs == 0
    st_.on_op(RH, (3,))
    with pytest.raises(ValueError):
        st_.on_activations([3])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([RH, COMRA, SIMRA]), st.integers(0, 6)),
                max_size=30),
       st.lists(st.tuples(st.sampled_from([RH, COMRA, SIMRA]), st.integers(0, 6)),
                min_size=1, max_size=3),
       st.integers(min_value=1, max_value=400), st.booleans())
def test_bulk_repeats_stop_before_the_repeat_that_reaches_rdt(before, repeat, rdt, weighted):
    """`on_repeats` counts the repeats that `on_op` counts before the
    first repeat that brings a row it opens to the threshold."""
    bulk, step, ahead = (make_prac(rdt=rdt, weighted=weighted) for _ in range(3))
    ops = [(kind, rows_for(kind, idx)) for kind, idx in repeat]
    opened = {r for _, rows in ops for r in rows}
    for prac in (bulk, step, ahead):
        for kind, idx in before:
            prac.on_op(kind, rows_for(kind, idx))
    quiet = 0
    for kind, rows in ops:  # `ahead` runs one repeat ahead of `step`
        ahead.on_op(kind, rows)
    while all(ahead.counters[r] < rdt for r in opened):
        for kind, rows in ops:
            ahead.on_op(kind, rows)
            step.on_op(kind, rows)
        quiet += 1
    pending = bulk.backoff_pending
    assert bulk.on_repeats(ops) == quiet
    assert bulk.counters == step.counters
    assert (bulk.backoffs, bulk.backoff_pending) == (step.backoffs, pending)
    if not pending:
        for kind, rows in ops:
            bulk.on_op(kind, rows)
        assert bulk.backoff_pending


# -- secure back-off threshold -----------------------------------------------------


def test_secure_rdt_reference_value():
    weights = {RH: 1, COMRA: 10, SIMRA: 200}
    theta_eff_min = min(4123 * 2, 447 * 20, 26 * 200)
    assert secure_rdt(theta_eff_min, weights) == 2277


@given(
    st.floats(min_value=500.0, max_value=1e6),
    st.integers(min_value=1, max_value=300),
)
def test_secure_rdt_bound_holds(theta, w_max):
    weights = {RH: 1, SIMRA: w_max}
    try:
        rdt = secure_rdt(theta, weights)
    except ConfigError:
        return
    assert 2.1 * (rdt - 1 + w_max) < theta
    # and it is the largest such threshold
    assert 2.1 * (rdt + w_max) >= theta
