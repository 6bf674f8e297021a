"""Layer tracing for the traced benchmark run, and the per-layer metrics
derived from it.

`install` wraps pudsim's public functions at every place they are
looked up: a function is replaced in each loaded `pudsim` module whose
attribute refers to it (`accumulate` lives in `pudsim.disturbance` and
is imported by name into `pudsim.harness`), and a method is replaced on
its class.  Spans carry name, start, end, parent and self time (the
duration minus the time child spans cover).  They are kept in memory
and written out when the call ends.  Functions called ~10^5 times or more
(`Bank.apply`, `accumulate`, `PracState.on_op`/`rfm`) are aggregated per
parent span instead: calls, total and self seconds.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import Counter

# names recorded as aggregates rather than one span per call
AGGREGATED = (
    "dram.apply",
    "disturbance.accumulate",
    "mitigation.prac_on_op",
    "mitigation.prac_rfm",
)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [span id, name, child seconds]
        self.spans: list[dict] = []
        self.aggregates: dict[tuple[str, int], list[float]] = {}
        self.counters: Counter = Counter()
        self._next_id = 1

    def reset(self) -> None:
        """Forget everything recorded so far (in place: the wrappers
        hold on to the counters)."""
        self.spans.clear()
        self.aggregates.clear()
        self.counters.clear()
        self._next_id = 1

    def wrap(self, name, fn, before=None, after=None):
        """Time `fn` as span `name`.  `before(*args, **kwargs)` returns
        a value handed to `after(state, result, *args, **kwargs)`, which
        updates counters."""
        aggregated = name in AGGREGATED
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            parent = stack[-1][0] if stack else 0
            frame = [self._next_id, name, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][2] += dur
                if aggregated:
                    agg = self.aggregates.get((name, parent))
                    if agg is None:
                        agg = self.aggregates[(name, parent)] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[2]
                else:
                    self.spans.append({
                        "id": frame[0], "name": name, "parent": parent,
                        "start": start, "end": end, "self_s": dur - frame[2],
                    })
            if after:
                after(state, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        data = {
            "spans": self.spans,
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.aggregates.items())
            ],
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def _replace_function(orig, wrapped) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "pudsim" or mod_name.startswith("pudsim.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries named in the per-layer metric list."""
    from pudsim import config, disturbance, dram, harness, mitigation
    from pudsim import patterns, perf, profiles, reports, trreval

    c = tracer.counters
    hit_kind = {dram.KIND_RH: "rh", dram.KIND_COMRA: "comra", dram.KIND_SIMRA: "simra"}

    # -- dram
    def apply_before(bank, cmd):
        return len(bank.diagnostics)

    def apply_after(n_diag, effects, bank, cmd):
        c["dram.apply.calls"] += 1
        c["dram.diagnostics"] += len(bank.diagnostics) - n_diag

    dram.Bank.apply = tracer.wrap(
        "dram.apply", dram.Bank.apply, apply_before, apply_after
    )
    blocks = dram.SimraGroupMap.aligned_blocks.__func__
    dram.SimraGroupMap.aligned_blocks = classmethod(
        tracer.wrap("dram.group_map", blocks)
    )

    # -- disturbance
    def acc_before(state, effects, *a, **k):
        return state.skipped_victims

    def acc_after(skipped, flips, state, effects, *a, **k):
        for eff in effects:
            if isinstance(eff, dram.HammerEffect):
                c["disturbance.effects." + hit_kind[eff.kind]] += 1
            else:  # refresh, copy and group overwrite restore rows
                c["disturbance.effects.restore"] += 1
        c["disturbance.skipped_victims"] += state.skipped_victims - skipped
        c["disturbance.flips"] += len(flips)

    _replace_function(disturbance.accumulate, tracer.wrap(
        "disturbance.accumulate", disturbance.accumulate, acc_before, acc_after
    ))

    def thr_after(_, result, profile, layout, *a, **k):
        c["disturbance.rows_sampled"] += layout.rows

    _replace_function(disturbance.sample_thresholds, tracer.wrap(
        "disturbance.sample_thresholds", disturbance.sample_thresholds,
        after=thr_after,
    ))

    # -- patterns: the single-kind generators the harness replays
    def gen_after(_, stream, *a, **k):
        c["patterns.gen.events"] += len(stream.events)

    for gen in (patterns.gen_rowhammer, patterns.gen_comra, patterns.gen_simra):
        _replace_function(gen, tracer.wrap("patterns.gen", gen, after=gen_after))

    # -- harness
    # only the stochastic search replays hammers; a deterministic one
    # scales the damage of a single hammer
    def hc_after(_, hc, spec, victim, exp, *a, **k):
        if hc is not None and exp.is_stochastic(spec):
            c["harness.hcfirst_sum"] += hc

    _replace_function(harness.find_hcfirst, tracer.wrap(
        "harness.find_hcfirst", harness.find_hcfirst, after=hc_after
    ))

    def probe_before(*a, **k):
        return c["dram.apply.calls"], c["patterns.gen.events"]

    def probe_after(marks, _, exp, spec, *a, **k):
        # a stochastic probe generates one hammer's events and replays
        # them hammer by hammer, so applied / generated = hammers replayed
        applied = c["dram.apply.calls"] - marks[0]
        per_hammer = c["patterns.gen.events"] - marks[1]
        if per_hammer and exp.is_stochastic(spec):
            c["harness.hammers_replayed"] += applied // per_hammer

    harness.Experiment.probe = tracer.wrap(
        "harness.probe", harness.Experiment.probe, probe_before, probe_after
    )

    # -- mitigation
    def op_before(prac, *a, **k):
        return prac.backoffs

    def op_after(backoffs, _, prac, *a, **k):
        c["mitigation.backoffs"] += prac.backoffs - backoffs

    mitigation.PracState.on_op = tracer.wrap(
        "mitigation.prac_on_op", mitigation.PracState.on_op, op_before, op_after
    )
    mitigation.PracState.rfm = tracer.wrap(
        "mitigation.prac_rfm", mitigation.PracState.rfm
    )

    # -- trreval
    def bypass_after(_, res, *a, **k):
        c["trreval.windows"] += res.windows
        c["trreval.trr_refreshes"] += res.trr_refreshes

    _replace_function(trreval.run_bypass, tracer.wrap(
        "trreval.run_bypass", trreval.run_bypass, after=bypass_after
    ))

    # -- perf: an alone run has one core (a conventional core or the PuD
    # core); a shared run has the whole mix
    def mix_after(_, res, conv_cores, mitigation_cfg, period_ns, seed,
                  target_reqs=2000, *a, **k):
        cores = len(conv_cores) + (period_ns is not None)
        c["perf.run_mix.alone_calls" if cores == 1 else "perf.run_mix.shared_calls"] += 1
        c["perf.requests"] += len(conv_cores) * target_reqs
        c["perf.rfm_count"] += res.rfm_count

    _replace_function(perf.run_mix, tracer.wrap(
        "perf.run_mix", perf.run_mix, after=mix_after
    ))

    # -- config, profiles, reports
    _replace_function(config.load_config, tracer.wrap("config.load", config.load_config))
    _replace_function(profiles.load_profile, tracer.wrap("profiles.load", profiles.load_profile))
    _replace_function(reports.emit_report, tracer.wrap("reports.emit", reports.emit_report))


# ---------------------------------------------------------------------------
# Per-layer metrics from one trace dump

# span names whose time makes up a layer's share of a traced run
LAYER_SPANS = {
    "dram": ("dram.apply", "dram.group_map"),
    "disturbance": ("disturbance.accumulate", "disturbance.sample_thresholds"),
    "patterns": ("patterns.gen",),
    "harness": ("harness.find_hcfirst", "harness.probe"),
    "mitigation": ("mitigation.prac_on_op", "mitigation.prac_rfm"),
    "trreval": ("trreval.run_bypass",),
    "perf": ("perf.run_mix",),
    "config": ("config.load",),
    "profiles": ("profiles.load",),
    "reports": ("reports.emit",),
}


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def layer_metrics(dump: dict) -> tuple[dict[str, float], int, dict[str, float]]:
    """Per-layer values of one traced call (every per_layer metric of
    BENCHMARK.json but cli.import_s and trace.overhead), the sum of the HC_first values the
    stochastic searches found, and each layer's self seconds."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    durations: dict[str, list[float]] = {}
    for s in dump["spans"]:
        calls[s["name"]] += 1
        self_s[s["name"]] += s["self_s"]
        durations.setdefault(s["name"], []).append(s["end"] - s["start"])
    for a in dump["aggregates"]:
        calls[a["name"]] += a["calls"]
        self_s[a["name"]] += a["self_s"]
    c = Counter(dump["counters"])

    def p50_ms(name):
        d = durations.get(name)
        return 1000.0 * statistics.median(d) if d else 0.0

    effects = sum(c["disturbance.effects." + k] for k in ("rh", "comra", "simra", "restore"))
    prac_ops = calls["mitigation.prac_on_op"] + calls["mitigation.prac_rfm"]
    prac_s = self_s["mitigation.prac_on_op"] + self_s["mitigation.prac_rfm"]
    m = {
        "dram.apply.calls": calls["dram.apply"],
        "dram.apply.self_s": self_s["dram.apply"],
        "dram.apply.per_s": _rate(calls["dram.apply"], self_s["dram.apply"]),
        "dram.group_map.calls": calls["dram.group_map"],
        "dram.group_map.self_s": self_s["dram.group_map"],
        "dram.diagnostics": c["dram.diagnostics"],
        "disturbance.accumulate.calls": calls["disturbance.accumulate"],
        "disturbance.accumulate.self_s": self_s["disturbance.accumulate"],
        "disturbance.effects_per_s": _rate(effects, self_s["disturbance.accumulate"]),
        "disturbance.sample_thresholds.calls": calls["disturbance.sample_thresholds"],
        "disturbance.sample_thresholds.self_s": self_s["disturbance.sample_thresholds"],
        "disturbance.rows_sampled_per_s": _rate(
            c["disturbance.rows_sampled"], self_s["disturbance.sample_thresholds"]
        ),
        "disturbance.skipped_victims": c["disturbance.skipped_victims"],
        "disturbance.flips": c["disturbance.flips"],
        "patterns.gen.calls": calls["patterns.gen"],
        "patterns.gen.events": c["patterns.gen.events"],
        "patterns.gen.self_s": self_s["patterns.gen"],
        "harness.find_hcfirst.calls": calls["harness.find_hcfirst"],
        "harness.find_hcfirst.p50_ms": p50_ms("harness.find_hcfirst"),
        "harness.find_hcfirst.max_ms": 1000.0 * max(
            durations.get("harness.find_hcfirst", [0.0])
        ),
        "harness.probe.calls": calls["harness.probe"],
        "harness.probe.self_s": self_s["harness.probe"],
        "harness.hammers_replayed": c["harness.hammers_replayed"],
        "harness.search_efficiency": _rate(
            c["harness.hcfirst_sum"], c["harness.hammers_replayed"]
        ),
        "mitigation.prac_on_op.calls": calls["mitigation.prac_on_op"],
        "mitigation.prac_on_op.self_s": self_s["mitigation.prac_on_op"],
        "mitigation.prac_rfm.calls": calls["mitigation.prac_rfm"],
        "mitigation.prac_rfm.self_s": self_s["mitigation.prac_rfm"],
        "mitigation.prac_ops_per_s": _rate(prac_ops, prac_s),
        "mitigation.backoffs": c["mitigation.backoffs"],
        "trreval.run_bypass.calls": calls["trreval.run_bypass"],
        "trreval.run_bypass.self_s": self_s["trreval.run_bypass"],
        "trreval.windows_per_s": _rate(c["trreval.windows"], self_s["trreval.run_bypass"]),
        "trreval.trr_refreshes": c["trreval.trr_refreshes"],
        "perf.run_mix.alone_calls": c["perf.run_mix.alone_calls"],
        "perf.run_mix.shared_calls": c["perf.run_mix.shared_calls"],
        "perf.run_mix.self_s": self_s["perf.run_mix"],
        "perf.run_mix.p50_ms": p50_ms("perf.run_mix"),
        "perf.requests": c["perf.requests"],
        "perf.requests_per_s": _rate(c["perf.requests"], self_s["perf.run_mix"]),
        "perf.rfm_count": c["perf.rfm_count"],
        "config.load.self_s": self_s["config.load"],
        "profiles.load.self_s": self_s["profiles.load"],
        "reports.emit.self_s": self_s["reports.emit"],
    }
    for kind in ("rh", "comra", "simra", "restore"):
        m["disturbance.effects." + kind] = c["disturbance.effects." + kind]
    shares = {
        layer: sum(self_s[n] for n in names) for layer, names in LAYER_SPANS.items()
    }
    return m, c["harness.hcfirst_sum"], shares
