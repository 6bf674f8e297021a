"""The four workloads: the inputs a run derives from its seed, the
arguments of one call on an input, and the checks its outputs must pass.

Input `i` of a run gets its own pudsim seed, hashed from (workload,
seed, i), so one run covers several inputs and the same benchmark seed
always gives the same inputs.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from pathlib import Path

# Chip profile for `char-stochastic`.  Every SiMRA row costs about the
# same to search: the shipped profiles spread the SiMRA first-flip count
# from 26 to a mean of 16140 (lognormal, sigma up to 3), a stochastic
# search costs about HC_first ops per probe, and so one unlucky row can
# take minutes.  Row and copy hammering take samsung_a_16gb's calibration,
# under which every cell flips within the search budget.  With a wide
# copy-cycle spread such as skhynix_a_8gb's (1885 to 45280), about one
# 256-row call in 60 has a cell past the budget, and `characterize` then
# crashes on the `noflip` sentinel (a known defect, which
# tests/test_smoke.py pins): the runs would fail by chance.
CHAR_PROFILE = """\
name = perfbench_chip
vendor = benchmark
threshold.rh = 6700 14800
threshold.comra = 5260 10610
threshold.simra = 100 120
"""


def sub_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def read_csv(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass
class Input:
    """One input of a workload: a config file and what it yields."""

    label: str
    seed: int
    dir: Path
    config: Path
    records: int  # result records a correct call writes


# call counts of every traced layer boundary; a workload must record
# calls on each boundary in its `active` set and none on the others
LAYER_CALLS = (
    "dram.apply.calls",
    "dram.group_map.calls",
    "disturbance.accumulate.calls",
    "disturbance.sample_thresholds.calls",
    "patterns.gen.calls",
    "harness.find_hcfirst.calls",
    "harness.probe.calls",
    "mitigation.prac_on_op.calls",
    "mitigation.prac_rfm.calls",
    "trreval.run_bypass.calls",
    "perf.run_mix.alone_calls",
    "perf.run_mix.shared_calls",
)


class Workload:
    name = ""
    program = "pudsim"
    subcommand: tuple[str, ...] = ()
    active: tuple[str, ...] = ()

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    n_inputs = 2

    def inputs(self) -> int:
        """Inputs a run derives from its seed."""
        return 2 if self.tiny else self.n_inputs

    def config_text(self, seed: int) -> str:
        raise NotImplementedError

    def records(self) -> int:
        raise NotImplementedError

    def prepare(self, run_dir: Path, seed: int, index: int) -> Input:
        s = sub_seed(self.name, seed, index)
        work = run_dir / f"in{index:02d}"
        work.mkdir(parents=True)
        config = work / "input.cfg"
        config.write_text(self.config_text(s), encoding="utf-8")
        return Input(work.name, s, work, config, self.records())

    def args(self, config: Path, out: Path) -> list[str]:
        """Arguments of the program's `main` for one call."""
        if self.program == "pudsim":
            return [*self.subcommand, "--config", str(config), "--out", str(out),
                    "--jobs", "1", *self.extra_args()]
        return ["--config", str(config), "--out", str(out)]

    def extra_args(self) -> list[str]:
        return []

    def env(self, run_dir: Path) -> dict:
        return {}

    def check(self, out: Path) -> tuple[dict, list[str]]:
        """Validate the outputs: (key statistics, errors)."""
        raise NotImplementedError


class CharStochastic(Workload):
    """`characterize` on the stochastic path: the 1.0 ns gap is inside the
    1.5 ns partial-activation window, so every group-op probe replays op
    by op through patterns, `Bank.apply` and `accumulate`."""

    name = "char-stochastic"
    subcommand = ("characterize",)
    n_inputs = 4
    active = (
        "dram.apply.calls", "dram.group_map.calls",
        "disturbance.accumulate.calls", "disturbance.sample_thresholds.calls",
        "patterns.gen.calls", "harness.find_hcfirst.calls", "harness.probe.calls",
    )
    kinds = "rowhammer comra simra"

    def geometry(self) -> tuple[int, int]:
        return (64, 1) if self.tiny else (128, 1)

    def config_text(self, seed):
        rows, subarrays = self.geometry()
        return (
            "profile = perfbench_chip\n"
            f"geometry.rows = {rows}\n"
            f"layout.subarrays = {subarrays}\n"
            "pattern.act_gap_ns = 1.0\n"
            "search.repeats = 1\n"
            f"seed = {seed}\n"
        )

    def extra_args(self):
        return ["--kinds", self.kinds]

    def env(self, run_dir):
        prof = run_dir / "profiles"
        if not prof.is_dir():
            prof.mkdir()
            (prof / "perfbench_chip.profile").write_text(CHAR_PROFILE, encoding="utf-8")
        return {"PUDSIM_PROFILE_DIR": str(prof)}

    def records(self):
        # three victims per subarray for row and copy hammering; one per
        # 32-row group whose next row stays in the subarray, at most three
        rows, subarrays = self.geometry()
        per_sub = rows // subarrays
        simra = min(3, per_sub // 32 - (per_sub % 32 == 0))
        return subarrays * (3 + 3 + simra)

    def check(self, out):
        rows = read_csv(out / "results.csv")
        errors = []
        if len(rows) != self.records():
            errors.append(f"results.csv has {len(rows)} rows, expected {self.records()}")
        good = [r for r in rows if r["hcfirst"].isdigit() and int(r["hcfirst"]) > 0]
        if len(good) != len(rows):
            errors.append(f"{len(rows) - len(good)} cells without a first flip")
        minima = {r["kind"]: int(r["min"]) for r in read_csv(out / "hc_minima.csv")}
        if sorted(minima) != sorted(self.kinds.split()):
            errors.append(f"hc_minima.csv kinds {sorted(minima)}")
        hc_sum = sum(int(r["hcfirst"]) for r in good)
        return {"hcfirst_min": minima, "hcfirst_sum": hc_sum}, errors


class PerfSweep(Workload):
    """`mitigation-eval` at the default periods, variants and request
    target, on one mix per call instead of 60 (a run covers as many mixes
    as it has inputs)."""

    name = "perf-sweep"
    subcommand = ("mitigation-eval",)
    active = (
        "mitigation.prac_on_op.calls", "mitigation.prac_rfm.calls",
        "perf.run_mix.alone_calls", "perf.run_mix.shared_calls",
    )
    periods = 5
    variants = ("none", "prac-po-naive", "prac-po-wc")

    def mixes(self):
        return 1

    def config_text(self, seed):
        text = f"perf.mixes = {self.mixes()}\nseed = {seed}\n"
        return text + ("perf.target_reqs = 200\n" if self.tiny else "")

    def records(self):
        return self.mixes() * self.periods * len(self.variants)

    def check(self, out):
        rows = read_csv(out / "perf.csv")
        errors = []
        if len(rows) != self.records():
            errors.append(f"perf.csv has {len(rows)} rows, expected {self.records()}")
        over = {}
        ws = {v: [] for v in self.variants}
        for r in rows:
            key = (int(r["mix_id"]), float(r["period_ns"]))
            over.setdefault(key, {})[r["mitigation"]] = float(r["overhead_pct"])
            ws.setdefault(r["mitigation"], []).append(float(r["weighted_speedup"]))
            if not float(r["weighted_speedup"]) > 0:
                errors.append(f"non-positive weighted speedup in {r}")
        # criterion 8: naive counting costs at least as much as weighted,
        # and both costs fall as PuD ops get rarer
        for key, by in sorted(over.items()):
            if by.get("none") != 0.0:
                errors.append(f"mix {key}: unmitigated overhead {by.get('none')}")
            if not by["prac-po-naive"] >= by["prac-po-wc"] - 1e-9:
                errors.append(f"mix {key}: naive overhead below weighted")
        for mix in sorted({m for m, _ in over}):
            for v in ("prac-po-naive", "prac-po-wc"):
                seq = [by[v] for (m, _), by in sorted(over.items()) if m == mix]
                if any(a < b - 1e-9 for a, b in zip(seq, seq[1:])):
                    errors.append(f"mix {mix} {v}: overhead rises with period")
        stats = {
            "weighted_speedup_mean": {
                v: round(sum(x) / len(x), 6) for v, x in ws.items() if x
            },
            "rfm_count": sum(int(r["rfm_count"]) for r in rows),
            "backoffs": sum(int(r["backoffs"]) for r in rows),
        }
        return stats, errors


class PracFuzz(Workload):
    """Criterion 6's security fuzz through the public PRAC and
    disturbance calls, with fewer streams than the test's 1000."""

    name = "prac-fuzz"
    program = "pracfuzz"
    n_inputs = 6
    active = (
        "disturbance.accumulate.calls",
        "mitigation.prac_on_op.calls", "mitigation.prac_rfm.calls",
    )

    def streams(self):
        return 4 if self.tiny else 10

    def config_text(self, seed):
        return f"ops = 400\nrows = 128\nseed = {seed}\nstreams = {self.streams()}\n"

    def records(self):
        return self.streams()

    def check(self, out):
        rows = read_csv(out / "fuzz.csv")
        (summary,) = read_csv(out / "fuzz_summary.csv")
        errors = []
        if len(rows) != self.records():
            errors.append(f"fuzz.csv has {len(rows)} rows, expected {self.records()}")
        flips = sum(int(r["flips"]) for r in rows)
        backoffs = sum(int(r["backoffs"]) for r in rows)
        if flips:
            errors.append(f"{flips} bitflips under weighted PRAC")
        if not backoffs > 0:
            errors.append("no back-off fired")
        rdt, theta = int(summary["rdt"]), float(summary["theta_eff_min"])
        # secure_rdt must be the largest threshold whose worst case, two
        # neighbours at RDT - 1 + w_max (w_max = 200) plus 5% leakage
        # from distance 2, stays below the weakest effective threshold
        def safe(r):
            return 2.0 * 1.05 * (r - 1 + 200) < theta
        if not (safe(rdt) and not safe(rdt + 1)):
            errors.append(f"rdt {rdt} is not the largest secure threshold for {theta}")
        stats = {"rdt": rdt, "flips": flips, "backoffs": backoffs,
                 "rfms": sum(int(r["rfms"]) for r in rows)}
        return stats, errors


class TrrSweep(Workload):
    """`trr-eval --technique simra` at the geometry of criterion 2 and
    `scripts/run_trr_bypass.py`, one seed per call (a run covers as many
    seeds as it has inputs)."""

    name = "trr-sweep"
    subcommand = ("trr-eval",)
    n_inputs = 4
    active = (
        "dram.group_map.calls", "disturbance.sample_thresholds.calls",
        "trreval.run_bypass.calls",
    )

    def seeds(self):
        return 1

    def config_text(self, seed):
        rows, subarrays = (2048, 2) if self.tiny else (8192, 8)
        return f"geometry.rows = {rows}\nlayout.subarrays = {subarrays}\nseed = {seed}\n"

    def extra_args(self):
        args = ["--technique", "simra", "--seeds", str(self.seeds())]
        return args + (["--windows", "820"] if self.tiny else [])

    def records(self):
        return 2 * self.seeds()

    def check(self, out):
        rows = read_csv(out / "trr_bypass.csv")
        errors = []
        if len(rows) != self.records():
            errors.append(f"trr_bypass.csv has {len(rows)} rows, expected {self.records()}")
        off = sum(int(r["bitflips"]) for r in rows if r["trr"] == "0")
        on = sum(int(r["bitflips"]) for r in rows if r["trr"] == "1")
        # criterion 2: the sampler barely dents the group-activation bypass
        if not off > 0:
            errors.append("the bypass flipped nothing without TRR")
        elif on < 0.7 * off:
            errors.append(f"TRR cut the bypass from {off} to {on} flips")
        stats = {"bitflips_trr_off": off, "bitflips_trr_on": on,
                 "trr_refreshes": sum(int(r["trr_refreshes"]) for r in rows)}
        return stats, errors


WORKLOADS = {w.name: w for w in (CharStochastic, PerfSweep, PracFuzz, TrrSweep)}
