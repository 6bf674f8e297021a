"""Aggregate experiment results into figure-shaped CSV files.

Three report kinds are supported:

* ``characterize`` — the sorted first-flip distribution (most resilient
  row first) plus per-kind minima/means, from sweep result rows.
* ``trr-eval`` — bitflip counts per technique with the sampler on and
  off, averaged over seeds.
* ``perf`` — weighted-speedup/overhead rows passed through with a
  schema check.

All writers emit '\\n'-terminated rows in a deterministic order so a
rerun from the same manifest is byte-identical.  `read_results` reads a
CSV back for one kind and rejects one that does not fit it before any
report is written.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable

from .errors import ConfigError, ShapeError
from .harness import NO_FLIP, RESULT_COLUMNS
from .perf import PERF_COLUMNS

REPORT_KINDS = ("characterize", "trr-eval", "perf")


def write_csv(path: Path, columns: tuple[str, ...], rows: Iterable[dict]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        w.writeheader()
        for row in rows:
            extra = set(row) - set(columns)
            if extra:
                raise ShapeError(f"row has unexpected columns {sorted(extra)}")
            w.writerow(row)
    return path


def _hc_reports(rows: list[dict], out_dir: Path) -> list[Path]:
    measured = [r for r in rows if r.get("hcfirst") not in (None, "", NO_FLIP)]
    dist, minima = [], []
    for kind in sorted({r["kind"] for r in measured}):
        # most resilient row first
        vals = sorted((int(r["hcfirst"]) for r in measured if r["kind"] == kind), reverse=True)
        dist.extend({"kind": kind, "rank": i, "hcfirst": v} for i, v in enumerate(vals))
        minima.append({"kind": kind, "min": vals[-1], "mean": round(sum(vals) / len(vals), 2),
                       "count": len(vals)})
    p1 = write_csv(out_dir / "hc_distribution.csv", ("kind", "rank", "hcfirst"), dist)
    p2 = write_csv(out_dir / "hc_minima.csv", ("kind", "min", "mean", "count"), minima)
    return [p1, p2]


TRR_COLUMNS = ("technique", "trr", "seed", "bitflips", "trr_refreshes")


def _trr_reports(rows: list[dict], out_dir: Path) -> list[Path]:
    p1 = write_csv(out_dir / "trr_bypass.csv", TRR_COLUMNS, rows)
    agg = []
    keys = sorted({(r["technique"], r["trr"]) for r in rows})
    for tech, trr in keys:
        sel = [r for r in rows if (r["technique"], r["trr"]) == (tech, trr)]
        agg.append(
            {
                "technique": tech,
                "trr": trr,
                "mean_bitflips": round(sum(r["bitflips"] for r in sel) / len(sel), 2),
                "seeds": len(sel),
            }
        )
    p2 = write_csv(
        out_dir / "trr_bypass_summary.csv",
        ("technique", "trr", "mean_bitflips", "seeds"),
        agg,
    )
    return [p1, p2]


# report kind -> the columns of the CSV it aggregates, its integer
# columns (read back as ints) and its other numbers (checked, and kept
# as text so that a rewrite is byte-identical)
_INPUTS = {
    "characterize": (RESULT_COLUMNS, ("N", "row", "hcfirst", "flips", "seed"),
                     ("temp_c", "t_aggon_ns", "gap_ns")),
    "trr-eval": (TRR_COLUMNS, ("trr", "seed", "bitflips", "trr_refreshes"), ()),
    "perf": (PERF_COLUMNS, ("mix_id", "backoffs", "rfm_count"),
             ("period_ns", "weighted_speedup", "overhead_pct")),
}
# the one other value a numeric column may hold
_NOT_A_NUMBER = {"hcfirst": NO_FLIP, "N": "", "gap_ns": ""}


def read_results(path: str | Path, kind: str) -> list[dict]:
    """The rows of a results CSV that report `kind` aggregates; a
    ConfigError names the first column or value that does not fit, or
    the text that is not UTF-8 or not CSV."""
    columns, ints, numbers = _INPUTS[kind]
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        try:
            header = reader.fieldnames or []
            if sorted(header) != sorted(columns):
                missing = [c for c in columns if c not in header]
                raise ConfigError(f"{path}: not a {kind} results file: missing columns "
                                  f"{missing}, unexpected {sorted(set(header) - set(columns))}")
            rows = list(reader)
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: not UTF-8 text: {e}") from None
        except csv.Error as e:
            # the DictReader counts the lines of the rows it returned,
            # its csv reader those it has read
            raise ConfigError(f"{path} line {reader.reader.line_num}: {e}") from None
    for line, row in enumerate(rows, start=2):
        if None in row or None in row.values():
            raise ConfigError(f"{path} line {line}: {len(columns)} fields expected")
        for col in ints + numbers:
            if row[col] == _NOT_A_NUMBER.get(col):
                continue
            try:
                number = int(row[col]) if col in ints else float(row[col])
            except ValueError:
                what = "an integer" if col in ints else "a number"
                raise ConfigError(f"{path} line {line}: {col} = {row[col]!r} is not {what}") from None
            if col in ints:
                row[col] = number
    return rows


def emit_report(results: list[dict], kind: str, out_dir: str | Path) -> list[Path]:
    """Write the CSVs for one report kind; returns the paths written."""
    if kind not in REPORT_KINDS:
        raise ConfigError(f"unknown report kind {kind!r}; expected {REPORT_KINDS}")
    out = Path(out_dir)
    if kind == "characterize":
        paths = [write_csv(out / "results.csv", RESULT_COLUMNS, results)]
        paths.extend(_hc_reports(results, out))
        return paths
    if kind == "trr-eval":
        return _trr_reports(results, out)
    return [write_csv(out / "perf.csv", PERF_COLUMNS, results)]
