"""Compare two result files: ``python3 -m perf.compare A.json B.json``.

A is the base (the parent commit, or the first of two run sets), B
the candidate. One row per (workload, end-to-end metric) with both
medians, the ratio B/A, the run-to-run spread and a verdict against the
bound ``BENCHMARK.json`` fixes:

* ``ok``         — B's median is no worse than A's by more than the bound;
* ``regressed``  — it is worse by more than the bound;
* ``unresolved`` — the spread is wider than the bound, so neither can
  be said (unless every sample of B reads better than every one of A).

Simulated results (``sim.*`` latencies, the isolation error) and the
``sim_digest`` / ``input_digest`` of every workload are deterministic
and must match exactly. Exits non-zero unless every row is ``ok``.

``pps`` is sampled per timed pass, the other metrics per run, so the
files should hold several runs (``perf.run --repeat``).
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional

from .run import load_spec

EXACT = ("sim_digest", "input_digest")


def _runs(path: str) -> List[dict]:
    with open(path) as handle:
        document = json.load(handle)
    return document["runs"] if "runs" in document else [document]


def _samples(runs: List[dict], workload: str, metric: str) -> List[float]:
    mine = [r for r in runs if r["workload"] == workload and not r["trace"]]
    if metric == "pps":
        return [rate for r in mine for rate in r["pps_passes"]]
    return [r["end_to_end"][metric] for r in mine]


def _spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median (the
    whole range, below four samples)."""
    median = statistics.median(values)
    if len(values) >= 4:
        first, _, third = statistics.quantiles(values, n=4)
        return (third - first) / median
    return (max(values) - min(values)) / median


def verdict(base: List[float], cand: List[float], better: str,
            bound: float) -> str:
    higher = better == "higher"
    a, b = statistics.median(base), statistics.median(cand)
    worse_by = (a - b) / a if higher else (b - a) / a
    all_better = min(cand) > max(base) if higher \
        else max(cand) < min(base)
    if max(_spread(base), _spread(cand)) > bound and not all_better:
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def _exact(runs: List[dict], workload: str) -> Dict[str, object]:
    """Everything about a workload that must repeat exactly."""
    facts: Dict[str, object] = {}
    for run in runs:
        if run["workload"] != workload:
            continue
        for key in EXACT:
            facts.setdefault(key, set()).add(run[key])
        for key, value in run["sim"].items():
            facts.setdefault(f"sim.{key}", set()).add(value)
    return facts


def compare(base_runs: List[dict], cand_runs: List[dict],
            spec: Optional[dict] = None) -> List[dict]:
    spec = spec or load_spec()
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            base = _samples(base_runs, workload, metric["name"])
            cand = _samples(cand_runs, workload, metric["name"])
            if not base or not cand:
                continue
            a, b = statistics.median(base), statistics.median(cand)
            rows.append({
                "workload": workload, "metric": metric["name"],
                "unit": metric["unit"], "base": a, "cand": b,
                "ratio": b / a, "n": (len(base), len(cand)),
                "spread": max(_spread(base), _spread(cand)),
                "bound": metric["bound"],
                "verdict": verdict(base, cand, metric["better"],
                                   metric["bound"])})
        base_exact = _exact(base_runs, workload)
        cand_exact = _exact(cand_runs, workload)
        for key in sorted(set(base_exact) & set(cand_exact)):
            same = base_exact[key] == cand_exact[key] \
                and len(base_exact[key]) == 1
            rows.append({"workload": workload, "metric": key,
                         "exact": True,
                         "verdict": "ok" if same else "changed"})
    return rows


def render(rows: List[dict]) -> str:
    lines = [f"{'workload':<16}{'metric':<30}{'A (base)':>14}{'B':>14}"
             f"{'B/A':>8}{'spread':>8}{'bound':>7}  verdict"]
    for row in rows:
        if row.get("exact"):
            lines.append(f"{row['workload']:<16}{row['metric']:<30}"
                         f"{'exact':>14}{'exact':>14}{'':>23}  "
                         f"{row['verdict']}")
            continue
        lines.append(
            f"{row['workload']:<16}"
            f"{row['metric'] + ' [' + row['unit'] + ']':<30}"
            f"{row['base']:>14.4f}{row['cand']:>14.4f}"
            f"{row['ratio']:>8.3f}{row['spread'] * 100:>7.1f}%"
            f"{row['bound'] * 100:>6.0f}%  {row['verdict']}"
            f"  (n={row['n'][0]}/{row['n'][1]})")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    rows = compare(_runs(argv[0]), _runs(argv[1]))
    print(render(rows))
    bad = [row for row in rows if row["verdict"] != "ok"]
    print(f"{len(rows)} rows, {len(bad)} not ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
