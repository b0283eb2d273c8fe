"""Shared helpers for the benchmark harness.

Each bench regenerates one table or figure from the paper's evaluation
(§5) and prints its rows; printed output is also appended to
``benchmarks/results/<name>.txt`` so ``--benchmark-only`` runs leave
artifacts regardless of capture settings. Rows are additionally
persisted as machine-readable ``benchmarks/results/<name>.json``
(``{"title": ..., "rows": [...]}``) so downstream tooling (regression
dashboards) can consume results without screen-scraping the table.

Every gate also lands one line in ``benchmarks/results/
BENCH_SUMMARY.json``: its title, row count, and — when the bench
passes ``headline={...}`` — the handful of numbers that summarize it
(a speedup, a throughput, a compile time). The summary is
read-modify-write, so running any subset of benches updates only
those entries and a full run converges to the complete dashboard.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Optional, Sequence

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SUMMARY = RESULTS_DIR / "BENCH_SUMMARY.json"


def _record_summary(name: str, title: str, rows: List[Dict],
                    headline: Optional[Dict]) -> None:
    try:
        summary = json.loads(SUMMARY.read_text())
    except (OSError, ValueError):
        summary = {}
    summary[name] = {"title": title, "rows": len(rows),
                     "headline": headline or {}}
    SUMMARY.write_text(
        json.dumps(summary, indent=2, sort_keys=True, default=str)
        + "\n")


def report(name: str, title: str, rows: List[Dict],
           columns: Sequence[str] = None,
           headline: Optional[Dict] = None) -> None:
    """Print a labeled table; persist .txt and .json artifacts, and
    fold ``headline`` (this gate's key metrics) into the cross-bench
    ``BENCH_SUMMARY.json``."""
    if not rows:
        lines = [f"== {title} ==", "(no rows)"]
    else:
        columns = list(columns or rows[0].keys())
        widths = {c: max(len(str(c)),
                         *(len(str(r.get(c, ""))) for r in rows))
                  for c in columns}
        header = "  ".join(str(c).ljust(widths[c]) for c in columns)
        sep = "-" * len(header)
        lines = [f"== {title} ==", header, sep]
        for row in rows:
            lines.append("  ".join(
                str(row.get(c, "")).ljust(widths[c]) for c in columns))
    text = "\n".join(lines)
    print("\n" + text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    (RESULTS_DIR / f"{name}.json").write_text(
        json.dumps({"title": title, "rows": rows,
                    "headline": headline or {}},
                   indent=2, default=str)
        + "\n")
    _record_summary(name, title, rows, headline)
