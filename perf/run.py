"""Run the benchmark: ``python3 -m perf.run`` from the repo root.

With ``--workload W`` one workload runs in this process (single
thread, closed loop, one caller): set-up, then timed passes of a fixed
packet count until ``--seconds`` of timed work and at least
:data:`MIN_PASSES` passes are done. Every metric is printed by name
with its unit, outputs are checked, and the last line of standard
output is the JSON object the driver reads. ``--trace 1`` instead
measures one pass untraced and the same pass traced, and reports the
per-layer metrics. Without ``--workload`` every workload runs, each in
a process of its own, untraced then traced, ``--repeat`` times, and the
collected results are written to ``--out`` for ``perf.compare``.

Metric names, units and bounds are read from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import operator
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from .trace import Reference, Tracer, now

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perf" / "results"

#: Fewest timed passes behind a reported median.
MIN_PASSES = 3

#: What each workload must look like for it to measure what it is for:
#: (per-layer metric, comparison, limit), checked on the traced pass at
#: full scale.
EXPECTED = {
    "fabric_steady": [("rmt.scalar_share", "<=", 0.05),
                      ("engine.batch_size_mean", "==", 1),
                      ("fabric.hops_per_pkt", "==", 3)],
    "fabric_churn": [("rmt.scalar_share", "<=", 0.05),
                     ("engine.batch_size_mean", "==", 1),
                     ("scheduler.queue_depth_max", ">=", 2)],
    "engine_uniform": [("engine.cache_hit_share", "<=", 0.15),
                       ("rmt.scalar_share", "<=", 0.05)],
    "engine_zipf": [("engine.cache_hit_share", ">=", 0.95),
                    ("rmt.scalar_share", "<=", 0.05)],
    "engine_stateful": [("rmt.scalar_share", ">=", 0.95)],
}
MIN_COVERAGE_PCT = 85.0
#: fabric_churn must rebuild classifiers this many times as often per
#: hop as fabric_steady (checked when both ran).
CHURN_REBUILD_RATIO = 20.0

_COMPARE = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def host_facts() -> dict:
    """Where and on what this ran, recorded in every result."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": commit,
            "load1_at_start": os.getloadavg()[0]}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_pass(workload, reference: Reference) -> dict:
    """One pass: untimed preparation, then the timed region. Times are
    net of the reference slices taken inside them, and divided by the
    machine's slowness over the pass (``perf.trace.Reference``)."""
    mark = reference.mark()
    start = now()
    workload.prepare()
    gc.collect()
    prepared, sliced = now(), reference.seconds
    raw = workload.run_pass()
    wall_s = now() - prepared - (reference.seconds - sliced)
    reference.burst(5)      # some slices even when the pass took none
    _, slowness = reference.since(mark)
    return {"prep_s": (prepared - start) / slowness,
            "wall_s": wall_s / slowness, "raw_wall_s": wall_s,
            "slowness": slowness, "outcome": workload.account(raw)}


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool = False, scale: float = 1.0,
                 min_passes: int = MIN_PASSES,
                 trace_dir: Optional[pathlib.Path] = None) -> dict:
    """Run one workload in this process and return its full result."""
    from . import layers, workloads     # these import the program

    host = host_facts()
    tracer = Tracer() if trace else None
    reference = Reference()
    workload = workloads.WORKLOADS[name](seed=seed, scale=scale,
                                         tracer=tracer, reference=reference)
    problems: List[str] = []
    passes: List[dict] = []
    per_layer = None

    def set_up() -> float:
        mark, start = reference.mark(), now()
        reference.burst()
        workload.setup()
        reference.burst()
        sliced_s, slowness = reference.since(mark)
        return (now() - start - sliced_s) / slowness

    if not trace:
        once_s = set_up()
        while len(passes) < min_passes \
                or sum(p["raw_wall_s"] for p in passes) < seconds:
            passes.append(_timed_pass(workload, reference))
        outcomes = [p["outcome"] for p in passes]
    else:
        tracer.packet_id = workload.packet_id
        with tracer.installed(layers.TARGETS):
            once_s = set_up()
            setup_spans = tracer.take()
        # The same pass twice: untraced for the reference wall time,
        # then traced. Preparation is traced both times (it is set-up).
        passes.append(_timed_pass(workload, reference))
        with tracer.installed(layers.TARGETS):
            workload.prepare()
            setup_spans = layers.pooled(setup_spans, tracer.take())
            gc.collect()
            mark = reference.mark()
            tracer.keep_raw()
            with tracer.span(layers.ROOT_SPAN):
                raw = workload.run_pass()
            reference.burst(5)
            pass_spans = tracer.take()
        traced = workload.account(raw)
        outcomes = [passes[0]["outcome"], traced]
        per_layer = layers.per_layer(
            setup_spans, pass_spans, traced.counters, tracer.peaks,
            traced.packets, passes[0]["wall_s"],
            statistics.median(traced.update_ms) if traced.update_ms
            else 0.0, traced.sim, reference.since(mark)[1])
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_dir / f"trace_{name}.json", pass_spans)
        if scale == 1.0:
            problems += _shape_problems(name, per_layer)
    workload.verify()

    digests = {o.digest for o in outcomes if o.digest is not None}
    if workload.warm is not None:
        digests.add(workload.warm.digest)
    if len(digests) != 1:
        problems.append(f"outputs differ between passes: {sorted(digests)}")
    if workload.oracle_mismatches:
        problems.append(f"{workload.oracle_mismatches} of "
                        f"{workload.oracle_checked} packets differ from "
                        f"the scalar oracle")
    attempted = sum(o.attempted for o in outcomes) + workload.oracle_checked
    failed = sum(o.failed for o in outcomes) + workload.oracle_mismatches
    if failed:
        problems.append(f"{failed} of {attempted} packets failed")

    rates = [p["outcome"].packets / p["wall_s"] for p in passes]
    last = outcomes[-1]
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "scale": scale, "trace": trace, "host": host,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "end_to_end": {
            "pps": statistics.median(rates),
            "setup_s": once_s + statistics.median(
                p["prep_s"] for p in passes),
            "peak_rss_mb": _peak_rss_mb(),
        },
        "per_layer": per_layer,
        "passes": len(rates), "pps_passes": rates,
        "pps_raw_passes": [p["outcome"].packets / p["raw_wall_s"]
                           for p in passes],
        "slowness_passes": [p["slowness"] for p in passes],
        "pass_packets": last.packets,
        "sim": last.sim, "update_ms": sorted(
            ms for o in outcomes for ms in o.update_ms),
        "sim_digest": min(digests), "input_digest": workload.input_digest(),
        "missing_targets": tracer.missing if trace else None,
    }


def _shape_problems(name: str, per_layer: Dict[str, Optional[float]]
                    ) -> List[str]:
    """Ways the traced pass fails to be the workload it is meant to
    be. A metric whose layer is gone (``None``) is not checked."""
    checks = EXPECTED[name] + [("trace.coverage_pct", ">=",
                                MIN_COVERAGE_PCT)]
    return [f"{metric} is {per_layer[metric]:.4g}, expected {op} {limit}"
            for metric, op, limit in checks
            if per_layer[metric] is not None
            and not _COMPARE[op](per_layer[metric], limit)]


def emitted(result: dict, spec: dict) -> dict:
    """The driver's object: declared metrics only, every one a number
    (a metric whose layer is gone reads 0)."""
    declared = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    values = result["per_layer"] if result["trace"] \
        else result["end_to_end"]
    return {"correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m["name"]: {"value": values[m["name"]] or 0.0,
                                    "unit": m["unit"]}
                        for m in declared}}


def report(result: dict, spec: dict) -> None:
    """Every metric by name with its unit, for a person to read."""
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    rates = result["pps_passes"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{result['pass_packets']} packets/pass  "
          f"{'traced' if result['trace'] else 'untraced'}")
    for name, value in result["end_to_end"].items():
        note = (f"  (median of {len(rates)} passes, min {min(rates):.1f}"
                f" max {max(rates):.1f}; as timed "
                f"{statistics.median(result['pps_raw_passes']):.1f} at "
                f"slowness "
                f"{statistics.median(result['slowness_passes']):.3f})"
                if name == "pps" else "")
        print(f"  {name:<40}{value:>14.4f} {units[name]}{note}")
    for name, value in result["sim"].items():
        print(f"  sim {name:<36}{value:>14.4f}")
    if result["update_ms"]:
        print(f"  reconfig_ms_p50 {statistics.median(result['update_ms']):.3f}"
              f" over {len(result['update_ms'])} updates")
    for name, value in (result["per_layer"] or {}).items():
        shown = "null" if value is None else f"{value:.4f}"
        print(f"  {name:<40}{shown:>14} {units[name]}")
    print(f"  sim_digest {result['sim_digest']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def run_all(args, spec: dict) -> int:
    """Every workload, each in its own process, untraced then traced."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    out = pathlib.Path(args.out) if args.out else RESULTS / "run.json"
    runs = []
    for _ in range(args.repeat):
        for workload in spec["workloads"]:
            for trace in (0, 1):
                part = RESULTS / f"part_{workload['name']}_{trace}.json"
                subprocess.run(
                    [sys.executable, "-m", "perf.run",
                     "--workload", workload["name"],
                     "--seed", str(args.seed),
                     "--seconds", str(args.seconds),
                     "--scale", str(args.scale), "--trace", str(trace),
                     "--out", str(part)],
                    cwd=ROOT, check=True)
                with open(part) as handle:
                    runs.append(json.load(handle))
                part.unlink()
    problems = [f"{run['workload']}: {problem}"
                for run in runs for problem in run["problems"]]
    rebuilds = {run["workload"]: run["per_layer"]["engine.rebuilds_per_khop"]
                for run in runs if run["trace"]}
    steady, churn = (rebuilds.get("fabric_steady"),
                     rebuilds.get("fabric_churn"))
    if args.scale == 1.0 and steady and churn is not None \
            and churn < CHURN_REBUILD_RATIO * steady:
        problems.append(f"fabric_churn rebuilds {churn:.1f}/khop, under "
                        f"{CHURN_REBUILD_RATIO}x fabric_steady's "
                        f"{steady:.1f}")
    with open(out, "w") as handle:
        json.dump({"host": host_facts(), "runs": runs,
                   "problems": problems}, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python3 -m perf.run",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink packet counts (smoke runs)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full runs to collect (all-workload mode)")
    parser.add_argument("--out", help="write the full result as JSON")
    args = parser.parse_args(argv)

    # The program's REPRO_* knobs select other code paths; the
    # benchmark always measures the defaults.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"no program to measure: {source / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from .workloads import DEFAULT_SEED
    if args.seed is None:
        args.seed = DEFAULT_SEED

    if args.workload is None:
        return run_all(args, spec)
    result = run_workload(args.workload, args.seed, args.seconds,
                          trace=bool(args.trace), scale=args.scale,
                          trace_dir=RESULTS)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(result, handle, indent=1)
            handle.write("\n")
    report(result, spec)
    print(json.dumps(emitted(result, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
