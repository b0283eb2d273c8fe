"""Which callables make up each layer, and the per-layer metrics.

:data:`TARGETS` names the public callables the tracer wraps, by layer;
:func:`per_layer` turns one traced pass (span aggregates + the
program's own counters) into the metrics ``BENCHMARK.json`` declares
under ``per_layer``. A *hop* is one packet through one switch, so the
engine and fabric workloads share units. A metric whose wrap target no
longer exists is ``None``.

Denominators: ``us/hop`` metrics are span *self* time per hop, so they
add up to the time a hop costs; ``us/pkt`` (``rmt.*``) is per packet
the scalar oracle executed; ``us/event`` per simulator event;
``ms/call`` per call, control-plane spans pooled over set-up and pass.
"""

from __future__ import annotations

from typing import Dict, Optional

from .trace import SpanStat, Target

#: Span of the traced pass itself; everything else nests under it.
ROOT_SPAN = "pass"
#: Span of the machine-speed reference slices taken inside the pass.
REFERENCE_SPAN = "trace.reference"


def _queue_len(args, _result) -> int:
    scheduler, port = args[0], args[2] if len(args) > 2 else 0
    return scheduler.queue_len(port) if port < scheduler.num_ports else 0


TARGETS = [
    Target("net.copy", "repro.net.packet:Packet.copy", 0),
    Target("traffic.arrivals",
           "repro.traffic.matrix:TrafficMatrix.arrivals"),
    # control plane
    Target("compiler.compile", "repro.runtime.controller:compile_module"),
    Target("analysis.verify", "repro.runtime.controller:verify_admission"),
    Target("runtime.load",
           "repro.runtime.controller:MenshenController.load_module"),
    Target("runtime.load",
           "repro.runtime.controller:MenshenController.update_module"),
    Target("runtime.config_write",
           "repro.runtime.interface:SoftwareHardwareInterface.write_config"),
    Target("api.admit", "repro.api.switch:Switch.admit"),
    Target("fabric.place", "repro.fabric.tenant:FabricTenant.place"),
    Target("fabric.update", "repro.fabric.tenant:FabricTenant.update"),
    # Menshen pipeline phases
    Target("core.admit", "repro.core.pipeline:MenshenPipeline.admit", 1),
    Target("core.commit", "repro.core.pipeline:MenshenPipeline.commit", 1),
    Target("rmt.execute", "repro.core.pipeline:MenshenPipeline.execute", 1),
    Target("rmt.parse", "repro.rmt.parser:ProgrammableParser.parse", 1),
    Target("rmt.stage", "repro.rmt.stage:Stage.process"),
    Target("rmt.deparse", "repro.rmt.deparser:Deparser.deparse", 2),
    # batched engine
    Target("engine.batch", "repro.engine.batch:BatchEngine.process_batch"),
    Target("engine.cache_lookup",
           "repro.engine.flow_cache:FlowCache.lookup"),
    Target("engine.cache_insert",
           "repro.engine.flow_cache:FlowCache.insert"),
    Target("engine.classify",
           "repro.engine.classifier:CompiledClassifier.classify", 1),
    Target("engine.rebuild", "repro.engine.batch:compile_classifier"),
    # egress scheduler
    Target("scheduler.enqueue",
           "repro.engine.scheduler:EgressScheduler.enqueue", 1,
           _queue_len),
    Target("scheduler.advance",
           "repro.engine.scheduler:EgressScheduler.advance_to"),
    Target("scheduler.next_departure",
           "repro.engine.scheduler:EgressScheduler.next_departure_at"),
    Target("scheduler.drain",
           "repro.engine.scheduler:EgressScheduler.drain"),
    # execution core
    Target("exec.inject", "repro.exec.core:ExecutionCore.inject", 2),
    Target("exec.route", "repro.exec.core:ExecutionCore.route", 3),
    Target("exec.route_departures",
           "repro.exec.core:ExecutionCore.route_departures"),
    Target("exec.schedule_services",
           "repro.exec.core:ExecutionCore.schedule_services"),
    # simulation kernel
    Target("sim.schedule", "repro.sim.kernel:Simulator.schedule"),
    Target("sim.run", "repro.sim.kernel:Simulator.run"),
]

#: Control-plane spans, pooled over set-up and the traced pass.
_CONTROL = {
    "net.build_us": ("net.build", 1e6),
    "traffic.arrivals_ms": ("traffic.arrivals", 1e3),
    "compiler.compile_ms": ("compiler.compile", 1e3),
    "analysis.verify_ms": ("analysis.verify", 1e3),
    "runtime.load_ms": ("runtime.load", 1e3),
    "api.admit_ms": ("api.admit", 1e3),
    "fabric.place_ms": ("fabric.place", 1e3),
}

#: ``us/hop`` metrics: span self time over the pass's hops.
_PER_HOP = {
    "core.admit_us": "core.admit",
    "core.commit_us": "core.commit",
    "engine.batch_us": "engine.batch",
    "engine.cache_lookup_us": "engine.cache_lookup",
    "engine.cache_insert_us": "engine.cache_insert",
    "engine.classify_us": "engine.classify",
    "scheduler.enqueue_us": "scheduler.enqueue",
    "scheduler.advance_us": "scheduler.advance",
    "scheduler.next_departure_us": "scheduler.next_departure",
    "scheduler.drain_us": "scheduler.drain",
    "exec.inject_us": "exec.inject",
    "exec.route_us": "exec.route",
    "exec.schedule_services_us": "exec.schedule_services",
}

#: ``us/pkt`` metrics: self time per packet the scalar oracle executed.
_PER_EXECUTED = {
    "rmt.execute_us": "rmt.execute",
    "rmt.parse_us": "rmt.parse",
    "rmt.stage_us": "rmt.stage",
    "rmt.deparse_us": "rmt.deparse",
}


def _ratio(top: Optional[float], bottom: float,
           scale: float = 1.0) -> Optional[float]:
    if top is None:
        return None
    return top / bottom * scale if bottom else 0.0


def pooled(first: Dict[str, Optional[SpanStat]],
           second: Dict[str, Optional[SpanStat]]
           ) -> Dict[str, Optional[SpanStat]]:
    """Two aggregate tables added span by span."""
    total = dict(first)
    for name, stat in second.items():
        held = total.get(name)
        if stat is None or held is None:
            total[name] = held if stat is None else stat
        else:
            total[name] = SpanStat(*(a + b for a, b in zip(held, stat)))
    return total


def per_layer(setup: Dict[str, Optional[SpanStat]],
              traced: Dict[str, Optional[SpanStat]],
              counters: Dict[str, float], peaks: Dict[str, float],
              packets: int, untraced_s: float,
              update_ms_p50: float, sim: Dict[str, float],
              slowness: float) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one traced pass.

    ``setup`` are the span aggregates of set-up, ``traced`` those of
    the traced pass, ``counters`` the program's own counters over that
    pass, ``untraced_s`` the (normalised) time of the same pass
    untraced, ``slowness`` the machine's over the traced pass: every
    host time below is divided by it, like the end-to-end times."""
    control = pooled(setup, traced)
    hops = counters["hops"]
    # The traced pass proper: the root span less the reference slices.
    traced_s = (traced[ROOT_SPAN].total_s
                - traced[REFERENCE_SPAN].total_s) / slowness

    def count(span: str) -> Optional[float]:
        stat = traced.get(span)
        return None if stat is None else stat.count

    def self_s(table, span: str) -> Optional[float]:
        stat = table.get(span)
        return None if stat is None else stat.self_s / slowness

    metrics: Dict[str, Optional[float]] = {}
    for name, (span, scale) in _CONTROL.items():
        stat = control.get(span)
        metrics[name] = None if stat is None \
            else _ratio(stat.self_s / slowness, stat.count, scale)
    writes, loads = (control.get("runtime.config_write"),
                     control.get("runtime.load"))
    metrics["runtime.config_writes_per_load"] = \
        None if writes is None or loads is None \
        else _ratio(writes.count, loads.count)
    metrics["fabric.update_ms"] = \
        None if control.get("fabric.update") is None \
        else update_ms_p50 / slowness

    metrics["net.copies_per_hop"] = _ratio(count("net.copy"), hops)
    for name, span in _PER_HOP.items():
        metrics[name] = _ratio(self_s(traced, span), hops, 1e6)
    executed = count("rmt.execute")
    for name, span in _PER_EXECUTED.items():
        metrics[name] = None if executed is None \
            else _ratio(self_s(traced, span), executed, 1e6)
    metrics["rmt.scalar_share"] = _ratio(executed, hops)
    metrics["core.early_drop_share"] = _ratio(
        counters.get("early_drops", 0), hops)

    metrics["engine.batch_size_mean"] = _ratio(
        hops, counters.get("batches", 0))
    metrics["engine.cache_hit_share"] = _ratio(
        counters.get("cache_hits", 0), hops)
    metrics["engine.compiled_share"] = _ratio(
        counters.get("compiled_hits", 0), hops)
    metrics["engine.fallback_share"] = _ratio(
        counters.get("fallbacks", 0), hops)
    metrics["engine.rebuilds_per_khop"] = _ratio(
        counters.get("compile_rebuilds", 0), hops, 1e3)
    rebuild = traced.get("engine.rebuild")
    metrics["engine.rebuild_ms"] = None if rebuild is None \
        else _ratio(rebuild.total_s / slowness, rebuild.count, 1e3)

    metrics["scheduler.advance_calls_per_hop"] = _ratio(
        count("scheduler.advance"), hops)
    metrics["scheduler.next_departure_calls_per_hop"] = _ratio(
        count("scheduler.next_departure"), hops)
    metrics["scheduler.queue_depth_max"] = \
        None if traced.get("scheduler.enqueue") is None \
        else peaks.get("scheduler.enqueue", 0)
    metrics["scheduler.drops"] = counters.get("scheduler_drops", 0)

    events = counters.get("sim_events", 0)
    injects = count("exec.inject")
    metrics["exec.service_events_per_hop"] = None if injects is None \
        else _ratio(max(0, events - injects
                        - counters.get("reconfig_events", 0)), hops)
    metrics["sim.events_per_hop"] = _ratio(events, hops)
    metrics["sim.schedule_us"] = _ratio(
        self_s(traced, "sim.schedule"), events, 1e6)
    metrics["sim.run_self_us"] = _ratio(
        self_s(traced, "sim.run"), events, 1e6)
    metrics["sim.latency_p50_us"] = sim.get("latency_p50_us", 0.0)
    metrics["sim.latency_p99_us"] = sim.get("latency_p99_us", 0.0)
    metrics["sim.untouched_share_err_pct"] = \
        sim.get("untouched_share_err_pct", 0.0)

    metrics["fabric.hops_per_pkt"] = _ratio(hops, packets)
    metrics["fabric.hops_per_s"] = _ratio(hops, untraced_s)

    named = sum(stat.self_s for name, stat in traced.items()
                if stat is not None
                and name not in (ROOT_SPAN, REFERENCE_SPAN))
    metrics["trace.coverage_pct"] = _ratio(named / slowness, traced_s, 100)
    metrics["trace.overhead_pct"] = _ratio(
        traced_s - untraced_s, untraced_s, 100)
    return metrics
