"""The five benchmark workloads.

Every workload builds *all* of its packets during set-up (timed passes
never call a packet builder), uses fixed packet counts so simulated
results compare bit for bit across commits, and drives only the API
ROADMAP item 2 keeps: ``Switch.build()…create()``,
``ModuleWorkload.admit``, ``switch.engine()`` with no arguments,
``leaf_spine``, ``FabricTenant.place/update``, ``TrafficMatrix`` and
``FabricTimelineExperiment(..., backend="serial")``.

A workload is driven in four steps, only the third of which is timed
by the caller: :meth:`Workload.setup` once, :meth:`Workload.prepare`
before each pass, :meth:`Workload.run_pass`, :meth:`Workload.account`
(conservation checks, digests, layer counters).

Why these five, and which layer each one loads, is in ``README.md``.
"""

from __future__ import annotations

import hashlib
import random
import statistics
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.api import Switch
from repro.fabric import leaf_spine
from repro.modules import calc
from repro.rmt.params import DEFAULT_PARAMS
from repro.sim import FabricTimelineExperiment
from repro.traffic import (
    ChurnSchedule,
    TrafficMatrix,
    UniformFlows,
    ZipfFlows,
    workload as module_workload,
)

from .trace import Reference, now

#: Default ``--seed``; a constant of the benchmark, not of the tests.
DEFAULT_SEED = 20220404


@dataclass
class PassResult:
    """What one pass did, as established after its timed region."""

    #: packets that reached a terminal outcome (delivered, counted
    #: drop, counted loss)
    packets: int
    attempted: int
    #: packets with no terminal outcome + conservation violations
    failed: int
    #: sha256 over the pass's outputs; ``None`` where outputs depend
    #: on state carried over from earlier passes
    digest: Optional[str]
    #: layer counters for the pass (hops, batches, cache hits, ...)
    counters: Dict[str, float]
    #: simulated results (fabric workloads)
    sim: Dict[str, float] = field(default_factory=dict)
    #: host-time samples taken by benchmark-owned callables
    update_ms: List[float] = field(default_factory=list)


class Workload:
    """Common surface of the five workloads."""

    name = ""

    def __init__(self, seed: int = DEFAULT_SEED, scale: float = 1.0,
                 tracer=None, reference: Optional[Reference] = None):
        self.seed = seed
        self.scale = scale
        self.tracer = tracer
        #: machine-speed reference, sliced in between the workload's
        #: own loop iterations (see :class:`perf.trace.Reference`)
        self.reference = reference or Reference()
        #: packets checked against the scalar oracle / how many differed
        self.oracle_checked = 0
        self.oracle_mismatches = 0
        #: outcome of the untimed warm pass, where there is one
        self.warm: Optional[PassResult] = None

    def _scaled(self, count: int, floor: int = 1) -> int:
        return max(floor, int(round(count * self.scale)))

    def _traced(self, span: str, fn: Callable) -> Callable:
        """``fn`` as a benchmark-owned span when tracing, else ``fn``."""
        if self.tracer is None or not self.tracer.active:
            return fn
        return self.tracer.wrap(span, fn)

    def _reference_slice(self) -> Callable:
        return self._traced("trace.reference", self.reference.slice)

    def setup(self) -> None:
        """One-time set-up: packets, and whatever outlives a pass."""

    def verify(self) -> None:
        """Check outputs against an independent reference (untimed,
        and not part of set-up time)."""

    def prepare(self) -> None:
        """Per-pass set-up (untimed)."""

    def run_pass(self):
        """The timed region; returns raw outputs for :meth:`account`."""
        raise NotImplementedError

    def account(self, raw) -> PassResult:
        raise NotImplementedError

    def packet_id(self, packet) -> Optional[int]:
        """Stream index of a packet (for per-packet span records)."""
        return None

    def input_digest(self) -> str:
        """sha256 over the generated packet stream."""
        raise NotImplementedError


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes)
                      else repr(part).encode())
    return digest.hexdigest()


def _sum_engine_counters(all_counters) -> Dict[str, float]:
    """Engine counters summed over switches, fallbacks flattened."""
    total: Dict[str, float] = {"fallbacks": 0}
    for counters in all_counters:
        for item in fields(counters):
            value = getattr(counters, item.name)
            if isinstance(value, int):
                total[item.name] = total.get(item.name, 0) + value
        total["fallbacks"] += sum(counters.classifier_fallbacks.values())
    total["hops"] = total.get("packets", 0)
    return total


def _percentile(ordered: List[float], share: float) -> float:
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


# -- fabric workloads -------------------------------------------------------


class _FabricWorkload(Workload):
    """ROADMAP's headline shape: a 4-leaf / 2-spine Clos, 24 ``calc``
    tenants pinned round-robin over the spines, one serial timeline
    per pass on a fresh fabric."""

    LEAVES, SPINES, HOSTS, TENANTS = 4, 2, 4, 24
    PACKET_SIZE = 300
    #: distinct packets per tenant, cycled — tenant traffic is a few
    #: flows, so a hop is an exact-match hit unless the epoch moved
    FLOWS = 16
    LINK_DELAY_S = 1e-3
    DURATION_S = 1.0
    PACKETS = 0            #: per pass, before ``--scale``
    LINK_RATE_BPS = 100e9
    #: a reference slice every this many packets of each tenant
    REFERENCE_STRIDE = 30

    def _builder(self):
        return Switch.build()

    def _endpoints(self, index: int) -> Tuple[Tuple[str, int], ...]:
        src = index % self.LEAVES
        dst = (index + 1 + index // self.LEAVES) % self.LEAVES
        if dst == src:
            dst = (dst + 1) % self.LEAVES
        port = index % self.HOSTS
        return (f"leaf{src}", port), (f"leaf{dst}", port)

    def setup(self) -> None:
        rng = random.Random(self.seed)
        build = self._traced("net.build", calc.make_packet)
        ops = (calc.OP_ADD, calc.OP_SUB)   # the opcodes that steer
        self.per_tenant = self._scaled(self.PACKETS // self.TENANTS)
        #: a smoke run (``--scale`` well under 1) also places fewer
        #: tenants, since building the fabric is most of its time
        self.tenant_count = self._scaled(self.TENANTS, floor=4)
        self.pools = {
            vid: [build(vid, rng.choice(ops), rng.getrandbits(32),
                        rng.getrandbits(32), pad_to=self.PACKET_SIZE)
                  for _ in range(self.FLOWS)]
            for vid in range(1, self.tenant_count + 1)}

    def input_digest(self) -> str:
        return _sha(bytes(p.buf) for vid in sorted(self.pools)
                    for p in self.pools[vid])

    def prepare(self) -> None:
        fabric = leaf_spine(
            leaves=self.LEAVES, spines=self.SPINES,
            hosts_per_leaf=self.HOSTS,
            link_capacity_bps=self.LINK_RATE_BPS,
            link_delay_s=self.LINK_DELAY_S, make_builder=self._builder)
        matrix = TrafficMatrix()
        pps = self.per_tenant / self.DURATION_S
        self.tenants = {}
        self.handed_out: Dict[int, List[int]] = {}
        self._ids: Dict[float, int] = {}
        reference = self._reference_slice()
        for index in range(self.tenant_count):
            vid = index + 1
            src, dst = self._endpoints(index)
            tenant = fabric.tenant(f"t{vid}", calc.P4_SOURCE, vid=vid,
                                   installer=calc.install)
            tenant.place(src, dst, via=[f"spine{index % self.SPINES}"])
            self.tenants[vid] = tenant
            # Fresh copies per pass (a timeline stamps and re-ports the
            # objects it is handed), made here so the timed region only
            # pops them. Two spare: the arrival count is a float loop.
            pool = self.pools[vid]
            fresh = [pool[k % self.FLOWS].copy()
                     for k in range(self.per_tenant + 2)]
            fresh.reverse()
            taken = self.handed_out[vid] = [0]
            matrix.add(vid, src, dst,
                       offered_bps=pps * (self.PACKET_SIZE + 24) * 8,
                       packet_size=self.PACKET_SIZE,
                       make_packet=self._traced(
                           "traffic.handout",
                           self._handout(fresh, taken, reference)))
        self.fabric = fabric
        self.experiment = FabricTimelineExperiment(
            fabric, matrix, duration_s=self.DURATION_S,
            bin_s=self.DURATION_S / 10, backend="serial")

    def _handout(self, fresh: list, taken: List[int],
                 reference: Callable) -> Callable:
        stride = self.REFERENCE_STRIDE

        def handout():
            taken[0] += 1
            if taken[0] % stride == 0:
                reference()
            return fresh.pop()
        return handout

    def packet_id(self, packet) -> Optional[int]:
        # A packet keeps its source arrival time across hops, and the
        # matrix phase-shifts demands, so the stamp identifies it.
        ids = self._ids
        return ids.setdefault(packet.arrival_time, len(ids))

    def run_pass(self):
        return self.experiment.run()

    def account(self, result) -> PassResult:
        attempted = failed = packets = 0
        for vid, taken in self.handed_out.items():
            ended = (result.delivered.get(vid, 0)
                     + result.drops.get(vid, 0) + result.lost.get(vid, 0))
            attempted += taken[0]
            packets += ended
            failed += abs(taken[0] - ended)
        latencies = sorted(x for values in result.latencies_s.values()
                           for x in values)
        sim = {"latency_samples": len(latencies)}
        if latencies:
            sim["latency_p50_us"] = _percentile(latencies, 0.50) * 1e6
            sim["latency_p99_us"] = _percentile(latencies, 0.99) * 1e6
        members = self.fabric.switches()
        counters = _sum_engine_counters(m.engine.counters for m in members)
        counters["scheduler_drops"] = sum(m.scheduler.dropped
                                          for m in members)
        counters["sim_events"] = self.experiment.core.sim.events_processed
        counters["reconfig_events"] = sum(
            2 if e.duration_s > 0 else 1
            for e in self.experiment.reconfigs)
        counters["link_util_max"] = max(
            util for _bytes, util in result.link_utilization.values())
        digest = _sha(
            (vid, result.delivered.get(vid, 0), result.drops.get(vid, 0),
             result.lost.get(vid, 0), result.latencies_s.get(vid, []))
            for vid in sorted(self.handed_out))
        return PassResult(packets=packets, attempted=attempted,
                          failed=failed, digest=digest, counters=counters,
                          sim=sim)


class FabricSteady(_FabricWorkload):
    name = "fabric_steady"
    #: 140 per tenant. Passes are short so that a run holds many: the
    #: median of eight rates is steadier than the median of three.
    PACKETS = 3_360


class FabricChurn(_FabricWorkload):
    """The same fabric with live ``FabricTenant.update`` ops on the
    VIDs ≡ 0 mod 4 through the middle of the run, on links slow enough
    that scheduler queues form."""

    name = "fabric_churn"
    DURATION_S = 0.5
    PACKETS = 1_200        # 50 per tenant: 5 per 50 ms bin
    #: 300 B every 10 ms per tenant, six tenants per uplink
    LINK_RATE_BPS = 2.4e6
    REFERENCE_STRIDE = 4
    UPDATES = 30
    WINDOW_S = 1e-3        #: §4.1 drop window held per update
    #: updates fall in this share of the run, leaving steady bins
    #: either side for the isolation statistic
    CHURN_SPAN = (0.3, 0.7)

    def _builder(self):
        # An update loads the new program beside the old one; the
        # Table-5 depths leave no headroom and raise AdmissionError.
        params = replace(DEFAULT_PARAMS, match_entries_per_stage=128,
                         vliw_entries_per_stage=128)
        return Switch.build().params(params)

    def prepare(self) -> None:
        super().prepare()
        churned = [vid for vid in self.tenants if vid % 4 == 0]
        updates = self._scaled(self.UPDATES, floor=len(churned))
        lo, hi = (share * self.DURATION_S for share in self.CHURN_SPAN)
        schedule = ChurnSchedule()
        for k in range(updates):
            schedule.update(churned[k % len(churned)],
                            at_s=lo + (hi - lo) * k / updates,
                            duration_s=self.WINDOW_S)
        self.schedule = schedule
        self.update_ms: List[float] = []
        self.experiment.schedule_churn(schedule, self._apply)

    def _apply(self, event) -> None:
        start = now()
        self.tenants[event.vid].update(calc.P4_SOURCE)
        self.update_ms.append((now() - start) * 1e3)

    def account(self, result) -> PassResult:
        outcome = super().account(result)
        outcome.update_ms = self.update_ms
        outcome.sim["untouched_share_err_pct"] = \
            self._untouched_error(result) * 100
        return outcome

    def _untouched_error(self, result) -> float:
        """Worst per-bin deviation of any never-updated tenant's
        throughput from its own steady-state bins, over bins that
        overlap an update window (the Fig. 10 statistic)."""
        spans = [(e.time_s, e.time_s + e.duration_s)
                 for e in self.schedule.sorted_events()]
        churned = set(self.schedule.churned_vids())
        bin_s = result.bin_s

        def overlaps(start: float) -> bool:
            return any(lo <= start + bin_s and start <= hi
                       for lo, hi in spans)

        worst = 0.0
        for vid in self.tenants:
            if vid in churned:
                continue
            series = list(zip(result.bins, result.throughput_gbps[vid]))
            steady = [t for b, t in series
                      if b > result.bins[0]
                      and b + bin_s <= self.DURATION_S
                      and not overlaps(b)]
            reference = statistics.fmean(steady) if steady else 0.0
            if not reference:
                continue    # too few packets for a steady share
            worst = max([worst] + [abs(t - reference) / reference
                                   for b, t in series if overlaps(b)])
        return worst


# -- engine workloads -------------------------------------------------------


class _EngineWorkload(Workload):
    """One switch, tenant-interleaved replay in batches of 256 through
    ``BatchEngine.process_batch``, every port drained after each
    batch; one untimed warm pass fills caches and lazy classifiers."""

    MODULES: Tuple[str, ...] = ()
    PER_TENANT = 0         #: packets per tenant, before ``--scale``
    BATCH = 256
    #: leading packets replayed through ``Switch.process`` on a twin
    ORACLE_PACKETS = 4096
    #: whether outputs depend on state left by earlier passes
    STATEFUL = False
    #: reference slices after each batch (more where a batch is slow)
    REFERENCE_SLICES = 2

    def _flow_ids(self, spec, rng: random.Random, count: int):
        raise NotImplementedError

    def _build_switch(self):
        switch = Switch.build().create()
        for index, module in enumerate(self.MODULES):
            module_workload(module).admit(switch, vid=index + 1)
        return switch

    def setup(self) -> None:
        count = self._scaled(self.PER_TENANT)
        streams = []
        for index, module in enumerate(self.MODULES):
            spec = module_workload(module)
            vid = index + 1
            rng = random.Random(self.seed * 1009 + vid)
            build = self._traced("net.build", spec.flow_packet)
            built: Dict[int, object] = {}
            stream = []
            for flow_id in self._flow_ids(spec, rng, count):
                first = built.get(flow_id)
                if first is None:
                    first = built[flow_id] = build(vid, flow_id)
                    if len(built) % self.BATCH == 0:
                        self.reference.slice()
                stream.append(first.copy())
            streams.append(stream)
        tenants = len(streams)
        self.packets = [streams[i % tenants][i // tenants]
                        for i in range(count * tenants)]
        for i, packet in enumerate(self.packets):
            packet.arrival_time = i * 1e-6
        self.batches = [self.packets[i:i + self.BATCH]
                        for i in range(0, len(self.packets), self.BATCH)]
        self.switch = self._build_switch()
        self.engine = self.switch.engine()
        self.scheduler = self.switch.egress_scheduler
        self._before = self.engine.counters.snapshot()
        self._dropped_before = self.scheduler.dropped
        results: list = []
        tally = self._replay(keep=results)
        self._head = results[:self._scaled(self.ORACLE_PACKETS)]
        #: sha256 over every output of the warm pass (fresh switch)
        self.warm_digest = _sha(_outcome(r) for r in results)
        self.warm = self.account(tally, fresh=True)

    def input_digest(self) -> str:
        return _sha(bytes(p.buf) for p in self.packets)

    def packet_id(self, packet) -> Optional[int]:
        return int(round(packet.arrival_time * 1e6))

    def run_pass(self):
        return self._replay()

    def _replay(self, keep: Optional[list] = None) -> Tuple[int, int, int]:
        """The whole stream once; returns (forwarded, dropped, drained).

        Results are tallied, not held: 49 152 live result objects make
        every collection of the oldest generation slower, and the
        collector stays on."""
        engine, scheduler = self.engine, self.scheduler
        ports = range(scheduler.num_ports)
        reference = self._reference_slice()
        slices = range(self.REFERENCE_SLICES)
        forwarded = dropped = drained = 0
        for batch in self.batches:
            results = engine.process_batch(batch)
            if keep is not None:
                keep.extend(results)
            for result in results:
                if result.dropped:
                    dropped += 1
                else:
                    forwarded += 1
            for port in ports:
                drained += len(scheduler.drain(port))
            for _ in slices:
                reference()
        return forwarded, dropped, drained

    def account(self, tally, fresh: bool = False) -> PassResult:
        forwarded, dropped, drained = tally
        attempted = len(self.packets)
        failed = abs(attempted - forwarded - dropped) \
            + abs(forwarded - drained)
        counters = _sum_engine_counters(
            [self.engine.counters.delta_since(self._before)])
        counters["scheduler_drops"] = \
            self.scheduler.dropped - self._dropped_before
        self._before = self.engine.counters.snapshot()
        self._dropped_before = self.scheduler.dropped
        # Outputs that carry no state repeat exactly, pass after pass.
        digest = _sha([self.warm_digest, tally]) \
            if fresh or not self.STATEFUL else None
        return PassResult(packets=forwarded + dropped, attempted=attempted,
                          failed=failed, digest=digest, counters=counters)

    def verify(self) -> None:
        """Replay the leading packets through the scalar pipeline on a
        twin switch and compare with what the warm pass produced; both
        switches started fresh, so state lines up too."""
        twin = self._build_switch()
        self.oracle_checked = len(self._head)
        self.oracle_mismatches = sum(
            1 for packet, result in zip(self.packets, self._head)
            if _outcome(twin.process(packet.copy())) != _outcome(result))


def _outcome(result) -> tuple:
    packet = result.packet
    return (bytes(packet.buf) if packet is not None else b"",
            result.egress_port, result.drop_reason)


class EngineUniform(_EngineWorkload):
    """Uniform over 2^16 flows: 6 144 draws per tenant are some 5 900
    distinct flows, more than the 4 096-entry per-tenant LRU holds, so
    cyclic replay evicts every entry before its flow comes round."""

    name = "engine_uniform"
    MODULES = ("calc", "firewall", "load_balancer") * 2
    PER_TENANT = 6144

    def _flow_ids(self, spec, rng, count):
        return UniformFlows(1 << 16).stream(rng, count)


class EngineZipf(_EngineWorkload):
    name = "engine_zipf"
    MODULES = ("calc", "firewall", "load_balancer") * 2
    #: 256 flows need no long stream; short passes, many to a run
    PER_TENANT = 4096

    def _flow_ids(self, spec, rng, count):
        return ZipfFlows(256, skew=0.99).stream(rng, count)


class EngineStateful(_EngineWorkload):
    name = "engine_stateful"
    MODULES = ("netcache", "netchain") * 2
    PER_TENANT = 1024
    STATEFUL = True
    REFERENCE_SLICES = 12

    def _flow_ids(self, spec, rng, count):
        return UniformFlows(spec.n_flows).stream(rng, count)


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (FabricSteady, FabricChurn, EngineUniform,
                              EngineZipf, EngineStateful)}
