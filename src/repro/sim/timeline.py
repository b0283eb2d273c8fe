"""Timed multi-module traffic harness: the Fig. 10 experiment.

Drives the *real* behavioral pipeline with interleaved, timestamped
packets from several modules, triggers a module reconfiguration
mid-run (set bitmap -> rewrite configuration -> clear bitmap, exactly
the §4.1 procedure), and bins per-module delivered bits into a
throughput time series.

Simulating every packet of a 9.3 Gbit/s offered load is pointless in a
behavioral model, so arrivals are generated at a configurable *sampling
scale*: one simulated packet stands for ``scale`` real packets and
contributes ``scale x size`` bytes to its bin. Rate ratios, the
reconfiguration window, and the isolation behavior are preserved
exactly; only the statistical granularity changes.

The Tofino baseline (``tofino_fast_refresh=True``) reproduces §5.1's
comparison: any module update stalls *all* modules for the Fast-Refresh
window (~50 ms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.pipeline import MenshenPipeline
from ..errors import ConfigError
from ..net.packet import Packet
from .perf_model import L1_OVERHEAD_BYTES


@dataclass
class ModuleTraffic:
    """One module's offered load."""

    module_id: int
    offered_bps: float
    packet_size: int
    make_packet: Callable[[], Packet]

    @property
    def offered_pps(self) -> float:
        return self.offered_bps / ((self.packet_size + L1_OVERHEAD_BYTES)
                                   * 8)


@dataclass
class ReconfigEvent:
    """A timed module update."""

    module_id: int
    start_s: float
    duration_s: float
    #: Optional callable performing the actual configuration rewrite
    #: (e.g. controller.update_module); invoked once at start.
    apply: Optional[Callable[[], None]] = None


@dataclass
class TimelineResult:
    """Binned per-module throughput (and, when the pipeline egress is
    scheduled, per-module departure latencies)."""

    bin_s: float
    bins: List[float]
    #: module_id -> Gbps per bin (layer 2)
    throughput_gbps: Dict[int, List[float]]
    offered_gbps: Dict[int, float]
    drops: Dict[int, int]
    #: module_id -> per-packet egress latencies (departure − arrival),
    #: seconds. Populated only when the pipeline's traffic manager is an
    #: :class:`~repro.engine.scheduler.EgressScheduler` with a line
    #: rate — the FIFO path has no departure clock to measure against.
    latencies_s: Dict[int, List[float]] = field(default_factory=dict)

    def mean_latency_s(self, module_id: int) -> float:
        values = self.latencies_s.get(module_id, [])
        return sum(values) / len(values) if values else 0.0

    def max_latency_s(self, module_id: int) -> float:
        values = self.latencies_s.get(module_id, [])
        return max(values) if values else 0.0

    def series(self, module_id: int) -> List[Tuple[float, float]]:
        return list(zip(self.bins, self.throughput_gbps[module_id]))

    def min_throughput_outside(self, module_id: int, window: Tuple[float, float]) -> float:
        """Minimum throughput of a module in bins outside ``window``."""
        lo, hi = window
        values = [t for b, t in self.series(module_id)
                  if b + self.bin_s <= lo or b >= hi]
        return min(values) if values else 0.0

    def mean_throughput_inside(self, module_id: int,
                               window: Tuple[float, float]) -> float:
        lo, hi = window
        values = [t for b, t in self.series(module_id)
                  if lo <= b and b + self.bin_s <= hi]
        return sum(values) / len(values) if values else 0.0


class ReconfigTimelineExperiment:
    """Builds and runs one Fig.-10-style timeline."""

    def __init__(self, pipeline: MenshenPipeline, duration_s: float = 3.0,
                 bin_s: float = 0.1, scale: float = 1000.0,
                 tofino_fast_refresh: bool = False,
                 fast_refresh_s: float = 50e-3,
                 engine=None):
        self.pipeline = pipeline
        #: Optional :class:`repro.engine.BatchEngine` over the same
        #: pipeline; when set, arrivals are served through it (flow cache
        #: and all) instead of the scalar path. Results are identical —
        #: this exists to run the timed Fig. 10 experiment against the
        #: batched serving layer.
        self.engine = engine
        if engine is not None and engine.pipeline is not pipeline:
            raise ValueError("engine drives a different pipeline")
        if bin_s <= 0:
            raise ConfigError(f"bin width must be positive, got {bin_s}")
        if duration_s <= 0:
            raise ConfigError(
                f"duration must be positive, got {duration_s}")
        if round(duration_s / bin_s) < 1:
            raise ConfigError(
                f"a {duration_s} s run is shorter than one {bin_s} s bin")
        self.duration_s = duration_s
        self.bin_s = bin_s
        self.scale = scale
        self.traffic: List[ModuleTraffic] = []
        self.reconfigs: List[ReconfigEvent] = []
        self.tofino_fast_refresh = tofino_fast_refresh
        self.fast_refresh_s = fast_refresh_s

    def add_module(self, module_id: int, offered_bps: float,
                   packet_size: int,
                   make_packet: Callable[[], Packet]) -> None:
        self.traffic.append(ModuleTraffic(module_id, offered_bps,
                                          packet_size, make_packet))

    def schedule_reconfig(self, module_id: int, start_s: float,
                          duration_s: float,
                          apply: Optional[Callable[[], None]] = None) -> None:
        self.reconfigs.append(ReconfigEvent(module_id, start_s, duration_s,
                                            apply))

    # ------------------------------------------------------------------ run

    def _arrivals(self) -> List[Tuple[float, ModuleTraffic]]:
        """Deterministic evenly-spaced arrivals per module, merged."""
        arrivals: List[Tuple[float, ModuleTraffic]] = []
        for i, traffic in enumerate(self.traffic):
            pps = traffic.offered_pps / self.scale
            if pps <= 0:
                continue
            gap = 1.0 / pps
            phase = gap * (i + 1) / (len(self.traffic) + 1)
            t = phase
            while t < self.duration_s:
                arrivals.append((t, traffic))
                t += gap
        arrivals.sort(key=lambda item: item[0])
        return arrivals

    def run(self) -> TimelineResult:
        from ..engine.scheduler import EgressScheduler

        num_bins = int(round(self.duration_s / self.bin_s))
        bins = [i * self.bin_s for i in range(num_bins)]
        bits: Dict[int, List[float]] = {
            t.module_id: [0.0] * num_bins for t in self.traffic}
        drops: Dict[int, int] = {t.module_id: 0 for t in self.traffic}
        # Egress departures: when the pipeline's TM is a scheduler with
        # a transmission clock, advance it alongside the arrivals (one
        # switch, no links: every departure is a host exit) and collect
        # per-module (departure − arrival) latencies.
        tm = self.pipeline.traffic_manager
        scheduler = tm if isinstance(tm, EgressScheduler) else None
        latencies: Dict[int, List[float]] = {}

        def advance_egress(t: float) -> None:
            for dep in scheduler.advance_to(t):
                latencies.setdefault(dep.module_id, []).append(
                    dep.time - dep.packet.arrival_time)

        data_path = self.engine if self.engine is not None \
            else self.pipeline

        # Reconfiguration windows, expanded for the Tofino baseline.
        windows: List[Tuple[float, float, Optional[int], ReconfigEvent]] = []
        for ev in self.reconfigs:
            if self.tofino_fast_refresh:
                # everyone stalls, for the fast-refresh window
                windows.append((ev.start_s,
                                ev.start_s + self.fast_refresh_s, None, ev))
            else:
                windows.append((ev.start_s, ev.start_s + ev.duration_s,
                                ev.module_id, ev))
        applied = set()

        for t, traffic in self._arrivals():
            # Maintain bitmap state per the §4.1 procedure.
            stalled = False
            for lo, hi, target, ev in windows:
                inside = lo <= t < hi
                if inside and id(ev) not in applied:
                    applied.add(id(ev))
                    if ev.apply is not None:
                        ev.apply()
                if target is None:
                    if inside:
                        stalled = True
                    continue
                if inside and not self.pipeline.packet_filter \
                        .is_module_updating(target):
                    self.pipeline.packet_filter.set_module_updating(target)
                if not inside and t >= hi and self.pipeline.packet_filter \
                        .is_module_updating(target):
                    self.pipeline.packet_filter.clear_module_updating(target)

            bin_idx = min(int(t / self.bin_s), num_bins - 1)
            if stalled:
                drops[traffic.module_id] += 1
                continue
            packet = traffic.make_packet()
            packet.arrival_time = t
            # Advance the egress clock to the arrival instant *before*
            # delivering the packet: transmissions that complete by ``t``
            # depart, and the new arrival can never be served at a clock
            # earlier than its own arrival time.
            if scheduler is not None:
                advance_egress(t)
            result = data_path.process(packet)
            if result.forwarded:
                bits[traffic.module_id][bin_idx] += (
                    traffic.packet_size * 8 * self.scale)
            else:
                drops[traffic.module_id] += 1

        # Make sure trailing windows are cleared.
        for lo, hi, target, _ev in windows:
            if target is not None and self.pipeline.packet_filter \
                    .is_module_updating(target):
                self.pipeline.packet_filter.clear_module_updating(target)

        # Let the egress backlog finish transmitting so tail latencies
        # are measured, not truncated. A fixed clock + bin step cannot
        # guarantee progress (a transmission longer than one bin — low
        # line rate, big packet — completes past the horizon and the
        # clock holds at its committed start), so each round advances at
        # least to the earliest next departure; the loop cannot spin.
        if scheduler is not None:
            advance_egress(self.duration_s)
            while scheduler.total_queued():
                advance_egress(max(
                    scheduler.clock + self.bin_s,
                    min(at for _port, at in scheduler.next_departures())))

        throughput = {
            m: [b / self.bin_s / 1e9 for b in series]
            for m, series in bits.items()
        }
        return TimelineResult(
            bin_s=self.bin_s, bins=bins, throughput_gbps=throughput,
            offered_gbps={t.module_id: t.offered_bps / 1e9
                          for t in self.traffic},
            drops=drops, latencies_s=latencies)
