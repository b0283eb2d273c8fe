"""Discrete-event model of the Menshen datapath.

Builds the element chain of Fig. 5 — ingress filter, parallel parsers,
match-action stages, parallel deparsers — as servers with the *same*
service intervals as the analytic model (:mod:`~repro.sim.perf_model`),
then pushes individually-simulated packets through. Used to
cross-validate the analytic bottleneck analysis: for deterministic
service times the two must agree, and tests assert they do.

Times are in clock cycles (floats).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .kernel import Simulator
from .perf_model import L1_OVERHEAD_BYTES, PlatformSpec


class _Server:
    """A work-conserving deterministic server; forwards on completion."""

    def __init__(self, sim: Simulator, service_cycles: float):
        self.sim = sim
        self.service = service_cycles
        self.busy_until = 0.0
        self.downstream = None  # set by the builder

    def arrive(self, packet_id: int) -> None:
        start = max(self.sim.now, self.busy_until)
        self.busy_until = start + self.service
        self.sim.schedule_at(self.busy_until, self._complete, packet_id)

    def _complete(self, packet_id: int) -> None:
        if self.downstream is not None:
            self.downstream(packet_id)


class _RoundRobin:
    """Round-robin dispatcher over parallel server instances (§3.2)."""

    def __init__(self, servers: List[_Server]):
        self.servers = servers
        self._next = 0

    def __call__(self, packet_id: int) -> None:
        self.servers[self._next].arrive(packet_id)
        self._next = (self._next + 1) % len(self.servers)


@dataclass
class DesResult:
    """Measured steady-state output of the DES run."""

    packets: int
    first_out_cycle: float
    last_out_cycle: float
    clock_hz: float
    size: int

    @property
    def interdeparture_cycles(self) -> float:
        if self.packets < 2:
            return 0.0
        return (self.last_out_cycle - self.first_out_cycle) / (self.packets - 1)

    @property
    def pps(self) -> float:
        if self.interdeparture_cycles <= 0:
            return 0.0
        return self.clock_hz / self.interdeparture_cycles

    @property
    def l1_gbps(self) -> float:
        return self.pps * (self.size + L1_OVERHEAD_BYTES) * 8 / 1e9

    @property
    def l2_gbps(self) -> float:
        return self.pps * self.size * 8 / 1e9


class PipelineDes:
    """The datapath as a DES, parameterized like the analytic model."""

    def __init__(self, spec: PlatformSpec, num_stages: int = 5):
        self.spec = spec
        self.num_stages = num_stages

    def run(self, size: int, packets: int = 200,
            warmup: int = 20) -> DesResult:
        """Saturate the pipeline with ``packets`` of ``size`` bytes.

        The source enqueues everything at time 0 (back-to-back arrivals),
        so the measured inter-departure gap is the bottleneck initiation
        interval. ``warmup`` leading departures are discarded.
        """
        sim = Simulator()
        spec = self.spec
        departures: List[float] = []

        def sink(packet_id: int) -> None:
            departures.append(sim.now)

        deparsers = [_Server(sim, spec.deparser_ii(size)
                             * spec.num_deparsers)
                     for _ in range(spec.num_deparsers)]
        for server in deparsers:
            server.downstream = sink
        deparser_dispatch = _RoundRobin(deparsers)

        stages: List[_Server] = []
        for i in range(self.num_stages):
            stages.append(_Server(sim, spec.stage_ii(size)))
        for i, stage in enumerate(stages[:-1]):
            stage.downstream = stages[i + 1].arrive
        stages[-1].downstream = deparser_dispatch

        parsers = [_Server(sim, spec.parser_ii(size) * spec.num_parsers)
                   for _ in range(spec.num_parsers)]
        for server in parsers:
            server.downstream = stages[0].arrive
        parser_dispatch = _RoundRobin(parsers)

        ingress = _Server(sim, spec.ingress_ii(size))
        ingress.downstream = parser_dispatch

        for packet_id in range(packets):
            ingress.arrive(packet_id)
        sim.run()

        measured = departures[warmup:]
        if not measured:
            measured = departures
        return DesResult(packets=len(measured),
                         first_out_cycle=measured[0],
                         last_out_cycle=measured[-1],
                         clock_hz=spec.clock_hz, size=size)
