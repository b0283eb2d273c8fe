"""Performance modeling: throughput, latency, and timed experiments.

Functional correctness lives in ``repro.core``; this package answers the
*performance* questions of §5.2 with two complementary tools:

* an **analytic bottleneck model** (:mod:`~repro.sim.perf_model`) of the
  pipeline's service rates per element, parameterized by platform
  (NetFPGA / Corundum) and the §3.2 optimizations (2 parsers, 4
  deparsers, deep pipelining), regenerating Fig. 11a-d;
* a **discrete-event simulator** (:mod:`~repro.sim.kernel`,
  :mod:`~repro.sim.elements`) that executes the same service times at
  packet granularity — used to cross-validate the analytic model;
* a **latency model** (:mod:`~repro.sim.latency`) calibrated to the
  paper's published cycle counts;
* a **fabric timeline** (:mod:`~repro.sim.fabric_timeline`) that
  replays a :class:`repro.traffic.TrafficMatrix` through a
  :class:`repro.fabric.Fabric` on the event kernel, measuring
  end-to-end per-tenant latency and throughput under cross-switch
  contention — and, on a one-switch fabric, the Fig. 10 disruption
  experiment.
"""

from .kernel import Simulator
from .elements import PipelineDes, DesResult
from .perf_model import (
    PlatformSpec,
    NETFPGA_OPTIMIZED,
    CORUNDUM_OPTIMIZED,
    CORUNDUM_UNOPTIMIZED,
    ThroughputPoint,
    throughput_at,
    throughput_sweep,
)
from .latency import LatencyModel, NETFPGA_LATENCY, CORUNDUM_LATENCY
from .fabric_timeline import (
    FabricReconfigEvent,
    FabricTimelineExperiment,
    FabricTimelineResult,
)

__all__ = [
    "Simulator",
    "PipelineDes",
    "DesResult",
    "PlatformSpec",
    "NETFPGA_OPTIMIZED",
    "CORUNDUM_OPTIMIZED",
    "CORUNDUM_UNOPTIMIZED",
    "ThroughputPoint",
    "throughput_at",
    "throughput_sweep",
    "LatencyModel",
    "NETFPGA_LATENCY",
    "CORUNDUM_LATENCY",
    "FabricReconfigEvent",
    "FabricTimelineExperiment",
    "FabricTimelineResult",
]
