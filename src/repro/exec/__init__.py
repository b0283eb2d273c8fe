"""``repro.exec`` — the unified execution core.

One :class:`ExecutionCore` owns the engine-drain / departure-routing
loop both fabric serving frontends share, under one of two timing
policies: untimed multi-hop waves
(:func:`repro.fabric.forwarding.process_batch`) and exact event-driven
service where a :class:`repro.sim.kernel.Simulator`'s event list is the
only clock
(:class:`repro.sim.fabric_timeline.FabricTimelineExperiment`). The core
runs in one process over a fabric's members; frontends are result
shaping over an :class:`ExecutionSink`.

:class:`~repro.exec.records.LostRecord` is the shared typed currency
for link-down losses, so the untimed and timed paths report dropped
traffic in one comparable shape.
"""

from .core import ExecutionCore, ExecutionSink, vid_of
from .records import LostRecord, summarize_lost

__all__ = [
    "ExecutionCore",
    "ExecutionSink",
    "vid_of",
    "LostRecord",
    "summarize_lost",
]
