"""``repro.exec`` — the execution core.

One :class:`ExecutionCore` owns the engine-drain / departure-routing
loop of a fabric run, with one timing policy: a
:class:`repro.sim.kernel.Simulator`'s event list is the only clock
(:class:`repro.sim.fabric_timeline.FabricTimelineExperiment` drives
it). The core runs in one process over a fabric's members; frontends
are result shaping over an :class:`ExecutionSink`.

:class:`~repro.exec.records.LostRecord` is the typed currency for lost
traffic: which tenant lost how many packets on which link.
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
