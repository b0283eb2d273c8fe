"""``repro.exec`` — the unified execution core.

One :class:`ExecutionCore` owns the engine-drain / departure-routing
loop both fabric serving frontends share, under one of two timing
policies: untimed multi-hop waves
(:func:`repro.fabric.forwarding.process_batch`) and exact event-driven
service where a :class:`repro.sim.kernel.Simulator`'s event list is the
only clock
(:class:`repro.sim.fabric_timeline.FabricTimelineExperiment`). The core
is parameterized by topology (a fabric's members, or a worker's shard
of them); frontends are result shaping over an :class:`ExecutionSink`.

:class:`~repro.exec.records.LostRecord` is the shared typed currency
for link-down losses, so the untimed and timed paths report dropped
traffic in one comparable shape.

:mod:`repro.exec.parallel` shards the event-driven policy across worker
processes — one worker per switch, conservative time-sync — selected at
one call site, ``FabricTimelineExperiment(backend="process")``.
"""

from .core import ExecutionCore, ExecutionSink, vid_of
from .parallel import (
    EXEC_BACKENDS,
    FabricOp,
    LinkStateOp,
    TenantUpdateOp,
    resolve_backend,
)
from .records import LostRecord, summarize_lost

__all__ = [
    "ExecutionCore",
    "ExecutionSink",
    "vid_of",
    "LostRecord",
    "summarize_lost",
    "EXEC_BACKENDS",
    "FabricOp",
    "TenantUpdateOp",
    "LinkStateOp",
    "resolve_backend",
]
