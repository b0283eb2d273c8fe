"""Pipeline statistics: one counter record per tenant, totals summed.

The system-level module (§3.3) exposes "common and useful real-time
statistics (e.g., link utilization, queue length)" to tenant modules;
this class is where those numbers live in the simulation. The static
checker forbids modules from *writing* them (§3.4) — in the model they
are simply not reachable from the data path.

A switch keeps every per-packet count in one slotted
:class:`TenantRecord` per tenant, and each layer writes its own fields
once per packet: the pipeline, the batched engine and the egress
scheduler. Every total — switch-wide, ``per_module_*``, the egress
gauges, the scheduler's and the engine's — is a sum over the records,
worked out when read. :meth:`PipelineStats.retire` ends an evicted
tenant's record into ``retired``: totals never go down, and the VID's
next tenant starts from zero.

Sums (:meth:`PipelineStats.merge_from`) and deltas since a snapshot
(:meth:`PipelineStats.delta_since`, and ``perf/workloads.py``'s use of
:class:`~repro.engine.batch.EngineCounters`' twin) are **introspected
from the dataclass fields**: a new counter can never be dropped from
one silently, and a field the helpers cannot merge raises
``TypeError`` (``tests/test_stats_and_tm.py::TestCounterAlgebra``).
"""

from __future__ import annotations

import copy
import dataclasses
from collections import defaultdict, namedtuple
from dataclasses import dataclass, field
from typing import Dict


# -- generic, introspected counter algebra -----------------------------------
#
# Shared by ``PipelineStats`` and ``repro.engine.batch.EngineCounters``:
# fields are numbers, nested counter dataclasses, or dicts of numbers or
# of counter dataclasses — nothing is enumerated by hand.


def _number(obj, name: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(
            f"counter field {type(obj).__name__}.{name} holds "
            f"{type(getattr(obj, name)).__name__}, which the introspected "
            f"counter algebra cannot merge — extend repro.core.stats or "
            f"use a number / dict-of-numbers / dict-of-counter-dataclass")
    return value


def _fold(dst, src, sign: int, grow: bool) -> None:
    """``dst += sign * src``, field by introspected field; dict keys
    missing from ``dst`` are created at zero when ``grow``, else
    skipped. Unknown field types raise — never skip."""
    for f in dataclasses.fields(src):
        value = getattr(src, f.name)
        if dataclasses.is_dataclass(value):
            _fold(getattr(dst, f.name), value, sign, grow)
        elif isinstance(value, dict):
            mine = getattr(dst, f.name)
            for key, item in value.items():
                if key not in mine:
                    if not grow:
                        continue
                    mine[key] = type(item)()
                if dataclasses.is_dataclass(item):
                    _fold(mine[key], item, sign, grow)
                else:
                    mine[key] += sign * _number(src, f.name, item)
        else:
            setattr(dst, f.name, getattr(dst, f.name)
                    + sign * _number(src, f.name, value))


def merge_counters(dst, src) -> None:
    """Add ``src``'s counters into ``dst`` (dict keys created on first
    sight)."""
    _fold(dst, src, 1, grow=True)


def diff_counters(current, baseline):
    """A fresh instance holding ``current - baseline`` per field.

    What one interval added to a live counter object: snapshot it,
    run, diff (``perf/workloads.py`` accounts each benchmark pass's
    engine counters this way). Exactly the keys of ``current`` are
    present (even at delta 0), so :func:`merge_counters` of the deltas
    rebuilds the key set of the live object.
    """
    out = copy.deepcopy(current)
    _fold(out, baseline, -1, grow=False)
    return out


@dataclass(slots=True)
class TenantRecord:
    """Every per-packet count one switch keeps for one tenant. A record
    is always truthy: ``tenants.get(vid) or stats.tenant(vid)`` is the
    hot paths' get-or-create."""

    # written by the pipeline
    packets_in: int = 0
    packets_out: int = 0
    packets_dropped: int = 0
    bytes_out: int = 0
    # by the engine: the hot-path level that served each packet
    cache_hits: int = 0
    compiled_hits: int = 0
    cache_misses: int = 0
    compile_rebuilds: int = 0
    # by the egress scheduler; ``dropped``: refused by its queues,
    # ``queue_depth``: the live §3.3 queue-length gauge
    enqueued: int = 0
    transmitted: int = 0
    transmitted_bytes: int = 0
    dropped: int = 0
    throttled_waits: int = 0
    queue_depth: int = 0

    def snapshot(self) -> "TenantSnapshot":
        """A frozen copy: what a reader outside the data path gets."""
        return TenantSnapshot(*dataclasses.astuple(self))


#: A frozen copy of a :class:`TenantRecord`, field for field: assigning
#: to one raises, so a reader can never write the books.
TenantSnapshot = namedtuple(
    "TenantSnapshot", [f.name for f in dataclasses.fields(TenantRecord)])


@dataclass
class PipelineStats:
    """Counters for a Menshen pipeline: a record per tenant, plus the
    switch-wide events no tenant owns."""

    reconfig_packets: int = 0
    drop_reasons: Dict[str, int] = field(
        default_factory=lambda: defaultdict(int))
    #: vid -> that tenant's record (created by its first count).
    tenants: Dict[int, TenantRecord] = field(default_factory=dict)
    #: The sum of every record :meth:`retire` ended.
    retired: TenantRecord = field(default_factory=TenantRecord)

    # sums over the records, worked out when read
    packets_in = property(lambda self: self.total("packets_in"))
    packets_out = property(lambda self: self.total("packets_out"))
    packets_dropped = property(lambda self: self.total("packets_dropped"))
    per_module_in = property(lambda self: self.per_tenant("packets_in"))
    per_module_out = property(lambda self: self.per_tenant("packets_out"))
    per_module_dropped = property(
        lambda self: self.per_tenant("packets_dropped"))
    per_module_bytes_out = property(
        lambda self: self.per_tenant("bytes_out"))
    egress_bytes_tx = property(
        lambda self: self.per_tenant("transmitted_bytes"))
    egress_queue_depth = property(lambda self: self.per_tenant("queue_depth"))

    def tenant(self, vid: int) -> TenantRecord:
        """One tenant's record (created at zero on first use)."""
        record = self.tenants.get(vid)
        if record is None:
            record = self.tenants[vid] = TenantRecord()
        return record

    def retire(self, vid: int) -> None:
        """End one tenant's record: its counts move into ``retired``
        (totals keep them) and the VID's next record starts from 0."""
        record = self.tenants.pop(vid, None)
        if record is not None:
            merge_counters(self.retired, record)

    def total(self, name: str) -> int:
        """One record field summed over every tenant, retired ones too."""
        total = getattr(self.retired, name)
        for record in self.tenants.values():
            total += getattr(record, name)
        return total

    def per_tenant(self, name: str) -> Dict[int, int]:
        """vid -> one record field, for every live record (a fresh
        dict; a missing VID reads 0)."""
        return defaultdict(int, {vid: getattr(record, name)
                                 for vid, record in self.tenants.items()})

    def record_in(self, module_id: int) -> None:
        record = self.tenants.get(module_id) or self.tenant(module_id)
        record.packets_in += 1

    def record_drop(self, module_id: int, reason: str) -> None:
        self.tenant(module_id).packets_dropped += 1
        self.drop_reasons[reason] += 1

    def record_reconfig(self) -> None:
        self.reconfig_packets += 1

    def summary(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in (
            "packets_in", "packets_out", "packets_dropped",
            "reconfig_packets")}

    def merge_from(self, other: "PipelineStats") -> None:
        """Accumulate another pipeline's counters into this one."""
        merge_counters(self, other)

    def snapshot(self) -> "PipelineStats":
        """An independent deep copy (a baseline for
        :meth:`delta_since`)."""
        return copy.deepcopy(self)

    def delta_since(self, baseline: "PipelineStats") -> "PipelineStats":
        """A fresh ``PipelineStats`` holding ``self - baseline`` — what
        the interval since the snapshot added."""
        return diff_counters(self, baseline)
