"""Pipeline statistics: per-module counters and system-level telemetry.

The system-level module (§3.3) exposes "common and useful real-time
statistics (e.g., link utilization, queue length)" to tenant modules;
this class is where those numbers live in the simulation. The static
checker forbids modules from *writing* them (§3.4) — in the model they
are simply not reachable from the data path.

``PipelineStats`` is a dataclass on purpose: every aggregation over
it — fabric-wide sums (:meth:`merge_from`, behind
:meth:`repro.fabric.topology.Fabric.stats`) and deltas since a
snapshot (:meth:`delta_since`; ``perf/workloads.py`` accounts each
benchmark pass with :class:`~repro.engine.batch.EngineCounters`' use
of the same helper) — is **introspected from the dataclass fields**
by the generic helpers below, so adding a counter can never silently
drop it from a merge. A field whose type the helpers cannot merge
raises ``TypeError`` at merge time instead of being skipped
(``tests/test_stats_and_tm.py::TestCounterAlgebra`` locks this in).
"""

from __future__ import annotations

import copy
import dataclasses
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable


def _int_dict() -> Dict:
    return defaultdict(int)


# -- generic, introspected counter algebra -----------------------------------
#
# Shared by ``PipelineStats`` and ``repro.engine.batch.EngineCounters``:
# any counter dataclass whose fields are numbers, dicts of numbers, or
# dicts of further counter dataclasses can be merged (add) and diffed
# (delta since a snapshot) without enumerating a single field by hand.


def _unmergeable(obj, name: str) -> TypeError:
    return TypeError(
        f"counter field {type(obj).__name__}.{name} holds "
        f"{type(getattr(obj, name)).__name__}, which the introspected "
        f"counter algebra cannot merge — extend repro.core.stats or "
        f"use a number / dict-of-numbers / dict-of-counter-dataclass")


def merge_counters(dst, src) -> None:
    """Add ``src``'s counters into ``dst``, field by introspected field.

    Numbers add; dict values add per key (nested counter dataclasses
    recurse, created on first sight). Unknown field types raise —
    never skip — so a newly added counter cannot be dropped silently.
    """
    for f in dataclasses.fields(src):
        value = getattr(src, f.name)
        if isinstance(value, bool) or not isinstance(
                value, (int, float, dict)):
            raise _unmergeable(src, f.name)
        if isinstance(value, dict):
            mine = getattr(dst, f.name)
            for key, item in value.items():
                if dataclasses.is_dataclass(item):
                    into = mine.get(key)
                    if into is None:
                        into = mine[key] = type(item)()
                    merge_counters(into, item)
                elif isinstance(item, bool) or not isinstance(
                        item, (int, float)):
                    raise _unmergeable(src, f.name)
                else:
                    mine[key] = mine.get(key, 0) + item
        else:
            setattr(dst, f.name, getattr(dst, f.name) + value)


def diff_counters(current, baseline):
    """A fresh instance holding ``current - baseline`` per field.

    What one interval added to a live counter object: snapshot it,
    run, diff (``perf/workloads.py`` accounts each benchmark pass's
    engine counters this way). Keys present in ``current`` stay
    present (even at delta 0), so :func:`merge_counters` of the deltas
    rebuilds exactly the key set of the live object.
    """
    out = type(current)()
    for f in dataclasses.fields(current):
        value = getattr(current, f.name)
        if isinstance(value, bool) or not isinstance(
                value, (int, float, dict)):
            raise _unmergeable(current, f.name)
        if isinstance(value, dict):
            base = getattr(baseline, f.name)
            mine = getattr(out, f.name)
            for key, item in value.items():
                if dataclasses.is_dataclass(item):
                    mine[key] = diff_counters(
                        item, base.get(key, type(item)()))
                elif isinstance(item, bool) or not isinstance(
                        item, (int, float)):
                    raise _unmergeable(current, f.name)
                else:
                    mine[key] = item - base.get(key, 0)
        else:
            setattr(out, f.name, value - getattr(baseline, f.name))
    return out


@dataclass
class PipelineStats:
    """Counters for a Menshen pipeline."""

    packets_in: int = 0
    packets_out: int = 0
    packets_dropped: int = 0
    reconfig_packets: int = 0
    per_module_in: Dict[int, int] = field(default_factory=_int_dict)
    per_module_out: Dict[int, int] = field(default_factory=_int_dict)
    per_module_dropped: Dict[int, int] = field(default_factory=_int_dict)
    per_module_bytes_out: Dict[int, int] = field(default_factory=_int_dict)
    drop_reasons: Dict[str, int] = field(default_factory=_int_dict)
    #: Egress-scheduler telemetry (fed by
    #: :class:`repro.engine.scheduler.EgressScheduler` when one is
    #: installed): per-tenant bytes actually transmitted on the
    #: output links, and a live queue-depth gauge — the §3.3
    #: "queue length" statistic, now per tenant.
    egress_bytes_tx: Dict[int, int] = field(default_factory=_int_dict)
    egress_queue_depth: Dict[int, int] = field(default_factory=_int_dict)

    def record_in(self, module_id: int) -> None:
        self.packets_in += 1
        self.per_module_in[module_id] += 1

    def record_out(self, module_id: int, nbytes: int) -> None:
        self.packets_out += 1
        self.per_module_out[module_id] += 1
        self.per_module_bytes_out[module_id] += nbytes

    def record_drop(self, module_id: int, reason: str) -> None:
        self.packets_dropped += 1
        self.per_module_dropped[module_id] += 1
        self.drop_reasons[reason] += 1

    def record_reconfig(self) -> None:
        self.reconfig_packets += 1

    def record_egress_tx(self, module_id: int, nbytes: int) -> None:
        """One packet of ``module_id`` left an output link."""
        self.egress_bytes_tx[module_id] += nbytes

    def set_egress_depth(self, module_id: int, depth: int) -> None:
        """Update the per-tenant egress queue-depth gauge."""
        self.egress_queue_depth[module_id] = depth

    def link_utilization(self, module_id: int, elapsed_s: float,
                         link_bps: float) -> float:
        """Fraction of ``link_bps`` used by the module's output bytes."""
        if elapsed_s <= 0 or link_bps <= 0:
            return 0.0
        return (self.per_module_bytes_out[module_id] * 8
                / elapsed_s / link_bps)

    def summary(self) -> Dict[str, int]:
        return {
            "packets_in": self.packets_in,
            "packets_out": self.packets_out,
            "packets_dropped": self.packets_dropped,
            "reconfig_packets": self.reconfig_packets,
        }

    def merge_from(self, other: "PipelineStats") -> None:
        """Accumulate another pipeline's counters into this one.

        Used by the fabric layer to present fabric-wide per-tenant
        counters. Counters add; the queue-depth gauge also adds (total
        packets of the tenant queued anywhere in the fabric).
        Introspected from the dataclass fields — a new counter is
        merged automatically or raises, never skipped."""
        merge_counters(self, other)

    def snapshot(self) -> "PipelineStats":
        """An independent deep copy (a baseline for
        :meth:`delta_since`)."""
        return copy.deepcopy(self)

    def delta_since(self, baseline: "PipelineStats") -> "PipelineStats":
        """A fresh ``PipelineStats`` holding ``self - baseline`` — what
        the interval since the snapshot added."""
        return diff_counters(self, baseline)

    @classmethod
    def aggregate(cls, many: Iterable["PipelineStats"]) -> "PipelineStats":
        """A fresh ``PipelineStats`` holding the sum of ``many``.

        The fabric-wide statistics surface: aggregating every member
        switch's stats yields per-tenant counters for the whole fabric
        (a packet that crosses three switches counts three times in
        ``packets_in`` — per-hop semantics, like SNMP interface
        counters)."""
        total = cls()
        for stats in many:
            total.merge_from(stats)
        return total
