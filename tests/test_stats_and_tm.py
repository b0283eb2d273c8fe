"""Tests for pipeline statistics and traffic-manager telemetry — the
numbers the system-level module exposes to tenants (§3.3)."""

from dataclasses import dataclass, field
from typing import Dict, List

import pytest

from repro.core import PipelineStats
from repro.core.stats import diff_counters, merge_counters
from repro.engine.batch import EngineCounters
from repro.net import PacketBuilder
from repro.rmt import TrafficManager


def pkt(size=100, vid=1):
    return (PacketBuilder().ethernet().vlan(vid=vid).ipv4().udp()
            .payload(b"\x00" * (size - 46)).build())


def _record_out(stats, vid, nbytes):
    """One forwarded packet, booked as ``MenshenPipeline.commit`` does."""
    record = stats.tenant(vid)
    record.packets_out += 1
    record.bytes_out += nbytes


class TestPipelineStats:
    def test_per_module_accounting(self):
        stats = PipelineStats()
        stats.record_in(1)
        stats.record_in(1)
        stats.record_in(2)
        _record_out(stats, 1, 100)
        _record_out(stats, 1, 200)
        stats.record_drop(2, "discard")
        assert stats.per_module_in == {1: 2, 2: 1}
        assert stats.per_module_out[1] == 2
        assert stats.per_module_bytes_out[1] == 300
        assert stats.per_module_dropped[2] == 1
        assert stats.drop_reasons["discard"] == 1

    def test_summary(self):
        stats = PipelineStats()
        stats.record_in(1)
        _record_out(stats, 1, 64)
        stats.record_reconfig()
        assert stats.summary() == {
            "packets_in": 1, "packets_out": 1, "packets_dropped": 0,
            "reconfig_packets": 1}



@dataclass
class _ExtendedStats(PipelineStats):
    """PipelineStats plus a counter the merge code has never seen."""

    brand_new_counter: int = 0
    brand_new_map: Dict[str, int] = field(default_factory=dict)


@dataclass
class _BadStats(PipelineStats):
    """A field type the introspected algebra must refuse to merge."""

    history: List[int] = field(default_factory=list)


class TestCounterAlgebra:
    def test_merge_covers_every_field_without_enumeration(self):
        """A counter added to the dataclass merges with zero changes to
        the merge code — the introspection satellite's contract."""
        src = _ExtendedStats()
        src.record_in(7)
        _record_out(src, 7, 128)
        src.record_drop(7, "window")
        src.tenant(7).transmitted_bytes += 64
        src.brand_new_counter = 5
        src.brand_new_map["x"] = 3
        dst = _ExtendedStats()
        dst.merge_from(src)
        dst.merge_from(src)
        assert dst.packets_in == 2
        assert dst.per_module_bytes_out[7] == 256
        assert dst.drop_reasons["window"] == 2
        assert dst.brand_new_counter == 10
        assert dst.brand_new_map == {"x": 6}

    def test_unmergeable_field_raises_instead_of_skipping(self):
        with pytest.raises(TypeError, match="history"):
            merge_counters(_BadStats(), _BadStats())
        with pytest.raises(TypeError, match="history"):
            diff_counters(_BadStats(), _BadStats())

    def test_delta_since_keeps_zero_delta_keys(self):
        """A delta keeps keys at delta 0, so merging deltas rebuilds
        exactly the live object's key set."""
        stats = PipelineStats()
        stats.record_in(3)
        baseline = stats.snapshot()
        stats.record_in(5)
        delta = stats.delta_since(baseline)
        assert delta.per_module_in == {3: 0, 5: 1}

    def test_engine_counters_share_the_algebra(self):
        """EngineCounters' nested per-tenant dataclasses merge and diff
        through the same introspected helpers."""
        src = EngineCounters()
        src.cache_hits += 1
        src.tenant(1).cache_hits += 1
        src.classifier_fallbacks["stateful"] = 2
        baseline = src.snapshot()
        src.cache_hits += 1
        src.tenant(2).cache_hits += 1
        delta = src.delta_since(baseline)
        assert delta.cache_hits == 1
        assert delta.per_tenant[1].cache_hits == 0
        assert delta.per_tenant[2].cache_hits == 1
        assert delta.classifier_fallbacks == {"stateful": 0}
        dst = EngineCounters()
        dst.merge_from(delta)
        assert dst.per_tenant[2].cache_hits == 1
        assert dst.per_tenant[1].cache_hits == 0


class TestTrafficManagerTelemetry:
    def test_bytes_out_counts_at_dequeue(self):
        # "Transmitted bytes" means transmitted: packets still queued
        # must not show up in the §3.3 real-time statistics.
        tm = TrafficManager(num_ports=2)
        tm.enqueue(pkt(100), 0)
        tm.enqueue(pkt(200), 0)
        tm.enqueue(pkt(300), 1)
        assert tm.bytes_out == [0, 0]
        tm.dequeue(0)
        assert tm.bytes_out == [100, 0]
        tm.drain(0)
        tm.drain(1)
        assert tm.bytes_out == [300, 300]

    def test_dropped_packet_never_counts_as_transmitted(self):
        tm = TrafficManager(num_ports=1, queue_capacity=1)
        tm.enqueue(pkt(100), 0)
        assert tm.enqueue(pkt(200), 0) == 0   # over capacity: dropped
        assert tm.dropped == 1
        tm.drain(0)
        assert tm.bytes_out[0] == 100

    def test_queue_length_visible(self):
        # The "queue length" statistic tenants can read (§3.3).
        tm = TrafficManager(num_ports=1)
        for _ in range(5):
            tm.enqueue(pkt(), 0)
        assert tm.queue_len(0) == 5
        tm.dequeue(0)
        assert tm.queue_len(0) == 4
        assert tm.total_queued() == 4

    def test_enqueue_dequeue_counters(self):
        tm = TrafficManager(num_ports=1)
        tm.enqueue(pkt(), 0)
        tm.enqueue(pkt(), 0)
        tm.dequeue(0)
        assert tm.enqueued == 2
        assert tm.dequeued == 1

    def test_mcast_ports_listing(self):
        tm = TrafficManager(num_ports=4)
        tm.set_mcast_group(3, [0, 2])
        assert tm.mcast_ports(3) == [0, 2]
        assert tm.mcast_ports(99) == []
