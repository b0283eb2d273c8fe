"""Egress scheduling: weighted-fair bandwidth isolation on the serving
path (§3.5), rate limiting, and the facade / fabric-timeline wiring.

Covers the :class:`repro.engine.scheduler.EgressScheduler` subsystem
end-to-end — PIFO/STFQ fairness, token-bucket rate caps, per-tenant
order preservation, the real-time statistics feed, `Tenant.set_weight`
/ `Tenant.set_rate_limit`, and departure latencies through the fabric
timeline — plus the PIFO-layer edges the scheduler depends on.
"""

import random
from itertools import count

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api import Switch, Tenant
from repro.core import PipelineStats
from repro.engine import EgressScheduler, TokenBucket
from repro.errors import ConfigError
from repro.fabric import Fabric
from repro.modules import calc, multicast
from repro.net import PacketBuilder
from repro.net.packet import Packet
from repro.sim import FabricTimelineExperiment
from repro.traffic import TrafficMatrix, workload
from seeds import rng as make_rng


def pkt(size=200, vid=1):
    return (PacketBuilder().ethernet().vlan(vid=vid).ipv4().udp()
            .payload(b"\x00" * (size - 46)).build())


def vid_of(packet):
    return packet.read_int(14, 2) & 0xFFF


class TestTokenBucket:
    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(1000.0, burst_bytes=500.0)
        bucket.consume(500, 0.0)
        bucket.refill(10.0)  # 10 s x 1000 B/s >> burst
        assert bucket.tokens == 500.0

    def test_eligible_at_future_deficit(self):
        bucket = TokenBucket(100.0, burst_bytes=100.0)
        bucket.consume(100, 0.0)
        # 50 bytes short -> eligible 0.5 s later at 100 B/s.
        assert bucket.eligible_at(50, 0.0) == pytest.approx(0.5)
        assert bucket.eligible_at(50, 1.0) == pytest.approx(1.0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            TokenBucket(0.0)
        with pytest.raises(ConfigError):
            TokenBucket(100.0, burst_bytes=-1.0)


class TestEgressSchedulerFairness:
    def test_weighted_fair_sharing_under_backlog(self):
        sched = EgressScheduler(num_ports=1,
                                weights={1: 5.0, 2: 3.0, 3: 2.0})
        for _ in range(300):
            for vid in (1, 2, 3):
                sched.enqueue(pkt(200, vid), 0, module_id=vid)
        served = sched.drain_bytes(0, budget_bytes=200 * 100)
        total = sum(served.values())
        assert served[1] / total == pytest.approx(0.5, abs=0.05)
        assert served[2] / total == pytest.approx(0.3, abs=0.05)
        assert served[3] / total == pytest.approx(0.2, abs=0.05)

    def test_bursty_elephant_cannot_starve_mouse(self):
        # The bug this subsystem fixes: an elephant's backlog used to
        # drain first out of the per-port FIFO (see the FIFO-contrast
        # test in test_pifo_cuckoo.py).
        sched = EgressScheduler(num_ports=1)
        for _ in range(500):
            sched.enqueue(pkt(200, 9), 0, module_id=9)
        for _ in range(50):
            sched.enqueue(pkt(200, 1), 0, module_id=1)
        served = sched.drain_bytes(0, budget_bytes=200 * 80)
        assert served.get(1, 0) >= 200 * 35

    def test_per_tenant_order_never_disturbed(self):
        # Random interleave, random sizes: across tenants the scheduler
        # may reorder, within one tenant never.
        rng = make_rng(7)
        sched = EgressScheduler(num_ports=1, weights={1: 4.0, 2: 1.0})
        sent = {1: [], 2: []}
        for _ in range(400):
            vid = rng.choice((1, 1, 1, 2))
            p = pkt(rng.choice((100, 200, 400, 1500)), vid)
            sent[vid].append(p.tobytes())
            sched.enqueue(p, 0, module_id=vid)
        drained = sched.drain(0)
        got = {1: [], 2: []}
        for p in drained:
            got[vid_of(p)].append(p.tobytes())
        assert got == sent

    def test_weight_change_applies_to_new_packets(self):
        sched = EgressScheduler(num_ports=1)
        sched.set_weight(1, 9.0)
        sched.set_weight(2, 1.0)
        for _ in range(200):
            sched.enqueue(pkt(200, 1), 0, module_id=1)
            sched.enqueue(pkt(200, 2), 0, module_id=2)
        served = sched.drain_bytes(0, budget_bytes=200 * 100)
        assert served[1] / (served[1] + served[2]) \
            == pytest.approx(0.9, abs=0.05)

    def test_bad_weight_rejected(self):
        sched = EgressScheduler()
        with pytest.raises(ConfigError):
            sched.set_weight(1, 0.0)

    def test_port_bounds(self):
        sched = EgressScheduler(num_ports=1)
        with pytest.raises(ConfigError):
            sched.enqueue(pkt(), 1, module_id=1)
        with pytest.raises(ConfigError):
            sched.dequeue(5)


class TestEgressSchedulerTelemetry:
    def test_bytes_out_counts_at_dequeue(self):
        sched = EgressScheduler(num_ports=2)
        sched.enqueue(pkt(100, 1), 0, module_id=1)
        sched.enqueue(pkt(300, 2), 1, module_id=2)
        assert sched.bytes_out == [0, 0]
        sched.drain_all()
        assert sched.bytes_out == [100, 300]

    def test_capacity_drops_per_tenant(self):
        sched = EgressScheduler(num_ports=1, queue_capacity=2)
        assert sched.enqueue(pkt(100, 1), 0, module_id=1) == 1
        assert sched.enqueue(pkt(100, 2), 0, module_id=2) == 1
        assert sched.enqueue(pkt(100, 2), 0, module_id=2) == 0
        assert sched.dropped == 1
        assert sched.tenant(2).dropped == 1
        assert sched.tenant(1).dropped == 0

    def test_queue_depth_and_transmitted_bytes(self):
        sched = EgressScheduler(num_ports=2)
        for _ in range(3):
            sched.enqueue(pkt(100, 7), 0, module_id=7)
        sched.enqueue(pkt(100, 7), 1, module_id=7)
        assert sched.queue_depth(7) == 4
        sched.dequeue(0)
        assert sched.queue_depth(7) == 3
        assert sched.transmitted_bytes(7) == 100

    def test_feeds_pipeline_stats(self):
        stats = PipelineStats()
        sched = EgressScheduler(num_ports=1, stats=stats)
        sched.enqueue(pkt(150, 3), 0, module_id=3)
        sched.enqueue(pkt(150, 3), 0, module_id=3)
        assert stats.egress_queue_depth[3] == 2
        assert stats.egress_bytes_tx.get(3, 0) == 0
        sched.dequeue(0)
        assert stats.egress_queue_depth[3] == 1
        assert stats.egress_bytes_tx[3] == 150

    def test_mcast_replication_and_unknown_group(self):
        sched = EgressScheduler(num_ports=4)
        sched.set_mcast_group(5, [0, 2])
        assert sched.enqueue(pkt(100, 1), 0, mcast_group=5,
                             module_id=1) == 2
        assert sched.queue_len(0) == 1 and sched.queue_len(2) == 1
        assert sched.enqueue(pkt(100, 1), 0, mcast_group=9,
                             module_id=1) == 0
        assert sched.dropped == 1
        assert sched.mcast_ports(5) == [0, 2]


class TestRateLimiting:
    def test_rate_cap_holds_over_time(self):
        # 10 Mbit/s link; tenant 1 capped at 125 kB/s (1 Mbit/s).
        sched = EgressScheduler(num_ports=1, line_rate_bps=10e6)
        sched.set_rate_limit(1, 125_000.0, burst_bytes=1500.0)
        for _ in range(2000):
            sched.enqueue(pkt(1000, 1), 0, module_id=1)
        horizon = 4.0
        departures = sched.advance_to(horizon)
        served = sum(len(d.packet) for d in departures)
        # burst + rate x horizon, within one packet of slack
        assert served <= 1500 + 125_000 * horizon + 1000
        assert served >= 125_000 * horizon * 0.9

    def test_throttled_tenant_is_overtaken_not_blocking(self):
        sched = EgressScheduler(num_ports=1, line_rate_bps=10e6)
        sched.set_rate_limit(1, 1000.0, burst_bytes=1000.0)
        for _ in range(10):
            sched.enqueue(pkt(1000, 1), 0, module_id=1)
            sched.enqueue(pkt(1000, 2), 0, module_id=2)
        # Tenant 1 can emit exactly one packet (its burst); tenant 2 is
        # unlimited and must not wait behind tenant 1's backlog.
        departures = sched.advance_to(0.01)
        by_vid = {}
        for d in departures:
            by_vid[d.module_id] = by_vid.get(d.module_id, 0) + 1
        assert by_vid[2] == 10
        assert by_vid.get(1, 0) == 1
        # throttled_waits counts *packets* delayed by the rate limiter,
        # not scheduler scans: exactly one head packet waited here.
        assert sched.tenant(1).throttled_waits == 1

    def test_unlimited_share_goes_to_uncapped_tenant(self):
        # Elephant capped at 10% of the link; mouse takes the rest.
        line = 8e6  # 1 MB/s
        sched = EgressScheduler(num_ports=1, line_rate_bps=line)
        sched.set_rate_limit(1, 100_000.0, burst_bytes=1500.0)
        for _ in range(3000):
            sched.enqueue(pkt(1000, 1), 0, module_id=1)
            sched.enqueue(pkt(1000, 2), 0, module_id=2)
        sched.advance_to(2.0)
        tx1 = sched.transmitted_bytes(1)
        tx2 = sched.transmitted_bytes(2)
        assert tx1 <= 1500 + 100_000 * 2.0 + 1000
        assert tx2 >= 0.8 * (2.0 * line / 8 - tx1)

    def test_drain_idles_clock_when_everyone_throttled(self):
        sched = EgressScheduler(num_ports=1)
        sched.set_rate_limit(1, 1000.0, burst_bytes=1000.0)
        for _ in range(3):
            sched.enqueue(pkt(1000, 1), 0, module_id=1)
        drained = sched.drain(0)
        assert len(drained) == 3  # rate caps delay, never drop
        # Two extra packets had to wait one refill-second each.
        assert sched.clock == pytest.approx(2.0)

    def test_clear_rate_limit(self):
        sched = EgressScheduler(num_ports=1)
        sched.set_rate_limit(1, 1000.0)
        assert sched.rate_limit_of(1) == 1000.0
        sched.clear_rate_limit(1)
        assert sched.rate_limit_of(1) is None

    def test_invalid_line_rate_rejected(self):
        with pytest.raises(ConfigError):
            EgressScheduler(line_rate_bps=0.0)

    def test_ports_transmit_in_parallel(self):
        # Output links are independent: a backlog on port 0 must not
        # delay (or rate-share with) departures on port 1.
        sched = EgressScheduler(num_ports=2, line_rate_bps=8e6)  # 1 MB/s
        for _ in range(10):
            sched.enqueue(pkt(1000, 1), 0, module_id=1)
            sched.enqueue(pkt(1000, 2), 1, module_id=2)
        departures = sched.advance_to(0.0105)  # 10 packet-times + slack
        by_port = {}
        for d in departures:
            by_port[d.port] = by_port.get(d.port, 0) + 1
        assert by_port == {0: 10, 1: 10}
        assert sched.clock_of(0) == pytest.approx(0.0105)
        assert sched.clock_of(1) == pytest.approx(0.0105)
        # Per-port completion times interleave, not serialize.
        first = departures[0]
        assert first.time == pytest.approx(0.001)
        times_p0 = sorted(d.time for d in departures if d.port == 0)
        times_p1 = sorted(d.time for d in departures if d.port == 1)
        assert times_p0 == pytest.approx(times_p1)


class TestFacadeWiring:
    def build(self):
        switch = Switch.build().create()
        spec = workload("firewall")
        t1 = spec.admit(switch, vid=1)
        t2 = spec.admit(switch, vid=2)
        return switch, spec, t1, t2

    def test_fresh_switch_is_born_with_its_scheduler(self):
        switch, *_ = self.build()
        assert isinstance(switch.egress_scheduler, EgressScheduler)
        assert switch.pipeline.traffic_manager is switch.egress_scheduler

    def test_engine_twice_keeps_one_scheduler(self):
        """Every engine of a switch commits into the one scheduler the
        pipeline was built with."""
        switch, spec, t1, t2 = self.build()
        sched = switch.egress_scheduler
        first, second = switch.engine(), switch.engine()
        first.process_batch([spec.flow_packet(1, 1) for _ in range(2)])
        second.process_batch([spec.flow_packet(2, 2) for _ in range(3)])
        assert switch.egress_scheduler is sched
        assert sched.total_queued() == 5
        assert (sched.queue_depth(1), sched.queue_depth(2)) == (2, 3)

    @pytest.mark.parametrize("path", ["scalar", "engine"])
    def test_queue_capacity_set_on_the_scheduler_bounds_both_paths(self,
                                                                   path):
        """A queue bound is set on the scheduler itself, with no engine
        parameter, and holds on the scalar path and under an engine.
        Each packet the full queue refuses is a counted drop in its
        result and in the tenant's counters, not an output."""
        switch, spec, t1, t2 = self.build()
        switch.egress_scheduler.queue_capacity = 2
        batch = [spec.flow_packet(1, 1) for _ in range(5)]
        if path == "scalar":
            results = [switch.process(packet) for packet in batch]
        else:
            engine = switch.engine()
            results = engine.process_batch(batch)
            assert engine.counters.drops == 3
            assert engine.counters.tenant(1).drops == 3
        assert switch.egress_scheduler.total_queued() == 2
        assert switch.egress_scheduler.dropped == 3
        assert t1.scheduler_counters().dropped == 3
        assert [r.dropped for r in results] == [False] * 2 + [True] * 3
        assert {r.drop_reason for r in results[2:]} == {"egress_full"}
        counters = t1.counters()
        assert (counters.packets_out, counters.packets_dropped) == (2, 3)
        assert switch.pipeline.stats.drop_reasons["egress_full"] == 3

    @pytest.mark.parametrize("path", ["scalar", "engine"])
    def test_multicast_that_places_no_copy_is_a_counted_drop(self, path):
        """A multicast packet is forwarded if it places at least one
        copy. One that places none is a dropped result charged to the
        tenant: ``egress_full`` when every port of its group refuses it,
        ``unknown_mcast_group`` when the group has no ports. A partly
        placed group stays forwarded, and the scheduler counts each
        refused copy."""
        switch = Switch.build().create()
        tenant = switch.admit("multicast", multicast.P4_SOURCE, vid=1)
        multicast.install(tenant, groups=[("224.0.0.1", 1),
                                          ("224.0.0.2", 2),
                                          ("224.0.0.3", 3)])
        sched = switch.egress_scheduler
        sched.set_mcast_group(1, [0, 3])
        sched.set_mcast_group(3, [0, 5])     # group 2 is never configured
        sched.queue_capacity = 1
        batch = [multicast.make_packet(1, dst) for dst in (
            "224.0.0.1",       # both copies placed
            "224.0.0.1",       # both ports full: no copy
            "224.0.0.2",       # no ports: no copy
            "224.0.0.3")]      # port 0 full, port 5 free: one copy
        if path == "scalar":
            results = [switch.process(packet) for packet in batch]
        else:
            engine = switch.engine()
            results = engine.process_batch(batch)
            assert engine.counters.drops == 2
            assert engine.counters.tenant(1).drops == 2
        assert [(r.dropped, r.drop_reason, r.mcast_group) for r in results] \
            == [(False, "", 1), (True, "egress_full", 1),
                (True, "unknown_mcast_group", 2), (False, "", 3)]
        assert [sched.queue_len(port) for port in (0, 3, 5)] == [1, 1, 1]
        assert sched.dropped == 4 == tenant.scheduler_counters().dropped
        counters = tenant.counters()
        assert (counters.packets_out, counters.packets_dropped) == (2, 2)
        reasons = switch.pipeline.stats.drop_reasons
        assert (reasons["egress_full"], reasons["unknown_mcast_group"]) \
            == (1, 1)

    def test_fabric_switch_sets_the_host_rate_on_the_built_scheduler(self):
        fabric = Fabric(host_rate_bps=5e9)
        member = fabric.add_switch("sw0")
        assert member.scheduler is member.switch.pipeline.traffic_manager
        assert member.scheduler.line_rate_bps == 5e9

    def test_mcast_group_set_before_engine_is_served(self):
        switch, *_ = self.build()
        switch.egress_scheduler.set_mcast_group(4, [0, 3])
        switch.engine()
        tm = switch.pipeline.traffic_manager
        assert tm.mcast_ports(4) == [0, 3]
        assert tm.enqueue(pkt(vid=1), 0, mcast_group=4, module_id=1) == 2
        assert tm.queue_len(0) == tm.queue_len(3) == 1

    def test_weights_set_before_engine_are_kept(self):
        switch, spec, t1, t2 = self.build()
        t1.set_weight(3.0).set_rate_limit(50_000.0, burst_bytes=2000.0)
        sched = switch.egress_scheduler
        switch.engine()
        # engine() replaces nothing: the pipeline keeps the scheduler it
        # was built with, and its configuration with it.
        assert switch.pipeline.traffic_manager is sched
        assert sched.weight_of(1) == 3.0
        assert sched.rate_limit_of(1) == 50_000.0
        assert sched.weight_of(2) == 1.0

    def test_weight_set_through_an_attached_handle_is_kept(self):
        """``Tenant.attach`` wraps the controller in a throwaway
        ``Switch``; the weight must land on the pipeline's scheduler,
        not on that wrapper."""
        switch, spec, t1, t2 = self.build()
        Tenant.attach(switch.controller, 2).set_weight(4.0)
        switch.engine()
        assert switch.egress_scheduler.weight_of(2) == 4.0

    def test_live_weight_and_rate_updates(self):
        switch, spec, t1, t2 = self.build()
        switch.engine()
        t2.set_weight(7.0)
        t2.set_rate_limit(10_000.0)
        assert switch.egress_scheduler.weight_of(2) == 7.0
        assert switch.egress_scheduler.rate_limit_of(2) == 10_000.0
        t2.clear_rate_limit()
        assert switch.egress_scheduler.rate_limit_of(2) is None

    def test_invalid_weight_and_rate_raise(self):
        """The scheduler's own check is the one check, and a refused
        call leaves the tenant's configuration as it was."""
        switch, spec, t1, t2 = self.build()
        t1.set_weight(2.0).set_rate_limit(1000.0)
        with pytest.raises(ConfigError):
            t1.set_weight(-1.0)
        with pytest.raises(ConfigError):
            t1.set_rate_limit(0.0)
        with pytest.raises(ConfigError):
            t1.set_rate_limit(5000.0, burst_bytes=-1.0)
        assert switch.egress_scheduler.weight_of(1) == 2.0
        assert switch.egress_scheduler.rate_limit_of(1) == 1000.0

    def test_scalar_path_attributes_egress_per_tenant(self):
        """With no engine anywhere, ``switch.process`` queues each
        tenant's packets under its own VID: the switch was built with
        its scheduler, so depth gauges and transmitted bytes are live on
        the scalar path too."""
        switch, spec, t1, t2 = self.build()
        switch.process(spec.flow_packet(1, 1))  # flow 1 is allowed
        for _ in range(2):
            switch.process(spec.flow_packet(2, 2))  # flow 2 -> tenant 2
        scheduler = switch.egress_scheduler
        assert scheduler.total_queued() == 3
        assert [scheduler.queue_depth(vid) for vid in (0, 1, 2)] == [0, 1, 2]
        assert (t1.counters().egress_queue_depth,
                t2.counters().egress_queue_depth) == (1, 2)
        size = len(spec.flow_packet(2, 2))
        scheduler.drain_all()
        assert t2.counters().egress_queue_depth == 0
        assert t2.counters().egress_bytes_tx == 2 * size

    def test_tenant_counters_carry_egress_stats(self):
        switch, spec, t1, t2 = self.build()
        engine = switch.engine()
        engine.process_batch([spec.flow_packet(1, 1) for _ in range(4)])
        counters = t1.counters()
        assert counters.egress_queue_depth == 4
        assert counters.egress_bytes_tx == 0
        switch.egress_scheduler.drain_all()
        counters = t1.counters()
        assert counters.egress_queue_depth == 0
        assert counters.egress_bytes_tx > 0
        assert t1.scheduler_counters().transmitted == 4

    def test_tenant_stats_report_egress_section(self):
        switch, spec, t1, t2 = self.build()
        switch.engine()
        t1.set_weight(2.5)
        report = t1.stats()
        assert report["egress"]["weight"] == 2.5
        assert report["egress"]["rate_limit_bytes_per_s"] is None

    def test_scheduler_counters_are_a_frozen_snapshot(self):
        """A tenant reads its egress books and can never write them:
        ``scheduler_counters()`` and the stats report's ``scheduler``
        entry are frozen copies, not the scheduler's live record."""
        switch, spec, t1, t2 = self.build()
        switch.engine().process_batch(
            [spec.flow_packet(1, 1) for _ in range(2)])
        switch.egress_scheduler.drain_all()
        books = (t1.counters(), switch.egress_scheduler.tenant(1).snapshot())
        for counters in (t1.scheduler_counters(),
                         t1.stats()["egress"]["scheduler"]):
            assert counters.transmitted == 2
            with pytest.raises(AttributeError):
                counters.transmitted_bytes = 12345
        assert (t1.counters(),
                switch.egress_scheduler.tenant(1).snapshot()) == books

    def test_tenant_on_a_reused_vid_starts_from_zero(self):
        """Evicting a tenant retires its record: the next tenant
        admitted on that VID reads zero everywhere, while the switch's
        totals keep what the first one did."""
        switch, spec, t1, t2 = self.build()
        engine = switch.engine()
        engine.process_batch([spec.flow_packet(1, 1) for _ in range(3)])
        switch.egress_scheduler.drain_all()
        assert t1.counters().egress_bytes_tx > 0
        packets = ("packets_in", "packets_out", "packets_dropped")
        totals = [switch.stats()[name] for name in packets]
        hits = engine.counters.compiled_hits
        t1.evict()
        again = spec.admit(switch, vid=1)
        assert not any(vars(again.counters()).values())
        assert not any(again.scheduler_counters())
        assert 1 not in engine.counters.per_tenant
        assert [switch.stats()[name] for name in packets] == totals
        assert engine.counters.compiled_hits == hits
        engine.process_batch([spec.flow_packet(1, 1)])
        assert again.counters().packets_in == 1
        assert switch.stats()["packets_in"] == totals[0] + 1


_NAN, _INF = float("nan"), float("inf")


def _facade_tenant():
    switch = Switch.build().create()
    return switch.egress_scheduler, workload("firewall").admit(switch, vid=1)


#: ``name -> call(value)``: every way a rate, weight or burst reaches
#: the scheduler, directly and through the facade.
_EGRESS_SETTINGS = {
    "TokenBucket-rate": lambda value: TokenBucket(value),
    "TokenBucket-burst": lambda value: TokenBucket(1000.0, value),
    "init-line-rate": lambda value: EgressScheduler(line_rate_bps=value),
    "line-rate-setter": lambda value: setattr(
        EgressScheduler(), "line_rate_bps", value),
    "set_weight": lambda value: EgressScheduler().set_weight(1, value),
    "set_rate_limit": lambda value: EgressScheduler().set_rate_limit(
        1, value),
    "set_rate_limit-burst": lambda value: EgressScheduler().set_rate_limit(
        1, 1000.0, value),
    "set_port_rate": lambda value: EgressScheduler().set_port_rate(0, value),
    "Tenant.set_weight": lambda value: _facade_tenant()[1].set_weight(value),
    "Tenant.set_rate_limit": lambda value: _facade_tenant()[1]
    .set_rate_limit(value),
    "Tenant.set_rate_limit-burst": lambda value: _facade_tenant()[1]
    .set_rate_limit(1000.0, burst_bytes=value),
}


class TestNonFiniteConfig:
    """A NaN or infinite rate, weight or burst is a ``ConfigError``, as a
    non-positive one is. Accepted, a NaN rate limit timed its tenant's
    departures at NaN and left the port clock NaN, so every later
    departure on the port, whoever's, was NaN-timed too."""

    @pytest.mark.parametrize("value", [_NAN, _INF, -_INF],
                             ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("setting", sorted(_EGRESS_SETTINGS))
    def test_non_finite_setting_is_a_config_error(self, setting, value):
        with pytest.raises(ConfigError,
                           match="must be positive and finite, got"):
            _EGRESS_SETTINGS[setting](value)

    def test_refused_settings_leave_the_neighbours_clock_finite(self):
        sched = EgressScheduler(line_rate_bps=1e9)
        for bad in (lambda: sched.set_rate_limit(1, _NAN),
                    lambda: sched.set_weight(1, _INF),
                    lambda: sched.set_port_rate(0, _NAN),
                    lambda: setattr(sched, "line_rate_bps", _NAN)):
            with pytest.raises(ConfigError):
                bad()
        assert (sched.rate_limit_of(1), sched.weight_of(1),
                sched.port_rate_of(0)) == (None, 1.0, 1e9)
        for vid in (1, 2, 1, 2):
            sched.enqueue(pkt(1000, vid), 0, module_id=vid)
        departures = sched.advance_to(1.0)
        assert [(dep.module_id, dep.time) for dep in departures] == [
            (1, pytest.approx(8e-6)), (2, pytest.approx(16e-6)),
            (1, pytest.approx(24e-6)), (2, pytest.approx(32e-6))]
        assert sched.port_clock[0] == pytest.approx(32e-6)
        assert sched.clock_of(0) == 1.0

    def test_facade_refusal_changes_nothing(self):
        sched, tenant = _facade_tenant()
        tenant.set_weight(2.0).set_rate_limit(1000.0)
        for bad in (lambda: tenant.set_weight(_NAN),
                    lambda: tenant.set_rate_limit(_INF),
                    lambda: tenant.set_rate_limit(500.0, burst_bytes=_NAN)):
            with pytest.raises(ConfigError):
                bad()
        assert (sched.weight_of(1), sched.rate_limit_of(1)) == (2.0, 1000.0)


class TestTimelineLatency:
    """Weighted-fair egress under real contention, on a one-switch
    fabric timeline: two tenants offer 4 Gbit/s each (unscaled) into
    one 5 Gbit/s host port, so a queue builds for the whole run."""

    def _run(self, weights):
        fabric = Fabric(host_rate_bps=5e9)
        fabric.add_switch("sw0")
        matrix = TrafficMatrix()
        for vid, weight in weights.items():
            tenant = fabric.tenant(
                f"calc{vid}", calc.P4_SOURCE, vid=vid,
                installer=lambda t, port: calc.install(t, port=port))
            tenant.place(("sw0", 0), ("sw0", 1))
            tenant.set_weight(weight)
            matrix.add(vid, ("sw0", 0), ("sw0", 1), offered_bps=4e9,
                       packet_size=1500,
                       make_packet=lambda vid=vid: calc.make_packet(
                           vid, calc.OP_ADD, 1, 2, pad_to=1500))
        return FabricTimelineExperiment(fabric, matrix, duration_s=2e-3,
                                        scale=1.0).run()

    def test_latencies_measured_under_contention(self):
        result = self._run({1: 1.0, 2: 1.0})
        assert result.latencies_s[1] and result.latencies_s[2]
        # A queue formed: far above one 1500 B transmission (2.4 us).
        assert result.mean_latency_s(1) > 100 * 1500 * 8 / 5e9
        assert result.max_latency_s(1) >= result.mean_latency_s(1)
        # Equal weights share the queueing delay equally.
        assert result.mean_latency_s(1) == pytest.approx(
            result.mean_latency_s(2), rel=0.05)
        assert (result.mean_latency_s(1), result.mean_latency_s(2)) == (
            pytest.approx(576.180e-6, rel=1e-6),
            pytest.approx(577.564e-6, rel=1e-6))

    def test_heavier_weight_means_lower_latency(self):
        result = self._run({1: 8.0, 2: 1.0})
        assert result.mean_latency_s(1) < 0.1 * result.mean_latency_s(2)

    def test_no_delivery_beats_its_own_transmission(self):
        """Regression: the heavy tenant's packets overtook the frame
        already on the wire and left before they arrived — a mean
        latency of 1.219 us, under the 2.4 us one 1500 B frame takes
        at 5 Gb/s."""
        result = self._run({1: 8.0, 2: 1.0})
        tx = 1500 * 8 / 5e9
        for vid in (1, 2):
            assert min(result.latencies_s[vid]) >= tx * (1 - 1e-9)
        assert result.mean_latency_s(1) == pytest.approx(3.60439e-6,
                                                         rel=1e-5)

    @staticmethod
    def _timeline(**kwargs):
        fabric = Fabric()
        fabric.add_switch("sw0")
        return FabricTimelineExperiment(fabric, TrafficMatrix(), **kwargs)

    @pytest.mark.parametrize("bin_s", [0, -0.1])
    def test_non_positive_bin_rejected_at_construction(self, bin_s):
        """``run()`` divides by the bin width; a bad one is a typed
        error where it is given, not a ``ZeroDivisionError`` later."""
        with pytest.raises(ConfigError, match="bin width must be positive"):
            self._timeline(duration_s=1.0, bin_s=bin_s)

    @pytest.mark.parametrize("duration_s, bin_s, match", [
        (-1.0, 0.1, "duration must be positive"),
        (0.0, 0.1, "duration must be positive"),
    ])
    def test_run_without_a_bin_rejected_at_construction(
            self, duration_s, bin_s, match):
        """A run with no offered time is a typed error where it is
        given, not an empty result later."""
        with pytest.raises(ConfigError, match=match):
            self._timeline(duration_s=duration_s, bin_s=bin_s)

    def test_run_shorter_than_one_bin_reports_one_bin(self):
        """The bin count is rounded up, so a run shorter than one bin
        still reports its bin instead of being refused."""
        fabric = Fabric()
        fabric.add_switch("sw0")
        fabric.tenant(
            "calc1", calc.P4_SOURCE, vid=1,
            installer=lambda t, port: calc.install(t, port=port),
        ).place(("sw0", 0), ("sw0", 1))
        matrix = TrafficMatrix()
        matrix.add(1, ("sw0", 0), ("sw0", 1), offered_bps=1e9,
                   packet_size=1500,
                   make_packet=lambda: calc.make_packet(
                       1, calc.OP_ADD, 1, 2, pad_to=1500))
        result = FabricTimelineExperiment(fabric, matrix, duration_s=0.04,
                                          bin_s=0.1, scale=1000.0).run()
        assert result.bins == [0.0]
        assert result.delivered[1] > 0
        assert len(result.throughput_gbps[1]) == 1
        assert result.throughput_gbps[1][0] > 0.0


class TestEventDrivenClockSemantics:
    """The advance_to / next_departure_at contract the fabric timeline
    depends on."""

    def test_committed_transmission_is_not_redelayed(self):
        # A busy port polled by frequent small advances must not slip:
        # the next transmission's start is committed, so many
        # advance_to calls during it leave the finish time unchanged.
        sched = EgressScheduler(num_ports=1, line_rate_bps=1e3)
        sched.enqueue(pkt(size=1000), 0, module_id=1)  # tx = 8 s
        finish = sched.next_departure_at(0)
        assert finish == pytest.approx(8.0)
        for i in range(100):
            assert sched.advance_to(0.01 * (i + 1)) == []
        deps = sched.advance_to(8.0)
        assert [d.time for d in deps] == [pytest.approx(8.0)]

    @pytest.mark.parametrize("limited", [False, True])
    def test_started_transmission_is_never_overtaken(self, limited):
        """Regression: an arrival re-ran the choice at the start of the
        packet already on the wire, so a better-ranked later packet
        departed before it arrived. 100 B take 0.1 s at 8 kb/s. With
        token buckets (here never short of tokens) a started choice is
        kept too."""
        sched = EgressScheduler(num_ports=2, line_rate_bps=8e3)
        if limited:
            for vid in (1, 2):
                sched.set_rate_limit(vid, 1e6)
        sched.enqueue(Packet(bytes(100)), 0, module_id=1)
        assert [d.time for d in sched.advance_to(0.1)] == [
            pytest.approx(0.1)]
        sched.advance_to(0.2)
        sched.enqueue(Packet(bytes(100)), 0, module_id=1)  # A
        assert sched.next_departure_at(0) == pytest.approx(0.3)
        assert sched.advance_to(0.25) == []  # A is on the wire
        # C: tenant 2 has sent nothing, so it ranks ahead of A
        sched.enqueue(Packet(bytes(10)), 0, module_id=2)
        assert sched.next_departure_at(0) == pytest.approx(0.3)
        assert [(d.module_id, d.time) for d in sched.advance_to(1.0)] == [
            (1, pytest.approx(0.3)), (2, pytest.approx(0.31))]

    def test_unstarted_choice_still_yields_to_a_better_rank(self):
        # Both queued before any advance reaches their start: nothing
        # is on the wire yet, so the better rank goes first.
        sched = EgressScheduler(num_ports=1, line_rate_bps=8e3)
        sched.enqueue(Packet(bytes(100)), 0, module_id=1)
        sched.advance_to(0.1)
        sched.enqueue(Packet(bytes(100)), 0, module_id=1)
        assert sched.next_departure_at(0) == pytest.approx(0.2)
        sched.enqueue(Packet(bytes(10)), 0, module_id=2)
        assert sched.next_departure_at(0) == pytest.approx(0.11)

    def test_start_serves_a_lone_packet_on_an_idle_port(self):
        sched = EgressScheduler(num_ports=2, line_rate_bps=8e3)
        sched.idle_to(0.5)
        first = Packet(bytes(100))
        sched.enqueue(first, 0, module_id=1)
        # finishing exactly at the bound is not before it
        assert sched.start(0, first, before=0.6) is None
        departure = sched.start(0, first, before=0.7)
        assert departure.packet is first and departure.module_id == 1
        assert departure.time == pytest.approx(0.6)
        assert sched.queue_len(0) == 0 and sched.transmitted_bytes(1) == 100
        assert sched.clock_of(0) == pytest.approx(0.6)
        # the port is still transmitting: the next packet queues
        second = Packet(bytes(100))
        sched.enqueue(second, 0, module_id=1)
        assert sched.start(0, second, before=float("inf")) is None
        assert sched.next_departure_at(0) == pytest.approx(0.7)

    @pytest.mark.parametrize("case", ["backlog", "dropped", "bucket"])
    def test_start_declines_unless_alone_and_unlimited(self, case):
        sched = EgressScheduler(
            num_ports=1, line_rate_bps=8e3,
            queue_capacity=1 if case == "dropped" else None)
        if case == "bucket":
            sched.set_rate_limit(2, 1e6)
        else:
            sched.enqueue(Packet(bytes(100)), 0, module_id=1)
        packet = Packet(bytes(100))
        sched.enqueue(packet, 0, module_id=2)  # "dropped": over capacity
        assert sched.start(0, packet, before=float("inf")) is None
        assert sched.queue_len(0) == (1 if case != "backlog" else 2)
        assert sched.dequeued == 0

    def test_next_departure_guarantees_drain_progress(self):
        # Regression: tx time >> step size. Stepping the clock by a
        # fixed bin can serve nothing forever; stepping to
        # next_departure_at always completes the head packet.
        sched = EgressScheduler(num_ports=2, line_rate_bps=1e3)
        sched.enqueue(pkt(size=1000, vid=1), 0, module_id=1)
        sched.enqueue(pkt(size=1000, vid=2), 1, module_id=2)
        bin_s = 1.0  # < 8 s transmission time
        rounds = 0
        while sched.total_queued():
            rounds += 1
            assert rounds < 10, "drain loop made no progress"
            horizon = sched.clock + bin_s
            nexts = [sched.next_departure_at(p) for p in range(2)]
            nexts = [t for t in nexts if t is not None]
            if nexts:
                horizon = max(horizon, min(nexts))
            sched.advance_to(horizon)

    def test_idle_port_clock_still_reaches_now(self):
        sched = EgressScheduler(num_ports=1, line_rate_bps=1e9)
        sched.advance_to(5.0)
        assert sched.clock_of(0) == 5.0
        sched.enqueue(pkt(size=1000), 0, module_id=1)
        # the packet arrived while the port idled at t=5: it cannot
        # depart earlier than that
        assert sched.next_departure_at(0) > 5.0

    def test_per_port_rates_pace_independently(self):
        sched = EgressScheduler(num_ports=2, line_rate_bps=1e9)
        sched.set_port_rate(1, 1e6)  # a slow link on port 1
        sched.enqueue(pkt(size=1000, vid=1), 0, module_id=1)
        sched.enqueue(pkt(size=1000, vid=2), 1, module_id=2)
        assert sched.next_departure_at(0) == pytest.approx(8e-6)
        assert sched.next_departure_at(1) == pytest.approx(8e-3)
        assert sched.port_rate_of(0) == 1e9
        assert sched.port_rate_of(1) == 1e6
        with pytest.raises(ConfigError):
            sched.set_port_rate(0, -1.0)


# ------------------------------------------- backlogged-port index model

class _AllPortsReference(EgressScheduler):
    """The scheduler without its indexes, as the model to test against.

    Every answer is derived from the per-port FIFOs by walking *all*
    ports: nothing here reads the backlogged-port set, the per-port
    queued count or the per-tenant depth count, so an index that drifts
    from the queues shows up as a disagreement. Every advance moves
    every idle port's clock there and then, and every next-departure
    query scans: nothing here reads an idle stamp or a remembered
    scan either. The one thing it remembers is the rule that a started
    transmission is committed: the choice an advance found on the wire,
    with its finish, in a slot of its own (``_wire``), until served,
    purged or scrubbed. Ranking, rate gating and the serve bookkeeping
    are the shared ``_choose`` / ``_serve``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._wire = {}

    def _next(self, port):
        """``(choice, finish)`` of the port's next transmission."""
        if port in self._wire:
            return self._wire[port]
        clock = self.port_clock[port]
        choice = self._choose(port, clock)
        start = max(choice[3], clock)
        return choice, start + self._tx_seconds(len(choice[2]), port)

    def _serve(self, choice, port):
        self._wire.pop(port, None)
        return super()._serve(choice, port)

    def drop_queued(self, vid=None, port=None):
        for wired, (choice, _finish) in list(self._wire.items()):
            if vid in (None, choice[0]) and port in (None, wired):
                del self._wire[wired]
        return super().drop_queued(vid, port)

    def _queued(self, port):
        return sum(len(fifo) for fifo in self._ports[port].fifos.values())

    def clock_of(self, port):
        self._check_port(port)
        return self.port_clock[port]

    def queue_len(self, port):
        self._check_port(port)
        return self._queued(port)

    def total_queued(self):
        return sum(self._queued(port) for port in range(self.num_ports))

    def queue_depth(self, vid):
        return sum(len(state.fifos.get(vid, ())) for state in self._ports)

    def enqueue(self, packet, port, mcast_group=0, module_id=0,
                record=None):
        if mcast_group:  # each copy comes back here as a unicast
            return super().enqueue(packet, port, mcast_group, module_id,
                                   record)
        self._check_port(port)
        if (self.queue_capacity is not None
                and self._queued(port) >= self.queue_capacity):
            (record or self.tenant(module_id)).dropped += 1
            return 0
        # capacity decided here; the shared tail only appends
        capacity, self.queue_capacity = self.queue_capacity, None
        try:
            return super().enqueue(packet, port, 0, module_id, record)
        finally:
            self.queue_capacity = capacity

    def dequeue(self, port):
        self._check_port(port)
        if not self._ports[port].fifos:
            return None
        return self._serve(self._next(port)[0], port).packet

    def drain_bytes(self, port, budget_bytes):
        self._check_port(port)
        served = {}
        while budget_bytes > 0 and self._ports[port].fifos:
            dep = self._serve(self._next(port)[0], port)
            served[dep.module_id] = \
                served.get(dep.module_id, 0) + len(dep.packet)
            budget_bytes -= len(dep.packet)
        return served

    def next_departure_at(self, port):
        self._check_port(port)
        if not self._ports[port].fifos:
            return None
        return self._next(port)[1]

    def next_departures(self):
        nexts = [(port, self.next_departure_at(port))
                 for port in range(self.num_ports)]
        return [(port, at) for port, at in nexts if at is not None]

    def advance_to(self, now):
        departures = []
        for port in range(self.num_ports):
            if now < self.port_clock[port]:
                continue
            while True:
                if not self._ports[port].fifos:
                    self.port_clock[port] = max(self.port_clock[port], now)
                    break
                choice, finish = self._next(port)
                start = max(choice[3], self.port_clock[port])
                if finish > now:
                    if start <= now:
                        self._wire[port] = (choice, finish)
                    self.port_clock[port] = max(self.port_clock[port],
                                                min(now, start))
                    break
                departures.append(self._serve(choice, port))
        for bucket in self._buckets.values():
            bucket.refill(now)
        departures.sort(key=lambda dep: dep.time)
        return departures


_MODEL_PORTS = 3
_MODEL_VIDS = (1, 2, 3)
_MODEL_PACKETS = {(size, vid): pkt(size, vid)
                  for size in (64, 200, 1000) for vid in _MODEL_VIDS}

_port = st.integers(0, _MODEL_PORTS - 1)
_vid = st.sampled_from(_MODEL_VIDS)
_model_op = st.one_of(
    st.tuples(st.just("enqueue"), _port, _vid,
              st.sampled_from((64, 200, 1000)), st.sampled_from((0, 0, 1))),
    st.tuples(st.just("advance"),
              st.sampled_from((0.0, 1e-6, 1e-4, 1.6e-3, 8e-3, 0.05))),
    st.tuples(st.just("dequeue"), _port),
    st.tuples(st.just("drain_bytes"), _port,
              st.sampled_from((1, 300, 1500))),
    st.tuples(st.just("set_weight"), _vid,
              st.sampled_from((0.5, 1.0, 4.0))),
    st.tuples(st.just("set_rate_limit"), _vid,
              st.sampled_from((2e4, 1e5, 1e6)),
              st.sampled_from((None, 100.0, 1500.0))),
    st.tuples(st.just("clear_rate_limit"), _vid),
    st.tuples(st.just("set_port_rate"), _port,
              st.sampled_from((1e5, 1e6, 1e8))),
    st.tuples(st.just("purge"), _vid),
    st.tuples(st.just("drop_queued"), st.none() | _vid, st.none() | _port),
    st.tuples(st.just("line_rate"), st.sampled_from((None, 1e5, 1e6))),
)

# Sequences an idle clock brought forward by one scheduler-wide "now"
# gets wrong: the port was backlogged during the advance (its clock
# held at the committed start) and emptied afterwards, untimed.
_HELD_THEN_EMPTIED = [("enqueue", 0, 1, 1000, 0), ("set_port_rate", 0, 1e5),
                      ("enqueue", 0, 1, 1000, 0), ("advance", 1e-6)]
_EMPTIED_BY_DEQUEUE = [("set_port_rate", 0, 1e5), ("enqueue", 0, 1, 1000, 0),
                       ("advance", 1e-4), ("set_port_rate", 0, 1e8),
                       ("dequeue", 0), ("enqueue", 0, 2, 64, 0)]
# A rate limit set while port 0 is mid-transmission and ports 1 and 2
# idle: the bucket starts at the idle ports' clock, then throttles.
_LIMIT_MID_TRANSMISSION = [
    ("enqueue", 0, 1, 1000, 0), ("advance", 1e-4),
    ("set_rate_limit", 2, 2e4, 100.0), ("enqueue", 1, 2, 200, 0),
    ("enqueue", 1, 2, 200, 0), ("advance", 1.6e-3), ("advance", 8e-3),
    ("enqueue", 0, 2, 64, 0), ("advance", 0.05)]
# A better-ranked packet arrives while port 0 transmits a frame an
# advance found on the wire: the frame is committed.
_STARTED_THEN_OUTRANKED = [
    ("enqueue", 0, 1, 1000, 0), ("advance", 8e-3),
    ("enqueue", 0, 1, 1000, 0), ("advance", 1e-4),
    ("enqueue", 0, 2, 64, 0), ("set_port_rate", 0, 1e8),
    ("advance", 0.05)]


def _tags(packets):
    return [packet.arrival_time for packet in packets]


class TestBackloggedPortIndexModel:
    """Random operation interleavings: the indexed scheduler and the
    all-ports reference must stay indistinguishable."""

    @staticmethod
    def _apply(sched, op, serial, now):
        """Run one op; returns what a caller could observe from it."""
        kind = op[0]
        if kind == "enqueue":
            _, port, vid, size, group = op
            packet = _MODEL_PACKETS[(size, vid)].copy()
            packet.arrival_time = float(serial)  # identity tag
            return sched.enqueue(packet, port, mcast_group=group,
                                 module_id=vid)
        if kind == "advance":
            return [(dep.port, dep.module_id, dep.time,
                     dep.packet.arrival_time)
                    for dep in sched.advance_to(now)]
        if kind == "dequeue":
            packet = sched.dequeue(op[1])
            return None if packet is None else packet.arrival_time
        if kind == "drain_bytes":
            return sched.drain_bytes(op[1], op[2])
        if kind == "purge":
            return _tags(sched.purge(op[1]))
        if kind == "drop_queued":
            return [(port, vid, packet.arrival_time)
                    for port, vid, packet in sched.drop_queued(*op[1:])]
        if kind == "line_rate":
            sched.line_rate_bps = op[1]
            return None
        return getattr(sched, kind)(*op[1:])

    @staticmethod
    def _observe(sched, stats):
        return {
            "clock": [sched.clock_of(port) for port in range(_MODEL_PORTS)],
            "max_clock": sched.clock,
            "buckets": {vid: (bucket.tokens, bucket._last)
                        for vid, bucket in sched._buckets.items()},
            "next": [sched.next_departure_at(port)
                     for port in range(_MODEL_PORTS)],
            "nexts": sched.next_departures(),
            "queue_len": [sched.queue_len(port)
                          for port in range(_MODEL_PORTS)],
            "depth": {vid: sched.queue_depth(vid) for vid in _MODEL_VIDS},
            "total": sched.total_queued(),
            "gauge": dict(stats.egress_queue_depth),
            "tenants": {vid: counters.snapshot()
                        for vid, counters in sched.per_tenant.items()},
            "totals": (sched.enqueued, sched.dequeued, sched.dropped,
                       list(sched.bytes_out)),
        }

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from((None, 2)), st.sampled_from((None, 1e6)),
           st.lists(_model_op, min_size=1, max_size=40))
    @example(None, 1e6, _HELD_THEN_EMPTIED + [("drop_queued",)])
    @example(None, 1e6, _HELD_THEN_EMPTIED + [("purge", 1)])
    @example(None, 1e6, _EMPTIED_BY_DEQUEUE)
    @example(None, 1e6, _LIMIT_MID_TRANSMISSION)
    @example(None, 1e6, _STARTED_THEN_OUTRANKED)
    def test_indexed_scheduler_matches_all_ports_reference(
            self, capacity, line_rate, ops):
        pairs = []
        for cls in (EgressScheduler, _AllPortsReference):
            stats = PipelineStats()
            sched = cls(num_ports=_MODEL_PORTS, queue_capacity=capacity,
                        line_rate_bps=line_rate, stats=stats)
            sched.set_mcast_group(1, [0, 2])
            pairs.append((sched, stats))
        now = 0.0
        for serial, op in enumerate(ops):
            if op[0] == "advance":
                now += op[1]
            results = [self._apply(sched, op, serial, now)
                       for sched, _stats in pairs]
            assert results[0] == results[1], op
            seen = [self._observe(sched, stats) for sched, stats in pairs]
            assert seen[0] == seen[1], op
        # and the index itself agrees with the queues it summarises
        sched = pairs[0][0]
        assert sched._backlogged == {
            port for port, state in enumerate(sched._ports) if state.fifos}

    def test_next_departures_lists_backlogged_ports_in_port_order(self):
        sched = EgressScheduler(num_ports=4, line_rate_bps=1e6)
        assert sched.next_departures() == []
        sched.enqueue(pkt(1000, vid=2), 3, module_id=2)
        sched.enqueue(pkt(200, vid=1), 1, module_id=1)
        assert sched.next_departures() == [
            (1, pytest.approx(1.6e-3)), (3, pytest.approx(8e-3))]
        sched.advance_to(2e-3)
        assert [port for port, _at in sched.next_departures()] == [3]


# ------------------------------------------------ books consistency

_BOOKS_VIDS = (1, 2, 3, 4)
_BOOKS_PACKETS = {(size, vid): pkt(size, vid)
                  for size in (64, 200, 1000) for vid in _BOOKS_VIDS}


@st.composite
def _books_run(draw):
    """A scheduler shape (1–4 ports, a queue bound or none, a line rate
    or none) and a random operation sequence over it."""
    num_ports = draw(st.integers(1, 4))
    port = st.integers(0, num_ports - 1)
    vid = st.sampled_from(_BOOKS_VIDS)
    size = st.sampled_from((64, 200, 1000))
    op = st.one_of(
        st.tuples(st.just("enqueue"), port, vid, size,
                  st.sampled_from((0, 0, 1))),
        st.tuples(st.just("start"), port, vid, size,
                  st.sampled_from((float("inf"), 1e-5))),
        st.tuples(st.just("dequeue"), port),
        st.tuples(st.just("drain_bytes"), port,
                  st.sampled_from((100, 1000, 5000))),
        st.tuples(st.just("advance"), st.sampled_from((0.0, 1e-5, 1e-3, 0.1))),
        st.tuples(st.just("purge"), vid),
        st.tuples(st.just("drop_queued"), st.none() | vid,
                  st.none() | port),
        st.tuples(st.just("set_weight"), vid, st.sampled_from((0.5, 1.0, 4.0))),
        st.tuples(st.just("set_rate_limit"), vid,
                  st.sampled_from((2e4, 1e5, 1e6)),
                  st.sampled_from((None, 100.0, 3000.0))),
        st.tuples(st.just("set_port_rate"), port,
                  st.sampled_from((1e5, 1e6, 1e8))),
    )
    return (num_ports, draw(st.sampled_from((None, 2, 5))),
            draw(st.sampled_from((None, 1e6))),
            draw(st.lists(op, min_size=1, max_size=40)))


class TestBooksConsistency:
    """Whatever the operation sequence, the scheduler's books agree with
    its queues and with each other after every step: the per-tenant
    depth gauge in ``PipelineStats`` with ``queue_depth`` and with the
    FIFOs themselves; the transmitted-bytes gauge with the tenant's
    counters and with what the calls returned; ``bytes_out`` with all
    transmitted bytes; ``total_queued`` with the per-port lengths; and,
    per tenant, enqueued = transmitted + queued + scrubbed. ``purge``
    retires the tenant's record, gauge included, so the bytes it had
    transmitted carry over as ``retired`` in ``bytes_out`` only."""

    @staticmethod
    def _apply(sched, op, now):
        """Run one op; returns the ``(vid, nbytes)`` that departed."""
        kind = op[0]
        if kind in ("enqueue", "start"):
            _, port, vid, size, extra = op
            packet = _BOOKS_PACKETS[(size, vid)].copy()
            group = extra if kind == "enqueue" else 0
            placed = sched.enqueue(packet, port, mcast_group=group,
                                   module_id=vid)
            if kind == "start" and placed:
                dep = sched.start(port, packet, extra)
                if dep is not None:
                    return [(dep.module_id, len(dep.packet))]
            return []
        if kind == "dequeue":
            packet = sched.dequeue(op[1])
            return [] if packet is None else [(vid_of(packet), len(packet))]
        if kind == "drain_bytes":
            return list(sched.drain_bytes(op[1], op[2]).items())
        if kind == "advance":
            return [(dep.module_id, len(dep.packet))
                    for dep in sched.advance_to(now)]
        getattr(sched, kind)(*op[1:])
        return []

    @staticmethod
    def _check_books(sched, stats, tx, retired, scrubbed):
        ports = range(sched.num_ports)
        assert sched.total_queued() == sum(map(sched.queue_len, ports))
        for vid in _BOOKS_VIDS:
            queued = sum(len(state.fifos.get(vid, ()))
                         for state in sched._ports)
            assert sched.queue_depth(vid) == queued
            assert stats.egress_queue_depth.get(vid, 0) == queued
            counters = sched.tenant(vid)
            assert counters.transmitted_bytes == tx[vid]
            assert stats.egress_bytes_tx.get(vid, 0) == tx[vid]
            assert counters.enqueued \
                == counters.transmitted + queued + scrubbed[vid]
        assert sum(sched.bytes_out) \
            == sum(retired.values()) + sum(tx.values())

    @settings(max_examples=120, deadline=None)
    @given(_books_run())
    def test_books_agree_after_every_step(self, run):
        num_ports, capacity, line_rate, ops = run
        stats = PipelineStats()
        sched = EgressScheduler(num_ports=num_ports, queue_capacity=capacity,
                                line_rate_bps=line_rate, stats=stats)
        sched.set_mcast_group(1, sorted({0, num_ports - 1}))
        #: per tenant, since its last purge: bytes seen to depart, and
        #: packets scrubbed; and bytes transmitted before that purge
        tx = dict.fromkeys(_BOOKS_VIDS, 0)
        scrubbed = dict.fromkeys(_BOOKS_VIDS, 0)
        retired = dict.fromkeys(_BOOKS_VIDS, 0)
        now = 0.0
        for op in ops:
            if op[0] == "advance":
                now += op[1]
            if op[0] == "purge":
                retired[op[1]] += tx[op[1]]
                tx[op[1]] = scrubbed[op[1]] = 0
            if op[0] == "drop_queued":
                for _port, vid, _packet in sched.drop_queued(*op[1:]):
                    scrubbed[vid] += 1
            else:
                for vid, nbytes in self._apply(sched, op, now):
                    tx[vid] += nbytes
            self._check_books(sched, stats, tx, retired, scrubbed)


# ------------------------------------------- bulk drain vs one at a time

_TWIN_PACKETS = {}


def _twin_packet(size, vid):
    """A shared template per (size, vid): building a packet is slow."""
    if (size, vid) not in _TWIN_PACKETS:
        _TWIN_PACKETS[(size, vid)] = pkt(size, vid)
    return _TWIN_PACKETS[(size, vid)].copy()


@st.composite
def _twin_run(draw):
    """A scheduler shape and what happens on it before one drain: 2–6
    tenants with unequal weights on 1–4 ports, a multicast group, maybe
    a queue bound, maybe one or two rate-limited tenants, maybe an
    advance that puts a transmission on the wire, maybe the rate limits
    lifted after it (throttle marks outlive them), then more
    arrivals."""
    num_ports = draw(st.integers(1, 4))
    tenants = draw(st.integers(2, 6))
    weights = draw(st.lists(st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0, 5.0,
                                             8.0)),
                            min_size=tenants, max_size=tenants, unique=True))
    limits = draw(st.lists(
        st.tuples(st.integers(1, tenants), st.sampled_from((2e4, 1e6)),
                  st.sampled_from((None, 100.0, 3000.0))),
        max_size=2, unique_by=lambda limit: limit[0]))
    arrival = st.tuples(st.integers(0, num_ports - 1),
                        st.integers(1, tenants), st.integers(64, 1500),
                        st.sampled_from((0, 0, 0, 1)))
    return (num_ports, dict(enumerate(weights, 1)),
            draw(st.sampled_from((None, None, 3, 8))),
            draw(st.sampled_from((None, 1e6, 1e8))), limits,
            draw(st.lists(arrival, min_size=1, max_size=40)),
            draw(st.sampled_from((None, None, 1e-4, 3e-3))),
            draw(st.booleans()), draw(st.lists(arrival, max_size=6)),
            draw(st.lists(st.sampled_from((None, 1, 700, 5000)),
                          min_size=num_ports, max_size=num_ports)))


# Two packets of tenant 1 queued; an advance sends the first and puts
# the second on the wire; tenant 2's arrival outranks it but must wait.
_TWIN_STARTED = (1, {1: 1.0, 2: 2.0}, None, 1e6, [],
                 [(0, 1, 1000, 0), (0, 1, 1000, 0)], 9e-3, False,
                 [(0, 2, 64, 0)], [None])
# Tenant 1's bucket holds one packet: it is overtaken, then the port
# idles forward to its eligibility.
_TWIN_BUCKET = (1, {1: 1.0, 2: 2.0}, None, 1e6, [(1, 2e4, 100.0)],
                [(0, 1, 64, 0), (0, 1, 64, 0), (0, 2, 200, 0),
                 (0, 2, 200, 0)], None, False, [], [None])
# No bucket, nothing on the wire: the merge serves it all, and a budget
# cuts a prefix.
_TWIN_MERGE = (2, {1: 1.0, 2: 3.0, 3: 0.5}, None, 1e8, [],
               [(0, 1, 1500, 0), (0, 2, 64, 1), (1, 3, 700, 0),
                (0, 3, 200, 0), (0, 1, 64, 0), (0, 2, 1000, 0)], None,
               False, [], [None, 900])
# Tenant 1's second packet is throttled when the advance scans; its
# limit is then lifted, and the merge that serves it clears the mark.
_TWIN_LIFTED = (1, {1: 1.0, 2: 2.0}, None, 1e6, [(1, 2e4, 100.0)],
                [(0, 1, 64, 0), (0, 1, 64, 0), (0, 2, 1000, 0)], 3e-3,
                True, [], [None])


def _twin_books(sched):
    """Everything a drain may change, packets as their arrival tags."""
    def tags(entries):
        return [(rank, seq, packet.arrival_time)
                for rank, seq, packet in entries]

    def choice(chosen):
        if chosen is None:
            return None
        (vid, rank, packet, at), finish = chosen
        return vid, rank, packet.arrival_time, at, finish

    return {
        "clock": list(sched.port_clock),  # exact floats
        "bytes_out": list(sched.bytes_out),
        "tenants": {vid: record.snapshot()
                    for vid, record in sched.per_tenant.items()},
        "rankers": [(state.ranker.virtual_time,
                     dict(state.ranker._last_finish))
                    for state in sched._ports],
        "queues": [(state.queued, state.seq, state.idle_since,
                    {vid: tags(fifo) for vid, fifo in state.fifos.items()})
                   for state in sched._ports],
        "backlogged": set(sched._backlogged),
        "chosen": [(state.started, choice(state.chosen))
                   for state in sched._ports],
        "marks": dict(sched._throttle_marks),
        "buckets": {vid: (bucket.tokens, bucket._last)
                    for vid, bucket in sched._buckets.items()},
    }


class TestBulkDrainEquivalence:
    """``drain`` / ``drain_bytes`` serve an unthrottled port in one
    merge, a rate-limited one packet at a time, and a committed choice
    first: whichever way, the packets, their order and every book equal
    a twin served by repeated ``dequeue``."""

    @staticmethod
    def _one_at_a_time(sched, port, budget):
        packets = []
        while budget is None or budget > 0:
            packet = sched.dequeue(port)
            if packet is None:
                break
            packets.append(packet)
            if budget is not None:
                budget -= len(packet)
        return packets

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_twin_run())
    @example(_TWIN_STARTED)
    @example(_TWIN_BUCKET)
    @example(_TWIN_MERGE)
    @example(_TWIN_LIFTED)
    def test_drain_equals_repeated_dequeue(self, run):
        (num_ports, weights, capacity, line_rate, limits, arrivals,
         advance, lift, late, budgets) = run
        twins = []
        for _ in range(2):
            sched = EgressScheduler(num_ports=num_ports, weights=weights,
                                    queue_capacity=capacity,
                                    line_rate_bps=line_rate,
                                    stats=PipelineStats())
            sched.set_mcast_group(1, sorted({0, num_ports - 1}))
            for vid, rate, burst in limits:
                sched.set_rate_limit(vid, rate, burst)
            twins.append(sched)
        bulk, single = twins
        tags = count()
        unicast = set()  # tags of packets both twins hold as one object

        def arrive(batch):
            for port, vid, size, group in batch:
                packet = _twin_packet(size, vid)
                packet.arrival_time = float(next(tags))
                if not group:
                    unicast.add(packet.arrival_time)
                for sched in twins:
                    sched.enqueue(packet, port, group, module_id=vid)

        arrive(arrivals)
        if advance is not None:
            for sched in twins:
                sched.advance_to(advance)
        if lift:
            for sched in twins:
                for vid, _rate, _burst in limits:
                    sched.clear_rate_limit(vid)
        arrive(late)
        for port, budget in enumerate(budgets):
            want = self._one_at_a_time(single, port, budget)
            if budget is None:
                got = bulk.drain(port)
                assert [p.arrival_time for p in got] \
                    == [p.arrival_time for p in want]
                assert all(a is b for a, b in zip(got, want)
                           if a.arrival_time in unicast)
            else:
                expected = {}
                for packet in want:
                    vid = vid_of(packet)
                    expected[vid] = expected.get(vid, 0) + len(packet)
                served = bulk.drain_bytes(port, budget)
                assert list(served.items()) == list(expected.items())
            assert _twin_books(bulk) == _twin_books(single), port
        # what the drains left decides the ranks the next arrivals get
        arrive([(port, vid, 64, 0) for port in range(num_ports)
                for vid in weights])
        assert _twin_books(bulk) == _twin_books(single)
