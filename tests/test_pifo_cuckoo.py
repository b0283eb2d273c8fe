"""Tests for the PIFO/STFQ ranks (§3.5) and cuckoo exact match (§4.3)."""

import pytest

from repro.engine.scheduler import EgressScheduler
from repro.errors import ConfigError
from repro.net import PacketBuilder
from repro.rmt.cuckoo import CuckooExactTable, CuckooInsertError
from repro.rmt.pifo import StfqRanker


def packet(size=200, vid=1):
    return (PacketBuilder().ethernet().vlan(vid=vid).ipv4().udp()
            .payload(b"\x00" * (size - 46)).build())


class TestStfqRanker:
    def test_backlogged_weights_share_proportionally(self):
        ranker = StfqRanker({1: 2.0, 2: 1.0})
        # Module 1 (weight 2) accumulates finish tags half as fast.
        r1 = [ranker.rank(1, 100) for _ in range(4)]
        r2 = [ranker.rank(2, 100) for _ in range(4)]
        assert r1 == [0.0, 50.0, 100.0, 150.0]
        assert r2 == [0.0, 100.0, 200.0, 300.0]

    def test_idle_module_not_punished(self):
        # A module that was idle re-enters at the current virtual time,
        # not at zero (no starvation of the busy ones).
        ranker = StfqRanker({})
        for _ in range(10):
            ranker.rank(1, 100)
        ranker.on_dequeue(500.0)
        assert ranker.rank(2, 100) == 500.0

    def test_bad_weight_rejected(self):
        with pytest.raises(ConfigError):
            StfqRanker({1: 0.0})

    def test_unknown_module_gets_default_weight(self):
        ranker = StfqRanker({1: 2.0}, default_weight=4.0)
        assert ranker.weight_of(1) == 2.0
        assert ranker.weight_of(99) == 4.0
        # Weight 4 accumulates finish tags at 1/4 the byte rate.
        ranks = [ranker.rank(99, 100) for _ in range(3)]
        assert ranks == [0.0, 25.0, 50.0]

    def test_unequal_weights_share_proportionally_with_mixed_sizes(self):
        # Weighted shares must hold in *bytes*, not packets: module 1
        # (weight 3) sends 300-byte packets, module 2 (weight 1) sends
        # 100-byte ones; finish-tag spacing is size/weight either way.
        ranker = StfqRanker({1: 3.0, 2: 1.0})
        r1 = [ranker.rank(1, 300) for _ in range(3)]
        r2 = [ranker.rank(2, 100) for _ in range(3)]
        assert r1 == [0.0, 100.0, 200.0]
        assert r2 == [0.0, 100.0, 200.0]


class TestPifoEgress:
    """The STFQ ranks served in PIFO order — by
    :class:`~repro.engine.scheduler.EgressScheduler`, whose weighted
    sharing, flood resistance and port bounds are pinned in
    ``test_egress_scheduler.py::TestEgressSchedulerFairness``."""

    def test_fifo_contrast(self):
        # The flood that EgressScheduler's
        # test_bursty_elephant_cannot_starve_mouse survives starves
        # module 1 through the plain FIFO TM — the §3.5 problem PIFO
        # fixes.
        from repro.rmt import TrafficManager
        tm = TrafficManager(num_ports=1)
        for _ in range(500):
            tm.enqueue(packet(200, 9), 0)
        for _ in range(50):
            tm.enqueue(packet(200, 1), 0)
        first_80 = [tm.dequeue(0) for _ in range(80)]
        vids = [p.read_int(14, 2) & 0xFFF for p in first_80]
        assert vids.count(1) == 0  # all module 9's backlog first

    @pytest.mark.parametrize("pipeline, tm_class", [
        ("MenshenPipeline", "EgressScheduler"),
        ("RmtPipeline", "TrafficManager"),
    ])
    def test_pipeline_is_built_with_its_traffic_manager(self, pipeline,
                                                        tm_class):
        # A Menshen pipeline ranks its modules in a PIFO from birth; the
        # single-module RMT baseline keeps the FIFO of the contrast above.
        from repro.core import MenshenPipeline
        from repro.rmt import RmtPipeline, TrafficManager
        classes = {"MenshenPipeline": MenshenPipeline,
                   "RmtPipeline": RmtPipeline,
                   "EgressScheduler": EgressScheduler,
                   "TrafficManager": TrafficManager}
        tm = classes[pipeline](num_ports=4).traffic_manager
        assert type(tm) is classes[tm_class]
        assert tm.num_ports == 4

    def test_drain_bytes_counts_transmitted_bytes(self):
        # drain_bytes is a service path like dequeue: what it serves
        # must land in the per-module transmitted bytes with the same
        # (dequeue-time) semantics, and packets left queued must not.
        tm = EgressScheduler(num_ports=1)
        for _ in range(4):
            tm.enqueue(packet(200, 1), 0, module_id=1)
            tm.enqueue(packet(200, 2), 0, module_id=2)
        served = tm.drain_bytes(0, budget_bytes=200 * 4)
        assert sum(served.values()) == 200 * 4
        assert {vid: tm.transmitted_bytes(vid) for vid in served} == served
        assert tm.bytes_out == [200 * 4]
        tm.dequeue(0)
        assert tm.transmitted_bytes(1) + tm.transmitted_bytes(2) == 200 * 5


class TestCuckooExactTable:
    def test_insert_lookup_delete(self):
        table = CuckooExactTable(depth=32)
        slot, moves = table.insert(key=0xABC, module_id=3)
        assert moves == []
        assert table.lookup(0xABC, 3) == slot
        assert table.lookup(0xABC, 4) is None  # module isolation
        table.delete(0xABC, 3)
        assert table.lookup(0xABC, 3) is None

    def test_duplicate_rejected(self):
        table = CuckooExactTable(depth=32)
        table.insert(1, 1)
        with pytest.raises(ConfigError):
            table.insert(1, 1)

    def test_same_key_different_modules(self):
        table = CuckooExactTable(depth=32)
        s1, _ = table.insert(5, 1)
        s2, _ = table.insert(5, 2)
        assert table.lookup(5, 1) == s1
        assert table.lookup(5, 2) == s2

    def test_relocations_keep_entries_findable(self):
        table = CuckooExactTable(depth=64, max_kicks=200)
        inserted = []
        for key in range(40):
            table.insert(key, module_id=1)
            inserted.append(key)
            for k in inserted:  # every prior entry still findable
                assert table.lookup(k, 1) is not None, (key, k)

    def test_high_occupancy_beats_cam_depth(self):
        # §4.3's point: a hash table reaches far beyond 16 entries.
        table = CuckooExactTable(depth=256, max_kicks=500)
        inserted = 0
        try:
            for key in range(256):
                table.insert(key, 1)
                inserted += 1
        except CuckooInsertError:
            pass
        assert inserted >= 128  # >=50% load with 2 hashes
        assert table.load_factor() >= 0.5

    def test_full_table_raises(self):
        table = CuckooExactTable(depth=4, max_kicks=16)
        with pytest.raises(CuckooInsertError):
            for key in range(10):
                table.insert(key, 1)

    def test_relocation_moves_are_consistent(self):
        # Replaying the reported moves on a shadow array must track the
        # table's slot contents (the VLIW-table synchronization rule).
        table = CuckooExactTable(depth=32, max_kicks=100)
        shadow = {}
        for key in range(24):
            slot, moves = table.insert(key, 1)
            for src, dst in moves:
                if src in shadow:
                    shadow[dst] = shadow.pop(src)
            shadow[slot] = key
        for slot, key in shadow.items():
            assert table.lookup(key, 1) == slot

    def test_geometry_validation(self):
        with pytest.raises(ConfigError):
            CuckooExactTable(depth=0)
        with pytest.raises(ConfigError):
            CuckooExactTable(hash_count=1)

    def test_entries_of(self):
        table = CuckooExactTable(depth=32)
        table.insert(1, 1)
        table.insert(2, 1)
        table.insert(3, 2)
        assert len(table.entries_of(1)) == 2
        assert len(table.entries_of(2)) == 1
