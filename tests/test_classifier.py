"""Compiled flow classification (flow cache v2) and the PR 7 accounting
fixes.

Covers the compiler's structure (exact hash, ternary first-match list,
stateful/uncompilable bails), a seeded property pinning random ternary
CAM contents to the scalar path, the engine's three-level hot path and
its counters, epoch-driven rebuild/purge, the invalidation counter-unit
fix, flow-cache replace accounting, the mid-batch layout staleness
regression, and flow-cache edge cases.
"""

import gc

import pytest

from repro.api import Switch, TableEntry, Tenant, Ternary
from repro.core import MenshenPipeline
from repro.core.reconfig import ResourceId, ResourceType, build_reconfig_packet
from repro.engine import BatchEngine, FlowCache, compile_classifier
from repro.errors import ConfigError, PacketError
from repro.modules import firewall
from repro.modules.base import COMMON_HEADER_DECLS, parser_chain
from repro.net import Ipv4Address
from repro.rmt.encodings import encode_parser_entry
from repro.rmt.key_extractor import CmpOp, KeyExtractEntry
from repro.rmt.phv import PHV, ContainerRef, ContainerType
from repro.runtime import MenshenController
from repro.traffic import cache_hostile_stream, workload
from seeds import rng as make_rng


def _firewall_switch(vid=3, **engine_kw):
    switch = Switch.build().create()
    workload("firewall").admit(switch, vid=vid)
    engine = switch.engine(**engine_kw)
    return switch, engine


def _ternary_pair(install):
    """Two identically configured ternary pipelines + an engine."""

    def build():
        pipe = MenshenPipeline(match_mode="ternary")
        ctl = MenshenController(pipe)
        ctl.load_module(2, firewall.P4_SOURCE_TERNARY, "fw-ternary")
        install(ctl)
        return pipe, ctl

    scalar, _ = build()
    batched, ctl = build()
    return scalar, batched, ctl, BatchEngine(batched)


def _random_fw_packets(rng, count, vid=2):
    packets = []
    for _ in range(count):
        src = ".".join(str(rng.randrange(256)) for _ in range(4))
        packets.append(firewall.make_packet(vid, src, rng.randrange(65536)))
    return packets


def _assert_differential(scalar, engine, packets, context=""):
    scalar_results = [scalar.process(p.copy()) for p in packets]
    engine_results = engine.process_batch([p.copy() for p in packets])
    for i, (a, b) in enumerate(zip(scalar_results, engine_results)):
        where = f"{context} packet {i}"
        assert a.dropped == b.dropped, where
        assert a.drop_reason == b.drop_reason, where
        assert a.egress_port == b.egress_port, where
        assert a.mcast_group == b.mcast_group, where
        assert (a.packet is None) == (b.packet is None), where
        if a.packet is not None:
            assert a.packet.tobytes() == b.packet.tobytes(), where
        if a.phv is not None:
            assert a.phv == b.phv, f"{where}: PHV diverged"


# ---------------------------------------------------------------------------
# compiler structure
# ---------------------------------------------------------------------------

class TestCompilerStructure:
    def test_exact_module_compiles_to_hash(self):
        switch, _ = _firewall_switch()
        clf = compile_classifier(switch.pipeline, 3)
        stats = clf.stats()
        assert stats.ok and stats.reason == ""
        assert stats.stages >= 1
        assert stats.exact_keys >= 4       # blocked + 3 allowed rules
        assert stats.residual_entries == 0
        assert stats.stateful_leaves == 0

    def test_ternary_prefixes_compile_to_a_first_match_list(self):
        """A ternary stage is the CAM's own first match: one
        ``(mask, pattern)`` per live row, in address order."""
        def install(ctl):
            firewall.install_prefix(
                Tenant.attach(ctl, 2),
                blocked_prefixes=[("10.66.0.0", 16), ("10.0.0.0", 8)],
                default_port=3)

        _scalar, batched, _ctl, _engine = _ternary_pair(install)
        clf = compile_classifier(batched, 2)
        stats = clf.stats()
        assert stats.ok and stats.exact_keys == 0
        (stage,) = [stage for stage in batched.stages
                    if stage.match_table.entries_of(2)]
        rows = [stage.match_table.read(addr)
                for addr in sorted(stage.match_table.entries_of(2))]
        (plan,) = clf._stages
        assert [(mask, pattern) for mask, pattern, _leaf in plan.residual] \
            == [(row.mask, row.key & row.mask) for row in rows]
        assert stats.residual_entries == len(rows) == 3

    def test_non_contiguous_mask_compiles_to_first_match(self):
        def install(ctl):
            # Wildcard bits interleaved with match bits: the first-match
            # list takes any mask, contiguous or not.
            ctl.insert_entry(2, "acl", TableEntry.of(
                {"hdr.ipv4.srcAddr": Ternary(
                    int(Ipv4Address("10.0.10.0")), 0xFF00FF00),
                 "hdr.udp.dstPort": Ternary(0, 0)},
                "block"))
            firewall.install_prefix(Tenant.attach(ctl, 2), default_port=5)

        scalar, batched, _ctl, engine = _ternary_pair(install)
        clf = compile_classifier(batched, 2)
        stats = clf.stats()
        assert stats.ok
        assert stats.residual_entries >= 2
        _assert_differential(scalar, engine,
                             _random_fw_packets(make_rng(710), 300),
                             "non-contiguous")
        assert engine.counters.compiled_hits > 0

    def test_ternary_priority_matches_scalar_on_overlaps(self):
        def install(ctl):
            firewall.install_prefix(
                Tenant.attach(ctl, 2),
                blocked_prefixes=[("10.66.0.0", 16), ("10.0.0.0", 8)],
                default_port=3)

        scalar, _batched, _ctl, engine = _ternary_pair(install)
        packets = _random_fw_packets(make_rng(711), 400)
        # Force traffic into the overlapping region too.
        rng = make_rng(712)
        for _ in range(200):
            packets.append(firewall.make_packet(
                2, f"10.66.{rng.randrange(256)}.{rng.randrange(256)}",
                rng.randrange(65536)))
        _assert_differential(scalar, engine, packets, "overlap-priority")
        assert engine.counters.compiled_hits == len(packets)

    def test_stateful_leaves_are_counted_and_bail(self):
        switch = Switch.build().create()
        workload("netcache").admit(switch, vid=4)
        clf = compile_classifier(switch.pipeline, 4)
        assert clf.ok
        assert clf.stats().stateful_leaves >= 1

    def test_metadata_predicate_is_uncompilable(self):
        switch, _ = _firewall_switch()
        pipeline = switch.pipeline
        stage = switch.controller._loaded(3).compiled.stages_used()[0]
        entry = KeyExtractEntry(
            cmp_op=CmpOp.EQ,
            cmp_a=ContainerRef(ContainerType.META, 0), cmp_b=0)
        pipeline.stages[stage].key_extract_table.write(3, entry.encode())
        clf = compile_classifier(pipeline, 3)
        assert not clf.ok
        assert "metadata" in clf.reason


# ---------------------------------------------------------------------------
# seeded property: random ternary CAM contents, compiled == scalar
# ---------------------------------------------------------------------------

#: A ternary ACL whose every action is visible: a drop, a forward, a
#: header rewrite, and — the default on a miss — a header sum.
_TERNARY_ACL = COMMON_HEADER_DECLS + """
struct headers_t {
    ethernet_t ethernet; vlan_t vlan; ipv4_t ipv4; udp_t udp;
}
""" + parser_chain(parser_name="AclParser") + """
control AclIngress(inout headers_t hdr) {
    action block() { mark_to_drop(); }
    action allow(bit<16> port) { standard_metadata.egress_spec = port; }
    action tag(bit<16> value) { hdr.udp.srcPort = value; }
    action sum() { hdr.udp.length = hdr.udp.srcPort + hdr.udp.dstPort; }
    table acl {
        key = { hdr.ipv4.srcAddr: ternary; hdr.udp.dstPort: ternary; }
        actions = { block; allow; tag; sum; }
        size = ROWS;
        default_action = sum();
    }
    apply { acl.apply(); }
}
"""

#: Addresses and ports the rows are drawn around, so rows overlap.
_SRC_POOL = (0x0A000001, 0x0A420A07, 0x0A4200FF, 0xC0A80101, 0x0AFF0010)
_PORT_POOL = (53, 80, 443)

_CAM_DEPTH = 16  #: rows per stage (HardwareParams.match_entries_per_stage)


def _random_mask(rng):
    """Mostly a prefix or a non-contiguous mask; now and then all or
    none of the bits."""
    shape = rng.randrange(8)
    if shape < 3:
        return firewall.prefix_mask(rng.randrange(8, 33))
    if shape < 6:
        return rng.getrandbits(32) & rng.getrandbits(32)
    return (0, 0xFFFFFFFF)[shape - 6]


def _random_rows(rng, count):
    """``count`` ternary rows ``((value, mask), (value, mask), action)``:
    fresh prefixes and non-contiguous masks, rows overlapping an earlier
    one, and exact duplicates of one."""
    rows = []
    for _ in range(count):
        action = rng.choice((
            ("block", {}), ("allow", {"port": 1 + rng.randrange(7)}),
            ("tag", {"value": rng.randrange(1 << 16)})))
        if rows and rng.random() < 0.2:
            src, port = rows[rng.randrange(len(rows))][:2]  # duplicate
        elif rows and rng.random() < 0.3:
            (value, mask), port = rows[rng.randrange(len(rows))][:2]
            src = (value, mask & rng.getrandbits(32))        # overlaps it
        else:
            src = (rng.choice(_SRC_POOL), _random_mask(rng))
            port = (rng.choice(_PORT_POOL), rng.choice((0, 0, 0xFFFF)))
        rows.append((src, port, action))
    return rows


def _probe_packets(rng, rows, count):
    """The tenants' packets interleaved: most aimed at one of the
    tenant's rows (a higher row may claim it first), some one bit off
    a row, the rest random."""
    packets = []
    for _ in range(count):
        vid = rng.choice(sorted(rows))
        src, port = rng.getrandbits(32), rng.getrandbits(16)
        if rows[vid] and rng.random() < 0.8:
            (value, mask), (p_value, p_mask), _action = rng.choice(rows[vid])
            src = value & mask | src & ~mask
            port = p_value & p_mask | port & ~p_mask
            if rng.random() < 0.2:
                src ^= 1 << rng.randrange(32)
        packets.append(firewall.make_packet(vid, str(Ipv4Address(src)),
                                            port))
    return packets


class TestTernaryFirstMatchProperty:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_cam_contents_match_the_scalar_path(self, seed):
        """Two ternary tenants split 16 CAM rows; each gets a random row
        set (prefixes, non-contiguous masks, overlapping and duplicate
        ``(mask, pattern)`` pairs) and a default action, and their
        packets interleave. With certification enforced and the cache
        off, every packet is served compiled, equal to the scalar walk,
        PHV included, and every certificate is ``ok``."""
        rng = make_rng(720 + seed)
        first = rng.randrange(1, _CAM_DEPTH)
        sizes = {2: first, 5: _CAM_DEPTH - first}
        rows = {vid: _random_rows(rng, rng.randint(size // 2, size))
                for vid, size in sizes.items()}

        def build():
            switch = Switch.build().ternary().default_actions().create()
            for vid, size in sizes.items():
                tenant = switch.admit(
                    f"acl{vid}", _TERNARY_ACL.replace("ROWS", str(size)),
                    vid=vid)
                for (src, port, (action, params)) in rows[vid]:
                    tenant.table("acl").insert(
                        match={"hdr.ipv4.srcAddr": Ternary(*src),
                               "hdr.udp.dstPort": Ternary(*port)},
                        action=action, params=params)
            return switch

        scalar, batched = build(), build()
        engine = batched.engine(enable_cache=False,
                                check_compiled="enforce")
        packets = _probe_packets(rng, rows, 200)
        _assert_differential(scalar.pipeline, engine, packets,
                             f"seed {seed}")
        counters = engine.counters
        assert counters.compiled_hits == len(packets)
        assert not counters.classifier_fallbacks
        for vid in sizes:
            assert engine.certificates[vid].ok, \
                engine.certificates[vid].render()
            stats = compile_classifier(batched.pipeline, vid).stats()
            assert stats.exact_keys == 0


# ---------------------------------------------------------------------------
# the three-level hot path
# ---------------------------------------------------------------------------

class TestThreeLevelHotPath:
    def test_compiled_hit_seeds_the_exact_match_cache(self):
        _switch, engine = _firewall_switch(enable_cache=True)
        packet = workload("firewall").flow_packet(3, 1)
        first = engine.process(packet.copy())
        second = engine.process(packet.copy())
        counters = engine.counters
        assert not first.cache_hit and second.cache_hit
        assert counters.compiled_hits == 1
        assert counters.cache_hits == 1
        assert counters.cache_misses == 1     # the seeding insert
        assert engine.shard(3).stats.insertions == 1

    def test_uniform_traffic_is_served_compiled(self):
        _switch, engine = _firewall_switch(enable_cache=True)
        packets = cache_hostile_stream(workload("firewall"), 3,
                                       make_rng(713), 500)
        engine.process_batch(packets)
        counters = engine.counters
        assert counters.compiled_hits + counters.cache_hits == 500
        assert counters.compiled_hits > 400   # uniform => mostly misses
        assert not counters.classifier_fallbacks

    def test_stateful_flows_fall_back_with_reason(self):
        switch = Switch.build().create()
        workload("netcache").admit(switch, vid=4)
        engine = switch.engine()
        packets = [workload("netcache").flow_packet(4, i) for i in range(20)]
        engine.process_batch(packets)
        counters = engine.counters
        assert counters.compiled_hits == counters.cache_hits == 0
        assert counters.classifier_fallbacks.get("stateful") == 20

    def test_uncompilable_module_falls_back_and_oracle_faults(self):
        """Repeated flows of a refused classifier all take the oracle —
        nothing it returns is learned — and a packet too short for the
        parse window is still counted under ``parse-window``: the
        layout is read even when the rest does not compile."""
        scalar, _ = _firewall_switch()
        switch, engine = _firewall_switch()
        stage = switch.controller._loaded(3).compiled.stages_used()[0]
        entry = KeyExtractEntry(
            cmp_op=CmpOp.EQ,
            cmp_a=ContainerRef(ContainerType.META, 0), cmp_b=0)
        for twin in (scalar, switch):
            twin.pipeline.inject_reconfig(build_reconfig_packet(
                ResourceId(ResourceType.KEY_EXTRACTOR, stage), index=3,
                entry=entry.encode(), params=switch.params))
        short = workload("firewall").flow_packet(3, 1)
        short.truncate(18)
        packets = [workload("firewall").flow_packet(3, fid)
                   for fid in (1, 2, 3) * 3] + [short]
        # The classifier refuses the config; the scalar oracle then
        # reproduces the per-packet fault the config always caused.
        for packet in packets:
            faults = []
            for serve in (scalar.process, engine.process):
                with pytest.raises((ConfigError, PacketError)) as caught:
                    serve(packet.copy())
                faults.append((type(caught.value), str(caught.value)))
            assert faults[0] == faults[1]
            assert packet is short or "metadata" in faults[0][1]
        counters = engine.counters
        assert counters.cache_hits == counters.compiled_hits == 0
        assert counters.classifier_fallbacks == {"uncompilable": 9,
                                                 "parse-window": 1}
        assert len(engine.shard(3)) == 0

    def test_short_packet_falls_back_parse_window(self):
        _switch, engine = _firewall_switch()
        packet = workload("firewall").flow_packet(3, 1)
        packet.truncate(18)   # keeps the VLAN tag, loses the parsed bytes
        with pytest.raises(PacketError):
            engine.process(packet)
        assert engine.counters.classifier_fallbacks.get("parse-window") == 1


# ---------------------------------------------------------------------------
# epoch rebuild and purge
# ---------------------------------------------------------------------------

class TestRebuildAndPurge:
    def test_epoch_bump_rebuilds_lazily(self):
        switch, engine = _firewall_switch()
        spec = workload("firewall")
        engine.process(spec.flow_packet(3, 1))
        assert engine.counters.compile_rebuilds == 1
        engine.process(spec.flow_packet(3, 2))
        assert engine.counters.compile_rebuilds == 1   # same epoch: reused

        switch.tenant(3).update(spec.source)           # epoch moves
        engine.process(spec.flow_packet(3, 1))
        assert engine.counters.compile_rebuilds == 2
        (stats,) = engine.classifier_stats().values()
        assert stats.epoch == switch.pipeline.epoch_of(3)

    def test_invalidate_purges_classifiers(self):
        _switch, engine = _firewall_switch()
        engine.process(workload("firewall").flow_packet(3, 1))
        assert engine.classifier_stats()
        engine.invalidate(3)
        assert not engine.classifier_stats()
        engine.process(workload("firewall").flow_packet(3, 1))
        assert engine.counters.compile_rebuilds == 2

    def test_a_placed_tenant_binds_once_and_a_rebind_empties_its_shard(
            self, monkeypatch):
        """A freshly placed tenant's first hop reads its parse and
        deparse programs once each: the compiled classifier is the one
        artifact its binding derives, and the cache key, write-back
        spans and window bound are read off its plans (deriving them
        apart read each program twice). An epoch move empties that
        tenant's shard when its next packet rebinds it; a neighbour's
        shard keeps its entries."""
        from fabric_serve import serve
        from repro.fabric import Fabric
        from repro.modules import calc
        from repro.rmt.deparser import Deparser
        from repro.rmt.parser import ProgrammableParser

        fabric = Fabric()
        member = fabric.add_switch("sw0")
        for vid in (1, 2):
            fabric.tenant(
                f"calc{vid}", calc.P4_SOURCE, vid=vid,
                installer=lambda t, port: calc.install(t, port=port)
            ).place(("sw0", 0), ("sw0", 2))
        reads = {}
        for cls, name in ((ProgrammableParser, "parse"),
                          (Deparser, "deparse")):
            def counted(self, vid, _inner=cls.read_program, _name=name):
                reads[_name, vid] = reads.get((_name, vid), 0) + 1
                return _inner(self, vid)
            monkeypatch.setattr(cls, "read_program", counted)

        def hop(vid, *operands):
            return serve(fabric, [("sw0", calc.make_packet(
                vid, calc.OP_ADD, a, 1)) for a in operands])

        assert hop(1, 7).delivered_for(1)
        assert reads == {("parse", 1): 1, ("deparse", 1): 1}
        hop(1, 1, 2, 3)
        hop(2, 1, 2)
        engine = member.engine
        assert (len(engine.shard(1)), len(engine.shard(2))) == (4, 2)

        pipeline = member.switch.pipeline
        epochs = pipeline.epoch_of(1), pipeline.epoch_of(2)
        member.switch.tenant(1).table("calc_table").insert(
            match={"hdr.calc.op": 9}, action="op_echo")
        assert pipeline.epoch_of(1) != epochs[0]
        assert pipeline.epoch_of(2) == epochs[1]
        assert len(engine.shard(1)) == 4          # not yet rebound
        hits = engine.counters.cache_hits
        hop(1, 1)
        assert engine.counters.cache_hits == hits  # re-learned, not hit
        assert len(engine.shard(1)) == 1
        assert engine.shard(1).stats.invalidations == 4
        assert len(engine.shard(2)) == 2
        assert engine.shard(2).stats.invalidations == 0
        hop(2, 1, 2)
        assert engine.counters.cache_hits == hits + 2

    def test_invalidate_all_purges_everything(self):
        _switch, engine = _firewall_switch()
        engine.process(workload("firewall").flow_packet(3, 1))
        engine.invalidate()
        assert not engine.classifier_stats()


# ---------------------------------------------------------------------------
# satellite 1: invalidation counter units
# ---------------------------------------------------------------------------

class TestInvalidationAccounting:
    def test_invalidations_count_flushed_entries(self):
        _switch, engine = _firewall_switch(enable_cache=True)
        spec = workload("firewall")
        engine.process_batch([spec.flow_packet(3, i) for i in range(5)])
        cached = len(engine.shard(3))
        assert cached == 5
        flushed = engine.invalidate(3)
        assert flushed == 5
        assert engine.counters.invalidations == 5
        assert engine.counters.invalidation_calls == 1
        # Same unit as the shard's own stats.
        assert engine.shard(3).stats.invalidations == 5

    def test_noop_invalidate_counts_the_call_only(self):
        _switch, engine = _firewall_switch()
        assert engine.invalidate(999) == 0
        assert engine.counters.invalidations == 0
        assert engine.counters.invalidation_calls == 1

    def test_invalidate_vid_with_layout_but_no_shard(self):
        # A VID whose layout (and classifier) exist but whose shard
        # holds nothing: invalidate must flush zero entries and must
        # still purge the layout and classifier. (Layout, classifier
        # and shard are one per-tenant context, so "no shard" is an
        # empty one; the shard object itself outlives the purge.)
        _switch, engine = _firewall_switch(enable_cache=False)
        engine.process(workload("firewall").flow_packet(3, 1))
        context = engine._contexts[3]
        assert context.epoch is not None and context.key
        shard = engine.shard(3)
        assert len(shard) == 0
        assert engine.invalidate(3) == 0
        assert engine.counters.invalidations == 0
        assert engine.counters.invalidation_calls == 1
        assert context.epoch is None and context.classifier is None
        assert not engine.classifier_stats()
        assert engine.shard(3) is shard


# ---------------------------------------------------------------------------
# satellite 2: flow-cache replace accounting; satellite 4: edge cases
# ---------------------------------------------------------------------------

def _entry(tag=0):
    return (*PHV().snapshot(), False, bytes([tag]))


def _occupancy_holds(cache):
    stats = cache.stats
    return len(cache) == (stats.insertions - stats.evictions
                          - stats.replacements - stats.invalidations)


class TestFlowCacheEdges:
    def test_replace_is_counted_and_occupancy_tracks(self):
        cache = FlowCache(4)
        cache.insert(("k",), _entry(1))
        cache.insert(("k",), _entry(2))     # same key: replacement
        assert cache.lookup(("k",)) == _entry(2)
        assert cache.stats.insertions == 2
        assert cache.stats.replacements == 1
        assert cache.stats.evictions == 0
        assert len(cache) == 1 and _occupancy_holds(cache)

    def test_capacity_one_lru_churn(self):
        cache = FlowCache(1)
        cache.insert(("a",), _entry())
        cache.insert(("b",), _entry())      # evicts a
        assert cache.lookup(("a",)) is None
        assert cache.lookup(("b",)) is not None
        cache.insert(("a",), _entry())      # evicts b
        assert cache.lookup(("b",)) is None
        assert len(cache) == 1
        assert cache.stats.evictions == 2
        assert cache.stats.replacements == 0
        assert _occupancy_holds(cache)

    def test_clear_is_the_only_invalidation(self):
        # Entries carry no epoch: a shard is emptied as a whole when
        # its tenant is rebound, and only that counts as invalidation.
        cache = FlowCache(4)
        cache.insert(("k",), _entry(1))
        cache.insert(("j",), _entry(2))
        assert cache.lookup(("k",)) == _entry(1)
        assert cache.stats.invalidations == 0
        assert cache.clear() == 2
        assert cache.lookup(("k",)) is None
        assert cache.stats.invalidations == 2
        assert len(cache) == 0 and _occupancy_holds(cache)

    def test_hit_rate_with_zero_traffic(self):
        cache = FlowCache(4)
        assert cache.stats.hit_rate == 0.0


# ---------------------------------------------------------------------------
# flow-cache records: nothing shared, nothing for the collector to walk
# ---------------------------------------------------------------------------

def _assert_same_result(got, want):
    """Field for field, except ``cache_hit`` (observability only)."""
    assert got.packet.tobytes() == want.packet.tobytes()
    assert got.phv == want.phv  # buffer tag included
    assert ((got.dropped, got.drop_reason, got.egress_port,
             got.mcast_group, got.module_id)
            == (want.dropped, want.drop_reason, want.egress_port,
                want.mcast_group, want.module_id))


class TestFlowCacheRecords:
    def test_a_hit_shares_nothing_mutable_with_the_cache(self):
        """Mutating a learned or served result never reaches the
        stored record or a later hit of the same flow."""
        scalar, _ = _firewall_switch()
        _switch, engine = _firewall_switch()
        packets = [workload("firewall").flow_packet(3, 1) for _ in range(3)]
        twins = [scalar.process(p.copy()) for p in packets]

        learned = engine.process(packets[0].copy())
        assert not learned.cache_hit
        learned.phv.data[0:8] = [0xFFFF] * 8  # every B2 container
        learned.phv.metadata.buf[:] = b"\xff" * len(learned.phv.metadata.buf)
        (record,) = engine.shard(3)._entries.values()
        assert record[:25] == twins[0].phv.snapshot()

        first = engine.process(packets[1].copy())
        assert first.cache_hit
        _assert_same_result(first, twins[1])
        first.phv.data[8] ^= 0xFFFF  # B4 container 0
        first.phv.metadata.buf[2] ^= 0xFF
        first.packet.buf[:] = bytes(len(first.packet.buf))

        second = engine.process(packets[2].copy())
        assert second.cache_hit
        _assert_same_result(second, twins[2])

    def test_each_level_returns_a_phv_owning_one_flat_list(self):
        """The scalar walk, the compiled level and a cache hit each
        return a PHV whose containers are one list of 24 ints, its only
        list, and no two results share it."""
        scalar, _ = _firewall_switch()
        _switch, engine = _firewall_switch()
        spec = workload("firewall")
        walked = scalar.process(spec.flow_packet(3, 1))
        compiled = engine.process(spec.flow_packet(3, 1))
        hit = engine.process(spec.flow_packet(3, 1))
        other = engine.process(spec.flow_packet(3, 2))
        assert hit.cache_hit and engine.counters.compiled_hits == 2

        results = (walked, compiled, hit, other)
        for result in results:
            phv = result.phv
            lists = [v for v in vars(phv).values() if isinstance(v, list)]
            assert lists == [phv.data] and type(phv.data) is list
            assert len(phv.data) == 24
            assert all(type(value) is int for value in phv.data)
        assert len({id(result.phv.data) for result in results}) == 4
        assert walked.phv.data == compiled.phv.data == hit.phv.data

    def test_a_full_shard_adds_nothing_to_a_collection(self):
        """4 096 cached flows leave no object for the garbage collector
        to walk: every record is untracked after three collections, and the
        collector's object count grows by < 0.1 per record (a record
        holding a ``PHV`` grows it by ≈ 7)."""
        switch, engine = _firewall_switch()
        spec = workload("firewall")
        scheduler = switch.egress_scheduler
        capacity = engine.cache_capacity

        def serve(flows):
            engine.process_batch([spec.flow_packet(3, f) for f in flows])
            scheduler.drain_all()
            for _ in range(3):
                gc.collect()
            return len(gc.get_objects())

        # Warm up on flows outside the measured range: the classifier,
        # the tenant's counters and the scheduler's state exist before
        # the baseline is counted.
        before = serve(range(capacity, capacity + 16))
        after = serve(range(capacity))
        records = list(engine.shard(3)._entries.values())
        assert len(records) == capacity
        assert not any(gc.is_tracked(record) for record in records)
        assert after - before < 0.1 * capacity

    def test_one_young_collection_untracks_every_record(self):
        """A record is one flat tuple of atomic values, so the first
        collection after it is learned, the youngest generation's,
        untracks it: none reaches an older generation, where only a
        full collection would untrack it."""
        switch, engine = _firewall_switch()
        spec = workload("firewall")
        capacity = engine.cache_capacity
        engine.process_batch([spec.flow_packet(3, f)
                              for f in range(capacity)])
        switch.egress_scheduler.drain_all()
        gc.collect(0)
        records = list(engine.shard(3)._entries.values())
        assert len(records) == capacity
        assert sum(map(gc.is_tracked, records)) == 0


# ---------------------------------------------------------------------------
# satellite 3: no stale layout across a mid-batch reconfiguration
# ---------------------------------------------------------------------------

class TestMidBatchLayoutStaleness:
    def test_parser_rewrite_inside_batch_refreshes_layout(self):
        """A dataplane write that changes the parse program mid-batch
        must not let packets behind the barrier use the old layout."""

        def build():
            switch = Switch.build().reconfig_from_dataplane().create()
            workload("firewall").admit(switch, vid=3)
            return switch

        scalar = build()
        batched = build()
        engine = batched.engine(enable_cache=True)

        # Truncate the firewall's parse program to its first action:
        # later fields stay zero, so match behavior visibly changes,
        # and the engine's cached layout regions become stale.
        actions = scalar.pipeline.parser.read_program(3)
        assert len(actions) > 1
        truncated = encode_parser_entry([actions[0].encode()])
        rewrite = build_reconfig_packet(
            ResourceId(ResourceType.PARSER_TABLE, 0), index=3,
            entry=truncated, params=scalar.params)

        spec = workload("firewall")
        rng = make_rng(714)
        flows = [spec.flow_packet(3, rng.randrange(256)) for _ in range(80)]
        batch = flows[:40] + [rewrite] + flows[40:]

        scalar_results = [scalar.process(p.copy()) for p in batch]
        engine_results = engine.process_batch([p.copy() for p in batch])

        for i, (a, b) in enumerate(zip(scalar_results, engine_results)):
            assert a.dropped == b.dropped, f"packet {i}"
            assert a.egress_port == b.egress_port, f"packet {i}"
            if a.packet is not None:
                assert a.packet.tobytes() == b.packet.tobytes(), f"packet {i}"

        # The layout served after the barrier is the rewritten one, not
        # the one cached when the batch started.
        layout = engine._contexts[3]
        assert layout.epoch == batched.pipeline.epoch_of(3)
        assert len(layout.key) == len(layout.classifier._parse) == 1
        # And the rewrite is observable: some flow that appears on both
        # sides of the barrier changed its scalar verdict, so the
        # equivalence above really did exercise a stale-layout hazard.
        pre = {batch[i].tobytes(): (r.dropped, r.egress_port)
               for i, r in enumerate(scalar_results[:40])}
        flipped = any(
            batch[i].tobytes() in pre
            and pre[batch[i].tobytes()] != (r.dropped, r.egress_port)
            for i, r in enumerate(scalar_results) if i > 40)
        assert flipped, "parser rewrite produced no observable change"
