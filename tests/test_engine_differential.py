"""Differential conformance: batched+cached execution vs the scalar path.

The :class:`repro.engine.BatchEngine` contract is packet-for-packet
equivalence with ``pipeline.process``. These tests enforce it across all
eight evaluated modules on seeded zipf flow traffic (so warm cache-hit
paths are exercised, not just cold misses), across API reconfiguration
mid-stream (cached verdicts must die with the configuration that
produced them), and across dataplane reconfiguration packets *inside* a
batch (Corundum mode), where the engine must flush pending shards before
the configuration write lands.
"""

import importlib
import inspect
import re
import traceback

import pytest

from repro.api import Switch
from repro.core.reconfig import ResourceId, ResourceType, build_reconfig_packet
from repro.engine import BatchEngine
from repro.errors import FieldRangeError
from repro.modules.base import COMMON_HEADER_DECLS, common_packet, parser_chain
from repro.traffic import TraceReplayer, ZipfFlows, all_workloads, flow_stream, workload
from seeds import rng as make_rng

WARMUP = 120    #: packets before assertions about hits kick in
ROUNDS = 360


def build_pair(specs, engine_kw=None, **build_kw):
    """Two identically configured switches + an engine on the second."""

    def build():
        switch = Switch.build().create() if not build_kw else \
            _build_with(**build_kw)
        for vid, spec in specs:
            spec.admit(switch, vid=vid)
        return switch

    scalar = build()
    batched = build()
    return scalar, batched, batched.engine(**(engine_kw or {}))


def _build_with(**kw):
    builder = Switch.build()
    if kw.get("reconfig_from_dataplane"):
        builder = builder.reconfig_from_dataplane()
    if kw.get("default_actions"):
        builder = builder.default_actions()
    return builder.create()


def assert_equivalent(scalar_results, engine_results, context=""):
    """Field-for-field equality of two result sequences."""
    assert len(scalar_results) == len(engine_results)
    for i, (a, b) in enumerate(zip(scalar_results, engine_results)):
        where = f"{context} packet {i}"
        assert a.dropped == b.dropped, where
        assert a.drop_reason == b.drop_reason, where
        assert a.egress_port == b.egress_port, where
        assert a.mcast_group == b.mcast_group, where
        assert a.module_id == b.module_id, where
        assert (a.packet is None) == (b.packet is None), where
        if a.packet is not None:
            assert a.packet.tobytes() == b.packet.tobytes(), where
        assert (a.phv is None) == (b.phv is None), where
        if a.phv is not None:
            assert a.phv == b.phv, f"{where}: PHV diverged"


def assert_same_observable_state(scalar, batched):
    """Pipeline statistics and TM queue contents must match too.

    Both switches queue into the same weighted-fair scheduler in the
    same enqueue order, so every port must drain the same packet
    sequence, byte for byte.
    """
    assert scalar.pipeline.stats.summary() == batched.pipeline.stats.summary()
    assert dict(scalar.pipeline.stats.per_module_out) == \
        dict(batched.pipeline.stats.per_module_out)
    assert dict(scalar.pipeline.stats.drop_reasons) == \
        dict(batched.pipeline.stats.drop_reasons)

    def drained(switch):
        return {port: [p.tobytes() for p in q] for port, q in
                switch.pipeline.traffic_manager.drain_all().items()}

    assert drained(scalar) == drained(batched)


# ---------------------------------------------------------------------------
# all eight modules, warm cache included
# ---------------------------------------------------------------------------

#: Engine configurations the equivalence contract is pinned under — the
#: full product of what an engine can still vary: the exact-match level
#: on ("cached", the three-level hot path) or off ("classifier-only",
#: which forces *every* pure packet through the compiled path instead of
#: letting warm flows hide behind cache hits), each plain or
#: "-certified" (every classifier rebuild proven against the installed
#: tables and refused if the proof fails).
ENGINE_MODES = {
    cache_name + certify_name: {"enable_cache": enable_cache,
                                "check_compiled": check_compiled}
    for cache_name, enable_cache in (("cached", True),
                                     ("classifier-only", False))
    for certify_name, check_compiled in (("", "off"),
                                         ("-certified", "enforce"))}

#: The engine parameters ``ENGINE_MODES`` does not vary: plain sizes,
#: with no path of their own.
ENGINE_SIZES = {"cache_capacity"}


def test_every_engine_parameter_is_pinned():
    """A parameter of ``Switch.engine`` / ``BatchEngine`` is either
    varied by ``ENGINE_MODES`` (all of its values, as a full product) or
    named in ``ENGINE_SIZES`` — a new knob cannot arrive unpinned."""
    def names(fn):
        return list(inspect.signature(fn).parameters)[1:]   # drop self

    assert names(Switch.engine) == [
        "cache_capacity", "enable_cache", "check_compiled"]
    assert names(BatchEngine.__init__) == [
        "pipeline", "cache_capacity", "enable_cache", "check_compiled"]
    varied = {name for kw in ENGINE_MODES.values() for name in kw}
    assert varied == {"enable_cache", "check_compiled"}
    assert len(ENGINE_MODES) == 4           # 2 x 2, every combination
    assert set(names(Switch.engine)) == varied | ENGINE_SIZES
    assert set(names(BatchEngine.__init__)) \
        <= {"pipeline"} | varied | ENGINE_SIZES


@pytest.mark.parametrize("mode", sorted(ENGINE_MODES))
@pytest.mark.parametrize("spec", all_workloads(), ids=lambda s: s.name)
def test_batched_equals_scalar(spec, mode):
    offset = 100 + [w.name for w in all_workloads()].index(spec.name)
    rng = make_rng(offset)
    packets = flow_stream(spec, 3, rng, ROUNDS,
                          ZipfFlows(spec.n_flows, skew=0.9))
    scalar, batched, engine = build_pair([(3, spec)],
                                         engine_kw=ENGINE_MODES[mode])

    scalar_results = [scalar.process(p.copy()) for p in packets]
    engine_results = TraceReplayer(packets).replay(engine, batch_size=64)

    assert_equivalent(scalar_results, engine_results, f"{spec.name}/{mode}")
    assert_same_observable_state(scalar, batched)

    counters = engine.counters
    if ENGINE_MODES[mode]["check_compiled"] == "enforce":
        # Enforcement must not cost a single compiled packet: every
        # rebuild certifies, so nothing is refused onto the oracle.
        assert "uncertified" not in counters.classifier_fallbacks
        assert engine.certificates
        assert all(c.ok for c in engine.certificates.values()), \
            engine.certificates
    if spec.stateful:
        # State-carrying modules must never be served from the cache or
        # the compiled path: every packet hits a stateful leaf, bails,
        # and takes the scalar walk.
        assert counters.cache_hits == 0
        assert counters.compiled_hits == 0
        assert counters.classifier_fallbacks.get("stateful") == ROUNDS
    elif not ENGINE_MODES[mode]["enable_cache"]:
        # With the exact-match level off, every pure packet must be a
        # compiled hit — otherwise this test silently stops covering
        # the classifier.
        assert counters.compiled_hits == ROUNDS
        assert counters.cache_hits == 0
        assert not counters.classifier_fallbacks
    else:
        # Zipf-0.9 over a warm cache must actually hit; otherwise this
        # test silently stops covering the cached path. Cold misses are
        # served by the compiled level, never the scalar walk.
        assert counters.cache_hits > WARMUP
        assert any(r.cache_hit for r in engine_results[WARMUP:])
        assert counters.cache_hits + counters.compiled_hits == ROUNDS


#: One table, one stateful action and one pure one: ``op`` 1 counts the
#: packet into a register, ``op`` 2 only copies its tag and steers it.
MIXED_SOURCE = COMMON_HEADER_DECLS + """
header tally_t { bit<16> op; bit<32> tag; bit<32> stat; }
struct headers_t {
    ethernet_t ethernet; vlan_t vlan; ipv4_t ipv4; udp_t udp; tally_t tally;
}
""" + parser_chain("""
    state parse_tally { packet.extract(hdr.tally); transition accept; }
""", first_module_state="parse_tally", parser_name="TallyParser") + """
control TallyIngress(inout headers_t hdr) {
    register<bit<32>>(4) seen;
    action count() { seen.loadd(hdr.tally.stat, 0); }
    action steer(bit<16> port) {
        hdr.tally.stat = hdr.tally.tag;
        standard_metadata.egress_spec = port;
    }
    table tally {
        key = { hdr.tally.op: exact; }
        actions = { count; steer; }
        size = 4;
    }
    apply { tally.apply(); }
}
"""


def _mixed_packet(op, tag):
    return common_packet(1, op.to_bytes(2, "big") + tag.to_bytes(4, "big")
                         + bytes(4))


@pytest.mark.parametrize("mode", sorted(
    m for m, kw in ENGINE_MODES.items() if kw["enable_cache"]))
def test_a_stateful_flow_leaves_its_tenants_pure_flows_cached(mode):
    """After a stateful packet, the same tenant's pure flows are still
    exact-match hits and its stateful flows never are: only compiled
    results are learned, and a stateful leaf bails to the scalar walk.
    Outputs, statistics and the register are pinned to a scalar twin.
    (When the scalar walk's pure results were learned too, the first
    stateful packet switched the tenant's cache off.)"""
    def build():
        switch = Switch.build().create()
        tenant = switch.admit("mixed", MIXED_SOURCE, vid=1)
        tenant.table("tally").insert(match={"hdr.tally.op": 1},
                                     action="count")
        tenant.table("tally").insert(match={"hdr.tally.op": 2},
                                     action="steer", params={"port": 2})
        return switch

    scalar, batched = build(), build()
    engine = batched.engine(**ENGINE_MODES[mode])
    rounds = [[_mixed_packet(op, tag) for op in (1, 2) for tag in (5, 6)]
              for _ in range(3)]
    for number, packets in enumerate(rounds):
        before = engine.counters
        assert_equivalent([scalar.process(p.copy()) for p in packets],
                          engine.process_batch([p.copy() for p in packets]),
                          f"{mode} round {number}")
        served = engine.counters.delta_since(before)
        # two pure flows: compiled and learned once, hits from then on
        assert served.cache_hits == (2 if number else 0)
        assert served.compiled_hits == (0 if number else 2)
        assert served.classifier_fallbacks == {"stateful": 2}
    assert_same_observable_state(scalar, batched)
    assert scalar.tenant(1).register("seen").read(0) == \
        batched.tenant(1).register("seen").read(0) == 6
    assert len(engine.shard(1)) == 2


def test_two_tenants_interleaved():
    """Two tenants of the same program but different rules, interleaved."""
    fw = workload("firewall")
    rng = make_rng(150)
    scalar, batched, engine = build_pair([(1, fw), (2, fw)])
    sampler = ZipfFlows(fw.n_flows, skew=0.99)
    packets = []
    for _ in range(ROUNDS // 2):
        packets.append(fw.flow_packet(1, sampler.sample(rng)))
        packets.append(fw.flow_packet(2, sampler.sample(rng)))

    scalar_results = [scalar.process(p.copy()) for p in packets]
    engine_results = engine.process_batch([p.copy() for p in packets])
    assert_equivalent(scalar_results, engine_results, "interleaved")
    assert_same_observable_state(scalar, batched)
    assert engine.counters.tenant(1).cache_hits > 0
    assert engine.counters.tenant(2).cache_hits > 0


@pytest.mark.parametrize("mode", sorted(ENGINE_MODES))
def test_unknown_egress_port_is_a_counted_drop(mode):
    """A tenant whose entries steer to a port the switch does not have
    (``calc`` on port 40 of an 8-port switch) loses each packet as a
    counted ``unknown_port`` drop, on every engine level, in batches of
    one and of many, exactly as on the scalar path; its neighbour's
    packets are forwarded."""
    from repro.modules import calc

    def build():
        switch = Switch.build().create()
        calc.install(switch.admit("lost", calc.P4_SOURCE, vid=1), port=40)
        calc.install(switch.admit("kept", calc.P4_SOURCE, vid=2), port=3)
        return switch

    scalar, batched = build(), build()
    engine = batched.engine(**ENGINE_MODES[mode])
    # two flows per tenant, repeated: warm hops hit the exact-match level
    packets = [calc.make_packet(vid, calc.OP_ADD, i % 2, 1)
               for i in range(8) for vid in (1, 2)]
    scalar_results = [scalar.process(p.copy()) for p in packets]
    engine_results = [engine.process_batch([p.copy()])[0]
                      for p in packets[:8]]
    engine_results += engine.process_batch([p.copy() for p in packets[8:]])
    assert_equivalent(scalar_results, engine_results, mode)
    assert_same_observable_state(scalar, batched)
    assert [(r.dropped, r.drop_reason, r.egress_port)
            for r in scalar_results[:2]] == [(True, "unknown_port", 40),
                                             (False, "", 3)]
    for switch in (scalar, batched):
        stats = switch.pipeline.stats
        assert stats.drop_reasons["unknown_port"] == 8
        lost, kept = stats.tenants[1], stats.tenants[2]
        assert (lost.packets_in, lost.packets_dropped, lost.packets_out,
                lost.enqueued) == (8, 8, 0, 0)
        assert (kept.packets_in, kept.packets_out) == (8, 8)
    assert engine.counters.drops == 8


# ---------------------------------------------------------------------------
# mid-stream reconfiguration through the repro.api facade
# ---------------------------------------------------------------------------

def test_api_reconfig_mid_stream_invalidates():
    """Cached verdicts must not survive a rule change between batches."""
    fw = workload("firewall")
    rng = make_rng(160)
    scalar, batched, engine = build_pair([(3, fw)])
    packets = flow_stream(fw, 3, rng, ROUNDS,
                          ZipfFlows(fw.n_flows, skew=0.99))
    half = len(packets) // 2

    first_a = [scalar.process(p.copy()) for p in packets[:half]]
    first_b = engine.process_batch([p.copy() for p in packets[:half]])
    assert_equivalent(first_a, first_b, "pre-reconfig")
    assert engine.counters.cache_hits > 0

    # Same transactional rule wipe on both switches: every ACL entry
    # goes away, so previously-blocked flows now pass through.
    for switch in (scalar, batched):
        tenant = switch.tenant(3)
        acl = tenant.table("acl")
        with tenant.transaction() as txn:
            for handle in acl.handles():
                txn.table("acl").delete(handle)

    hits_before_second_half = engine.counters.cache_hits
    second_a = [scalar.process(p.copy()) for p in packets[half:]]
    second_b = engine.process_batch([p.copy() for p in packets[half:]])
    assert_equivalent(second_a, second_b, "post-reconfig")
    assert_same_observable_state(scalar, batched)

    # The old verdicts really differed (flow 0 was blocked, now flows),
    # so equivalence above proves stale entries were not served.
    blocked_flow = fw.flow_packet(3, 0)
    assert scalar.process(blocked_flow.copy()).forwarded
    # And the cache re-learned rather than replayed: the first packet of
    # each flow after the wipe was a miss.
    assert engine.counters.cache_misses > 0
    assert engine.counters.cache_hits > hits_before_second_half  # re-warmed


def test_module_update_and_evict_invalidate():
    """tenant.update()/evict() flush that tenant's cached flows and
    nobody else's."""
    fw = workload("firewall")
    qos = workload("qos")
    scalar, batched, engine = build_pair([(1, fw), (2, qos)])
    pkt_fw = fw.flow_packet(1, 1)      # allowed -> port 2
    pkt_qos = qos.flow_packet(2, 0)

    for _ in range(3):
        scalar.process(pkt_fw.copy())
        scalar.process(pkt_qos.copy())
        engine.process_batch([pkt_fw.copy(), pkt_qos.copy()])
    assert engine.shard(1).stats.hits > 0
    epoch_1_before = batched.pipeline.epoch_of(1)
    epoch_2_before = batched.pipeline.epoch_of(2)

    # Replace tenant 1's program with the same source but no rules:
    # every flow now takes the default path.
    for switch in (scalar, batched):
        switch.tenant(1).update(fw.source)
    a = scalar.process(pkt_fw.copy())
    b = engine.process(pkt_fw.copy())
    assert_equivalent([a], [b], "post-update")
    assert a.egress_port == 0  # the allow rule is gone
    assert not b.cache_hit     # tenant 1's old entries are unreachable

    # Evicting drops the module: packets become unknown_module drops.
    for switch in (scalar, batched):
        switch.tenant(1).evict()
    a = scalar.process(pkt_fw.copy())
    b = engine.process(pkt_fw.copy())
    assert_equivalent([a], [b], "post-evict")
    assert b.drop_reason == "unknown_module"
    assert len(engine.shard(1)) == 0
    # The evicted tenant's own artifacts are unreachable: its epoch moved
    # past anything that was ever compiled or memoized for it.
    assert 1 not in engine.classifier_stats()
    assert batched.pipeline.epoch_of(1) != epoch_1_before
    # The untouched tenant never noticed: its epoch did not move, so its
    # entries are still live — a hit, not a re-learn — and still agree
    # with the scalar oracle byte for byte.
    assert batched.pipeline.epoch_of(2) == epoch_2_before
    rebuilds = engine.counters.tenant(2).compile_rebuilds
    invalidations = engine.shard(2).stats.invalidations
    a = scalar.process(pkt_qos.copy())
    c = engine.process(pkt_qos.copy())
    assert c.cache_hit
    assert_equivalent([a], [c], "untouched-tenant")
    assert engine.counters.tenant(2).compile_rebuilds == rebuilds
    assert engine.shard(2).stats.invalidations == invalidations


# ---------------------------------------------------------------------------
# dataplane reconfiguration packets inside one batch (Corundum mode)
# ---------------------------------------------------------------------------

def test_reconfig_packet_inside_batch():
    """A config write mid-batch splits it: old config before, new after.

    The write zeroes the firewall's stage-0 key mask, so every flow
    stops matching its ACL entries (lookup key collapses to zero) and
    falls through to the default path — an observable behavior flip that
    cached entries must not paper over.
    """
    fw = workload("firewall")
    rng = make_rng(170)
    scalar, batched, engine = build_pair([(3, fw)],
                                         reconfig_from_dataplane=True)
    stage = scalar.controller._loaded(3).compiled.stages_used()[0]
    wipe_mask = build_reconfig_packet(
        ResourceId(ResourceType.KEY_MASK, stage), index=3, entry=0,
        params=scalar.params)

    packets = flow_stream(fw, 3, rng, 120, ZipfFlows(fw.n_flows, skew=0.99))
    batch = packets[:60] + [wipe_mask] + packets[60:]

    scalar_results = [scalar.process(p.copy()) for p in batch]
    engine_results = engine.process_batch([p.copy() for p in batch])

    assert_equivalent(scalar_results, engine_results, "split batch")
    assert_same_observable_state(scalar, batched)
    assert engine.counters.reconfig_flushes == 1
    assert scalar_results[60].drop_reason == "reconfig_consumed"
    # The flip is real: flow 0 was blocked before the write, passes after.
    blocked = [r.dropped for i, r in enumerate(scalar_results)
               if i != 60 and batch[i].tobytes() ==
               fw.flow_packet(3, 0).tobytes()]
    if blocked:  # zipf rank 1 appears on both sides of the barrier
        assert True in blocked and False in blocked


# ---------------------------------------------------------------------------
# per-hop overhead gates: what one hop reads, every batch size, the error path
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, cls, names, calls):
    for name in names:
        def counted(self, *args, _inner=getattr(cls, name), _name=name,
                    **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, counted)


def test_warm_hop_looks_at_the_header_once(monkeypatch):
    """Counts only (no wall clock): a warmed ``calc`` flow served from
    the exact-match level goes through none of ``Packet``'s
    bounds-checked accessors — filter, VID and flow key are read off
    ``packet.buf`` behind one length comparison each — and builds its
    output from the flow key's copy of the bytes, with no
    ``Packet.copy``. Re-sniffing the header per layer cost 9 ``read_int``,
    13 ``read_bytes`` and 14 ``_check_range`` calls on this very hop.
    The compiled level and the scalar fallback read nothing that way
    either before the oracle's own ``execute``. Outcomes are pinned to
    ``switch.process`` on a twin, so the bound cannot be met by
    checking less."""
    from repro.core import MenshenPipeline
    from repro.net.packet import Packet

    calc, netcache = workload("calc"), workload("netcache")
    specs = [(1, calc), (2, netcache)]
    packet = calc.flow_packet(1, 5)
    stateful = netcache.flow_packet(2, 5)
    engines = {}
    for level, kw in (("cache", {}), ("compiled", {"enable_cache": False})):
        scalar, _batched, engine = build_pair(specs, engine_kw=kw)
        for warm in (packet, packet, stateful):
            assert_equivalent([scalar.process(warm.copy())],
                              engine.process_batch([warm.copy()]), level)
        engines[level] = (scalar, engine)

    calls = {}
    _count_calls(monkeypatch, Packet,
                 ("read_int", "read_bytes", "_check_range", "copy"), calls)
    at_execute = []
    inner_execute = MenshenPipeline.execute

    def execute(self, *args, **kwargs):
        at_execute.append(dict(calls))
        return inner_execute(self, *args, **kwargs)
    monkeypatch.setattr(MenshenPipeline, "execute", execute)

    def hop(level, pkt):
        scalar, engine = engines[level]
        expected, fresh = scalar.process(pkt.copy()), pkt.copy()
        calls.clear()
        del at_execute[:]
        (result,) = engine.process_batch([fresh])
        counted = dict(at_execute[0]) if at_execute else dict(calls)
        assert_equivalent([expected], [result], level)
        return result, counted, len(at_execute)

    result, counted, executed = hop("cache", packet)
    assert result.cache_hit and not executed
    assert counted == {}, counted

    result, counted, executed = hop("compiled", packet)
    assert not result.cache_hit and not executed
    assert engines["compiled"][1].counters.compiled_hits == 3
    assert counted.get("read_int", 0) == 0, counted

    for level in ("cache", "compiled"):
        _result, counted, executed = hop(level, stateful)
        assert executed == 1              # the scalar oracle served it
        assert counted.get("read_int", 0) == 0, (level, counted)


def _three_tenant_stream(reconfig_params, mask_stage):
    """calc, firewall and stateful netcache interleaved; mid-stream a
    dataplane write that wipes the firewall's key mask, then a packet
    of a VID nobody loaded (dropped before the parser)."""
    specs = [(1, workload("calc")), (2, workload("firewall")),
             (3, workload("netcache"))]
    rng = make_rng(180)
    streams = [flow_stream(spec, vid, rng, 60,
                           ZipfFlows(spec.n_flows, skew=0.9))
               for vid, spec in specs]
    packets = [p for trio in zip(*streams) for p in trio]
    wipe_mask = build_reconfig_packet(
        ResourceId(ResourceType.KEY_MASK, mask_stage), index=2, entry=0,
        params=reconfig_params)
    stranger = workload("calc").flow_packet(9, 1)
    return specs, packets[:90] + [wipe_mask, stranger] + packets[90:]


@pytest.mark.parametrize("mode", sorted(ENGINE_MODES))
def test_every_batch_size_equals_scalar(mode):
    """Batch sizes 1 (the straight-line path every fabric hop takes), 7
    (runs cut mid-tenant-cycle and by the barrier) and 64 serve one
    stream identically: results, pipeline statistics, every port's
    queued packet sequence — and, between sizes, every engine counter
    but the batch count."""
    import dataclasses

    probe = build_pair([(2, workload("firewall"))])[0]
    stage = probe.controller._loaded(2).compiled.stages_used()[0]
    specs, stream = _three_tenant_stream(probe.params, stage)
    totals = {}
    for size in (1, 7, 64):
        scalar, batched, engine = build_pair(
            specs, engine_kw=ENGINE_MODES[mode],
            reconfig_from_dataplane=True)
        scalar_results = [scalar.process(p.copy()) for p in stream]
        engine_results = TraceReplayer(stream).replay(engine,
                                                      batch_size=size)
        assert_equivalent(scalar_results, engine_results,
                          f"{mode}/batch {size}")
        assert_same_observable_state(scalar, batched)
        assert scalar_results[90].drop_reason == "reconfig_consumed"
        assert scalar_results[91].drop_reason == "unknown_module"
        counters = engine.counters
        assert counters.reconfig_flushes == 1
        assert counters.early_drops == 1
        assert counters.batches == -(-len(stream) // size)
        totals[size] = dataclasses.replace(counters, batches=0)
    assert totals[1] == totals[7] == totals[64]
    # Every level served something, so the sizes agree on all of them.
    assert totals[1].classifier_fallbacks["stateful"] == 60  # netcache
    assert totals[1].compiled_hits > 0
    if ENGINE_MODES[mode]["enable_cache"]:
        assert totals[1].cache_hits > 0


def test_parse_fault_is_the_scalar_paths_own():
    """A ``calc`` packet cut off inside its own header raises from the
    engine exactly what the scalar path raises, and leaves both
    switches serving every tenant identically afterwards."""
    from repro.errors import PacketError
    from repro.net.packet import Packet

    specs = [(1, workload("calc")), (2, workload("firewall")),
             (3, workload("netcache"))]
    scalar, batched, engine = build_pair(specs)
    for vid, spec in specs:             # warm: the fault hits a live cache
        assert_equivalent([scalar.process(spec.flow_packet(vid, 1))],
                          engine.process_batch([spec.flow_packet(vid, 1)]))
    cut = workload("calc").flow_packet(1, 1).tobytes()[:40]

    with pytest.raises(PacketError) as scalar_fault:
        scalar.pipeline.process(Packet(cut))
    with pytest.raises(PacketError) as engine_fault:
        engine.process_batch([Packet(cut)])
    assert type(engine_fault.value) is type(scalar_fault.value)
    assert str(engine_fault.value) == str(scalar_fault.value)
    assert "past the 40-byte parse window" in str(scalar_fault.value)
    assert scalar.pipeline.stats.summary() == \
        batched.pipeline.stats.summary()

    # Not the same PHV: the engine drew the faulting packet's §3.2
    # buffer slot before executing it, the scalar path draws it after
    # parsing and never got there, so the round-robin ``buffer_tag``s
    # are out of step from here on (the error-path caveat in
    # repro.engine.batch's docstring). Everything a tenant can observe
    # is not.
    for vid, spec in specs:
        a = scalar.process(spec.flow_packet(vid, 2))
        (b,) = engine.process_batch([spec.flow_packet(vid, 2)])
        assert a.forwarded and a.packet.tobytes() == b.packet.tobytes(), vid
        assert (a.egress_port, a.drop_reason) == \
            (b.egress_port, b.drop_reason), vid
    assert scalar.pipeline.stats.summary() == \
        batched.pipeline.stats.summary()


@pytest.mark.parametrize("send", ["first", "repeated", "batch"])
@pytest.mark.parametrize("port", [-1, 1 << 16, 70000])
def test_ingress_port_src_port_cannot_hold_is_the_scalar_paths_error(
        port, send):
    """An ingress port outside the 16-bit ``src_port`` metadata field is
    the parser's ``FieldRangeError`` on the scalar path. The engine
    raises the same error with the same message on a flow's first
    packet, again on a flow it already serves from the cache and the
    compiled level at a legal port, and inside a two-packet run — for a
    compiled tenant (``calc``, ``firewall``) and one the oracle serves
    (``netcache``). Nothing is learned from the refused packet: the
    same flow at a legal port is served alike on both paths after it."""
    specs = [(1, workload("calc")), (2, workload("firewall")),
             (3, workload("netcache"))]
    scalar, batched, engine = build_pair(specs)

    def stray(vid, spec):
        packet = spec.flow_packet(vid, 1)
        packet.ingress_port = port
        return packet

    if send == "repeated":              # warm: every level holds the flow
        for vid, spec in specs:
            for _ in range(3):
                assert_equivalent(
                    [scalar.process(spec.flow_packet(vid, 1))],
                    engine.process_batch([spec.flow_packet(vid, 1)]))
    for vid, spec in specs:
        if send == "batch":     # the run's first packet, served alone
            assert scalar.process(spec.flow_packet(vid, 2)).forwarded
        with pytest.raises(FieldRangeError) as scalar_fault:
            scalar.process(stray(vid, spec))
        assert str(scalar_fault.value) == \
            f"metadata src_port={port} out of range"
        for _ in range(2 if send == "repeated" else 1):
            run = [stray(vid, spec)]
            if send == "batch":
                run.insert(0, spec.flow_packet(vid, 2))
            with pytest.raises(FieldRangeError) as engine_fault:
                engine.process_batch(run)
            assert str(engine_fault.value) == str(scalar_fault.value), vid
    if send == "repeated":
        assert engine.counters.cache_hits and engine.counters.compiled_hits

    # Served afterwards like the oracle serves it (outputs, not PHVs:
    # the engine drew the refused packets' §3.2 buffer slots).
    for vid, spec in specs:
        a = scalar.process(spec.flow_packet(vid, 1))
        (b,) = engine.process_batch([spec.flow_packet(vid, 1)])
        assert a.forwarded and a.packet.tobytes() == b.packet.tobytes(), vid
        assert a.egress_port == b.egress_port, vid


# ---------------------------------------------------------------------------
# decode-once gates: what a warm row costs, and a hostile word under the memo
# ---------------------------------------------------------------------------

def decode_on_every_read(switch):
    """Turn ``switch`` into the memo-less reference: each
    ``read_decoded`` applies the table's decoder to the row's current
    word, which is what every consumer did before rows kept a decoded
    view. A decoded row that outlives its word cannot hide here."""
    pipeline = switch.pipeline
    tables = [pipeline.parser_table, pipeline.deparser_table]
    for stage, segment in zip(pipeline.stages, pipeline.segment_tables):
        tables += [stage.key_extract_table, stage.vliw_table, segment.table]
        if stage.default_vliw_table is not None:
            tables.append(stage.default_vliw_table)
    for table in tables:
        table.read_decoded = \
            lambda index, _t=table: _t.decode(_t.read(index))
    return switch


def _count_row_decodes(monkeypatch):
    """Count every row decode from here on, at the row decoders the
    tables are built with: ``VliwInstruction.decode``,
    ``KeyExtractEntry.decode``, and ``decode_parse_program`` /
    ``decode_segment_entry`` patched where the table builders look them
    up. Call before building a switch — a table takes its decoder when
    it is constructed."""
    from repro.rmt.action import VliwInstruction
    from repro.rmt.key_extractor import KeyExtractEntry

    calls = {}
    for cls in (VliwInstruction, KeyExtractEntry):
        name = f"{cls.__name__}.decode"

        def counted_classmethod(owner, word, _inner=cls.decode, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(word)
        monkeypatch.setattr(cls, "decode", classmethod(counted_classmethod))
    for module_name, name in (
            ("repro.core.pipeline", "decode_parse_program"),
            ("repro.core.segment_table", "decode_segment_entry")):
        module = importlib.import_module(module_name)

        def counted(word, _inner=getattr(module, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _inner(word)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_warm_rows_are_not_decoded_again(monkeypatch):
    """Counts only (no wall clock): a warm scalar-path packet of a
    stateful module and a second ``compile_classifier`` of an unchanged
    tenant call no row decoder — without the decoded-row memo a packet
    decodes its parse and deparse programs and a key-extractor row per
    stage, and a compile decodes every installed VLIW row. A
    raw write to one tenant's row costs that row's decode on its next
    read and nothing for a neighbour (§3 no-disruption, for the decoded
    view too); writing the word a row already holds costs nothing.
    Every packet is pinned to a memo-less twin, so the bound cannot be
    met by serving a stale row."""
    from repro.engine.classifier import compile_classifier
    from repro.rmt.encodings import decode_parser_entry, encode_parser_entry

    calls = _count_row_decodes(monkeypatch)
    calc, netcache = workload("calc"), workload("netcache")
    specs = {1: calc, 2: netcache, 3: netcache}
    scalar, batched, engine = build_pair(sorted(specs.items()),
                                         reconfig_from_dataplane=True)
    reference = decode_on_every_read(
        build_pair(sorted(specs.items()), reconfig_from_dataplane=True)[0])
    pipelines = (scalar.pipeline, batched.pipeline)

    def serve(vid, flows=range(4)):
        for fid in flows:
            expected = reference.process(specs[vid].flow_packet(vid, fid))
            counted = dict(calls)
            got = scalar.process(specs[vid].flow_packet(vid, fid))
            (batch,) = engine.process_batch([specs[vid].flow_packet(vid, fid)])
            spent = {name: count - counted.get(name, 0)
                     for name, count in calls.items()
                     if count != counted.get(name, 0)}
            assert_equivalent([expected], [got], f"vid {vid}")
            assert_equivalent([expected], [batch], f"vid {vid}")
            yield spent

    def raw_write(rtype, stage, index, word):
        for switch in (reference, scalar, batched):
            switch.pipeline.inject_reconfig(build_reconfig_packet(
                ResourceId(rtype, stage), index, word))

    for vid in specs:
        assert any(list(serve(vid)))      # cold rows do decode: not vacuous
    for vid in specs:
        assert list(serve(vid)) == [{}] * 4, vid
    for again in (False, True):     # the first compile reads cold rows too
        calls.clear()
        for pipeline in pipelines:
            for vid in specs:
                assert compile_classifier(pipeline, vid).epoch == \
                    pipeline.epoch_of(vid)
    assert calls == {}

    # One tenant's parse program, cut to its first action: that row
    # decodes once per switch, nobody else's does.
    stock = scalar.pipeline.parser_table.read(2)
    cut = encode_parser_entry([decode_parser_entry(stock)[0]])
    raw_write(ResourceType.PARSER_TABLE, 0, 2, cut)
    assert list(serve(3)) == [{}] * 4
    first, *rest = serve(2)
    assert first == {"decode_parse_program": 2}
    assert rest == [{}] * 3
    raw_write(ResourceType.PARSER_TABLE, 0, 2, cut)       # same word again
    assert list(serve(2)) == [{}] * 4

    # One VLIW row of the same tenant, overwritten with its neighbour
    # row's word: the next compile decodes that row and no other.
    table = scalar.controller._loaded(2).tables["cache"]
    vliw = scalar.pipeline.stages[table.stage].vliw_table
    donor = vliw.read(table.cam_start + 1)
    assert donor != vliw.read(table.cam_start)
    raw_write(ResourceType.VLIW, table.stage, table.cam_start, donor)
    calls.clear()
    for pipeline in pipelines:
        compile_classifier(pipeline, 3)
    assert calls == {}
    for pipeline in pipelines:
        compile_classifier(pipeline, 2)
    assert calls == {"VliwInstruction.decode": 2}
    calls.clear()
    for pipeline in pipelines:
        compile_classifier(pipeline, 2)
    assert calls == {}
    for vid in specs:
        assert list(serve(vid)) == [{}] * 4, vid


def test_warm_scalar_oracle_does_no_known_answer_work(monkeypatch):
    """Counts only (no wall clock): a warm netcache GET through
    ``Switch.process`` runs ``bits.check_fits`` zero times, constructs
    no ``ContainerRef``, calls neither ``Packet.read_bytes`` nor
    ``Packet.write_bytes``, and makes no call to the checked row and
    metadata helpers: ``ConfigTable.read`` / ``_check_index``,
    ``KeyExtractor.read_entry``, ``Metadata._set`` and the
    ``ContainerRef.size_bytes`` getter.

    On this very packet the scalar walk used to make 35 ``check_fits``
    calls (``encode_key`` re-checking seven key slots in each of five
    stages), 4 ``ContainerRef`` constructions (one per ALU op), 4
    ``read_bytes`` and 2 ``write_bytes`` (parse and deparse). Later it
    made 61 helper calls: 16 ``ConfigTable.read``, 16 ``_check_index``,
    5 each of ``KeyExtractor.read_entry``, ``read_mask`` and
    ``evaluate_predicate``, 4 ``ActionEngine._operand``, 4
    ``Metadata._set`` and 6 ``size_bytes`` reads (the last three
    helpers are gone). The outcome bytes, egress port and register
    values below are the ones that walk produced for this packet
    sequence, so the bound cannot be met by doing less of the packet's
    work."""
    import sys

    from repro import bits
    from repro.modules import netcache
    from repro.net.packet import Packet
    from repro.rmt.config_table import ConfigTable
    from repro.rmt.key_extractor import KeyExtractor
    from repro.rmt.phv import ContainerRef, Metadata

    calls = {}
    check_fits = bits.check_fits

    def counted_check_fits(*args, **kwargs):
        calls["check_fits"] = calls.get("check_fits", 0) + 1
        return check_fits(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "repro"
                and getattr(module, "check_fits", None) is check_fits):
            monkeypatch.setattr(module, "check_fits", counted_check_fits)
    _count_calls(monkeypatch, ContainerRef, ("__init__",), calls)
    _count_calls(monkeypatch, Packet, ("read_bytes", "write_bytes"), calls)
    _count_calls(monkeypatch, ConfigTable, ("read", "_check_index"), calls)
    _count_calls(monkeypatch, KeyExtractor, ("read_entry",), calls)
    _count_calls(monkeypatch, Metadata, ("_set",), calls)
    size_bytes = ContainerRef.size_bytes.fget

    def counted_size_bytes(self):
        calls["size_bytes"] = calls.get("size_bytes", 0) + 1
        return size_bytes(self)
    monkeypatch.setattr(ContainerRef, "size_bytes",
                        property(counted_size_bytes))

    spec = workload("netcache")
    switch = Switch.build().create()
    workload("calc").admit(switch, vid=1)
    tenant = spec.admit(switch, vid=2)
    for fid in (0, 1, 0):
        switch.process(spec.flow_packet(2, fid))
    # cold rows decode through these counters: they are live
    assert all(calls.get(name) for name in (
        "check_fits", "__init__", "_check_index", "size_bytes")), calls

    packet = spec.flow_packet(2, 0)     # building one writes through them
    calls.clear()
    result = switch.process(packet)
    assert calls == {}, calls

    assert (result.dropped, result.egress_port) == (False, 0)
    assert result.packet.tobytes().hex() == (
        "0200000000020200000000018100000208004500002a00000000401166c1"
        "0a0000010a00000227104e200016758e000100000100000003e800000004")
    assert netcache.read_stat(result.packet) == 4     # the loadd counter
    assert calls.get("read_bytes")        # the Packet counter is live too
    registers = {name: [tenant.register(name).read(addr)
                        for addr in range(tenant.register(name).size)]
                 for name in tenant.registers()}
    assert registers == {"op_stats": [4, 0, 0, 0],
                         "values": [1000, 1001, 1002, 1003, 0, 0, 0, 0]}

    # The other counters are live too: an engine's first calc packet
    # compiles the tenant's cold rows through the checked readers, and
    # an ingress port src_port cannot hold raises through the setter.
    calls.clear()
    switch.engine().process(workload("calc").flow_packet(1, 0))
    assert calls.get("read") and calls.get("read_entry"), calls
    bad = spec.flow_packet(2, 0)
    bad.ingress_port = 1 << 16
    with pytest.raises(FieldRangeError, match="metadata src_port=65536"):
        switch.process(bad)
    assert calls.get("_set"), calls


#: kind -> (resource type, word, error type, message pattern, the oracle
#: call the fault surfaces in, the engine call it surfaces in). Every
#: 16-bit segment word decodes, so that row's hostile word is the one the
#: range check refuses: an empty segment. The engine reads parse and
#: deparse programs when it binds a tenant, before the oracle runs.
HOSTILE_ROWS = {
    "parser": (ResourceType.PARSER_TABLE, (3 << 4) | (1 << 1),
               "FieldRangeError", "container index 1 out of range for META",
               "parse", "_bind"),
    "deparser": (ResourceType.DEPARSER_TABLE, (3 << 4) | (1 << 1),
                 "FieldRangeError", "container index 1 out of range for META",
                 "deparse", "_bind"),
    "key-extract": (ResourceType.KEY_EXTRACTOR, 8 << 16,
                    "EncodingError",
                    "unknown comparison opcode in word 0x80000",
                    "extract", "extract"),
    "vliw": (ResourceType.VLIW, 15 << 21,
             "EncodingError", "unknown ALU opcode in word 0x1e00000",
             "process", "process"),
    "default-vliw": (ResourceType.DEFAULT_VLIW, 15 << 21,
                     "EncodingError", "unknown ALU opcode in word 0x1e00000",
                     "process", "process"),
    "segment": (ResourceType.SEGMENT, 0,
                "SegmentFaultError",
                r"stage1\.segment: module 2 address \d+ outside its range 0",
                "translate", "translate"),
}


def _hostile_target(pipeline, table, rtype, vid):
    """(stage, row index, the table object) of ``vid``'s live row."""
    last = pipeline.params.num_stages - 1
    stage = pipeline.stages[table.stage]
    return {
        ResourceType.PARSER_TABLE: (0, vid, pipeline.parser_table),
        ResourceType.DEPARSER_TABLE: (0, vid, pipeline.deparser_table),
        ResourceType.KEY_EXTRACTOR: (table.stage, vid,
                                     stage.key_extract_table),
        ResourceType.VLIW: (table.stage, table.cam_start, stage.vliw_table),
        # No stock module sits in the last stage: every packet misses
        # there, so the default row is read by every packet.
        ResourceType.DEFAULT_VLIW: (last, vid,
                                    pipeline.stages[last].default_vliw_table),
        ResourceType.SEGMENT: (table.stage, vid,
                               pipeline.segment_tables[table.stage].table),
    }[rtype]


def _outcome(fn):
    """What one call did: the result's observable fields, or the error
    with the names of the frames it crossed."""
    try:
        (result,) = fn()
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc),
                [f.name for f in traceback.extract_tb(exc.__traceback__)])
    return ("served", result.dropped, result.drop_reason,
            result.egress_port, result.module_id,
            None if result.packet is None else result.packet.tobytes())


@pytest.mark.parametrize("mode", sorted(ENGINE_MODES))
@pytest.mark.parametrize("kind,target", [
    (kind, target) for kind in sorted(HOSTILE_ROWS)
    for target in ("calc", "netcache")
    if (kind, target) != ("segment", "calc")])   # calc holds no segment
def test_hostile_word_faults_where_it_is_read_and_is_not_remembered(
        kind, target, mode):
    """A live row overwritten through the raw path with a word that
    does not decode: accepted (the raw word reads back), and every
    packet that reaches the row raises the typed error the row's
    decoder raises, from the same call, on the scalar path and on every
    engine mode — again on the next read, because a failed decode is
    not kept. A good word put back restores service. A pure tenant
    (``calc``, compiled level) and a stateful one (``netcache``, oracle)
    take it alike, neighbours never notice, and all of it is pinned
    packet for packet to a twin that decodes on every read."""
    from repro.rmt.action import AluAction, AluOp, VliwInstruction

    specs = {1: workload("calc"), 2: workload("netcache"),
             3: workload("firewall")}
    build_kw = dict(reconfig_from_dataplane=True, default_actions=True)
    scalar, batched, engine = build_pair(
        sorted(specs.items()), engine_kw=ENGINE_MODES[mode], **build_kw)
    reference = decode_on_every_read(
        build_pair(sorted(specs.items()), **build_kw)[0])
    vid = 1 if target == "calc" else 2
    rtype, bad, error, message, oracle_call, engine_call = HOSTILE_ROWS[kind]
    first_table = next(iter(scalar.controller._loaded(vid).tables.values()))
    stage, index, table = _hostile_target(scalar.pipeline, first_table,
                                          rtype, vid)

    # One asymmetry, the parent's own: the engine reads a tenant's
    # deparse program when it binds the tenant, so a bad deparser row
    # faults there, before the oracle ran; the scalar path faults in
    # ``deparse``, after its stages bumped netcache's hit counter, which
    # netcache writes into every later packet.
    bytes_agree = (kind, target) != ("deparser", "netcache")

    def raw_write(word):
        for switch in (reference, scalar, batched):
            switch.pipeline.inject_reconfig(build_reconfig_packet(
                ResourceId(rtype, stage), index, word))
        assert table.read(index) == word

    def sweep():
        """Six flows of the target, two of each neighbour; every packet
        must end the same way on all three switches."""
        outcomes = []
        for v in specs:
            for fid in range(6 if v == vid else 2):
                pkt = specs[v].flow_packet(v, fid)
                expected = _outcome(lambda: [reference.process(pkt.copy())])
                oracle = _outcome(lambda: [scalar.process(pkt.copy())])
                batch = _outcome(lambda: engine.process_batch([pkt.copy()]))
                assert oracle[:3] == expected[:3] == batch[:3], (v, fid)
                if oracle[0] == "served":
                    assert oracle == expected, (v, fid)
                    assert batch[:5] == oracle[:5], (v, fid)
                    assert batch == oracle or not bytes_agree, (v, fid)
                outcomes.append((v, oracle, batch))
        return outcomes

    def faults(outcomes):
        return [(v, oracle[1:3]) for v, oracle, _batch in outcomes
                if oracle[0] == "raised"]

    good = table.read(index)
    if rtype == ResourceType.DEFAULT_VLIW:
        # Nothing stock installs a default action; bring the row to life.
        good = VliwInstruction.from_sparse(
            {3: AluAction(AluOp.SET, immediate=7)}).encode()
        raw_write(good)
    before = sweep()
    assert not faults(before)

    raw_write(bad)
    hostile, again = sweep(), sweep()
    assert faults(hostile) and {v for v, _ in faults(hostile)} == {vid}
    assert faults(again) == faults(hostile)       # not remembered
    for _v, oracle, batch in hostile:
        if oracle[0] == "raised":
            assert oracle[1] == error and re.fullmatch(message, oracle[2])
            assert oracle_call in oracle[3] and engine_call in batch[3]

    raw_write(good)
    after = sweep()
    assert not faults(after)
    if target == "calc":                          # pure: same service
        assert [o for o in after if o[0] == vid] == \
            [o for o in before if o[0] == vid]
    assert scalar.pipeline.stats.summary() == \
        batched.pipeline.stats.summary() == reference.pipeline.stats.summary()
