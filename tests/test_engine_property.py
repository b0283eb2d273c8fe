"""Property tests for the batched engine: isolation and invalidation.

Extends the repo's isolation guarantees (``TenantIsolationError`` at the
API, overlay/segment partitioning in hardware) to the engine layer:

* **Interleaving independence** — under randomized interleavings of two
  tenants' traffic, each tenant observes exactly the results it would
  observe running alone. In particular, two tenants whose packets are
  byte-identical except for the VID (same flows, different rules) never
  see each other's cached verdicts — the per-VID shards are a hard
  boundary, like the CAM module-ID check they mirror.
* **Invalidation soundness** — across random sequences of traffic and
  transactional rule flips, and under arbitrarily small cache
  capacities (eviction pressure), the engine never diverges from a
  scalar twin processing the same global sequence.
* **FlowCache unit properties** — capacity is a hard bound, LRU keeps
  the hot key, stale epochs never hit.

All randomness is Hypothesis-driven and derandomized, so runs are
reproducible; scenario constants derive from ``tests/seeds.py``.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.api import Switch, TenantIsolationError
from repro.engine import FlowCache
from repro.rmt.phv import PHV
from repro.traffic import workload
from seeds import SEED, rng as make_rng

ENGINE_SETTINGS = settings(max_examples=15, deadline=None,
                           derandomize=True)

FW = workload("firewall")

#: Flow IDs small enough to revisit often (cache hits + rule coverage).
flow_ids = st.integers(0, 12)


def result_view(result):
    """The tenant-observable projection of one PipelineResult.

    Excludes the §3.2 packet-buffer tag: it is round-robin over *global*
    arrival order by design (shared infrastructure, not tenant state),
    so it legitimately depends on the neighbor's packet count. Nothing
    a tenant can match on or emit derives from it.
    """
    phv_view = None
    if result.phv is not None:
        meta = result.phv.metadata
        phv_view = (tuple(v for _ref, v in result.phv.containers()),
                    meta.dst_port, meta.mcast_group, meta.pkt_len,
                    meta.discard)
    return (result.dropped, result.drop_reason, result.egress_port,
            result.mcast_group,
            result.packet.tobytes() if result.packet else None,
            phv_view)


def fw_switch(vid_rules):
    """A switch with one firewall tenant per (vid, install?) pair."""
    switch = Switch.build().create()
    for vid, install in vid_rules:
        tenant = switch.admit(f"fw{vid}", FW.source, vid=vid)
        if install:
            FW.install(tenant)
    return switch


# ---------------------------------------------------------------------------
# interleaving independence / shard isolation
# ---------------------------------------------------------------------------

class TestInterleavingIsolation:
    @ENGINE_SETTINGS
    @given(st.lists(st.tuples(st.sampled_from([1, 2]), flow_ids),
                    min_size=1, max_size=50))
    def test_each_tenant_sees_its_solo_results(self, arrivals):
        """Tenant 1 has rules, tenant 2 has none; same flow space.

        Packets of the two tenants differ only in the VLAN VID, so a
        cache that keyed flows without per-VID sharding would serve
        tenant 1's verdicts (drops! rewrites!) to tenant 2. Each
        tenant's interleaved results must equal its solo run.
        """
        engine = fw_switch([(1, True), (2, False)]).engine()
        packets = [FW.flow_packet(vid, fid) for vid, fid in arrivals]
        interleaved = engine.process_batch([p.copy() for p in packets])

        for vid, has_rules in ((1, True), (2, False)):
            solo_engine = fw_switch([(vid, has_rules)]).engine()
            mine = [i for i, (v, _f) in enumerate(arrivals) if v == vid]
            solo = solo_engine.process_batch(
                [packets[i].copy() for i in mine])
            for j, i in enumerate(mine):
                assert result_view(interleaved[i]) == result_view(solo[j]), \
                    f"tenant {vid}, packet {i}"

    def test_tenant_isolation_error_still_guards_the_api(self):
        """Engine traffic does not loosen the facade's capability checks."""
        qos_spec = workload("qos")
        switch = Switch.build().create()
        FW.admit(switch, vid=1)
        qos_spec.admit(switch, vid=2)
        engine = switch.engine()
        engine.process_batch([FW.flow_packet(1, 1).copy() for _ in range(4)])
        cached_before = len(engine.shard(1))
        with pytest.raises(TenantIsolationError):
            switch.tenant(2).table("acl").insert(
                match={"hdr.ipv4.srcAddr": 1, "hdr.udp.dstPort": 1},
                action="block")
        # The denied attempt is a no-op end to end: tenant 1's shard and
        # behavior are untouched (its allow rule still steers flow 1).
        assert len(engine.shard(1)) == cached_before
        assert engine.process(FW.flow_packet(1, 1).copy()).egress_port == 2


# ---------------------------------------------------------------------------
# invalidation soundness under random traffic / reconfig / eviction
# ---------------------------------------------------------------------------

class TestInvalidationSoundness:
    @ENGINE_SETTINGS
    @given(st.lists(st.one_of(
        st.tuples(st.just("traffic"), st.lists(flow_ids, min_size=1,
                                               max_size=12)),
        st.tuples(st.just("reconfig"), st.just(None))),
        min_size=2, max_size=8))
    def test_random_reconfig_never_serves_stale(self, script):
        """Interleave traffic slices with transactional rule wipes/
        re-installs; the engine must match a scalar twin throughout."""
        scalar = fw_switch([(3, True)])
        batched = fw_switch([(3, True)])
        engine = batched.engine()
        installed = True
        for step, payload in script:
            if step == "traffic":
                packets = [FW.flow_packet(3, fid) for fid in payload]
                a = [scalar.process(p.copy()) for p in packets]
                b = engine.process_batch([p.copy() for p in packets])
                for i, (ra, rb) in enumerate(zip(a, b)):
                    assert result_view(ra) == result_view(rb), i
                    assert (ra.phv is None) == (rb.phv is None)
                    if ra.phv is not None:
                        assert ra.phv == rb.phv  # incl. buffer tags
            else:
                for switch in (scalar, batched):
                    tenant = switch.tenant(3)
                    acl = tenant.table("acl")
                    with tenant.transaction() as txn:
                        if installed:
                            for handle in acl.handles():
                                txn.table("acl").delete(handle)
                    if not installed:
                        FW.install(tenant)
                installed = not installed

    @ENGINE_SETTINGS
    @given(st.integers(1, 4),
           st.lists(flow_ids, min_size=1, max_size=60))
    def test_eviction_pressure_stays_exact(self, capacity, fids):
        """A cache of any capacity — even 1 — never changes results."""
        scalar = fw_switch([(3, True)])
        engine = fw_switch([(3, True)]).engine(cache_capacity=capacity)
        packets = [FW.flow_packet(3, fid) for fid in fids]
        a = [scalar.process(p.copy()) for p in packets]
        b = engine.process_batch([p.copy() for p in packets])
        for i, (ra, rb) in enumerate(zip(a, b)):
            assert result_view(ra) == result_view(rb), i
            assert ra.phv == rb.phv, i
        assert len(engine.shard(3)) <= capacity


# ---------------------------------------------------------------------------
# FlowCache unit properties
# ---------------------------------------------------------------------------

def _entry(tag):
    return (*PHV().snapshot(), False, bytes([tag]))


class TestFlowCacheProperties:
    @given(st.integers(1, 8),
           st.lists(st.tuples(st.integers(0, 20), st.integers(0, 3)),
                    min_size=1, max_size=80))
    @settings(derandomize=True)
    def test_capacity_is_a_hard_bound_and_hits_serve_the_last_insert(
            self, capacity, ops):
        cache = FlowCache(capacity)
        shadow = {}
        for key, tag in ops:
            hit = cache.lookup((key,))
            if hit is not None:
                # Anything served is what was last stored for its key.
                assert hit == _entry(shadow[key])
            cache.insert((key,), _entry(tag))
            shadow[key] = tag
            assert len(cache) <= capacity
            # Occupancy invariant: every removal path has exactly one
            # counter, and a same-key overwrite counts as a replacement.
            stats = cache.stats
            assert len(cache) == (stats.insertions - stats.evictions
                                  - stats.replacements
                                  - stats.invalidations)

    def test_lru_keeps_the_hot_key(self):
        cache = FlowCache(2)
        cache.insert(("hot",), _entry(0))
        cache.insert(("warm",), _entry(0))
        assert cache.lookup(("hot",)) is not None   # refresh hot
        cache.insert(("cold",), _entry(0))          # evicts warm
        assert cache.lookup(("hot",)) is not None
        assert cache.lookup(("warm",)) is None
        assert cache.stats.evictions == 1

    def test_seed_constant_documented(self):
        # The shared seed is the one documented in tests/seeds.py; the
        # scenario rng derives from it.
        assert SEED == 20260611
        assert make_rng(0).random() == make_rng(0).random()
