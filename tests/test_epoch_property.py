"""Tenant-scoped configuration epochs: staleness safety and attribution.

``MenshenPipeline.epoch_of(vid)`` is the only thing the engine's flow
cache, module layout and compiled classifier are validated against, so
two properties carry the whole design:

* **Staleness safety** — whatever sequence of control-plane operations
  and *raw* configuration writes lands (including hostile ones the
  controller would never issue: another tenant's module ID planted in
  a row the ledger granted elsewhere, a VLIW rewrite under a live CAM
  row, writes to rows nobody owns, system-module writes, a live row of
  every table kind swapped for another well-formed word), the batched
  engine equals the scalar oracle packet for packet after every step,
  in every engine mode and with certification enforced. The scalar
  side decodes every row on every read, so a decoded row outliving its
  word on the batched side (its oracle fallback or its compiles) is a
  mismatch, not a shared mistake.
* **Exact attribution** — each single write moves ``epoch_of`` for
  exactly the tenants the attribution rule names (re-derived here from
  the ledger's allocations and the CAM row's contents on both sides of
  the write, independently of the pipeline's own index), so a
  neighbour's write is never charged to an untouched tenant and never
  missed by an affected one.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.api import Switch
from repro.core.pipeline import SYSTEM_MODULE_ID, MenshenPipeline
from repro.core.reconfig import (
    ResourceId,
    ResourceType,
    build_reconfig_packet,
)
from repro.errors import ReconfigurationError
from repro.modules import firewall
from repro.net.packet import Packet
from repro.rmt.action import AluAction, AluOp, VliwInstruction
from repro.rmt.encodings import (
    decode_parser_entry,
    decode_segment_entry,
    encode_parser_entry,
    encode_segment_entry,
)
from repro.rmt.match_table import CamEntry
from repro.rmt.params import DEFAULT_PARAMS
from repro.sysmod import system_entries
from repro.traffic import workload
from test_engine_differential import (
    ENGINE_MODES,
    assert_equivalent,
    assert_same_observable_state,
    decode_on_every_read,
)

FW = workload("firewall")
NC = workload("netcache")

A, B, C = 1, 2, 3          #: firewall, firewall (other rules), netcache
USER_VIDS = (A, B, C)
#: Every VID whose epoch is watched: the system module, the three
#: tenants, and one VID that is never loaded.
WATCHED = (SYSTEM_MODULE_ID, A, B, C, 4)
SPECS = {A: FW, B: FW, C: NC}
#: The default destination of every workload packet: routing it in the
#: system module's last stage flips every tenant's egress port.
SHARED_DST = "10.0.0.2"

SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)

OVERLAY = {ResourceType.PARSER_TABLE, ResourceType.DEPARSER_TABLE,
           ResourceType.KEY_EXTRACTOR, ResourceType.KEY_MASK,
           ResourceType.SEGMENT, ResourceType.DEFAULT_VLIW}


def _install(vid, tenant):
    if vid == B:
        # Different rules from A on the same program, so a CAM word
        # moved between them is observable.
        firewall.install(tenant, allowed=[("10.4.0.2", 1002, 5)])
    else:
        SPECS[vid].install(tenant)


def _build():
    switch = (Switch.build().reconfig_from_dataplane().default_actions()
              .create())
    switch.install_system(routes={"10.0.9.9": 6})
    for vid in USER_VIDS:
        _install(vid, switch.admit(f"t{vid}", SPECS[vid].source, vid=vid))
    return switch


def _epochs(pipeline):
    return {vid: pipeline.epoch_of(vid) for vid in WATCHED}


def _moved(pipeline, before):
    return {vid for vid in WATCHED if pipeline.epoch_of(vid) != before[vid]}


def _match_owner(pipeline, stage, row):
    """Ledger owner of a CAM/VLIW row, by scanning the allocations."""
    for vid in pipeline.ledger.loaded_modules():
        alloc = pipeline.ledger.allocation_of(vid).stage(stage)
        if alloc.match_start <= row < alloc.match_end:
            return vid
    return None


def _stateful_owner(pipeline, stage, addr):
    for vid in pipeline.ledger.loaded_modules():
        alloc = pipeline.ledger.allocation_of(vid).stage(stage)
        if alloc.stateful_base <= addr < alloc.stateful_end:
            return vid
    return None


def _row_id(pipeline, stage, row):
    entry = pipeline.stages[stage].match_table.read(row)
    return None if entry is None else entry.module_id


def _misplaced_ids(pipeline):
    """Module IDs sitting in CAM rows the ledger gave to someone else
    (or to nobody) — the residue of earlier hostile writes."""
    ids = set()
    for stage in range(pipeline.params.num_stages):
        for row in range(pipeline.params.match_entries_per_stage):
            held = _row_id(pipeline, stage, row)
            if held is not None and held != _match_owner(pipeline, stage,
                                                         row):
                ids.add(held)
    return ids


class _Write:
    """One raw configuration write, and the attribution rule re-derived
    for it from first principles."""

    def __init__(self, rtype, stage, index, entry):
        self.rtype, self.stage, self.index, self.entry = \
            rtype, stage, index, entry

    def packet(self):
        return build_reconfig_packet(
            ResourceId(self.rtype, self.stage), self.index, self.entry)

    def named_now(self, pipeline):
        """The rule, evaluated on the state as installed right now."""
        if self.rtype in OVERLAY:
            return {self.index}
        if self.rtype == ResourceType.STATEFUL_WORD:
            return {_stateful_owner(pipeline, self.stage, self.index)}
        return {_match_owner(pipeline, self.stage, self.index),
                _row_id(pipeline, self.stage, self.index)}

    def expected(self, before, after):
        """Who must see the write, from :meth:`named_now` taken on
        either side of it."""
        named = (before | after) - {None}
        if not named or SYSTEM_MODULE_ID in named:
            return set(WATCHED)
        return named & set(WATCHED)


class _World:
    """A scalar switch, its batched twin, and the ops applied to both."""

    def __init__(self, engine_kw):
        self.scalar = decode_on_every_read(_build())
        self.batched = _build()
        self.engine = self.batched.engine(**engine_kw)
        self.switches = (self.scalar, self.batched)
        self.pipeline = self.batched.pipeline
        #: (resource type, stage, vid) -> the word the tenant's own
        #: program installs there, read before the first swap.
        self.stock = {}

    # -- control-plane ops (same call on both switches) -----------------------

    def loaded(self, vid):
        return vid in self.batched.controller.modules

    def _table(self, switch, vid):
        tenant = switch.tenant(vid)
        return tenant, tenant.table(tenant.tables()[0])

    def rules(self, vid):
        """Delete one entry, or install the rule set back."""
        for switch in self.switches:
            tenant, table = self._table(switch, vid)
            handles = table.handles()
            if handles:
                table.delete(handles[0])
            else:
                _install(vid, tenant)

    def txn(self, vid):
        """Transactional wipe of the tenant's first table."""
        for switch in self.switches:
            tenant, table = self._table(switch, vid)
            with tenant.transaction() as txn:
                for handle in table.handles():
                    txn.table(table.name).delete(handle)

    def update(self, vid):
        for switch in self.switches:
            switch.tenant(vid).update(SPECS[vid].source)

    def evict_or_readmit(self, vid):
        for switch in self.switches:
            if vid in switch.controller.modules:
                switch.tenant(vid).evict()
            else:
                _install(vid, switch.admit(f"t{vid}", SPECS[vid].source,
                                           vid=vid))

    def register(self, addr, value):
        for switch in self.switches:
            switch.tenant(C).register("values").write(addr, value)

    def system_route(self):
        """API-level system-module write: (un)route the shared dst."""
        for switch in self.switches:
            table = switch.tenant("system").table("route")
            if len(table.handles()) > 1:
                table.delete(table.handles()[-1])
            else:
                ((_name, entry),) = system_entries({}, {SHARED_DST: 7})
                table.insert(entry)

    # -- raw writes ---------------------------------------------------------------

    def raw(self, kind, choice):
        """Build one hostile/raw write against the current state, or
        ``None`` when the state offers no target for it."""
        pipeline = self.pipeline
        depth = pipeline.params.match_entries_per_stage
        if kind == "foreign-id":
            # B's module ID planted in a row the ledger grants to A.
            # Key 0 is what B's unconfigured extractor produces in A's
            # stage, so every B packet starts hitting A's action.
            if not self.loaded(A):
                return None
            state = self.batched.controller._loaded(A).tables["acl"]
            row = state.cam_start + choice % state.cam_count
            table = pipeline.stages[state.stage].match_table
            if any(table.read(r) == CamEntry(0, B) for r in range(depth)):
                return None  # exact CAMs refuse a duplicate word
            return _Write(ResourceType.CAM, state.stage, row,
                          CamEntry(0, B).encode())
        if kind == "vliw-under-live-row":
            if not self.loaded(A):
                return None
            state = self.batched.controller._loaded(A).tables["acl"]
            rows = range(state.cam_start, state.cam_start + state.cam_count)
            stage = pipeline.stages[state.stage]
            live = [r for r in rows if stage.match_table.read(r) is not None]
            if not live:
                return None
            row = live[choice % len(live)]
            donor = rows[(choice // 4) % len(rows)]
            return _Write(ResourceType.VLIW, state.stage, row,
                          stage.vliw_table.read(donor))
        if kind == "scrub-owned-row":
            # Clear one of A's rows, preferring one an earlier hostile
            # write left holding B's ID: B must see its entry vanish.
            if not self.loaded(A):
                return None
            state = self.batched.controller._loaded(A).tables["acl"]
            rows = range(state.cam_start, state.cam_start + state.cam_count)
            foreign = [r for r in rows
                       if _row_id(pipeline, state.stage, r) == B]
            row = (foreign or rows)[choice % len(foreign or rows)]
            return _Write(ResourceType.CAM_INVALIDATE, state.stage, row, 0)
        if kind == "unowned-invalidate":
            return _Write(ResourceType.CAM_INVALIDATE, 3, choice % depth, 0)
        if kind == "unowned-cam":
            table = pipeline.stages[3].match_table
            if any(table.read(r) == CamEntry(0, C) for r in range(depth)):
                return None
            return _Write(ResourceType.CAM, 3, choice % depth,
                          CamEntry(0, C).encode())
        if kind == "system-mask":
            stage = max(pipeline.system_stages)
            current = pipeline.stages[stage].key_mask_table.read(
                SYSTEM_MODULE_ID)
            flipped = 0 if current else (1 << pipeline.params.key_bits) - 2
            return _Write(ResourceType.KEY_MASK, stage, SYSTEM_MODULE_ID,
                          flipped)
        if kind == "own-mask":
            # Overlay row: tenant B's key mask in its own stage.
            if not self.loaded(B):
                return None
            stage = self.batched.controller._loaded(B).tables["acl"].stage
            current = pipeline.stages[stage].key_mask_table.read(B)
            flipped = 0 if current else (1 << pipeline.params.key_bits) - 2
            return _Write(ResourceType.KEY_MASK, stage, B, flipped)
        if kind == "stateful-word":
            return _Write(ResourceType.STATEFUL_WORD, 1, choice % 16, choice)
        if kind in OVERLAY_SWAPS:
            return self._overlay_swap(kind, choice)
        raise AssertionError(kind)

    def _overlay_swap(self, kind, choice):
        """A live overlay row toggled between the word its tenant's
        program installs and another well-formed one, so every table
        kind that keeps a decoded view has its row rewritten under
        traffic — the way to be wrong is to go on serving the view of
        the word that was there before."""
        pipeline = self.pipeline
        vid = C if kind == "segment-row" else USER_VIDS[choice % 3]
        if not self.loaded(vid):
            return None
        module = self.batched.controller._loaded(vid)
        own_stage = next(iter(module.tables.values())).stage
        if kind in ("parser-row", "deparser-row"):
            rtype, stage, table = (
                (ResourceType.PARSER_TABLE, 0, pipeline.parser_table)
                if kind == "parser-row" else
                (ResourceType.DEPARSER_TABLE, 0, pipeline.deparser_table))
            # The program cut to its first action (later fields stay 0).
            other = lambda stock: encode_parser_entry(
                decode_parser_entry(stock)[:1])
        elif kind == "key-extract-row":
            rtype, stage = ResourceType.KEY_EXTRACTOR, own_stage
            table = pipeline.stages[stage].key_extract_table
            other = lambda stock: 0      # first containers, no predicate
        elif kind == "segment-row":
            rtype = ResourceType.SEGMENT
            stage = next(s for s, a in sorted(module.allocation.stages.items())
                         if a.stateful_words)
            table = pipeline.segment_tables[stage].table

            def other(stock):            # same range, the window next door
                offset, range_ = decode_segment_entry(stock)
                return encode_segment_entry(offset + range_, range_)
        else:
            rtype = ResourceType.DEFAULT_VLIW
            free = sorted(set(range(pipeline.params.num_stages))
                          - pipeline.system_stages)
            stage = free[(choice // 3) % len(free)]
            table = pipeline.stages[stage].default_vliw_table
            other = lambda stock: VliwInstruction.from_sparse(
                {3: AluAction(AluOp.SET, immediate=7)}).encode()
        stock = self.stock.setdefault((rtype, stage, vid), table.read(vid))
        swapped = other(stock)
        return _Write(rtype, stage, vid,
                      stock if table.read(vid) == swapped else swapped)

    def land(self, write, packets, inband):
        """Deliver ``write`` to both switches and check its attribution.

        Out of band it goes down the PCIe path before the traffic; in
        band it rides the shared ingress in the middle of the batch
        (Corundum mode), where the engine must treat it as a barrier.
        """
        before_ids = write.named_now(self.pipeline)
        epochs = _epochs(self.pipeline)
        position = None
        if inband:
            position = len(packets) // 2
            packets = (packets[:position] + [write.packet()]
                       + packets[position:])
        else:
            for switch in self.switches:
                switch.pipeline.inject_reconfig(write.packet())
        self.traffic(packets)
        expected = write.expected(before_ids,
                                  write.named_now(self.pipeline))
        assert _moved(self.pipeline, epochs) == expected, \
            (write.rtype.name, write.stage, write.index)

    # -- data plane -------------------------------------------------------------------

    def traffic(self, packets):
        a = [self.scalar.process(p.copy()) for p in packets]
        b = self.engine.process_batch([p.copy() for p in packets])
        assert_equivalent(a, b)
        # Also drains both traffic managers, so an eviction's scheduler
        # purge (batched side only) never finds anything queued.
        assert_same_observable_state(self.scalar, self.batched)
        return b


#: One raw-write kind per overlay table that keeps a decoded view.
OVERLAY_SWAPS = ("parser-row", "deparser-row", "key-extract-row",
                 "segment-row", "default-vliw-row")
RAW_KINDS = ("foreign-id", "vliw-under-live-row", "scrub-owned-row",
             "unowned-invalidate", "unowned-cam", "system-mask", "own-mask",
             "stateful-word") + OVERLAY_SWAPS

user_vids = st.sampled_from(USER_VIDS)
ops = st.one_of(
    st.tuples(st.just("none")),
    st.tuples(st.sampled_from(("rules", "txn", "update",
                               "evict_or_readmit")), user_vids),
    st.tuples(st.just("register"), st.integers(0, 3),
              st.integers(0, 0xFFFF)),
    st.tuples(st.just("system_route")),
    st.tuples(st.just("raw"), st.sampled_from(RAW_KINDS),
              st.integers(0, 63), st.booleans()),
)
traffic = st.lists(st.tuples(user_vids, st.integers(0, 6)),
                   min_size=2, max_size=10)
scripts = st.lists(st.tuples(ops, traffic), min_size=2, max_size=7)


@pytest.mark.parametrize("mode", sorted(ENGINE_MODES))
@SETTINGS
@given(scripts)
def test_engine_never_serves_stale_and_attribution_is_exact(mode, script):
    world = _World(ENGINE_MODES[mode])
    pipeline = world.pipeline
    # Warm every tenant so there is something to go stale.
    world.traffic([SPECS[vid].flow_packet(vid, fid)
                   for vid in USER_VIDS for fid in range(4)] * 2)

    for op, flows in script:
        packets = [SPECS[vid].flow_packet(vid, fid) for vid, fid in flows]
        kind = op[0]
        if kind == "raw":
            write = world.raw(op[1], op[2])
            if write is not None:
                world.land(write, packets, inband=op[3])
                continue
        elif kind in ("rules", "txn", "update", "evict_or_readmit"):
            vid = op[1]
            if kind == "evict_or_readmit" or world.loaded(vid):
                residue = _misplaced_ids(pipeline)
                epochs = _epochs(pipeline)
                getattr(world, kind)(vid)
                moved = _moved(pipeline, epochs)
                # The tenant itself, plus at most whoever an earlier
                # hostile write parked in the rows it scrubs.
                assert moved - residue <= {vid}, (kind, vid, moved)
        elif kind == "register":
            if world.loaded(C):
                epochs = _epochs(pipeline)
                world.register(op[1], op[2])
                assert _moved(pipeline, epochs) == set()
        elif kind == "system_route":
            epochs = _epochs(pipeline)
            world.system_route()
            assert _moved(pipeline, epochs) == set(WATCHED)
        world.traffic(packets)

    if ENGINE_MODES[mode]["check_compiled"] == "enforce":
        assert not world.engine.counters.classifier_fallbacks.get(
            "uncertified"), world.engine.certificates


@pytest.mark.parametrize("mode", sorted(ENGINE_MODES))
def test_foreign_id_is_observed_when_planted_and_when_scrubbed(mode):
    """The row's holder on *both* sides of a write counts: B gains an
    entry when its ID lands in A's row and loses it when the row is
    cleared, and C never notices either."""
    world = _World(ENGINE_MODES[mode])
    probe = [SPECS[vid].flow_packet(vid, fid)
             for vid in USER_VIDS for fid in range(4)]
    world.traffic(probe * 2)

    def b_drops():
        return [r.dropped for r in world.traffic(probe) if r.module_id == B]

    before = b_drops()
    plant = world.raw("foreign-id", 0)   # A's block rule, now B's too
    epochs = _epochs(world.pipeline)
    world.land(plant, probe, inband=False)
    assert _moved(world.pipeline, epochs) == {A, B}
    assert b_drops() != before           # the hostile write is observable

    scrub = world.raw("scrub-owned-row", 0)
    assert (scrub.stage, scrub.index) == (plant.stage, plant.index)
    epochs = _epochs(world.pipeline)
    world.land(scrub, probe, inband=True)
    assert _moved(world.pipeline, epochs) == {A, B}
    assert b_drops() == before


@pytest.mark.parametrize("mode", sorted(ENGINE_MODES))
def test_every_decoded_table_kind_is_rewritten_under_traffic(mode):
    """The random scripts above reach a few raw-write kinds per run;
    this walks all of the ones that rewrite a row with a decoded view —
    each overlay table for each tenant, and a VLIW row under a live CAM
    entry — there and back, in band and out of band, with every
    tenant's traffic checked against the decode-on-every-read scalar
    side after each write."""
    world = _World(ENGINE_MODES[mode])
    probe = [SPECS[vid].flow_packet(vid, fid)
             for vid in USER_VIDS for fid in range(4)]
    world.traffic(probe * 2)
    landed = set()
    for kind in OVERLAY_SWAPS + ("vliw-under-live-row",):
        for choice in range(6):          # every tenant, two free stages
            for inband in (False, True):  # swap, then swap back
                write = world.raw(kind, choice)
                world.land(write, probe, inband=inband)
                landed.add((write.rtype, write.index))
                world.traffic(probe)
    assert {rtype for rtype, _ in landed} == {
        ResourceType.PARSER_TABLE, ResourceType.DEPARSER_TABLE,
        ResourceType.KEY_EXTRACTOR, ResourceType.SEGMENT,
        ResourceType.DEFAULT_VLIW, ResourceType.VLIW}
    if ENGINE_MODES[mode]["check_compiled"] == "enforce":
        assert not world.engine.counters.classifier_fallbacks.get(
            "uncertified"), world.engine.certificates


# ---------------------------------------------------------------------------
# the attribution rule, one resource type at a time
# ---------------------------------------------------------------------------

def _every_row_write(world):
    """One write per resource type against the stock three-tenant
    switch (exact-match mode registers no TCAM hop)."""
    pipeline = world.pipeline
    acl = world.batched.controller._loaded(A).tables["acl"]
    nc = world.batched.controller._loaded(C)
    stateful_stage, stateful = next(
        (s, a) for s, a in nc.allocation.stages.items() if a.stateful_words)
    row = acl.cam_start
    stage = pipeline.stages[acl.stage]
    yield _Write(ResourceType.PARSER_TABLE, 0, B,
                 pipeline.parser_table.read(B))
    yield _Write(ResourceType.DEPARSER_TABLE, 0, B,
                 pipeline.deparser_table.read(B))
    yield _Write(ResourceType.KEY_EXTRACTOR, acl.stage, A,
                 stage.key_extract_table.read(A))
    yield _Write(ResourceType.KEY_MASK, acl.stage, A,
                 stage.key_mask_table.read(A))
    yield _Write(ResourceType.SEGMENT, stateful_stage, C,
                 pipeline.segment_tables[stateful_stage].table.read(C))
    yield _Write(ResourceType.CAM, acl.stage, row,
                 stage.match_table.read(row).encode())
    yield _Write(ResourceType.VLIW, acl.stage, row,
                 stage.vliw_table.read(row))
    yield _Write(ResourceType.CAM_INVALIDATE, acl.stage, row, 0)
    yield _Write(ResourceType.STATEFUL_WORD, stateful_stage,
                 stateful.stateful_base, 0)
    yield _Write(ResourceType.KEY_MASK, 0, SYSTEM_MODULE_ID, 0)


def test_each_resource_type_names_its_observers():
    world = _World({})
    seen = {}
    for write in _every_row_write(world):
        before_ids = write.named_now(world.pipeline)
        epochs = _epochs(world.pipeline)
        world.pipeline.inject_reconfig(write.packet())
        moved = _moved(world.pipeline, epochs)
        assert moved == write.expected(
            before_ids, write.named_now(world.pipeline)), write.rtype.name
        seen[write.rtype.name, write.index] = moved
    assert seen["PARSER_TABLE", B] == {B}
    assert seen["SEGMENT", C] == {C}
    assert seen["CAM_INVALIDATE",
                world.batched.controller._loaded(A).tables["acl"].cam_start] \
        == {A}
    assert seen["KEY_MASK", SYSTEM_MODULE_ID] == set(WATCHED)


def test_ternary_rows_are_attributed_like_cam_rows():
    pipeline = MenshenPipeline(match_mode="ternary")
    pipeline.mark_loaded(A)
    pipeline.mark_loaded(B)
    width = DEFAULT_PARAMS.key_bits
    word = (((5 << width) | ((1 << width) - 1))
            << DEFAULT_PARAMS.module_id_bits) | B
    epochs = _epochs(pipeline)
    pipeline.inject_reconfig(build_reconfig_packet(
        ResourceId(ResourceType.TCAM, 2), 3, word))
    assert _row_id(pipeline, 2, 3) == B
    assert _moved(pipeline, epochs) == {B}   # unowned row, B's ID lands
    epochs = _epochs(pipeline)
    pipeline.inject_reconfig(build_reconfig_packet(
        ResourceId(ResourceType.CAM_INVALIDATE, 2), 3, 0))
    assert _moved(pipeline, epochs) == {B}   # ... and B loses it again


def test_lifecycle_hooks_name_their_module():
    pipeline = MenshenPipeline()
    epochs = _epochs(pipeline)
    pipeline.mark_loaded(A)
    assert _moved(pipeline, epochs) == {A}
    epochs = _epochs(pipeline)
    pipeline.mark_unloaded(A)
    assert _moved(pipeline, epochs) == {A}
    epochs = _epochs(pipeline)
    pipeline.set_system_stages({0, 4})
    assert _moved(pipeline, epochs) == set(WATCHED)
    epochs = _epochs(pipeline)
    pipeline.mark_loaded(SYSTEM_MODULE_ID)
    assert _moved(pipeline, epochs) == set(WATCHED)


def test_lost_and_malformed_writes_move_no_epoch():
    pipeline = MenshenPipeline(reconfig_from_dataplane=True)
    write = _Write(ResourceType.KEY_MASK, 1, A, 1)
    epochs = _epochs(pipeline)
    writes = pipeline.config_epoch

    pipeline.daisy_chain.drop_next(2)
    assert pipeline.inject_reconfig(write.packet()) is None
    assert pipeline.process(write.packet()).drop_reason == "reconfig_consumed"

    truncated = Packet(write.packet().tobytes()[:60])
    no_such_hop = build_reconfig_packet(
        ResourceId(ResourceType.KEY_MASK, 200), A, 1)
    for bad in (truncated, no_such_hop):
        with pytest.raises(ReconfigurationError):
            pipeline.inject_reconfig(bad)
        with pytest.raises(ReconfigurationError):
            pipeline.process(bad)

    assert _moved(pipeline, epochs) == set()
    assert pipeline.config_epoch == writes
    assert pipeline.stats.reconfig_packets == 0
