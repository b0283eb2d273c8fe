"""The Menshen pipeline: RMT + isolation primitives (§3.1, Fig. 2).

``MenshenPipeline`` assembles:

* a packet filter (VLAN check, reconfiguration-port check, update bitmap),
* a programmable parser/deparser with depth-32 **overlay** tables,
* ``num_stages`` match-action stages whose key-extractor/key-mask tables
  are overlays, whose CAM entries carry the module ID, and whose stateful
  memory sits behind a **segment table**,
* a **daisy chain** wired to every configuration table — the only write
  path into the pipeline,
* a weighted-fair egress scheduler (§3.5) as its traffic manager,
* a partition ledger and statistics.

Two platform modes mirror the two prototypes (§3.1):

* ``reconfig_from_dataplane=False`` (NetFPGA switch): the daisy chain is
  reachable only through :meth:`inject_reconfig` (the PCIe path);
  reconfiguration-port packets on the data path are dropped.
* ``reconfig_from_dataplane=True`` (Corundum NIC): the packet filter
  admits reconfiguration packets from the shared ingress into the chain.

When a system-level module is installed (§3.3), the first and last
stages process *every* packet under the system module's ID; tenant
modules own the stages in between.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ConfigError, ReconfigurationError
from ..net.packet import Packet
from ..rmt.deparser import Deparser
from ..rmt.params import DEFAULT_PARAMS, HardwareParams
from ..rmt.parser import ProgrammableParser, decode_parse_program
from ..rmt.phv import check_phv_geometry
from ..rmt.pipeline import PipelineResult
from ..rmt.stage import Stage
from .daisy_chain import DaisyChain
from .overlay import OverlayTable
from .packet_filter import (
    BITMAP_BITS,
    CONTROL,
    DATA,
    RECONFIG,
    PacketClass,
    PacketFilter,
)
from .reconfig import ReconfigPayload, ResourceId, ResourceType
from .resources import PartitionLedger
from .segment_table import SegmentTable, SegmentedAccess
from .stats import PipelineStats, TenantRecord

#: Module ID reserved for the system-level module (§3.3). VID 0 is
#: reserved by 802.1Q anyway, so no tenant can carry it.
SYSTEM_MODULE_ID = 0

#: Overlay resources: one row per module, indexed by the module's VID,
#: so a write is visible to exactly the tenant that is the row index.
_OVERLAY_ROWS = frozenset({
    ResourceType.PARSER_TABLE, ResourceType.DEPARSER_TABLE,
    ResourceType.KEY_EXTRACTOR, ResourceType.KEY_MASK,
    ResourceType.SEGMENT, ResourceType.DEFAULT_VLIW,
})
#: Writes that can change which module ID a CAM row carries; every
#: other write leaves its row's observers as they were.
_MODULE_ID_WRITES = frozenset({
    ResourceType.CAM, ResourceType.TCAM, ResourceType.CAM_INVALIDATE,
})


class MenshenPipeline:
    """A multi-module RMT pipeline with Menshen's isolation mechanisms."""

    def __init__(self, params: HardwareParams = DEFAULT_PARAMS,
                 num_ports: int = 8,
                 reconfig_from_dataplane: bool = False,
                 match_mode: str = "exact",
                 enable_default_actions: bool = False):
        if params.max_modules > BITMAP_BITS:
            # §4.1: the update bitmap has one bit per module, so a VID
            # past it could never be loaded safely.
            raise ConfigError(
                f"max_modules {params.max_modules} exceeds the "
                f"{BITMAP_BITS}-bit update bitmap")
        check_phv_geometry(params)
        self.params = params
        self.match_mode = match_mode
        self.enable_default_actions = enable_default_actions
        depth = params.max_modules

        self.parser_table = OverlayTable("parser_table",
                                         params.parser_entry_bits, depth,
                                         decode=decode_parse_program)
        self.deparser_table = OverlayTable("deparser_table",
                                           params.parser_entry_bits, depth,
                                           decode=decode_parse_program)
        self.parser = ProgrammableParser(self.parser_table, params)
        self.deparser = Deparser(self.deparser_table, params)

        self.stages: List[Stage] = []
        self.segment_tables: List[SegmentTable] = []
        for i in range(params.num_stages):
            stage = Stage(i, params, table_factory=OverlayTable,
                          config_depth=depth, match_mode=match_mode,
                          enable_default_actions=enable_default_actions)
            segment = SegmentTable(f"stage{i}.segment", depth)
            stage.set_stateful_access(
                SegmentedAccess(stage.stateful_memory, segment))
            self.stages.append(stage)
            self.segment_tables.append(segment)

        self.packet_filter = PacketFilter()
        self.daisy_chain = DaisyChain(self.packet_filter, params)
        self._register_hops()

        self.ledger = PartitionLedger(params)
        self.stats = PipelineStats()
        # Imported here: repro.engine's package init imports this module.
        from ..engine.scheduler import EgressScheduler
        self.traffic_manager = EgressScheduler(num_ports=num_ports,
                                               stats=self.stats)
        self.reconfig_from_dataplane = reconfig_from_dataplane

        #: Modules with installed programs; packets of others are dropped.
        self.loaded_modules: Set[int] = set()
        #: Stages owned by the system-level module (empty until one loads).
        self.system_stages: Set[int] = set()
        #: Plain count of configuration changes: every write that lands
        #: through the daisy chain and every lifecycle hook adds one. No
        #: cache or proof is keyed on it — it only supplies the fresh
        #: stamps behind :meth:`epoch_of`, the tenant-scoped version that
        #: result caches (``repro.engine``) and the certifier validate
        #: against.
        self.config_epoch = 0
        #: Stamp of the last change each tenant's data path could observe;
        #: tenants absent here sit at ``_shared_epoch``, the stamp of the
        #: last change attributed to everyone.
        self._tenant_epochs: Dict[int, int] = {}
        self._shared_epoch = 0

    # -- daisy-chain wiring ----------------------------------------------------

    def _register_hops(self) -> None:
        chain = self.daisy_chain
        chain.register(ResourceType.PARSER_TABLE, 0, self.parser_table.write)
        for i, stage in enumerate(self.stages):
            chain.register(ResourceType.KEY_EXTRACTOR, i,
                           stage.key_extract_table.write)
            chain.register(ResourceType.KEY_MASK, i,
                           stage.key_mask_table.write)
            if self.match_mode == "ternary":
                chain.register(ResourceType.TCAM, i,
                               stage.match_table.write_word)
            else:
                chain.register(ResourceType.CAM, i,
                               stage.match_table.write_word)
            chain.register(ResourceType.CAM_INVALIDATE, i,
                           lambda index, _entry, table=stage.match_table:
                           table.invalidate(index))
            chain.register(ResourceType.VLIW, i, stage.write_vliw_word)
            if stage.default_vliw_table is not None:
                chain.register(ResourceType.DEFAULT_VLIW, i,
                               stage.default_vliw_table.write)
            chain.register(ResourceType.SEGMENT, i,
                           self.segment_tables[i].write_word)
            chain.register(ResourceType.STATEFUL_WORD, i,
                           stage.stateful_memory.write)
        chain.register(ResourceType.DEPARSER_TABLE, 0,
                       self.deparser_table.write)

    # -- module lifecycle hooks (used by repro.runtime.controller) -----------

    def mark_loaded(self, module_id: int) -> None:
        self.loaded_modules.add(module_id)
        self._bump((module_id,))

    def mark_unloaded(self, module_id: int) -> None:
        self.loaded_modules.discard(module_id)
        self._bump((module_id,))

    def set_system_stages(self, stages: Set[int]) -> None:
        """Declare which stages the system-level module occupies."""
        for s in stages:
            if not 0 <= s < self.params.num_stages:
                raise ReconfigurationError(f"no such stage: {s}")
        self.system_stages = set(stages)
        self._bump(())

    # -- tenant-scoped configuration epochs ----------------------------------------

    def epoch_of(self, vid: int) -> int:
        """Version of the configuration tenant ``vid``'s packets observe.

        Moves exactly when a change lands that ``vid``'s data path can
        read (see :meth:`_observers`); a neighbour's load, update, evict
        or rule churn leaves it alone, so anything memoized or compiled
        for ``vid`` under this value is still valid while it holds.
        """
        return self._tenant_epochs.get(vid, self._shared_epoch)

    def _bump(self, observers: Iterable[int]) -> None:
        """Record one configuration change seen by ``observers``.

        Nobody named, or the system module among them (its stages process
        every tenant's packets), means every tenant.
        """
        self.config_epoch += 1
        if not observers or SYSTEM_MODULE_ID in observers:
            self._shared_epoch = self.config_epoch
            self._tenant_epochs.clear()
        else:
            for vid in observers:
                self._tenant_epochs[vid] = self.config_epoch

    def _observers(self, resource: ResourceId, index: int) -> Set[int]:
        """Tenants whose data path reads row ``index`` of ``resource`` as
        it is installed right now.

        Overlay rows belong to the VID that indexes them. CAM/VLIW rows
        are physically shared: the ledger names the row's grantee, but a
        packet hits the row only through the module ID stored in its CAM
        word, so that ID counts too (a raw write may plant tenant B's ID
        in a row granted to A). A stateful word belongs to its grantee.
        """
        rtype = resource.rtype
        if rtype in _OVERLAY_ROWS:
            return {index}
        if rtype == ResourceType.STATEFUL_WORD:
            owner = self.ledger.stateful_owner(resource.stage, index)
            return set() if owner is None else {owner}
        observers = set()
        owner = self.ledger.match_owner(resource.stage, index)
        if owner is not None:
            observers.add(owner)
        table = self.stages[resource.stage].match_table
        if index < table.depth:
            entry = table.read(index)
            if entry is not None:
                observers.add(entry.module_id)
        return observers

    def _reconfigure(self, packet: Packet) -> Optional[ReconfigPayload]:
        """Run one reconfiguration packet down the daisy chain and bump
        the epochs of the tenants that can observe the write.

        A CAM row is inspected on both sides of a write that can change
        whose module ID it carries: the previous holder loses an entry,
        the new one gains it. A lost packet changes nothing, so it bumps
        nothing.
        """
        chain = self.daisy_chain
        payload = chain.accept(packet)
        if payload is None:
            return None
        resource, index, _entry = payload
        observers = self._observers(resource, index)
        chain.apply(payload)
        if resource.rtype in _MODULE_ID_WRITES:
            observers |= self._observers(resource, index)
        self.stats.record_reconfig()
        self._bump(observers)
        return payload

    # -- reconfiguration paths ------------------------------------------------------

    def inject_reconfig(self, packet: Packet) -> Optional[ReconfigPayload]:
        """The trusted PCIe path into the daisy chain.

        Returns the applied payload, or ``None`` if the chain lost the
        packet (injected fault) — the caller detects this through the
        reconfiguration counter, like the real software does.
        """
        if not self.packet_filter.is_reconfig_packet(packet):
            raise ReconfigurationError(
                "not a reconfiguration packet (wrong UDP port or shape)")
        return self._reconfigure(packet)

    # -- data plane ------------------------------------------------------------------
    #
    # ``process`` is split into three phases so a batched executor
    # (:mod:`repro.engine`) can interpose a result cache between them
    # without re-implementing any semantics:
    #
    # * :meth:`admit`   — filter verdict, module dispatch, early drops
    #   (:meth:`_early`, which the engine's straight line shares);
    # * :meth:`execute` — parse -> stages -> deparse (the expensive part);
    # * :meth:`commit`  — traffic-manager enqueue + output statistics.

    def admit(self, packet: Packet) -> Tuple[Optional[PipelineResult], int]:
        """Classify one ingress packet and dispatch it to its module.

        Returns ``(early_result, module_id)``: ``early_result`` is a
        finished :class:`PipelineResult` for packets that never reach the
        parser (reconfiguration, untagged, module-updating, unknown
        module — see :meth:`_early`); otherwise it is ``None`` and
        ``module_id`` names the admitted tenant.
        """
        verdict, module_id = self.packet_filter.look(packet)
        if verdict is DATA and module_id in self.loaded_modules:
            self.stats.record_in(module_id)
            return (None, module_id)
        return (self._early(packet, verdict, module_id), module_id)

    def _early(self, packet: Packet, verdict: PacketClass,
               module_id: int) -> PipelineResult:
        """The finished result of a packet the filter's ``verdict``
        stops before the parser: a reconfiguration packet (consumed
        into the daisy chain on the NIC; dropped on a switch, whose data
        ports must never reach the configuration path), an untagged
        frame, a data packet of a module nobody loaded, or one of a
        module being updated (§4.1). ``module_id`` is the verdict's VID
        (0 when it names no tenant)."""
        stats = self.stats
        if verdict is RECONFIG and self.reconfig_from_dataplane:
            self._reconfigure(packet)
            reason = "reconfig_consumed"
        else:
            if verdict is RECONFIG:
                reason = "reconfig_on_dataplane"
            elif verdict is CONTROL:
                reason = "untagged"
            else:
                stats.record_in(module_id)
                reason = ("unknown_module" if verdict is DATA
                          else "module_updating")
            stats.record_drop(module_id, reason)
        return PipelineResult(packet=None, phv=None, dropped=True,
                              module_id=module_id, drop_reason=reason)

    def execute(self, packet: Packet, module_id: int,
                buffer_slot: Optional[int] = None
                ) -> Tuple[Optional[Packet], "PHV"]:
        """Run an admitted packet through parser, stages, and deparser.

        ``buffer_slot`` lets a batched executor pre-assign the §3.2
        packet-buffer slot in arrival order (the scalar path draws it
        round-robin here). Returns ``(merged, phv)``; ``merged`` is
        ``None`` when the module discarded the packet.
        """
        buffered = packet.copy()  # the packet buffer's copy
        phv = self.parser.parse(packet, module_id)
        if buffer_slot is None:
            buffer_slot = self.packet_filter.assign_buffer()
        tag = 1 << buffer_slot
        if tag > 0xFF:
            phv.metadata.buffer_tag = tag  # raises the 1-byte field's error
        phv.metadata.buf[1] = tag  # buffer_tag

        for i, stage in enumerate(self.stages):
            stage_module = (SYSTEM_MODULE_ID if i in self.system_stages
                            else module_id)
            phv = stage.process(phv, stage_module)

        merged = self.deparser.deparse(phv, buffered, module_id)
        return merged, phv

    def commit(self, merged: Optional[Packet], phv: "PHV",
               module_id: int, cache_hit: bool = False,
               record: Optional[TenantRecord] = None) -> PipelineResult:
        """Account for an executed packet and enqueue it into the TM.

        ``record`` is the tenant's :class:`~repro.core.stats.
        TenantRecord` when the caller holds it already (the engine
        does); otherwise it is looked up here. It is handed on to the
        egress scheduler's ``enqueue``, one call for a unicast packet.

        A packet that places no copy is a drop, not an output: a unicast
        packet steered to a port the switch does not have
        (``unknown_port``) or one the full egress queue refuses
        (``egress_full``), a whole multicast group the full queues
        refuse (``egress_full``), or a multicast group with no ports
        (``unknown_mcast_group``). A group that places some copies is
        forwarded; the scheduler counts each refused copy.
        """
        stats = self.stats
        if record is None:
            record = stats.tenants.get(module_id) or stats.tenant(module_id)
        if merged is None:
            reason, egress, mcast = "discard", 0, 0
        else:
            meta = phv.metadata.buf  # dst_port at 2-3, mcast_group at 8-9
            egress = meta[2] << 8 | meta[3]
            mcast = meta[8] << 8 | meta[9]
            tm = self.traffic_manager
            if not mcast and egress >= tm.num_ports:
                reason = "unknown_port"
            elif tm.enqueue(merged, egress, mcast, module_id, record):
                record.packets_out += 1
                record.bytes_out += len(merged.buf)
                # positional: half the cost of keywords, once per packet
                return PipelineResult(merged, phv, False, egress, mcast,
                                      module_id, "", cache_hit)
            elif mcast and not tm.mcast_ports(mcast):
                reason = "unknown_mcast_group"
            else:
                reason = "egress_full"
        stats.record_drop(module_id, reason)
        return PipelineResult(packet=None, phv=phv, dropped=True,
                              egress_port=egress, mcast_group=mcast,
                              module_id=module_id, drop_reason=reason,
                              cache_hit=cache_hit)

    def process(self, packet: Packet) -> PipelineResult:
        """Push one ingress packet through filter, pipeline, and TM."""
        early, module_id = self.admit(packet)
        if early is not None:
            return early
        merged, phv = self.execute(packet, module_id)
        return self.commit(merged, phv, module_id)
