"""The tenant-session facade: ``Switch``, ``Tenant``, and friends.

One coherent control surface over the four layers a caller used to
stitch together by hand (pipeline, controller, compiler, interface):

* :class:`SwitchBuilder` — ``Switch.build().stages(5).max_modules(32)
  .create()`` constructs pipeline + interface + controller.
* :class:`Switch` — admits tenants, hosts the system-level module,
  processes packets, compiles against the switch's current target.
* :class:`Tenant` — an object-capability handle scoped to one VID.
  Every operation it exposes (tables, registers, counters, transactions,
  eviction, egress scheduling) can only ever touch that VID's
  resources; crossing the boundary raises
  :class:`~repro.errors.TenantIsolationError` at the API instead of
  corrupting a neighbor.
* :class:`Transaction` — batches table/register reconfiguration and
  applies it atomically under the §4.1 bitmap/counter protocol, rolling
  back applied operations if any step fails.

The facade also fronts the serving layer: :meth:`Switch.engine`
returns a batched :class:`~repro.engine.batch.BatchEngine`, and the
pipeline's weighted-fair
:class:`~repro.engine.scheduler.EgressScheduler` is configured per
tenant via :meth:`Tenant.set_weight` / :meth:`Tenant.set_rate_limit`
/ :meth:`Tenant.clear_rate_limit`; every reconfiguration committed
through the facade flushes the affected tenant's flow-cache shards.
One switch is rarely the whole story — :mod:`repro.fabric` composes
many of these into leaf–spine topologies behind the same tenant
abstraction.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..core.packet_filter import BITMAP_BITS
from ..core.pipeline import SYSTEM_MODULE_ID, MenshenPipeline
from ..core.stats import TenantRecord, TenantSnapshot, merge_counters
from ..analysis.findings import AnalysisReport
from ..analysis.verify import analyze_switch
from ..compiler import SourceOrIR
from ..engine.batch import BatchEngine
from ..engine.scheduler import EgressScheduler
from ..errors import (
    AdmissionError,
    RuntimeInterfaceError,
    TenantIsolationError,
    TransactionError,
)
from ..net.packet import Packet
from ..rmt.entry_types import ActionCall, FieldSpec, Match, TableEntry
from ..rmt.params import DEFAULT_PARAMS, HardwareParams
from ..rmt.pipeline import PipelineResult
from ..runtime.controller import LoadedModule, MenshenController
from ..runtime.interface import SoftwareHardwareInterface
from .compile_report import CompileResult, compile as compile_source

MatchLike = Union[Match, Mapping[str, FieldSpec]]
ActionLike = Union[ActionCall, str]


@dataclass(frozen=True)
class TenantCounters:
    """Per-tenant data-plane counters (the system-level statistics a
    tenant may read but never write).

    The egress fields are fed by the switch's
    :class:`~repro.engine.scheduler.EgressScheduler`, on the scalar
    path and under an engine alike: ``egress_bytes_tx`` counts bytes
    actually transmitted on output links (dequeue-time semantics —
    queued is not transmitted), ``egress_queue_depth`` is the live §3.3
    queue-length gauge for this tenant.
    """

    packets_in: int
    packets_out: int
    packets_dropped: int
    bytes_out: int
    egress_bytes_tx: int = 0
    egress_queue_depth: int = 0

    @classmethod
    def of(cls, records: Iterable[Optional[TenantRecord]]
           ) -> "TenantCounters":
        """The sum of one tenant's records, one per switch (``None``:
        no record there)."""
        total = TenantRecord()
        for record in filter(None, records):
            merge_counters(total, record)
        return cls(total.packets_in, total.packets_out, total.packets_dropped,
                   total.bytes_out, total.transmitted_bytes, total.queue_depth)


class SwitchBuilder:
    """Fluent construction of a :class:`Switch`.

    Only the sizes and the paper's personalities are knobs; ``create()``
    assembles pipeline, interface and controller in the right order.
    """

    def __init__(self) -> None:
        self._params: HardwareParams = DEFAULT_PARAMS
        self._num_ports = 8
        self._match_mode = "exact"
        self._enable_default_actions = False
        self._reconfig_from_dataplane = False
        self._policy = None

    # -- hardware geometry ---------------------------------------------------

    def params(self, params: HardwareParams) -> "SwitchBuilder":
        """Start from a full :class:`HardwareParams` design point."""
        self._params = params
        return self

    def stages(self, num_stages: int) -> "SwitchBuilder":
        if num_stages < 1:
            raise ValueError(f"a pipeline needs >= 1 stage, got {num_stages}")
        self._params = replace(self._params, num_stages=num_stages)
        return self

    def max_modules(self, count: int) -> "SwitchBuilder":
        """Overlay depth = the number of concurrent tenants supported,
        at most one per bit of the §4.1 update bitmap."""
        if not 1 <= count <= BITMAP_BITS:
            raise ValueError(f"max_modules {count} does not fit the "
                             f"{BITMAP_BITS}-bit update bitmap")
        self._params = replace(
            self._params, parser_table_depth=count,
            key_extractor_depth=count, key_mask_depth=count,
            segment_table_depth=count)
        return self

    def ports(self, num_ports: int) -> "SwitchBuilder":
        self._num_ports = num_ports
        return self

    # -- pipeline personality ---------------------------------------------------

    def ternary(self) -> "SwitchBuilder":
        """Appendix-B personality: TCAM stages, per-entry masks."""
        self._match_mode = "ternary"
        return self

    def default_actions(self) -> "SwitchBuilder":
        """P4 ``default_action`` on a CAM miss (an extension)."""
        self._enable_default_actions = True
        return self

    def reconfig_from_dataplane(self) -> "SwitchBuilder":
        """Corundum-NIC mode: the shared ingress reaches the daisy chain."""
        self._reconfig_from_dataplane = True
        return self

    # -- control plane -----------------------------------------------------------

    def policy(self, policy) -> "SwitchBuilder":
        """Admission policy (e.g. :class:`repro.policy.DrfPolicy`)."""
        self._policy = policy
        return self

    # -- assembly ---------------------------------------------------------------

    def create(self) -> "Switch":
        pipeline = MenshenPipeline(
            params=self._params,
            num_ports=self._num_ports,
            reconfig_from_dataplane=self._reconfig_from_dataplane,
            match_mode=self._match_mode,
            enable_default_actions=self._enable_default_actions)
        return Switch(MenshenController(pipeline, policy=self._policy))


class Switch:
    """One Menshen switch: the root object of the facade.

    Build a fresh one with :meth:`build`, or wrap an existing
    controller (``Switch(controller)``) to adopt code written against
    the layered API.
    """

    def __init__(self, controller: Optional[MenshenController] = None):
        if controller is None:
            controller = MenshenController(MenshenPipeline())
        self._controller = controller
        self._tenants: Dict[int, Tenant] = {}
        self._engines: List[BatchEngine] = []

    @staticmethod
    def build() -> SwitchBuilder:
        return SwitchBuilder()

    # -- layered escape hatches ------------------------------------------------

    @property
    def controller(self) -> MenshenController:
        return self._controller

    @property
    def pipeline(self) -> MenshenPipeline:
        return self._controller.pipeline

    @property
    def interface(self) -> SoftwareHardwareInterface:
        return self._controller.interface

    @property
    def params(self) -> HardwareParams:
        return self.pipeline.params

    # -- static analysis ---------------------------------------------------------

    def analyze(self, certify_classifiers: bool = True) -> AnalysisReport:
        """Run the config passes over everything currently loaded: the
        standing isolation proof (write-set disjointness, identity
        writes) for this switch's live configuration.

        With ``certify_classifiers`` (the default), each loaded tenant's
        compiled classifier is additionally certified equivalent to the
        installed tables (:mod:`repro.analysis.equiv`); any violated
        obligation lands in the report as an ``equiv-*`` ERROR finding.
        """
        report = analyze_switch(self._controller)
        if certify_classifiers:
            from ..analysis.equiv import certify_classifier
            for vid in self._controller.loaded_ids():
                certificate = certify_classifier(self.pipeline, vid=vid)
                report.merge(certificate.to_report())
        return report

    # -- system module ----------------------------------------------------------

    def install_system(self, source: Optional[str] = None,
                       vip_map: Optional[Dict[str, str]] = None,
                       routes: Optional[Dict[str, int]] = None,
                       mcast_routes: Iterable[Tuple[str, int]] = (),
                       counter_index: Optional[Dict[str, int]] = None
                       ) -> "Tenant":
        """Load the system-level module (§3.3) and install its entries.

        ``source`` defaults to the reference system program
        (:data:`repro.sysmod.SYSTEM_P4_SOURCE`). Returns the system
        tenant handle (VID 0) for counter reads and further entries.
        """
        from ..sysmod import system_module
        src = source if source is not None else system_module.SYSTEM_P4_SOURCE
        self._controller.load_system_module(src)
        system = Tenant(self, SYSTEM_MODULE_ID, "system")
        self._tenants[SYSTEM_MODULE_ID] = system
        for table, entry in system_module.system_entries(
                vip_map or {}, routes or {}, mcast_routes,
                counter_index or {}):
            system.table(table).insert(entry)
        return system

    # -- tenant lifecycle ---------------------------------------------------------

    def _free_vid(self) -> int:
        for vid in range(1, self.params.max_modules):
            if vid not in self._controller.modules:
                return vid
        raise AdmissionError(
            f"all {self.params.max_modules - 1} tenant VIDs are in use")

    def admit(self, name: str, source: SourceOrIR,
              vid: Optional[int] = None) -> "Tenant":
        """Compile, admission-check, and install a tenant's program.

        ``source`` is P4 text or a program already through
        :func:`repro.compiler.analyse` (what a multi-switch fan-out
        passes, so the frontend runs once for the whole route; the
        backend, admission verify and §4.1 writes stay per switch).
        ``vid`` defaults to the lowest free VID. Returns the tenant
        handle that scopes all further operations.
        """
        if vid is None:
            vid = self._free_vid()
        self._controller.load_module(vid, source, name)
        tenant = Tenant(self, vid, name)
        self._tenants[vid] = tenant
        return tenant

    def tenant(self, vid_or_name: Union[int, str]) -> "Tenant":
        """Look up an admitted tenant by VID or name."""
        if isinstance(vid_or_name, int):
            if vid_or_name in self._tenants:
                return self._tenants[vid_or_name]
            # Adopt modules loaded through the layered API.
            loaded = self._controller._loaded(vid_or_name)
            tenant = Tenant(self, vid_or_name, loaded.name)
            self._tenants[vid_or_name] = tenant
            return tenant
        for tenant in [*self.tenants(), *self._tenants.values()]:
            if tenant.name == vid_or_name:
                return tenant
        raise RuntimeInterfaceError(f"no tenant named {vid_or_name!r}")

    def tenants(self) -> List["Tenant"]:
        """Handles for every loaded user module, in VID order."""
        return [self.tenant(vid) for vid in self._controller.loaded_ids()]

    # -- data plane ---------------------------------------------------------------

    def process(self, packet: Packet) -> PipelineResult:
        return self.pipeline.process(packet)

    def engine(self, cache_capacity: int = 4096,
               enable_cache: bool = True,
               check_compiled: str = "off") -> BatchEngine:
        """A batched execution engine over this switch's pipeline.

        Engines obtained here are registered with the switch, so every
        transactional reconfiguration through the facade (transactions,
        ``tenant.update``, ``tenant.evict``) flushes the affected
        tenant's flow-cache shard — and its compiled classifier — the
        moment it commits; without it, the tenant's next packet finds
        its epoch moved, recompiles and empties the shard.

        ``check_compiled="enforce"`` certifies every classifier rebuild
        against the installed tables (:mod:`repro.analysis.equiv`) and
        serves a tenant whose certificate fails from the scalar oracle;
        ``"off"`` skips certification.

        The engine commits into the pipeline's own
        :attr:`egress_scheduler`; it replaces nothing.
        """
        engine = BatchEngine(self.pipeline, cache_capacity=cache_capacity,
                             enable_cache=enable_cache,
                             check_compiled=check_compiled)
        self._engines.append(engine)
        return engine

    @property
    def egress_scheduler(self) -> EgressScheduler:
        """The pipeline's weighted-fair traffic manager (§3.5): its
        ``line_rate_bps`` is the transmission clock rate caps and the
        timeline's latencies run on, its ``queue_capacity`` bounds each
        port's queue."""
        return self.pipeline.traffic_manager

    def _notify_reconfigured(self, vid: int) -> None:
        """Flush attached engines' cached flows for one tenant."""
        for engine in self._engines:
            engine.invalidate(vid)

    # -- services -----------------------------------------------------------------

    def compile(self, source: str, name: str = "<module>") -> CompileResult:
        """Compile against this switch's *current* user target (stage
        map and shared containers reflect the loaded system module)."""
        return compile_source(source, name,
                              target=self._controller.compile_target())

    def stats(self) -> Dict[str, int]:
        return self.pipeline.stats.summary()


class Tenant:
    """Capability handle for one VID; the only sanctioned way in.

    Obtained from :meth:`Switch.admit`. Holding a handle is holding
    the authority over exactly that VID's tables, registers, egress
    configuration, and lifecycle. (:meth:`Tenant.attach` is the bridge
    from a bare :class:`~repro.runtime.controller.MenshenController`
    to the same handle.)
    """

    def __init__(self, switch: Switch, vid: int, name: str = ""):
        self._switch = switch
        self._controller = switch.controller
        self._vid = vid
        self._name = name or f"module{vid}"

    @classmethod
    def attach(cls, controller: MenshenController, vid: int) -> "Tenant":
        """The typed handle for a module already loaded through a bare
        :class:`~repro.runtime.controller.MenshenController` — the one
        bridge from the layered API (which tests and benches drive
        directly) to the facade. Code that owns a :class:`Switch` uses
        :meth:`Switch.admit` / :meth:`Switch.tenant`."""
        return Switch(controller=controller).tenant(vid)

    def __repr__(self) -> str:
        return f"Tenant(vid={self._vid}, name={self._name!r})"

    @property
    def vid(self) -> int:
        return self._vid

    @property
    def name(self) -> str:
        return self._name

    @property
    def switch(self) -> Switch:
        return self._switch

    def _loaded(self) -> LoadedModule:
        return self._controller._loaded(self._vid)

    # -- tables -------------------------------------------------------------------

    def tables(self) -> List[str]:
        return sorted(self._loaded().tables)

    def table(self, name: str) -> "TableHandle":
        """A handle on one of *this tenant's* tables.

        Naming a table owned by another tenant raises
        :class:`TenantIsolationError` — behavior isolation is a property
        of the API, not a convention callers must remember.
        """
        self._check_owned("table", name, self._loaded().tables,
                          self.tables())
        return TableHandle(self, name)

    def _check_owned(self, kind: str, name: str, owned, have: List[str]
                     ) -> None:
        """Raise the right error for a resource this tenant doesn't own:
        isolation error if another tenant owns one by that name, plain
        error otherwise."""
        if name in owned:
            return
        candidates = list(self._controller.modules.values())
        if self._controller.system_module is not None:
            candidates.append(self._controller.system_module)
        for other in candidates:
            names = (other.tables if kind == "table"
                     else other.compiled.registers)
            if other.module_id != self._vid and name in names:
                raise TenantIsolationError(
                    f"{kind} {name!r} belongs to tenant {other.name!r} "
                    f"(VID {other.module_id}); VID {self._vid} may not "
                    f"touch it")
        raise RuntimeInterfaceError(
            f"tenant {self._name!r} has no {kind} {name!r} (has: {have})")

    # -- registers -----------------------------------------------------------------

    def registers(self) -> List[str]:
        return sorted(self._loaded().compiled.registers)

    def register(self, name: str) -> "RegisterHandle":
        self._check_owned("register", name, self._loaded().compiled.registers,
                          self.registers())
        return RegisterHandle(self, name)

    # -- statistics ----------------------------------------------------------------

    def counters(self) -> TenantCounters:
        """This tenant's slice of the pipeline statistics."""
        return TenantCounters.of([self._record()])

    def _record(self) -> Optional[TenantRecord]:
        return self._switch.pipeline.stats.tenants.get(self._vid)

    # -- egress scheduling ---------------------------------------------------------

    def set_weight(self, weight: float) -> "Tenant":
        """This tenant's weighted-fair share of every output link.

        Backlogged tenants divide each port's bandwidth in proportion
        to their weights (STFQ ranks in the egress scheduler), so a
        bursty neighbor can no longer starve this tenant — §3.5's PIFO
        suggestion made default. Takes effect immediately; a
        non-positive or non-finite weight raises
        :class:`~repro.errors.ConfigError`.
        """
        self._switch.egress_scheduler.set_weight(self._vid, weight)
        return self

    def set_rate_limit(self, rate_bytes_per_s: float,
                       burst_bytes: Optional[float] = None) -> "Tenant":
        """Token-bucket cap on this tenant's egress throughput.

        ``rate_bytes_per_s`` refills the bucket against the scheduler's
        virtual clock; ``burst_bytes`` bounds how far it can save up
        (default: one second's worth, floored at one MTU). A
        non-positive or non-finite rate or burst raises
        :class:`~repro.errors.ConfigError`.
        """
        self._switch.egress_scheduler.set_rate_limit(
            self._vid, rate_bytes_per_s, burst_bytes)
        return self

    def clear_rate_limit(self) -> "Tenant":
        """Remove this tenant's egress rate cap."""
        self._switch.egress_scheduler.clear_rate_limit(self._vid)
        return self

    def scheduler_counters(self) -> TenantSnapshot:
        """A frozen copy of this tenant's record, whose ``enqueued`` /
        ``transmitted`` / ``transmitted_bytes`` / ``dropped`` /
        ``throttled_waits`` are the egress scheduler's counts."""
        return (self._record() or TenantRecord()).snapshot()

    def stats(self) -> Dict[str, object]:
        """Placement + usage + traffic in one structured report."""
        loaded = self._loaded()
        partitions = {
            stage: {"cam_rows": (alloc.match_start, alloc.match_end),
                    "stateful_words": (alloc.stateful_base,
                                       alloc.stateful_end)}
            for stage, alloc in loaded.allocation.stages.items()}
        report = {
            "vid": self._vid,
            "name": self._name,
            "stages": loaded.compiled.stages_used(),
            "tables": {t: loaded.tables[t].cam_count
                       for t in loaded.tables},
            "partitions": partitions,
            "counters": self.counters(),
        }
        scheduler = self._switch.egress_scheduler
        report["egress"] = {
            "weight": scheduler.weight_of(self._vid),
            "rate_limit_bytes_per_s": scheduler.rate_limit_of(self._vid),
            "queue_depth": scheduler.queue_depth(self._vid),
            "scheduler": self.scheduler_counters(),
        }
        return report

    # -- lifecycle -----------------------------------------------------------------

    def update(self, source: SourceOrIR) -> "Tenant":
        """Replace this tenant's program (hitless for other tenants);
        ``source`` is P4 text or an analysed program, as in
        :meth:`Switch.admit`."""
        if self._vid == SYSTEM_MODULE_ID:
            raise RuntimeInterfaceError(
                "the system module cannot be replaced at runtime")
        self._controller.update_module(self._vid, source)
        self._switch._notify_reconfigured(self._vid)
        return self

    def evict(self) -> None:
        """Unload the module, zero its partitions, release its VID.

        A live eviction also scrubs the egress scheduler: the tenant's
        queued packets are purged (they must not transmit under a VID
        that no longer exists) and its weight/rate configuration is
        dropped, so the next tenant assigned this VID starts from a
        clean scheduler state.
        """
        if self._vid == SYSTEM_MODULE_ID:
            raise RuntimeInterfaceError("the system module cannot be evicted")
        self._controller.unload_module(self._vid)
        self._switch._tenants.pop(self._vid, None)
        self._switch.egress_scheduler.purge(self._vid)
        self._switch._notify_reconfigured(self._vid)

    @contextlib.contextmanager
    def updating(self):
        """§4.1 drop window: this tenant's packets drop, others flow.
        Holds nest; only the last close clears the bit."""
        with self._controller.interface.update_window(self._vid):
            yield self

    def transaction(self) -> "Transaction":
        """Batch reconfiguration; apply atomically, roll back on failure."""
        return Transaction(self)


class TableHandle:
    """One tenant-scoped table; insert/delete go through the daisy chain."""

    def __init__(self, tenant: Tenant, name: str):
        self._tenant = tenant
        self.name = name

    def _entry(self, match: Optional[MatchLike], action: Optional[ActionLike],
               params: Optional[Mapping[str, int]],
               entry: Optional[TableEntry]) -> TableEntry:
        if isinstance(match, TableEntry):  # insert(TableEntry) positional
            entry, match = match, None
        if entry is not None:
            if match is not None or action is not None or params:
                raise ValueError(
                    "pass either entry= or match=/action=/params=, not both")
            return entry
        if match is None or action is None:
            raise ValueError("insert needs match= and action= (or entry=)")
        return TableEntry.of(match, action, params)

    def insert(self, match: Optional[MatchLike] = None,
               action: Optional[ActionLike] = None,
               params: Optional[Mapping[str, int]] = None, *,
               entry: Optional[TableEntry] = None) -> int:
        """Install one entry; returns its handle.

        Accepts a full :class:`TableEntry`, or ``match=`` (dict or
        :class:`Match`) + ``action=`` (name or :class:`ActionCall`) +
        optional ``params=``.
        """
        typed = self._entry(match, action, params, entry)
        # Re-check ownership on every use: the handle may be stale.
        self._tenant.table(self.name)
        return self._tenant._controller.insert_entry(
            self._tenant.vid, self.name, typed)

    def delete(self, handle: int) -> None:
        self._tenant.table(self.name)
        self._tenant._controller.table_delete(self._tenant.vid, self.name,
                                              handle)

    def handles(self) -> List[int]:
        """Handles of the live entries, in installation order."""
        state = self._tenant._loaded().table(self.name)
        return sorted(state.entries)

    @property
    def capacity(self) -> int:
        return self._tenant._loaded().table(self.name).cam_count

    def occupancy(self) -> int:
        return len(self._tenant._loaded().table(self.name).entries)


class RegisterHandle:
    """One tenant-scoped register, accessed through its segment."""

    def __init__(self, tenant: Tenant, name: str):
        self._tenant = tenant
        self.name = name

    @property
    def size(self) -> int:
        """Words in this register (valid addresses are
        ``0..size-1``) — what a full state snapshot iterates
        (:meth:`repro.fabric.FabricTenant.migrate` carries registers
        to a tenant's new route this way)."""
        return self._tenant._loaded().compiled.registers[self.name].size

    def read(self, addr: int = 0) -> int:
        return self._tenant._controller.register_read(
            self._tenant.vid, self.name, addr)

    def write(self, addr: int, value: int) -> None:
        self._tenant._controller.register_write(
            self._tenant.vid, self.name, addr, value)


class _TxnOp:
    """One queued operation: apply() returns an undo thunk."""

    def __init__(self, describe: str, apply_fn, label=None):
        self.describe = describe
        self.apply = apply_fn
        self.label = label


class PendingEntry:
    """The handle of an entry inserted inside a transaction.

    ``handle`` is ``None`` until the transaction commits.
    """

    def __init__(self, table: str):
        self.table = table
        self.handle: Optional[int] = None

    def __repr__(self) -> str:
        state = self.handle if self.handle is not None else "<pending>"
        return f"PendingEntry({self.table!r}, handle={state})"


class Transaction:
    """Transactional reconfiguration for one tenant.

    Operations queue until the ``with`` block exits cleanly, then apply
    as one batch inside one hold on the tenant's §4.1 drop window
    (bitmap bit set, every write through the daisy chain with
    counter-verified delivery, hold closed; holds nest, and only the
    last close clears the bit). If any operation fails mid-batch, the
    already applied prefix is rolled back in reverse order and
    :class:`TransactionError` is raised — other tenants never observe a
    half-applied neighbor. Raising inside the ``with`` block discards
    the queue untouched.
    """

    def __init__(self, tenant: Tenant):
        self._tenant = tenant
        self._ops: List[_TxnOp] = []
        self._done = False

    # -- queueing -------------------------------------------------------------

    def table(self, name: str) -> "TxnTableHandle":
        self._tenant.table(name)  # ownership check at queue time
        return TxnTableHandle(self, name)

    def register(self, name: str) -> "TxnRegisterHandle":
        self._tenant.register(name)
        return TxnRegisterHandle(self, name)

    def _queue_insert(self, table: str, entry: TableEntry) -> PendingEntry:
        pending = PendingEntry(table)
        tenant = self._tenant

        def apply():
            handle = tenant._controller.insert_entry(tenant.vid, table,
                                                     entry)
            pending.handle = handle

            def undo():
                tenant._controller.table_delete(tenant.vid, table, handle)
                pending.handle = None
            return undo

        self._ops.append(_TxnOp(f"insert into {table!r}", apply, pending))
        return pending

    def _queue_delete(self, table: str, handle: int) -> None:
        tenant = self._tenant

        def apply():
            original = tenant._controller.table_delete(tenant.vid, table,
                                                       handle)

            def undo():
                tenant._controller.insert_entry(tenant.vid, table, original)
            return undo

        self._ops.append(_TxnOp(f"delete {table!r}#{handle}", apply))

    def _queue_register_write(self, register: str, addr: int,
                              value: int) -> None:
        tenant = self._tenant

        def apply():
            before = tenant._controller.register_read(tenant.vid, register,
                                                      addr)
            tenant._controller.register_write(tenant.vid, register, addr,
                                              value)

            def undo():
                tenant._controller.register_write(tenant.vid, register,
                                                  addr, before)
            return undo

        self._ops.append(_TxnOp(f"write {register!r}[{addr}]", apply))

    # -- commit ---------------------------------------------------------------

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._ops.clear()   # nothing was applied; nothing to undo
            self._done = True
            return False
        self.commit()
        return False

    def commit(self) -> None:
        if self._done:
            raise TransactionError("transaction already finished")
        self._done = True
        if not self._ops:
            return
        tenant = self._tenant
        undos = []
        with tenant._controller.interface.update_window(tenant.vid):
            try:
                for op in self._ops:
                    try:
                        undos.append(op.apply())
                    except Exception as exc:
                        for undo in reversed(undos):
                            undo()
                        raise TransactionError(
                            f"transaction for tenant {tenant.name!r} failed "
                            f"at {op.describe} ({len(undos)} prior "
                            f"operations rolled back)") from exc
            finally:
                # Committed or rolled back, configuration writes
                # happened: flush this tenant's cached flows before its
                # next packet.
                tenant._switch._notify_reconfigured(tenant.vid)
        self._ops.clear()


class TxnTableHandle:
    """Queueing proxy for one table inside a transaction."""

    def __init__(self, txn: Transaction, name: str):
        self._txn = txn
        self.name = name

    def insert(self, match: Optional[MatchLike] = None,
               action: Optional[ActionLike] = None,
               params: Optional[Mapping[str, int]] = None, *,
               entry: Optional[TableEntry] = None) -> PendingEntry:
        typed = TableHandle(self._txn._tenant, self.name)._entry(
            match, action, params, entry)
        return self._txn._queue_insert(self.name, typed)

    def delete(self, handle: int) -> None:
        self._txn._queue_delete(self.name, handle)


class TxnRegisterHandle:
    """Queueing proxy for one register inside a transaction."""

    def __init__(self, txn: Transaction, name: str):
        self._txn = txn
        self.name = name

    def write(self, addr: int, value: int) -> None:
        self._txn._queue_register_write(self.name, addr, value)
