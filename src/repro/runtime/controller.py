"""Module lifecycle controller.

Implements the paper's software procedures on top of the
software-to-hardware interface:

* **Load** (§4.1): compile, admission-check, partition resources, then —
  with the module's bit set in the packet filter's bitmap so its
  in-flight packets are dropped rather than half-processed — write every
  configuration row through the daisy chain, verify delivery through the
  reconfiguration counter (retrying the whole batch on loss), zero the
  module's stateful words and CAM rows so nothing leaks from a previous
  tenant, and finally clear the bitmap.
* **Update**: the same procedure for an already-loaded module; other
  modules' rows and partitions are untouched (asserted by tests via
  overlay write logs).
* **Unload**: invalidate and zero everything the module owned, then
  release the partitions.
* **Entry management**: typed entries (``insert_entry`` /
  ``table_delete``) bound to the module's CAM partition, and register
  access through the module's segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..analysis.verify import verify_admission
from ..compiler import (
    CompilerOptions,
    ModuleIR,
    SourceOrIR,
    analyse,
    compile_module,
)
from ..compiler.backend import CompiledModule
from ..compiler.resource_checker import ResourceRequest
from ..compiler.target import TargetDescription, system_target, user_target
from ..core.pipeline import MenshenPipeline, SYSTEM_MODULE_ID
from ..core.reconfig import ConfigWrite, ResourceId, ResourceType
from ..core.resources import ModuleAllocation, StageAllocation
from ..errors import (
    AdmissionError,
    AllocationError,
    AnalysisError,
    ReconfigurationError,
    RuntimeInterfaceError,
)
from ..rmt.encodings import (
    encode_cam_entry,
    encode_parser_entry,
    encode_segment_entry,
    encode_tcam_entry,
)
from ..rmt.entry_types import TableEntry
from .interface import SoftwareHardwareInterface

#: Whole-batch resends before a load gives up (§4.1 counter protocol).
MAX_LOAD_RETRIES = 5


@dataclass
class TableState:
    """Runtime entry bookkeeping for one table."""

    stage: int
    cam_start: int
    cam_count: int
    #: handle -> cam index
    entries: Dict[int, int] = field(default_factory=dict)
    #: handle -> the typed entry installed there (what a rollback
    #: re-inserts)
    typed_entries: Dict[int, TableEntry] = field(default_factory=dict)
    next_handle: int = 0

    def free_slots(self) -> List[int]:
        used = set(self.entries.values())
        return [self.cam_start + i for i in range(self.cam_count)
                if self.cam_start + i not in used]


@dataclass
class LoadedModule:
    """A module installed on the pipeline."""

    module_id: int
    name: str
    compiled: CompiledModule
    allocation: ModuleAllocation
    #: module-local stateful base per register
    register_bases: Dict[str, int]
    tables: Dict[str, TableState]

    def table(self, name: str) -> TableState:
        if name not in self.tables:
            raise RuntimeInterfaceError(
                f"module {self.name!r} has no table {name!r}")
        return self.tables[name]


class AlwaysAdmit:
    """Default admission policy: admit whenever partitions fit."""

    def admit(self, module_id: int, request: ResourceRequest,
              ledger) -> bool:
        return True


class MenshenController:
    """Software controller for one Menshen pipeline."""

    def __init__(self, pipeline: MenshenPipeline, policy=None):
        self.pipeline = pipeline
        self.interface = SoftwareHardwareInterface(pipeline)
        self.policy = policy or AlwaysAdmit()
        self.modules: Dict[int, LoadedModule] = {}
        self.system_module: Optional[LoadedModule] = None
        self._user_target: Optional[TargetDescription] = None

    # ------------------------------------------------------------------ targets

    def compile_target(self) -> TargetDescription:
        """The target user modules compile against right now."""
        if self._user_target is not None:
            return self._user_target
        return user_target(self.pipeline.params)

    # ------------------------------------------------------------------ system

    def load_system_module(self, source: str,
                           name: str = "system") -> LoadedModule:
        """Compile and install the system-level module (§3.3)."""
        if self.system_module is not None:
            raise RuntimeInterfaceError("system module already loaded")
        target = system_target(self.pipeline.params)
        compiled = compile_module(source, name,
                                  CompilerOptions(target=target,
                                                  run_static_checks=False))
        loaded = self._install(SYSTEM_MODULE_ID, name, compiled)
        self.system_module = loaded
        self.pipeline.set_system_stages(set(compiled.stages_used()))
        # Every field the system module parses becomes shared state that
        # user modules must keep in the same containers.
        self._user_target = self._derive_user_target(compiled)
        return loaded

    def _derive_user_target(self, system: CompiledModule) -> TargetDescription:
        base = TargetDescription(params=self.pipeline.params)
        shared_alloc = dict(system.field_alloc)
        # Build FieldInfo-like records from the parse actions: offset comes
        # from the parse program, width from the container class.
        class _Shim:
            def __init__(self, byte_offset, width_bits):
                self.byte_offset = byte_offset
                self.width_bits = width_bits

        ref_to_offset = {}
        for action in system.parse_actions:
            key = (int(action.container.ctype), action.container.index)
            ref_to_offset[key] = action.bytes_from_head
        fields = {}
        for dotted, ref in shared_alloc.items():
            key = (int(ref.ctype), ref.index)
            if key not in ref_to_offset:
                continue
            fields[dotted] = _Shim(ref_to_offset[key], ref.size_bytes * 8)
        # Containers the system module uses for non-wire (scratch) fields
        # must still be reserved: system stages write them while
        # processing every packet.
        scratch_refs = [r for d, r in system.field_alloc.items()
                        if d not in fields]
        shared_alloc = {d: r for d, r in shared_alloc.items() if d in fields}
        written = [a.container for a in system.deparse_actions]
        written_names = [d for d, r in shared_alloc.items() if r in written]
        target = base.with_system_reservations(shared_alloc, fields,
                                               written_names)
        target.reserved_containers.extend(scratch_refs)
        return target

    # ------------------------------------------------------------------ loading

    def load_module(self, module_id: int, source: SourceOrIR,
                    name: str = "") -> LoadedModule:
        """Compile, admit, and install a user module.

        ``source`` is P4 text or an already-analysed program
        (:func:`repro.compiler.analyse`) — a fan-out over many switches
        analyses once and hands every controller the same IR. Either
        way the frontend runs at most once here; only the per-target
        backend is repeated per stage window.

        Placement is load-balanced: if the module does not fit starting
        at the first user stage (its tables would collide with already
        loaded modules' CAM partitions), compilation is retried with the
        stage window shifted right — a simple version of the memory
        allocation optimizations the paper cites as future work (§3.5).
        Later windows preserve apply order (they are increasing slices
        of the stage map), so dependency correctness is unaffected.
        """
        if module_id == SYSTEM_MODULE_ID:
            raise AdmissionError(
                f"module id {SYSTEM_MODULE_ID} is reserved for the system "
                f"module")
        if module_id in self.modules:
            raise AdmissionError(
                f"module id {module_id} is already loaded; use "
                f"update_module()")
        name = name or f"module{module_id}"
        loaded = self._install_in_any_window(module_id, name,
                                             analyse(source, name))
        self.modules[module_id] = loaded
        return loaded

    def _install_in_any_window(self, module_id: int, name: str,
                               program: ModuleIR) -> LoadedModule:
        """Compile and install ``program`` in the first stage window it
        fits, preferring windows whose first stage has the most free CAM
        rows."""
        base_target = self.compile_target()
        stage_map = base_target.stage_map
        offsets = sorted(
            range(len(stage_map)),
            key=lambda off: -self.pipeline.ledger.free_match_rows(
                stage_map[off]))
        last_error: Optional[Exception] = None
        for offset in offsets:
            target = TargetDescription(
                params=base_target.params,
                stage_map=stage_map[offset:],
                shared_fields=dict(base_target.shared_fields),
                reserved_containers=list(base_target.reserved_containers),
                zero_container=base_target.zero_container,
                shared_parse_fields=list(base_target.shared_parse_fields),
                shared_deparse_fields=list(
                    base_target.shared_deparse_fields),
            )
            try:
                compiled = compile_module(
                    program, name, CompilerOptions(target=target))
                return self._install(module_id, name, compiled)
            except (AdmissionError, AllocationError) as exc:
                last_error = exc  # window too small or rows taken: shift
        raise AdmissionError(
            f"module {name!r} does not fit in any stage window: "
            f"{last_error}")

    def load_compiled(self, module_id: int, compiled: CompiledModule,
                      name: str = "") -> LoadedModule:
        """Install an already-compiled artifact: the loader for a
        :func:`repro.compiler.compile_module_group` merge, which has no
        source to recompile per stage window."""
        if module_id in self.modules:
            raise AdmissionError(f"module id {module_id} is already loaded")
        loaded = self._install(module_id, name or compiled.name, compiled)
        self.modules[module_id] = loaded
        return loaded

    def update_module(self, module_id: int,
                      source: SourceOrIR) -> LoadedModule:
        """Replace a module's program (P4 text or an analysed program,
        as in :meth:`load_module`); other modules keep running.

        The program is compiled for the whole user stage map before the
        old one is torn down, and installed there if it fits; when those
        stages are taken it falls back to the other stage windows, as a
        load does."""
        if module_id not in self.modules:
            raise RuntimeInterfaceError(
                f"module {module_id} is not loaded")
        old = self.modules[module_id]
        program = analyse(source, old.name)
        compiled = compile_module(
            program, old.name, CompilerOptions(target=self.compile_target()))
        self._teardown(old)
        self.pipeline.ledger.revoke(module_id)
        self._policy_release(module_id)
        del self.modules[module_id]
        try:
            loaded = self._install(module_id, old.name, compiled)
        except (AdmissionError, AllocationError):
            loaded = self._install_in_any_window(module_id, old.name,
                                                 program)
        self.modules[module_id] = loaded
        return loaded

    def unload_module(self, module_id: int) -> None:
        if module_id not in self.modules:
            raise RuntimeInterfaceError(f"module {module_id} is not loaded")
        loaded = self.modules.pop(module_id)
        self._teardown(loaded)
        self.pipeline.ledger.revoke(module_id)
        self._policy_release(module_id)
        self.pipeline.mark_unloaded(module_id)

    def _policy_release(self, module_id: int) -> None:
        """Return a module's demand to the admission policy's ledger.

        Without this, a stateful policy (DRF, first-fit) keeps charging
        for evicted modules forever — and rejects a reloaded VID as a
        duplicate. Policies without bookkeeping (``AlwaysAdmit``,
        ad-hoc test doubles) simply have no ``release``.
        """
        release = getattr(self.policy, "release", None)
        if release is not None:
            release(module_id)

    # ------------------------------------------------------------------ install

    def _partition(self, module_id: int,
                   compiled: CompiledModule) -> Tuple[ModuleAllocation,
                                                      Dict[str, int],
                                                      Dict[int, int]]:
        """Carve CAM and stateful partitions; returns (allocation,
        module-local register bases, per-stage physical stateful base)."""
        ledger = self.pipeline.ledger
        stages: Dict[int, StageAllocation] = {}
        match_blocks: Dict[int, Tuple[int, int]] = {}
        for table in compiled.tables.values():
            start = ledger.first_free_match_block(table.stage, table.size)
            if start is None:
                raise AdmissionError(
                    f"no contiguous block of {table.size} CAM rows free in "
                    f"stage {table.stage}")
            match_blocks[table.stage] = (start, table.size)

        stateful_words: Dict[int, int] = {}
        register_bases: Dict[str, int] = {}
        for reg_name in sorted(compiled.registers):
            spec = compiled.registers[reg_name]
            register_bases[reg_name] = stateful_words.get(spec.stage, 0)
            stateful_words[spec.stage] = (stateful_words.get(spec.stage, 0)
                                          + spec.size)
        stateful_bases: Dict[int, int] = {}
        for stage, words in stateful_words.items():
            base = ledger.first_free_stateful_block(stage, words)
            if base is None:
                raise AdmissionError(
                    f"no contiguous block of {words} stateful words free "
                    f"in stage {stage}")
            stateful_bases[stage] = base

        for stage in sorted(set(list(match_blocks) + list(stateful_bases))):
            m_start, m_count = match_blocks.get(stage, (0, 0))
            stages[stage] = StageAllocation(
                match_start=m_start, match_count=m_count,
                stateful_base=stateful_bases.get(stage, 0),
                stateful_words=stateful_words.get(stage, 0))

        allocation = ModuleAllocation(module_id, stages)
        request = ResourceRequest.of(compiled)
        if not self.policy.admit(module_id, request, ledger):
            raise AdmissionError(
                f"module {module_id} rejected by the resource policy")
        ledger.grant(allocation)
        return allocation, register_bases, stateful_bases

    def config_writes(self, module_id: int, compiled: CompiledModule,
                      allocation: ModuleAllocation,
                      register_bases: Optional[Dict[str, int]] = None
                      ) -> List[ConfigWrite]:
        """All configuration writes needed to install the module."""
        writes: List[ConfigWrite] = []
        parser_entry = encode_parser_entry(
            [a.encode() for a in compiled.parse_actions])
        deparser_entry = encode_parser_entry(
            [a.encode() for a in compiled.deparse_actions])
        writes.append(ConfigWrite(
            ResourceId.of(ResourceType.PARSER_TABLE, 0), module_id,
            parser_entry))
        writes.append(ConfigWrite(
            ResourceId.of(ResourceType.DEPARSER_TABLE, 0), module_id,
            deparser_entry))
        for table in compiled.tables.values():
            writes.append(ConfigWrite(
                ResourceId.of(ResourceType.KEY_EXTRACTOR, table.stage),
                module_id, table.key_entry.encode()))
            writes.append(ConfigWrite(
                ResourceId.of(ResourceType.KEY_MASK, table.stage),
                module_id, table.key_mask))
            if table.default_action is not None:
                if not self.pipeline.enable_default_actions:
                    raise RuntimeInterfaceError(
                        f"table {table.name!r} declares a default_action "
                        f"but the pipeline was built without "
                        f"enable_default_actions=True")
                vliw = table.actions[table.default_action].make_vliw(
                    {}, register_bases or {})
                writes.append(ConfigWrite(
                    ResourceId.of(ResourceType.DEFAULT_VLIW, table.stage),
                    module_id, vliw.encode()))
        for stage, alloc in allocation.stages.items():
            if alloc.stateful_words:
                writes.append(ConfigWrite(
                    ResourceId.of(ResourceType.SEGMENT, stage), module_id,
                    encode_segment_entry(alloc.stateful_base,
                                         alloc.stateful_words)))
            # Zero the partition so nothing leaks from a prior tenant.
            for addr in range(alloc.stateful_base, alloc.stateful_end):
                writes.append(ConfigWrite(
                    ResourceId.of(ResourceType.STATEFUL_WORD, stage), addr, 0))
            for row in range(alloc.match_start, alloc.match_end):
                writes.append(ConfigWrite(
                    ResourceId.of(ResourceType.CAM_INVALIDATE, stage), row, 0))
        return writes

    def _install(self, module_id: int, name: str,
                 compiled: CompiledModule) -> LoadedModule:
        allocation, register_bases, _ = self._partition(module_id, compiled)
        try:
            # Static-verifier gate: prove the switch stays isolated with
            # the candidate's partitions before any config packet is
            # sent. The system module (vid 0) predates user state and is
            # exempt.
            if module_id != SYSTEM_MODULE_ID:
                try:
                    verify_admission(self, module_id, name, compiled,
                                     allocation)
                except AnalysisError as exc:
                    raise AdmissionError(str(exc)) from exc
            writes = self.config_writes(module_id, compiled, allocation,
                                        register_bases)
            # §4.1 protocol: bitmap on -> send -> verify counter ->
            # bitmap off.
            with self.interface.update_window(module_id):
                for _attempt in range(MAX_LOAD_RETRIES):
                    delivered = self.interface.send_batch(writes)
                    if delivered == len(writes):
                        break
                else:
                    raise ReconfigurationError(
                        f"loading module {module_id}: reconfiguration "
                        f"packets kept getting lost after "
                        f"{MAX_LOAD_RETRIES} attempts")
        except BaseException:
            # Don't leak the partition grant (or the admission policy's
            # charge) on a failed install.
            self.pipeline.ledger.revoke(module_id)
            self._policy_release(module_id)
            raise

        tables = {
            t.name: TableState(
                stage=t.stage,
                cam_start=allocation.stage(t.stage).match_start,
                cam_count=t.size)
            for t in compiled.tables.values()
        }
        self.pipeline.mark_loaded(module_id)
        return LoadedModule(module_id=module_id, name=name,
                            compiled=compiled, allocation=allocation,
                            register_bases=register_bases, tables=tables)

    def _teardown(self, loaded: LoadedModule) -> None:
        """Invalidate and zero everything the module owns."""
        module_id = loaded.module_id
        with self.interface.update_window(module_id):
            self.interface.write_config_reliable(
                ResourceId.of(ResourceType.PARSER_TABLE, 0), module_id, 0)
            self.interface.write_config_reliable(
                ResourceId.of(ResourceType.DEPARSER_TABLE, 0), module_id, 0)
            for stage, alloc in loaded.allocation.stages.items():
                self.interface.write_config_reliable(
                    ResourceId.of(ResourceType.KEY_EXTRACTOR, stage),
                    module_id, 0)
                self.interface.write_config_reliable(
                    ResourceId.of(ResourceType.KEY_MASK, stage), module_id, 0)
                if self.pipeline.enable_default_actions:
                    self.interface.write_config_reliable(
                        ResourceId.of(ResourceType.DEFAULT_VLIW, stage),
                        module_id, 0)
                if alloc.stateful_words:
                    self.interface.write_config_reliable(
                        ResourceId.of(ResourceType.SEGMENT, stage),
                        module_id, 0)
                for addr in range(alloc.stateful_base, alloc.stateful_end):
                    self.interface.write_stateful(stage, addr, 0)
                for row in range(alloc.match_start, alloc.match_end):
                    self.interface.delete_match_entry(stage, row)
        self.pipeline.mark_unloaded(module_id)

    # ------------------------------------------------------------------ entries

    def insert_entry(self, module_id: int, table_name: str,
                     entry: TableEntry) -> int:
        """Install one typed match-action entry; returns an entry handle.

        This is the one installation path: the :mod:`repro.api` facade
        lands here. For ternary tables (Appendix B), :class:`~repro.rmt.entry_types.
        Ternary` field specs carry the bit masks (exact specs match
        all bits); entries take slots in installation order within the
        module's contiguous block, so earlier entries have higher
        priority (lower address wins).
        """
        loaded = self._loaded(module_id)
        state = loaded.table(table_name)
        compiled_table = loaded.compiled.tables[table_name]
        action = entry.action
        if action.name not in compiled_table.actions:
            raise RuntimeInterfaceError(
                f"table {table_name!r} has no action {action.name!r}")
        is_ternary = compiled_table.match_kind == "ternary"
        key_masks = entry.match.key_masks()
        if key_masks and not is_ternary:
            raise RuntimeInterfaceError(
                f"table {table_name!r} is exact-match; Ternary field specs "
                f"need a ternary table (and a pipeline with "
                f"match_mode='ternary')")
        free = state.free_slots()
        if not free:
            raise RuntimeInterfaceError(
                f"table {table_name!r} is full "
                f"({state.cam_count} entries)")
        cam_index = free[0]
        self.pipeline.ledger.check_match_write(module_id, state.stage,
                                               cam_index)
        key = compiled_table.make_key(entry.match.key_values())
        vliw = compiled_table.actions[action.name].make_vliw(
            dict(action.params), loaded.register_bases)
        if is_ternary:
            entry_mask = (compiled_table.make_entry_mask(key_masks)
                          & compiled_table.key_mask)
            word = encode_tcam_entry(key & entry_mask, entry_mask,
                                     module_id)
            self.interface.add_ternary_entry(state.stage, cam_index, word,
                                             vliw.encode())
        else:
            cam_word = encode_cam_entry(key, module_id)
            self.interface.add_match_entry(state.stage, cam_index,
                                           cam_word, vliw.encode())
        handle = state.next_handle
        state.next_handle += 1
        state.entries[handle] = cam_index
        state.typed_entries[handle] = entry
        return handle

    def table_delete(self, module_id: int, table_name: str,
                     handle: int) -> TableEntry:
        """Delete one entry by handle; returns the entry it held."""
        loaded = self._loaded(module_id)
        state = loaded.table(table_name)
        if handle not in state.entries:
            raise RuntimeInterfaceError(
                f"table {table_name!r} has no entry handle {handle}")
        cam_index = state.entries.pop(handle)
        self.pipeline.ledger.check_match_write(module_id, state.stage,
                                               cam_index)
        self.interface.delete_match_entry(state.stage, cam_index)
        return state.typed_entries.pop(handle)

    # ------------------------------------------------------------------ registers

    def register_read(self, module_id: int, register: str,
                      addr: int = 0) -> int:
        """Read a module's register through its segment (statistics)."""
        loaded = self._loaded(module_id)
        spec = loaded.compiled.registers[register]
        local = loaded.register_bases[register] + addr
        stage = self.pipeline.stages[spec.stage]
        return stage.stateful_access.read(module_id, local)

    def register_write(self, module_id: int, register: str, addr: int,
                       value: int) -> None:
        loaded = self._loaded(module_id)
        spec = loaded.compiled.registers[register]
        local = loaded.register_bases[register] + addr
        stage = self.pipeline.stages[spec.stage]
        stage.stateful_access.write(module_id, local, value)

    # ------------------------------------------------------------------ misc

    def _loaded(self, module_id: int) -> LoadedModule:
        if module_id == SYSTEM_MODULE_ID and self.system_module is not None:
            return self.system_module
        if module_id not in self.modules:
            raise RuntimeInterfaceError(f"module {module_id} is not loaded")
        return self.modules[module_id]

    def loaded_ids(self) -> List[int]:
        return sorted(self.modules)
