"""PHV container allocation and table-to-stage placement.

**Containers.** Each used field gets one PHV container of the matching
size class (16 b -> 2 B, 32 b -> 4 B, 48 b -> 6 B). Fields shared with the
system module (same absolute byte offset and width) reuse the system's
container, so the sandwich of Fig. 6 works without copies. Distinct user
modules may receive the *same* containers — a PHV belongs to exactly one
packet of one module, so this is free (and is why overlays beat
space-partitioning PHVs, §3).

**Stages.** Tables take stages from the target's ``stage_map`` in apply
order: one table per module per stage, because a stage holds exactly one
key-extractor configuration per module. The pass also derives the
match-after-write dependency graph (Jose et al.-style) and verifies the
apply order respects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import AllocationError
from ..rmt.phv import ContainerRef, ContainerType
from .ir import METADATA_OPS, ModuleIR
from .target import TargetDescription
from .typecheck import FieldInfo

_WIDTH_TO_CLASS = {16: ContainerType.B2, 32: ContainerType.B4,
                   48: ContainerType.B6}


@dataclass
class Allocation:
    """Result of the allocation pass."""

    field_to_container: Dict[str, ContainerRef] = field(default_factory=dict)
    table_to_stage: Dict[str, int] = field(default_factory=dict)
    #: match-after-write dependencies: table -> tables it must follow
    dependencies: Dict[str, Set[str]] = field(default_factory=dict)

    def container_of(self, dotted: str) -> ContainerRef:
        try:
            return self.field_to_container[dotted]
        except KeyError as exc:
            raise AllocationError(f"field {dotted!r} has no container") from exc


def _class_of(info: FieldInfo) -> ContainerType:
    if not info.container_mappable:
        raise AllocationError(
            f"field {info.dotted!r} ({info.width_bits} bits at bit offset "
            f"{info.bit_offset}) cannot map to a container: fields used in "
            f"keys or actions must be byte-aligned and 16/32/48 bits wide")
    return _WIDTH_TO_CLASS[info.width_bits]


def allocate_containers(ir: ModuleIR,
                        target: TargetDescription) -> Allocation:
    """Assign every used field a container; honor shared-field bindings."""
    alloc = Allocation()
    taken: Set[Tuple[int, int]] = set()
    for ref in target.unavailable_containers():
        taken.add((int(ref.ctype), ref.index))

    free: Dict[ContainerType, List[int]] = {}
    for ctype in (ContainerType.B2, ContainerType.B4, ContainerType.B6):
        free[ctype] = [i for i in range(target.params.containers_per_type)
                       if (int(ctype), i) not in taken]

    for dotted in sorted(ir.fields_used):
        info = ir.field_info(dotted)
        shared_key = (info.byte_offset, info.width_bits)
        if shared_key in target.shared_fields:
            alloc.field_to_container[dotted] = target.shared_fields[shared_key]
            continue
        ctype = _class_of(info)
        if not free[ctype]:
            raise AllocationError(
                f"out of {ctype.name} containers while allocating "
                f"{dotted!r}: the module uses too many "
                f"{ctype.size_bytes}-byte fields")
        index = free[ctype].pop(0)
        alloc.field_to_container[dotted] = ContainerRef(ctype, index)
    return alloc


def _written_by(ir: ModuleIR, table_name: str) -> Set[str]:
    """Fields written by any action of the given table."""
    written: Set[str] = set()
    for table in ir.tables:
        if table.name != table_name:
            continue
        for action_name in table.action_names:
            for op in ir.actions[action_name].ops:
                if op.dest and op.kind not in METADATA_OPS \
                        and op.kind != "store":
                    written.add(op.dest)
    return written


def _read_by(table) -> Set[str]:
    """Fields a table's match depends on (key + predicate operands)."""
    fields = {info.dotted for info in table.key_fields}
    if table.predicate is not None:
        for side in (table.predicate.left, table.predicate.right):
            if isinstance(side, FieldInfo):
                fields.add(side.dotted)
    return fields


def place_stages(ir: ModuleIR, target: TargetDescription,
                 alloc: Allocation) -> None:
    """Assign tables to stages in apply order and verify dependencies."""
    if len(ir.tables) > len(target.stage_map):
        raise AllocationError(
            f"module has {len(ir.tables)} tables but the target offers "
            f"only {len(target.stage_map)} stages "
            f"({target.stage_map})")
    names = [t.name for t in ir.tables]
    if len(set(names)) != len(names):
        raise AllocationError(
            "a table may be applied only once (one key-extractor "
            "configuration per module per stage)")

    for position, table in enumerate(ir.tables):
        alloc.table_to_stage[table.name] = target.stage_map[position]

    # Match-after-write dependency graph + verification. With one table
    # per stage in apply order the placement is correct by construction;
    # the graph is still derived so callers can inspect and report it
    # (and so a future multi-table-per-stage placer can reuse it).
    for i, later in enumerate(ir.tables):
        deps: Set[str] = set()
        reads = _read_by(later)
        for earlier in ir.tables[:i]:
            if reads & _written_by(ir, earlier.name):
                deps.add(earlier.name)
        alloc.dependencies[later.name] = deps
        for dep in sorted(deps):
            if alloc.table_to_stage[dep] >= alloc.table_to_stage[later.name]:
                raise AllocationError(
                    f"table {later.name!r} matches fields written by "
                    f"{dep!r} but is not placed in a later stage")


def allocate(ir: ModuleIR, target: TargetDescription) -> Allocation:
    """Run both allocation passes."""
    alloc = allocate_containers(ir, target)
    place_stages(ir, target, alloc)
    return alloc
