"""Multi-module tenants (§3.4's compiler extension).

    "The Menshen compiler can be extended to support the same packet
    flowing through different P4 modules belonging to one tenant. The
    compiler can take multiple P4 modules as input, assign them the same
    module ID, and allocate them to non-overlapping pipeline stages."

:func:`compile_module_group` does exactly that: each member module is
compiled against a slice of the tenant's stage budget, PHV containers
are shared across members for fields at the same packet offset (it is
the same packet!) and otherwise kept disjoint, and the artifacts merge
into one :class:`~repro.compiler.backend.CompiledModule` the controller
can load under a single VID.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import AllocationError, CompilerError
from .allocator import allocate
from .backend import CompiledModule, emit
from .compile import CompilerOptions, analyse
from .resource_checker import check_against_hardware
from .target import TargetDescription


def compile_module_group(sources: List[Tuple[str, str]],
                         options: Optional[CompilerOptions] = None
                         ) -> CompiledModule:
    """Compile several P4 modules as one tenant.

    ``sources`` is a list of ``(name, p4_source)`` pairs in apply order:
    the packet flows through the first member's tables, then the
    second's, and so on. Returns a merged artifact; table and register
    names must be unique across members.
    """
    if options is None:
        options = CompilerOptions()
    if not sources:
        raise CompilerError("module group needs at least one module")
    base_target = options.resolved_target()

    # Frontend every member first so stage budgeting knows table counts.
    irs = []
    for name, source in sources:
        irs.append(analyse(source, name, options.run_static_checks))

    total_tables = sum(len(ir.tables) for ir in irs)
    if total_tables > len(base_target.stage_map):
        raise AllocationError(
            f"tenant group needs {total_tables} stages but the target "
            f"offers {len(base_target.stage_map)}")

    compiled: List[CompiledModule] = []
    shared_fields = dict(base_target.shared_fields)
    reserved = list(base_target.reserved_containers)
    stage_cursor = 0
    for ir in irs:
        n = len(ir.tables)
        member_target = TargetDescription(
            params=base_target.params,
            stage_map=base_target.stage_map[stage_cursor:stage_cursor + n],
            shared_fields=dict(shared_fields),
            reserved_containers=list(reserved),
            zero_container=base_target.zero_container,
            shared_parse_fields=list(base_target.shared_parse_fields),
            shared_deparse_fields=list(base_target.shared_deparse_fields),
        )
        stage_cursor += n
        alloc = allocate(ir, member_target)
        module = emit(ir, member_target, alloc)
        compiled.append(module)
        # Later members reuse containers for same-offset fields and must
        # avoid this member's other containers.
        for dotted, ref in module.field_alloc.items():
            info = ir.env.fields.get(dotted)
            if info is not None:
                shared_fields.setdefault(
                    (info.byte_offset, info.width_bits), ref)
            if ref not in reserved:
                reserved.append(ref)

    merged = _merge(compiled, base_target)
    check_against_hardware(merged, base_target.params)
    return merged


def _merge(members: List[CompiledModule],
           target: TargetDescription) -> CompiledModule:
    parse_set = {}
    deparse_set = {}
    tables = {}
    order: List[str] = []
    registers = {}
    field_alloc: Dict[str, object] = {}
    dependencies = {}

    for member in members:
        for action in member.parse_actions:
            parse_set[(action.bytes_from_head,
                       action.container.encode5())] = action
        for action in member.deparse_actions:
            deparse_set[(action.bytes_from_head,
                         action.container.encode5())] = action
        for name, table in member.tables.items():
            if name in tables:
                raise CompilerError(
                    f"table name {name!r} appears in more than one group "
                    f"member; rename one of them")
            tables[name] = table
            order.append(name)
        for name, spec in member.registers.items():
            if name in registers:
                raise CompilerError(
                    f"register name {name!r} appears in more than one "
                    f"group member; rename one of them")
            registers[name] = spec
        field_alloc.update(member.field_alloc)
        dependencies.update(member.dependencies)

    parse_actions = [parse_set[k] for k in sorted(parse_set)]
    deparse_actions = [deparse_set[k] for k in sorted(deparse_set)]
    limit = target.params.parse_actions_per_entry
    if len(parse_actions) > limit:
        raise AllocationError(
            f"tenant group needs {len(parse_actions)} parse actions; the "
            f"parser supports {limit}")
    if len(deparse_actions) > limit:
        raise AllocationError(
            f"tenant group needs {len(deparse_actions)} deparse actions; "
            f"the deparser supports {limit}")

    return CompiledModule(
        name="+".join(m.name for m in members),
        target=target,
        parse_actions=parse_actions,
        deparse_actions=deparse_actions,
        field_alloc=field_alloc,
        tables=tables,
        table_order=order,
        registers=registers,
        dependencies=dependencies,
    )
