"""The verifier passes: machine-checked isolation proofs (§3.4 scaled up).

Each pass is a small object with a stable ``name`` and a ``run``
method yielding :class:`~repro.analysis.findings.Finding`s. Two
families exist, mirroring what the paper checks at compile time versus
what the controller must re-prove at admission time:

* **Module passes** run over one compiled program (the lowered
  :class:`~repro.compiler.ir.ModuleIR` and/or the emitted
  :class:`~repro.compiler.backend.CompiledModule`):
  :class:`ResourceQuotaPass` (the paper's resource checker, as data)
  and :class:`DeadCodePass` (dead tables / unreachable actions /
  unused registers — legal programs that waste allocation).
* **Config passes** run over an allocated switch configuration — every
  loaded VID with its partitions and installed rows:
  :class:`WriteSetDisjointnessPass` (CAM rows, stateful words, and
  installed entries of distinct VIDs provably non-overlapping) and
  :class:`IdentityWritePass` (no tenant's wire writes can reassign the
  VID that names it, and no tenant claims a PHV container reserved for
  the system module).

Loop freedom is a function (:func:`find_loop`) rather than a pass
class because it runs over whatever next-hop relation the caller has —
a module's route entries or a fabric tenant's inter-switch steering;
:func:`loop_findings` wraps it in the findings vocabulary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from ..compiler.backend import CompiledModule
from ..compiler.ir import ModuleIR
from ..compiler.static_checker import VID_BYTE_RANGE
from ..compiler.target import TargetDescription
from ..core.resources import ModuleAllocation
from ..rmt.params import DEFAULT_PARAMS, HardwareParams
from .findings import Finding, Severity

#: Share of a hardware limit above which a demand that still fits is
#: reported as a ``capacity`` warning.
CAPACITY_WARNING_THRESHOLD = 0.75


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------

@dataclass
class ModuleContext:
    """One program under analysis (IR and/or compiled artifact)."""

    name: str
    params: HardwareParams = DEFAULT_PARAMS
    ir: Optional[ModuleIR] = None
    module: Optional[CompiledModule] = None
    #: Operator-granted allowances (None = raw hardware limit applies).
    granted_match_entries: Optional[int] = None
    granted_stateful_words: Optional[int] = None


@dataclass
class TenantConfig:
    """One loaded VID's allocated slice of the switch."""

    vid: int
    name: str
    module: CompiledModule
    allocation: ModuleAllocation
    #: stage -> CAM rows with installed entries (live rows only).
    entry_rows: Dict[int, List[int]] = field(default_factory=dict)


@dataclass
class ConfigContext:
    """The whole allocated switch config the config passes prove over."""

    params: HardwareParams
    tenants: List[TenantConfig]
    #: The user compile target (reserved/shared containers), when known.
    target: Optional[TargetDescription] = None


class AnalysisPass:
    """Base: a named pass producing findings. Subclasses set ``name``."""

    name = "abstract"

    def finding(self, code: str, severity: Severity, message: str,
                subject: str = "", stage: Optional[int] = None,
                line: int = 0) -> Finding:
        return Finding(code=code, severity=severity, message=message,
                       pass_name=self.name, subject=subject, stage=stage,
                       line=line)


# ---------------------------------------------------------------------------
# Module passes
# ---------------------------------------------------------------------------

class ModulePass(AnalysisPass):
    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


class ResourceQuotaPass(ModulePass):
    """Prove the module's demand fits the hardware and its grant.

    Subsumes :mod:`repro.compiler.resource_checker`: the same checks
    (parse actions, PHV containers, per-stage CAM depth and stateful
    words, stage existence) reported as findings instead of a single
    exception, plus key-width validation and operator-grant quotas.
    A demand that fits but passes :data:`CAPACITY_WARNING_THRESHOLD` of
    a limit is a ``capacity`` WARNING: legal today, and a co-resident
    module may not fit next to it.
    """

    name = "resource-quota"

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        module = ctx.module
        if module is None:
            return
        params = ctx.params
        usage = module.resource_usage()

        parse_actions = cast(int, usage["parse_actions"])
        limit = params.parse_actions_per_entry
        if parse_actions > limit:
            yield self.finding(
                "quota-parse-actions", Severity.ERROR,
                f"{parse_actions} parse actions exceed the parser's "
                f"{limit}", subject=ctx.name)
        elif parse_actions > CAPACITY_WARNING_THRESHOLD * limit:
            yield self.finding(
                "capacity", Severity.WARNING,
                f"parse program uses {parse_actions} of {limit} parser "
                f"actions", subject=ctx.name)

        containers = cast(Dict[str, int], usage["containers"])
        for cls_name, count in containers.items():
            if count > params.containers_per_type:
                yield self.finding(
                    "quota-containers", Severity.ERROR,
                    f"{count} {cls_name} containers exceed the PHV's "
                    f"{params.containers_per_type}", subject=ctx.name)

        match_by_stage = module.match_entries_by_stage()
        depth = params.match_entries_per_stage
        for stage in sorted(match_by_stage):
            entries = match_by_stage[stage]
            if entries > depth:
                yield self.finding(
                    "quota-match-entries", Severity.ERROR,
                    f"{entries} match entries exceed the CAM depth "
                    f"{depth}", subject=ctx.name, stage=stage)
            elif entries > CAPACITY_WARNING_THRESHOLD * depth:
                yield self.finding(
                    "capacity", Severity.WARNING,
                    f"tables claim {entries} of {depth} CAM rows; "
                    f"co-resident modules may not fit",
                    subject=ctx.name, stage=stage)

        words_by_stage = module.stateful_words_by_stage()
        memory = params.stateful_words_per_stage
        for stage in sorted(words_by_stage):
            words = words_by_stage[stage]
            if words > memory:
                yield self.finding(
                    "quota-stateful-words", Severity.ERROR,
                    f"{words} stateful words exceed the memory's "
                    f"{memory}", subject=ctx.name, stage=stage)
            elif words > CAPACITY_WARNING_THRESHOLD * memory:
                yield self.finding(
                    "capacity", Severity.WARNING,
                    f"registers claim {words} of {memory} stateful "
                    f"words", subject=ctx.name, stage=stage)

        for stage in module.stages_used():
            if not 0 <= stage < params.num_stages:
                yield self.finding(
                    "quota-stage", Severity.ERROR,
                    f"stage {stage} does not exist (pipeline has "
                    f"{params.num_stages})", subject=ctx.name, stage=stage)

        for table in module.tables.values():
            key_bits = sum(ref.size_bytes * 8
                           for _slot, _dotted, ref in table.key_layout)
            if key_bits > params.key_bits:
                yield self.finding(
                    "quota-key-width", Severity.ERROR,
                    f"table {table.name!r} key is {key_bits} bits; the "
                    f"extracted key is {params.key_bits} bits",
                    subject=ctx.name, stage=table.stage)

        total_match = sum(match_by_stage.values())
        if (ctx.granted_match_entries is not None
                and total_match > ctx.granted_match_entries):
            yield self.finding(
                "quota-grant-match", Severity.ERROR,
                f"module needs {total_match} match entries but was "
                f"granted {ctx.granted_match_entries}", subject=ctx.name)
        total_words = sum(words_by_stage.values())
        if (ctx.granted_stateful_words is not None
                and total_words > ctx.granted_stateful_words):
            yield self.finding(
                "quota-grant-stateful", Severity.ERROR,
                f"module needs {total_words} stateful words but was "
                f"granted {ctx.granted_stateful_words}", subject=ctx.name)


def _const_condition(op: str, left: int, right: int) -> bool:
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == ">":
        return left > right
    if op == "<":
        return left < right
    if op == ">=":
        return left >= right
    return left <= right


class DeadCodePass(ModulePass):
    """Warn about program parts that can never execute or never matter.

    A dead table still claims CAM rows, an unreachable action still
    claims a VLIW template, and an unused register burns the tenant's
    quota silently — legal programs, wasteful allocations.
    """

    name = "dead-code"

    def run(self, ctx: ModuleContext) -> Iterator[Finding]:
        ir = ctx.ir
        if ir is None:
            return
        applied = {t.name for t in ir.tables}
        for name in ir.env.tables:
            if name not in applied:
                decl = ir.env.tables[name]
                yield self.finding(
                    "dead-table", Severity.WARNING,
                    f"table {name!r} is declared but never applied",
                    subject=ctx.name, line=decl.line)

        referenced = {a for t in ir.tables for a in t.action_names}
        for name, action in ir.actions.items():
            if name not in referenced:
                yield self.finding(
                    "dead-action", Severity.WARNING,
                    f"action {name!r} is not reachable from any applied "
                    f"table", subject=ctx.name, line=action.line)

        used_registers = {op.register
                          for action in ir.actions.values()
                          for op in action.ops if op.register is not None}
        for name, decl in ir.registers.items():
            if name not in used_registers:
                yield self.finding(
                    "dead-register", Severity.WARNING,
                    f"register {name!r} ({decl.size} words) is declared "
                    f"but never read or written", subject=ctx.name,
                    line=decl.line)

        for table in ir.tables:
            pred = table.predicate
            if pred is None:
                continue
            if isinstance(pred.left, int) and isinstance(pred.right, int):
                value = _const_condition(pred.op, pred.left, pred.right)
                if value != table.predicate_value:
                    yield self.finding(
                        "dead-branch", Severity.WARNING,
                        f"table {table.name!r} is guarded by the "
                        f"constant-{str(value).lower()} condition "
                        f"{pred.left} {pred.op} {pred.right} on its "
                        f"{'then' if table.predicate_value else 'else'} "
                        f"branch and can never match",
                        subject=ctx.name, line=table.line)


# ---------------------------------------------------------------------------
# Config passes
# ---------------------------------------------------------------------------

class ConfigPass(AnalysisPass):
    def run(self, ctx: ConfigContext) -> Iterator[Finding]:
        raise NotImplementedError


class WriteSetDisjointnessPass(ConfigPass):
    """Prove distinct VIDs' writable state is pairwise disjoint.

    Re-derives, from the allocated configuration alone, what the
    partition ledger promised incrementally: per stage, no two VIDs'
    CAM row ranges or stateful word ranges intersect, every partition
    lies inside the hardware dimensions, and every *installed* entry
    row lies inside its owner's partition. A controller bug, a corrupted
    ledger, or a hand-built allocation all surface here as typed
    findings instead of silent cross-tenant writes.
    """

    name = "write-set-disjointness"

    def run(self, ctx: ConfigContext) -> Iterator[Finding]:
        params = ctx.params
        for tenant in ctx.tenants:
            for stage in sorted(tenant.allocation.stages):
                alloc = tenant.allocation.stages[stage]
                if not 0 <= stage < params.num_stages:
                    yield self.finding(
                        "partition-bounds", Severity.ERROR,
                        f"VID {tenant.vid} holds a partition in stage "
                        f"{stage}, which does not exist",
                        subject=f"vid {tenant.vid}", stage=stage)
                    continue
                if alloc.match_end > params.match_entries_per_stage:
                    yield self.finding(
                        "partition-bounds", Severity.ERROR,
                        f"VID {tenant.vid} CAM rows [{alloc.match_start}, "
                        f"{alloc.match_end}) exceed the stage depth "
                        f"{params.match_entries_per_stage}",
                        subject=f"vid {tenant.vid}", stage=stage)
                if alloc.stateful_end > params.stateful_words_per_stage:
                    yield self.finding(
                        "partition-bounds", Severity.ERROR,
                        f"VID {tenant.vid} stateful words "
                        f"[{alloc.stateful_base}, {alloc.stateful_end}) "
                        f"exceed the stage memory "
                        f"{params.stateful_words_per_stage}",
                        subject=f"vid {tenant.vid}", stage=stage)

            for stage in sorted(tenant.entry_rows):
                alloc = tenant.allocation.stage(stage)
                for row in tenant.entry_rows[stage]:
                    if not alloc.match_start <= row < alloc.match_end:
                        yield self.finding(
                            "entry-escape", Severity.ERROR,
                            f"VID {tenant.vid} has an installed entry in "
                            f"CAM row {row}, outside its partition "
                            f"[{alloc.match_start}, {alloc.match_end})",
                            subject=f"vid {tenant.vid}", stage=stage)

        tenants = ctx.tenants
        overlaps: List[Tuple[int, int, int, int]] = []
        for (stage, kind), ranges in _partition_ranges(tenants).items():
            overlaps += [(i, j, stage, kind)
                         for i, j in _overlapping_pairs(ranges)
                         if tenants[i].vid != tenants[j].vid]
        # The order of a walk over every pair of tenants, each pair's
        # shared stages ascending, CAM rows before stateful words.
        overlaps.sort()
        for i, j, stage, kind in overlaps:
            a, b = tenants[i], tenants[j]
            sa, sb = a.allocation.stages[stage], b.allocation.stages[stage]
            if kind == _MATCH:
                yield self.finding(
                    "overlap-match", Severity.ERROR,
                    f"CAM rows of VID {a.vid} [{sa.match_start}, "
                    f"{sa.match_end}) overlap VID {b.vid} "
                    f"[{sb.match_start}, {sb.match_end})",
                    subject=f"vid {a.vid}/vid {b.vid}", stage=stage)
            else:
                yield self.finding(
                    "overlap-stateful", Severity.ERROR,
                    f"stateful words of VID {a.vid} [{sa.stateful_base}, "
                    f"{sa.stateful_end}) overlap VID {b.vid} "
                    f"[{sb.stateful_base}, {sb.stateful_end})",
                    subject=f"vid {a.vid}/vid {b.vid}", stage=stage)


#: The two partitioned spaces of a stage, in report order.
_MATCH, _STATEFUL = 0, 1


def overlap(a_lo: int, a_hi: int, b_lo: int, b_hi: int) -> bool:
    """True when half-open ``[a_lo, a_hi)`` and ``[b_lo, b_hi)`` intersect."""
    return a_lo < b_hi and b_lo < a_hi


def _partition_ranges(tenants: Sequence[TenantConfig]
                      ) -> Dict[Tuple[int, int], List[Tuple[int, int, int]]]:
    """``(stage, space) -> [(start, end, tenant index)]`` for every
    non-empty CAM-row or stateful-word partition, wherever it lies."""
    ranges: Dict[Tuple[int, int], List[Tuple[int, int, int]]] = {}
    for index, tenant in enumerate(tenants):
        for stage, alloc in tenant.allocation.stages.items():
            if alloc.match_count:
                ranges.setdefault((stage, _MATCH), []).append(
                    (alloc.match_start, alloc.match_end, index))
            if alloc.stateful_words:
                ranges.setdefault((stage, _STATEFUL), []).append(
                    (alloc.stateful_base, alloc.stateful_end, index))
    return ranges


def _overlapping_pairs(ranges: List[Tuple[int, int, int]]
                       ) -> Iterator[Tuple[int, int]]:
    """Index pairs ``(i, j)``, ``i < j``, of the intersecting half-open
    ranges: a sweep in start order that compares each range only with
    the earlier ones still open at its start — O(n log n + overlaps)
    instead of every pair."""
    open_ranges: List[Tuple[int, int, int]] = []
    for start, end, index in sorted(ranges):
        # A range that ends by this start cannot meet it or any later one.
        open_ranges = [r for r in open_ranges if r[1] > start]
        for o_start, o_end, o_index in open_ranges:
            if overlap(o_start, o_end, start, end):
                yield min(o_index, index), max(o_index, index)
        open_ranges.append((start, end, index))


class IdentityWritePass(ConfigPass):
    """Prove no tenant's configuration can rewrite tenant identity.

    Two vectors are checked over the emitted artifacts (not the source,
    which the §3.4 source checks already reject): the deparse program
    must not write the VLAN TCI bytes that *name* the tenant on the
    wire and inside every downstream pipeline, and the PHV allocation
    must not claim containers reserved for the system module (whose
    values every packet shares). The system module itself (VID 0) is
    exempt — it owns those bytes.
    """

    name = "identity-write"

    def run(self, ctx: ConfigContext) -> Iterator[Finding]:
        shared_offsets = set()
        reserved = set()
        shared_refs = set()
        if ctx.target is not None:
            shared_offsets = {off for off, _ref
                              in ctx.target.shared_deparse_fields}
            reserved = {(int(r.ctype), r.index)
                        for r in ctx.target.reserved_containers}
            zc = ctx.target.zero_container
            reserved.add((int(zc.ctype), zc.index))
            shared_refs = {(int(r.ctype), r.index)
                           for r in ctx.target.shared_fields.values()}
        lo, hi = VID_BYTE_RANGE
        for tenant in ctx.tenants:
            if tenant.vid == 0:
                continue
            for action in tenant.module.deparse_actions:
                start = action.bytes_from_head
                end = start + action.container.size_bytes
                if start in shared_offsets:
                    continue   # a system-owned write-back, not the tenant's
                if overlap(start, end, lo, hi):
                    yield self.finding(
                        "identity-write", Severity.ERROR,
                        f"VID {tenant.vid} deparses bytes [{start}, {end}), "
                        f"overlapping the VLAN TCI bytes [{lo}, {hi}) that "
                        f"name the tenant", subject=f"vid {tenant.vid}")
            for dotted in sorted(tenant.module.field_alloc):
                ref = tenant.module.field_alloc[dotted]
                key = (int(ref.ctype), ref.index)
                if key in reserved and key not in shared_refs:
                    yield self.finding(
                        "reserved-container", Severity.ERROR,
                        f"VID {tenant.vid} field {dotted!r} claims "
                        f"container {ref!r}, reserved for the system "
                        f"module", subject=f"vid {tenant.vid}")


# ---------------------------------------------------------------------------
# Loop freedom
# ---------------------------------------------------------------------------

def find_loop(next_hop: Mapping[Hashable, Hashable]
              ) -> Optional[List[Hashable]]:
    """The first forwarding loop in a node -> node relation, or None.

    Returns the walk (in traversal order, ending at the revisited node)
    so callers can render a deterministic path. Terminal nodes simply
    do not appear as keys.
    """
    for start in next_hop:
        walk: List[Hashable] = [start]
        seen = {start}
        node = next_hop[start]
        while node in next_hop:
            if node in seen:
                walk.append(node)
                return walk
            walk.append(node)
            seen.add(node)
            node = next_hop[node]
    return None


def loop_findings(next_hop: Mapping[Hashable, Hashable],
                  subject: str = "") -> Iterator[Finding]:
    """Loop freedom as findings (the daisy-chain/next-hop proof)."""
    walk = find_loop(next_hop)
    if walk is not None:
        path = " -> ".join(str(node) for node in walk)
        yield Finding(
            code="forwarding-loop", severity=Severity.ERROR,
            message=f"routing loop detected: {path}",
            pass_name="loop-freedom", subject=subject)


# ---------------------------------------------------------------------------
# Stock pass sets
# ---------------------------------------------------------------------------

MODULE_PASSES: Tuple[ModulePass, ...] = (
    ResourceQuotaPass(),
    DeadCodePass(),
)

CONFIG_PASSES: Tuple[ConfigPass, ...] = (
    WriteSetDisjointnessPass(),
    IdentityWritePass(),
)


def run_module_passes(ctx: ModuleContext,
                      passes: Sequence[ModulePass] = MODULE_PASSES
                      ) -> Iterable[Finding]:
    for p in passes:
        yield from p.run(ctx)


def run_config_passes(ctx: ConfigContext,
                      passes: Sequence[ConfigPass] = CONFIG_PASSES
                      ) -> Iterable[Finding]:
    for p in passes:
        yield from p.run(ctx)
