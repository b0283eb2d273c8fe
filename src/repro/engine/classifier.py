"""Compiled per-tenant flow classification — the flow cache v2.

The exact-match :class:`~repro.engine.flow_cache.FlowCache` (PR 2) only
helps traffic that *repeats* flows: uniform or adversarial flow churn
degrades every packet to the scalar stage-by-stage RMT walk. This module
follows the NuevoMatchUp direction ("Scaling Open vSwitch with a
Computational Cache", NSDI '22): compile each tenant's *installed
configuration* at one tenant epoch into a flat decision structure,
so cache **misses** — and ternary matches — also skip the interpreted
pipeline walk.

A :class:`CompiledClassifier` is the whole data path of one module,
flattened over the parsed key-byte regions:

* a **parse plan** — ``(offset, size) -> flat container`` copies decoded
  once from the module's parser-table entry, instead of once per packet;
* one **stage plan** per pipeline stage the module actually uses, each a
  pre-masked key recipe (only the key slots the module's 193-bit key
  mask enables are read) plus a flattened match structure:

  - exact-match stages compile to a hash over stored CAM keys;
  - ternary stages compile to a **first-match list** of live
    ``(mask, pattern, leaf)`` entries in CAM address order — the
    ternary CAM's own semantics (Appendix B): the first entry whose
    masked key equals its pattern wins;

* a **resolved action per leaf** — the matched entry's VLIW instruction
  pre-decoded into flat ALU op tuples executed with read-before-write
  (true VLIW) semantics over plain container ints;
* a **deparse plan** — the resolved write-back effect applied to a copy
  of the input packet, plus the final metadata (egress port, multicast
  group, discard).

The scalar pipeline stays the **differential oracle**: anything the
compiler cannot prove pure and decodable — stateful leaves
(``LOAD``/``STORE``/``LOADD``), actions the scalar path would fault on,
undecodable configuration words — yields a typed fallback and the
packet takes the interpreted walk, exactly as before. Compilation never
widens behavior; ``tests/test_engine_differential.py`` pins the
compiled path packet-for-packet against the oracle.

A classifier is the one artifact the engine derives from a tenant's
configuration: it is compiled when the engine binds the tenant at a new
``pipeline.epoch_of(vid)`` — a neighbour's reconfiguration does not
move it — and the engine's flow-cache key, deparse write-back spans and
window bound are read off its parse and deparse plans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..core.pipeline import SYSTEM_MODULE_ID, MenshenPipeline
from ..net.packet import Packet
from ..rmt.action import AluOp, VliwInstruction
from ..rmt.key_extractor import CmpOp
from ..rmt.match_table import ExactMatchTable
from ..rmt.phv import PHV, ContainerRef, ContainerType


class Fallback:
    """A typed bail-out to the scalar oracle (also used per leaf)."""

    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self) -> str:
        return f"Fallback({self.reason!r})"


#: The packet would touch stateful memory — never compiled (replaying a
#: memoized/compiled result would skip side effects and read stale state).
FALLBACK_STATEFUL = Fallback("stateful")
#: The matched action is one the scalar path faults on (e.g. a
#: container-writing op on the metadata ALU slot); the oracle must raise.
FALLBACK_UNSUPPORTED = Fallback("unsupported-action")

#: Compiled ALU op codes (first element of each op tuple).
_ADD, _SUB, _ADDI, _SUBI, _SET, _PORT, _MCAST, _DISCARD = range(8)

#: MSB-first key layout (Fig. 4): 6B1|6B2|4B1|4B2|2B1|2B2|flag.
#: ``(shift, width)`` of each slot inside the 193-bit key.
_KEY_SLOTS = ((145, 48), (97, 48), (65, 32), (33, 32), (17, 16), (1, 16))

#: Wrap mask per flat container index (B2: 0-7, B4: 8-15, B6: 16-23).
_WRAP = tuple((1 << (8 * size)) - 1
              for size in (2,) * 8 + (4,) * 8 + (6,) * 8)

#: Op tuple: (code, slot, a, b, wrap) — operand meaning depends on code.
_Op = Tuple[int, int, int, int, int]
_Leaf = Union[Tuple[_Op, ...], Fallback]


class _Uncompilable(Exception):
    """Raised during compilation when the module's configuration cannot
    be compiled faithfully; the classifier then defers every packet to
    the scalar oracle (which reproduces the original behavior, faults
    included)."""


@dataclass(frozen=True)
class ClassifierStats:
    """Shape summary of one tenant's compiled classifier."""

    vid: int
    epoch: int
    ok: bool
    reason: str           #: empty when ``ok``; why compilation bailed otherwise
    stages: int           #: stage plans kept (stages with entries/defaults)
    exact_keys: int       #: hash-compiled exact-match entries
    residual_entries: int #: first-match value/mask entries (ternary stages)
    stateful_leaves: int  #: leaves that bail to the oracle


class _StagePlan:
    """One stage's compiled key recipe + flattened match structure."""

    __slots__ = ("kind", "key_slots", "flag_const", "pred", "exact",
                 "residual", "miss_ops")

    # kind: 0 = exact hash, 1 = first-match list (ternary)
    def __init__(self) -> None:
        self.kind = 0
        self.key_slots: Tuple[Tuple[int, int, int], ...] = ()
        self.flag_const = 0
        self.pred: Optional[Tuple[int, Optional[int], int,
                                  Optional[int], int]] = None
        self.exact: Dict[int, _Leaf] = {}
        self.residual: Tuple[Tuple[int, int, _Leaf], ...] = ()
        self.miss_ops: Optional[_Leaf] = None


def _flat(ref: Optional[ContainerRef]) -> int:
    """Flat index of a data-container operand; bail if the scalar path
    would fault reading it (metadata is not ALU/key addressable)."""
    if ref is None:
        return 0
    if ref.ctype == ContainerType.META:
        raise _Uncompilable("metadata operand")
    return ref.flat_index


def _compile_ops(instruction: VliwInstruction) -> _Leaf:
    """Flatten one VLIW instruction into op tuples, or a Fallback."""
    ops: List[_Op] = []
    for slot, action in instruction.non_nop():
        op = action.opcode
        if op.is_stateful:
            return FALLBACK_STATEFUL
        if op.writes_container and slot == 24:
            return FALLBACK_UNSUPPORTED  # scalar raises ConfigError
        try:
            a = _flat(action.c1)
            b = _flat(action.c2)
        except _Uncompilable:
            return FALLBACK_UNSUPPORTED  # scalar raises reading metadata
        imm = action.immediate
        if op == AluOp.ADD:
            ops.append((_ADD, slot, a, b, _WRAP[slot]))
        elif op == AluOp.SUB:
            ops.append((_SUB, slot, a, b, _WRAP[slot]))
        elif op == AluOp.ADDI:
            ops.append((_ADDI, slot, a, imm, _WRAP[slot]))
        elif op == AluOp.SUBI:
            ops.append((_SUBI, slot, a, imm, _WRAP[slot]))
        elif op == AluOp.SET:
            ops.append((_SET, slot, 0, imm, _WRAP[slot]))
        elif op == AluOp.PORT:
            ops.append((_PORT, 0, a, imm, 0))
        elif op == AluOp.MCAST:
            ops.append((_MCAST, 0, a, imm, 0))
        elif op == AluOp.DISCARD:
            ops.append((_DISCARD, 0, 0, 0, 0))
        else:  # pragma: no cover — non-NOP opcodes are exhausted above
            return FALLBACK_UNSUPPORTED
    return tuple(ops)


class CompiledClassifier:
    """One tenant's data path, compiled at one ``pipeline.epoch_of(vid)``.

    Build via :func:`compile_classifier`. ``ok`` is ``False`` when the
    installed configuration could not be compiled faithfully — the
    caller must then route every packet to the scalar oracle, which
    reproduces the original behavior (including its faults) exactly.
    """

    __slots__ = ("vid", "epoch", "ok", "reason", "max_end", "_parse",
                 "_deparse", "_stages")

    def __init__(self, vid: int, epoch: int, ok: bool, reason: str = ""):
        self.vid = vid
        self.epoch = epoch
        self.ok = ok
        self.reason = reason
        self.max_end = 0
        self._parse: Tuple[Tuple[int, int, int], ...] = ()
        self._deparse: Tuple[Tuple[int, int, int, int], ...] = ()
        self._stages: Tuple[_StagePlan, ...] = ()

    # -- introspection -----------------------------------------------------------

    def stats(self) -> ClassifierStats:
        exact_keys = sum(len(sp.exact) for sp in self._stages)
        residual = sum(len(sp.residual) for sp in self._stages)
        stateful = 0
        for sp in self._stages:
            leaves: List[_Leaf] = list(sp.exact.values())
            leaves += [leaf for _m, _p, leaf in sp.residual]
            if sp.miss_ops is not None:
                leaves.append(sp.miss_ops)
            stateful += sum(1 for leaf in leaves
                            if leaf is FALLBACK_STATEFUL)
        return ClassifierStats(vid=self.vid, epoch=self.epoch, ok=self.ok,
                               reason=self.reason, stages=len(self._stages),
                               exact_keys=exact_keys,
                               residual_entries=residual,
                               stateful_leaves=stateful)

    # -- the compiled hot path ---------------------------------------------------

    def classify(self, packet: Packet,
                 buffer_slot: int) -> Union[Tuple[Optional[Packet], PHV],
                                            Fallback]:
        """Run one admitted packet through the compiled data path.

        Returns ``(merged, phv)`` exactly as ``pipeline.execute`` would,
        or a :class:`Fallback` when the matched leaf must take the
        scalar oracle. An ingress port the 16-bit ``src_port`` field
        cannot hold raises the parser's own
        :class:`~repro.errors.FieldRangeError`. The caller guarantees
        the parse/deparse window fits (same precondition as the
        exact-match cache probe).
        """
        buf = packet.buf
        vals = [0] * 24
        for off, end, flat in self._parse:
            vals[flat] = int.from_bytes(buf[off:end], "big")
        dst_port = 0
        mcast = 0
        discard = False

        for sp in self._stages:
            key = sp.flag_const
            pred = sp.pred
            if pred is not None:
                op, a_flat, a_imm, b_flat, b_imm = pred
                a = vals[a_flat] if a_flat is not None else a_imm
                b = vals[b_flat] if b_flat is not None else b_imm
                if op == 1:
                    hit = a == b
                elif op == 2:
                    hit = a != b
                elif op == 3:
                    hit = a > b
                elif op == 4:
                    hit = a < b
                elif op == 5:
                    hit = a >= b
                else:
                    hit = a <= b
                if hit:
                    key |= 1
            for shift, slot_mask, flat in sp.key_slots:
                key |= (vals[flat] & slot_mask) << shift

            if sp.kind == 0:
                leaf = sp.exact.get(key)
            else:
                leaf = None
                for mask, pattern, candidate in sp.residual:
                    if key & mask == pattern:
                        leaf = candidate
                        break
            if leaf is None:
                leaf = sp.miss_ops
                if leaf is None:
                    continue
            if type(leaf) is Fallback:
                return leaf

            # VLIW semantics: all operand reads observe the incoming
            # PHV, so container writes are buffered and applied after.
            pending = None
            for op_tuple in leaf:
                code = op_tuple[0]
                if code == _ADD:
                    value = (vals[op_tuple[2]] + vals[op_tuple[3]]) \
                        & op_tuple[4]
                elif code == _SUB:
                    value = (vals[op_tuple[2]] - vals[op_tuple[3]]) \
                        & op_tuple[4]
                elif code == _ADDI:
                    value = (vals[op_tuple[2]] + op_tuple[3]) & op_tuple[4]
                elif code == _SUBI:
                    value = (vals[op_tuple[2]] - op_tuple[3]) & op_tuple[4]
                elif code == _SET:
                    value = op_tuple[3] & op_tuple[4]
                elif code == _PORT:
                    dst_port = (vals[op_tuple[2]] + op_tuple[3]) & 0xFFFF
                    continue
                elif code == _MCAST:
                    mcast = (vals[op_tuple[2]] + op_tuple[3]) & 0xFFFF
                    continue
                else:  # _DISCARD
                    discard = True
                    continue
                if pending is None:
                    pending = [(op_tuple[1], value)]
                else:
                    pending.append((op_tuple[1], value))
            if pending is not None:
                for slot, value in pending:
                    vals[slot] = value

        phv = PHV.from_container_values(vals)
        meta = phv.metadata.buf
        if discard:
            meta[0] = 1  # FLAG_DISCARD
        meta[1] = 1 << buffer_slot
        meta[2] = dst_port >> 8
        meta[3] = dst_port & 0xFF
        src_port = packet.ingress_port
        if not 0 <= src_port <= 0xFFFF:
            phv.metadata.src_port = src_port  # the parser's own error
        meta[4] = src_port >> 8
        meta[5] = src_port & 0xFF
        pkt_len = len(buf)
        if pkt_len > 0xFFFF:
            pkt_len = 0xFFFF
        meta[6] = pkt_len >> 8
        meta[7] = pkt_len & 0xFF
        meta[8] = mcast >> 8
        meta[9] = mcast & 0xFF
        meta[18] = self.vid >> 8
        meta[19] = self.vid & 0xFF

        if discard:
            return None, phv
        merged = Packet(buf, packet.ingress_port,
                        packet.arrival_time)
        out = merged.buf
        for off, end, flat, size in self._deparse:
            out[off:end] = vals[flat].to_bytes(size, "big")
        return merged, phv


def compile_classifier(pipeline: MenshenPipeline,
                       vid: int) -> CompiledClassifier:
    """Compile ``vid``'s installed configuration, stamped with the
    tenant's current epoch (``pipeline.epoch_of(vid)``).

    The parse/deparse layout — both plans and the furthest byte either
    reaches — is read first, from the installed programs: a row that
    does not decode raises here, the error the scalar parser or deparser
    raises on every packet. Past the layout it never raises: a
    configuration that cannot be compiled faithfully (a plan targeting
    metadata, undecodable stage words, metadata-addressing operands —
    everything the scalar path would fault on per packet) yields
    ``ok=False`` with the layout still set, and the engine routes those
    packets to the scalar oracle, which reproduces the original
    behavior — faults included — exactly.
    """
    clf = CompiledClassifier(vid, pipeline.epoch_of(vid), ok=True)
    parse = pipeline.parser.read_program(vid)
    deparse = pipeline.deparser.read_program(vid)
    clf._parse = tuple(
        (a.bytes_from_head, a.bytes_from_head + a.container.size_bytes,
         a.container.flat_index) for a in parse)
    clf._deparse = tuple(
        (a.bytes_from_head, a.bytes_from_head + a.container.size_bytes,
         a.container.flat_index, a.container.size_bytes) for a in deparse)
    clf.max_end = max([plan[1] for plan in clf._parse + clf._deparse],
                      default=0)
    try:
        if any(a.container.ctype == ContainerType.META for a in parse):
            raise _Uncompilable("parse targets metadata")
        if any(a.container.ctype == ContainerType.META for a in deparse):
            raise _Uncompilable("deparse targets metadata")
        stages = []
        for index, stage in enumerate(pipeline.stages):
            module = (SYSTEM_MODULE_ID if index in pipeline.system_stages
                      else vid)
            plan = _compile_stage(stage, module)
            if plan is not None:
                stages.append(plan)
        clf._stages = tuple(stages)
    except _Uncompilable as exc:
        clf.ok, clf.reason = False, str(exc)
    except Exception as exc:  # decode faults the scalar path replays
        clf.ok, clf.reason = False, f"{type(exc).__name__}: {exc}"
    return clf


def _compile_stage(stage, module: int) -> Optional[_StagePlan]:
    """Compile one stage for ``module``; ``None`` when the stage is a
    guaranteed no-op for it (no entries, no default action)."""
    entry = stage.key_extractor.read_entry(module)
    mask = stage.key_mask_table.read(module)

    plan = _StagePlan()

    # Key recipe: only the byte slots the module's mask enables are read.
    flats = (16 + entry.idx_6b_1, 16 + entry.idx_6b_2,
             8 + entry.idx_4b_1, 8 + entry.idx_4b_2,
             entry.idx_2b_1, entry.idx_2b_2)
    key_slots = []
    for (shift, width), flat in zip(_KEY_SLOTS, flats):
        slot_mask = (mask >> shift) & ((1 << width) - 1)
        if slot_mask:
            key_slots.append((shift, slot_mask, flat))
    plan.key_slots = tuple(key_slots)

    # Predicate: the scalar extractor reads both operands on every
    # packet, so metadata operands fault there — refuse to compile.
    for operand in (entry.cmp_a, entry.cmp_b):
        if isinstance(operand, ContainerRef) and \
                operand.ctype == ContainerType.META:
            raise _Uncompilable("predicate reads metadata")
    flag_mask = mask & 1
    if flag_mask and entry.cmp_op == CmpOp.ALWAYS:
        plan.flag_const = 1
    elif flag_mask and entry.cmp_op != CmpOp.DISABLED:
        def operand(ref_or_imm) -> Tuple[Optional[int], int]:
            if isinstance(ref_or_imm, ContainerRef):
                return ref_or_imm.flat_index, 0
            return None, ref_or_imm
        a_flat, a_imm = operand(entry.cmp_a)
        b_flat, b_imm = operand(entry.cmp_b)
        plan.pred = (int(entry.cmp_op), a_flat, a_imm, b_flat, b_imm)

    # Default action (P4 default_action extension): runs on every miss.
    default = stage.default_action(module)
    if default is not None:
        plan.miss_ops = _compile_ops(default)

    table = stage.match_table
    addresses = table.entries_of(module)
    if not addresses and plan.miss_ops is None:
        return None  # provably a no-op stage for this module

    leaves = {addr: _compile_ops(stage.vliw_table.read_decoded(addr))
              for addr in addresses}

    if isinstance(table, ExactMatchTable):
        plan.kind = 0
        for addr in addresses:
            # Lowest address wins on (impossible) duplicates, like the CAM.
            plan.exact.setdefault(table.read(addr).key, leaves[addr])
        return plan

    # Ternary: the CAM's own first match, in address order. An entry
    # whose pattern demands a bit outside the extractor mask can never
    # match (the lookup key is always a subset of the mask): dropped.
    plan.kind = 1
    residual = []
    for addr in addresses:
        tentry = table.read(addr)
        pattern = tentry.key & tentry.mask
        if not pattern & ~mask:
            residual.append((tentry.mask, pattern, leaves[addr]))
    plan.residual = tuple(residual)
    return plan
