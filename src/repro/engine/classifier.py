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
  pre-decoded into flat ALU op tuples;
* a **deparse plan** — the resolved write-back effect applied to a copy
  of the input packet, plus the final metadata (egress port, multicast
  group, discard).

The plans are data: the certifier (``repro.analysis.equiv``) proves
them and ``equiv.mutate`` corrupts them. What runs is **one generated
Python function** derived from them
(:meth:`CompiledClassifier.generate`). It reads the parse spans straight
into the container list, computes each stage's key and predicate
inline, looks the key up with ``dict.get`` (exact) or one first-match
loop (ternary), and calls the matched leaf's own generated function,
which applies its ops with VLIW read-before-write over the incoming
values. It then writes the metadata into a bare buffer and splices the
deparse write-backs. Its source depends only on the plans' *shape* —
tables, immediates and the VID are bound to it as arguments — so
sources are compiled once per shape, in two bounded
``functools.lru_cache`` memos (one for plan shapes, one for leaf
shapes): a rebind, a tenant at another VID, or an update of the same
program builds no source.

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

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..core.pipeline import SYSTEM_MODULE_ID, MenshenPipeline
from ..net.packet import Packet
from ..rmt.action import AluOp, VliwInstruction
from ..rmt.key_extractor import CmpOp
from ..rmt.match_table import ExactMatchTable
from ..rmt.phv import PHV, ContainerRef, ContainerType, Metadata


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
#: The configuration did not compile: every packet takes the oracle.
FALLBACK_UNCOMPILABLE = Fallback("uncompilable")

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
                 "_deparse", "_stages", "_run")

    def __init__(self, vid: int, epoch: int, ok: bool, reason: str = ""):
        self.vid = vid
        self.epoch = epoch
        self.ok = ok
        self.reason = reason
        self.max_end = 0
        self._parse: Tuple[Tuple[int, int, int], ...] = ()
        self._deparse: Tuple[Tuple[int, int, int, int], ...] = ()
        self._stages: Tuple[_StagePlan, ...] = ()
        self._run = _refuse  # until :meth:`generate` derives it

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
        scalar oracle (every packet of a classifier that is not ``ok``
        gets ``uncompilable``). An ingress port the 16-bit ``src_port``
        field cannot hold raises the parser's own
        :class:`~repro.errors.FieldRangeError`. The caller guarantees
        the parse/deparse window fits (same precondition as the
        exact-match cache probe).
        """
        return self._run(packet, buffer_slot)

    def generate(self) -> None:
        """Derive the function :meth:`classify` runs from the plans.

        The function's source depends only on the plans' shape; the
        stage tables, immediates and VID are bound to it as arguments.
        Whoever edits a plan (``repro.analysis.equiv.mutate``) calls
        this again to serve the edited plans."""
        if not self.ok:
            self._run = _refuse
            return
        shape, args = _classify_shape(self)
        self._run = _classify_factory(shape)(*args)


def _refuse(packet: Packet, buffer_slot: int) -> Fallback:
    return FALLBACK_UNCOMPILABLE


# -- generation ------------------------------------------------------------------
#
# A classifier's function is built in two memoized steps, each keyed on
# a shape tuple and bounded: the source of one function per plan shape
# (parse spans, each stage's kind, key recipe, predicate operands and
# whether it has a miss leaf, deparse spans) and of one function per
# leaf shape (each op with its immediate taken out). A memo hit builds
# no source; binding a shape's factory to an epoch's tables and
# immediates is one call.

#: Python comparison of each predicate op code (``CmpOp`` 1-5); any
#: other code compares with ``<=``, as the predicate decoder leaves
#: only ``LE`` (6) past these.
_CMP_SOURCE = {1: "==", 2: "!=", 3: ">", 4: "<", 5: ">="}

#: Op codes whose fourth field is an immediate rather than a container.
_IMMEDIATE_CODES = frozenset((_ADDI, _SUBI, _SET, _PORT, _MCAST))


def _generated(source: str, name: str):
    """Compile ``source`` and return its ``_make`` factory."""
    namespace = {"_fb": int.from_bytes, "_new": object.__new__,
                 "Metadata": Metadata, "PHV": PHV, "Packet": Packet}
    exec(compile(source, name, "exec"), namespace)
    return namespace["_make"]


@functools.lru_cache(maxsize=1024)
def _leaf_factory(shape: Tuple[Tuple[int, int, int, Optional[int], int],
                               ...]):
    """The factory of one leaf shape: ``_make(*immediates)`` returns a
    function ``leaf(v, m)`` that applies the leaf's ops to the container
    list ``v`` and the metadata buffer ``m`` with VLIW read-before-write
    semantics — every operand is read before any container is
    written."""
    params: List[str] = []
    lines: List[str] = []
    targets: List[str] = []
    values: List[str] = []
    for code, slot, a, b, wrap in shape:
        imm = ""
        if code in _IMMEDIATE_CODES:
            imm = f"i{len(params)}"
            params.append(imm)
        if code == _ADD:
            value = f"(v[{a}] + v[{b}]) & {wrap}"
        elif code == _SUB:
            value = f"(v[{a}] - v[{b}]) & {wrap}"
        elif code == _ADDI:
            value = f"(v[{a}] + {imm}) & {wrap}"
        elif code == _SUBI:
            value = f"(v[{a}] - {imm}) & {wrap}"
        elif code == _SET:
            value = f"{imm} & {wrap}"
        else:
            # Egress ops read the incoming values too, so they run
            # before the container writes; the last one of a kind wins.
            if code == _PORT:
                lines += [f"p = (v[{a}] + {imm}) & 65535",
                          "m[2] = p >> 8", "m[3] = p & 255"]
            elif code == _MCAST:
                lines += [f"g = (v[{a}] + {imm}) & 65535",
                          "m[8] = g >> 8", "m[9] = g & 255"]
            else:  # _DISCARD
                lines.append("m[0] = 1")
            continue
        targets.append(f"v[{slot}]")
        values.append(value)
    if targets:
        # One assignment: the right side is evaluated whole before any
        # target is stored, and targets are stored in op order.
        lines.append(f"{', '.join(targets)} = {', '.join(values)}")
    body = "\n".join(f"        {line}" for line in lines or ["pass"])
    source = (f"def _make({', '.join(params)}):\n"
              f"    def leaf(v, m):\n{body}\n"
              f"    return leaf\n")
    return _generated(source, "<classifier leaf>")


def _bind_leaf(leaf: _Leaf):
    """The function that runs ``leaf``: its ops, or for a
    :class:`Fallback` leaf one that hands the fallback back."""
    if type(leaf) is Fallback:
        return lambda v, m: leaf
    shape = []
    immediates = []
    for code, slot, a, b, wrap in leaf:
        if code in _IMMEDIATE_CODES:
            immediates.append(b)
            b = None
        shape.append((code, slot, a, b, wrap))
    return _leaf_factory(tuple(shape))(*immediates)


def _classify_shape(clf: CompiledClassifier) -> Tuple[tuple, list]:
    """The plans' shape (what the generated source depends on) and the
    arguments that bind it to this classifier: the metadata template
    holding the VID, then per stage its table of leaf functions, its
    miss leaf (if any) and its predicate's immediate operands."""
    bound: Dict[_Leaf, object] = {}  # one function per distinct leaf

    def leaf_fn(leaf: _Leaf):
        fn = bound.get(leaf)
        if fn is None:
            fn = bound[leaf] = _bind_leaf(leaf)
        return fn

    # The metadata template: zero but for the module ID at bytes 18-19.
    args: list = [bytes(18) + clf.vid.to_bytes(2, "big") + bytes(12)]
    stages = []
    for sp in clf._stages:
        if sp.kind == 0:
            args.append({key: leaf_fn(leaf)
                         for key, leaf in sp.exact.items()})
        else:
            args.append(tuple((mask, pattern, leaf_fn(leaf))
                              for mask, pattern, leaf in sp.residual))
        if sp.miss_ops is not None:
            args.append(leaf_fn(sp.miss_ops))
        pred = None
        if sp.pred is not None:
            op, a_flat, a_imm, b_flat, b_imm = sp.pred
            pred = (op, a_flat, b_flat)
            if a_flat is None:
                args.append(a_imm)
            if b_flat is None:
                args.append(b_imm)
        stages.append((sp.kind == 0, sp.key_slots, sp.flag_const, pred,
                       sp.miss_ops is not None))
    return (clf._parse, tuple(stages), clf._deparse), args


@functools.lru_cache(maxsize=256)
def _classify_factory(shape: tuple):
    """The factory of one plan shape: ``_make(*args)`` (see
    :func:`_classify_shape`) returns the function
    :meth:`CompiledClassifier.classify` runs."""
    parse, stages, deparse = shape
    params = ["meta"]
    cells = ["0"] * 24
    for off, end, flat in parse:  # a later copy into a container wins
        cells[flat] = f'_fb(buf[{off}:{end}], "big")'
    lines = ["buf = packet.buf", f"v = [{', '.join(cells)}]",
             "m = bytearray(meta)"]
    for i, (exact, key_slots, flag_const, pred, has_miss) in \
            enumerate(stages):
        params.append(f"t{i}")
        miss = "None"
        if has_miss:
            miss = f"d{i}"
            params.append(miss)
        terms = [f"(v[{flat}] & {slot_mask}) << {shift}"
                 for shift, slot_mask, flat in key_slots]
        if flag_const:
            terms.append(str(flag_const))
        lines.append(f"k = {' | '.join(terms) or '0'}")
        if pred is not None:
            op, a_flat, b_flat = pred
            operands = []
            for side, flat in (("a", a_flat), ("b", b_flat)):
                if flat is None:
                    params.append(f"{side}{i}")
                    operands.append(f"{side}{i}")
                else:
                    operands.append(f"v[{flat}]")
            lines += [f"if {operands[0]} {_CMP_SOURCE.get(op, '<=')} "
                      f"{operands[1]}:", "    k |= 1"]
        if exact:
            lines.append(f"f = t{i}.get(k, {miss})" if has_miss
                         else f"f = t{i}.get(k)")
        else:  # the CAM's first match, in address order
            lines += [f"for mk, pt, f in t{i}:", "    if k & mk == pt:",
                      "        break", "else:", f"    f = {miss}"]
        run = ["r = f(v, m)", "if r is not None:", "    return r"]
        if has_miss:
            lines += run
        else:
            lines += ["if f is not None:"] + [f"    {line}" for line in run]
    lines += [
        "m[1] = 1 << buffer_slot",
        "p = packet.ingress_port",
        "if not 0 <= p <= 65535:",
        "    Metadata().src_port = p  # the parser's own error",
        "m[4] = p >> 8", "m[5] = p & 255",
        "n = len(buf)",
        "if n > 65535:", "    n = 65535",
        "m[6] = n >> 8", "m[7] = n & 255",
        "md = _new(Metadata)", "md.buf = m",
        "phv = _new(PHV)", "phv.data = v", "phv.metadata = md",
        "if m[0]:", "    return None, phv",
        "merged = Packet(buf, p, packet.arrival_time)"]
    if deparse:
        lines.append("out = merged.buf")
    lines += [f'out[{off}:{end}] = v[{flat}].to_bytes({size}, "big")'
              for off, end, flat, size in deparse]
    lines.append("return merged, phv")
    body = "\n".join(f"        {line}" for line in lines)
    source = (f"def _make({', '.join(params)}):\n"
              f"    def classify(packet, buffer_slot):\n{body}\n"
              f"    return classify\n")
    return _generated(source, "<classifier>")


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
    clf.generate()
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
