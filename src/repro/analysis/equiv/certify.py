"""Static equivalence certification of compiled classifiers.

:func:`certify_classifier` takes a
:class:`~repro.engine.classifier.CompiledClassifier` plus the installed
pipeline state at the same tenant epoch and statically *proves* —
with zero traffic — that the compiled artifact is equivalent to the
scalar stage-by-stage walk, or produces a concrete counterexample
packet. Every proof obligation re-derives its ground truth from the
installed tables (CAM entries, extractor words, VLIW words), never from
the compiler's own intermediate claims:

``epoch``
    the classifier was compiled at its tenant's current epoch,
    ``pipeline.epoch_of(vid)`` — no write its data path can observe has
    landed since (certifying a stale artifact proves nothing; a
    neighbour's write does not make it stale);
``refusal-reason``
    an ``ok=False`` classifier refuses for a reason that reproduces
    when the same configuration is recompiled;
``parse-plan`` / ``deparse-plan``
    the flattened copy plans equal the module's installed parser and
    deparser programs, and ``max_end`` bounds both;
``stage-alignment``
    the kept stage plans correspond 1:1, in order, to exactly the
    pipeline stages with installed entries or a default action;
``key-recipe``
    each stage's key slots, flag constant and predicate re-derive from
    the installed extractor entry and key mask;
``residual-order``
    a ternary stage's first-match list holds the live entries' (mask,
    pattern) pairs in CAM address order with equivalent leaves —
    first-match over that list *is* the reference semantics;
``exact-keys``
    an exact stage's hash equals the address-order CAM contents
    (lowest address wins duplicate keys) with equivalent leaves;
``miss-default``
    every stage's miss leaf replays the module's default VLIW word
    (no-op when the default word is zero);
``fallback-reason``
    every ``Fallback`` leaf carries the reason the scalar semantics
    actually force (stateful memory, metadata faults), re-derived from
    the decoded instruction.

With ``key-recipe``, ``stage-alignment`` and the plan obligations,
per-stage equality composes inductively over the pipeline into
whole-datapath equivalence.

A violated obligation yields a :class:`Counterexample`; when the
violating key is reachable, a concrete admissible packet is synthesized
by inverting the key through the key slots and parse plan, then
*validated* by replaying the compiled prefix stages — a synthesized
packet is only attached if it provably drives the divergent stage to
the violating key. Certificates serialize to JSON
(``schema_version`` :data:`CERTIFICATE_SCHEMA_VERSION`) so violations
can be fed back into the differential suite as regression seeds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ...core.pipeline import SYSTEM_MODULE_ID, MenshenPipeline
from ...engine.classifier import (
    _ADD,
    _ADDI,
    _KEY_SLOTS,
    _SET,
    _SUB,
    _SUBI,
    _WRAP,
    CompiledClassifier,
    Fallback,
    _StagePlan,
    compile_classifier,
)
from ...rmt.action import VliwInstruction
from ...rmt.key_extractor import CmpOp
from ...rmt.key_extractor import KeyExtractEntry
from ...rmt.match_table import ExactMatchTable
from ...rmt.phv import ContainerRef, ContainerType
from ..findings import AnalysisReport, Finding, Severity
from .symbolic import (
    compiled_effect,
    reference_effect,
    reference_fallback_reason,
)

#: Bump when the certificate JSON layout changes incompatibly.
CERTIFICATE_SCHEMA_VERSION = 1

#: Every obligation the certifier can discharge, in report order.
OBLIGATIONS: Tuple[str, ...] = (
    "epoch",
    "refusal-reason",
    "parse-plan",
    "deparse-plan",
    "stage-alignment",
    "key-recipe",
    "residual-order",
    "exact-keys",
    "miss-default",
    "fallback-reason",
)

_STATUSES = ("proved", "violated", "skipped")

_Leaf = Any  # Tuple[op, ...] | Fallback (classifier-private union)


@dataclass(frozen=True)
class Obligation:
    """One discharged (or failed, or inapplicable) proof obligation."""

    name: str
    status: str  # "proved" | "violated" | "skipped"
    stage: Optional[int] = None  #: pipeline stage index, when stage-scoped
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "status": self.status,
                "stage": self.stage, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Obligation":
        return cls(name=data["name"], status=data["status"],
                   stage=data.get("stage"), detail=data.get("detail", ""))


@dataclass(frozen=True)
class Counterexample:
    """A concrete witness for one violated obligation.

    ``key`` is the full 193-bit lookup key at the divergent stage;
    ``packet_hex`` is an admissible packet that drives the compiled
    path to that key (``None`` when the key is unreachable from the
    wire — e.g. it needs a container value the parse program never
    produces — or when prefix-stage replay could not validate it).
    """

    obligation: str
    stage: Optional[int]
    description: str
    key: Optional[int] = None
    packet_hex: Optional[str] = None
    expected: str = ""
    actual: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"obligation": self.obligation, "stage": self.stage,
                "description": self.description, "key": self.key,
                "packet_hex": self.packet_hex,
                "expected": self.expected, "actual": self.actual}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Counterexample":
        return cls(obligation=data["obligation"], stage=data.get("stage"),
                   description=data["description"], key=data.get("key"),
                   packet_hex=data.get("packet_hex"),
                   expected=data.get("expected", ""),
                   actual=data.get("actual", ""))


@dataclass
class Certificate:
    """The result of certifying one compiled classifier.

    ``ok`` means every evaluated obligation was proved (or skipped as
    inapplicable) — the compiled artifact is safe to serve packets.
    Findings-model compatible via :meth:`findings` / :meth:`to_report`;
    JSON round-trips via :meth:`to_json` / :meth:`from_json`.
    """

    vid: int
    epoch: int
    compiled_ok: bool
    reason: str = ""
    schema_version: int = CERTIFICATE_SCHEMA_VERSION
    obligations: List[Obligation] = field(default_factory=list)
    counterexamples: List[Counterexample] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.status != "violated" for o in self.obligations)

    def violations(self) -> List[Obligation]:
        return [o for o in self.obligations if o.status == "violated"]

    def findings(self) -> List[Finding]:
        """Violations as ERROR findings (``equiv-<obligation>`` codes)."""
        return [Finding(code=f"equiv-{o.name}", severity=Severity.ERROR,
                        message=o.detail, pass_name="equiv",
                        subject=f"vid {self.vid}", stage=o.stage)
                for o in self.violations()]

    def to_report(self) -> AnalysisReport:
        report = AnalysisReport()
        report.extend(self.findings())
        return report

    def render(self) -> str:
        """One human-readable line per obligation outcome."""
        lines = [f"certificate vid {self.vid} epoch {self.epoch}: "
                 f"{'ok' if self.ok else 'VIOLATED'}"]
        for o in self.obligations:
            where = f" [stage {o.stage}]" if o.stage is not None else ""
            detail = f" — {o.detail}" if o.detail else ""
            lines.append(f"  {o.status:>8}  {o.name}{where}{detail}")
        for ce in self.counterexamples:
            packet = ce.packet_hex or "<unreachable>"
            lines.append(f"  counterexample ({ce.obligation}): "
                         f"{ce.description}; packet {packet}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "vid": self.vid,
            "epoch": self.epoch,
            "compiled_ok": self.compiled_ok,
            "reason": self.reason,
            "ok": self.ok,
            "obligations": [o.to_dict() for o in self.obligations],
            "counterexamples": [c.to_dict()
                                for c in self.counterexamples],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Certificate":
        return cls(
            vid=data["vid"], epoch=data["epoch"],
            compiled_ok=data["compiled_ok"],
            reason=data.get("reason", ""),
            schema_version=data.get("schema_version",
                                    CERTIFICATE_SCHEMA_VERSION),
            obligations=[Obligation.from_dict(o)
                         for o in data.get("obligations", [])],
            counterexamples=[Counterexample.from_dict(c)
                             for c in data.get("counterexamples", [])])

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        return cls.from_dict(json.loads(text))


def certify_classifier(pipeline: MenshenPipeline,
                       classifier: Optional[CompiledClassifier] = None,
                       vid: Optional[int] = None) -> Certificate:
    """Certify one tenant's compiled classifier against the pipeline.

    Pass an existing ``classifier`` (e.g. the one the engine compiles
    artifact) or just a ``vid`` to compile-and-certify at the current
    epoch. Purely read-only: never executes a packet, never touches
    stateful memory or statistics.
    """
    if classifier is None:
        if vid is None:
            raise ValueError(
                "certify_classifier needs a classifier or a vid")
        classifier = compile_classifier(pipeline, vid)
    return _Certifier(pipeline, classifier).run()


class _Certifier:
    """One certification run: pipeline + classifier -> Certificate."""

    def __init__(self, pipeline: MenshenPipeline,
                 clf: CompiledClassifier) -> None:
        self.pipeline = pipeline
        self.clf = clf
        self.obligations: List[Obligation] = []
        self.counterexamples: List[Counterexample] = []
        self._violated_names: set = set()
        self._leaf_checks = 0

    # -- bookkeeping -------------------------------------------------------------

    def _proved(self, name: str, stage: Optional[int] = None,
                detail: str = "") -> None:
        self.obligations.append(Obligation(name, "proved", stage, detail))

    def _skipped(self, name: str, detail: str,
                 stage: Optional[int] = None) -> None:
        self.obligations.append(Obligation(name, "skipped", stage, detail))

    def _violated(self, name: str, detail: str,
                  stage: Optional[int] = None,
                  counterexample: Optional[Counterexample] = None) -> None:
        self.obligations.append(Obligation(name, "violated", stage, detail))
        self._violated_names.add(name)
        if counterexample is not None:
            self.counterexamples.append(counterexample)

    # -- top level ---------------------------------------------------------------

    def run(self) -> Certificate:
        clf = self.clf
        pipeline = self.pipeline
        current = pipeline.epoch_of(clf.vid)
        if clf.epoch != current:
            self._violated(
                "epoch",
                f"classifier compiled at epoch {clf.epoch}; vid {clf.vid} "
                f"is at {current} — a stale artifact cannot be "
                f"certified against the installed state")
        else:
            self._proved("epoch", detail=f"epoch {clf.epoch}")
            if not clf.ok:
                self._check_refusal()
            else:
                self._skipped("refusal-reason", "classifier compiled ok")
                self._check_plans()
                self._check_stages()
        if self._leaf_checks and \
                "fallback-reason" not in self._violated_names:
            self._proved("fallback-reason",
                         detail=f"{self._leaf_checks} leaves replayed")
        seen = {o.name for o in self.obligations}
        for name in OBLIGATIONS:
            if name not in seen:
                self._skipped(name, "not exercised by this classifier")
        order = {name: i for i, name in enumerate(OBLIGATIONS)}
        self.obligations.sort(
            key=lambda o: (order.get(o.name, len(order)),
                           -1 if o.stage is None else o.stage))
        return Certificate(vid=clf.vid, epoch=clf.epoch,
                           compiled_ok=clf.ok, reason=clf.reason,
                           obligations=self.obligations,
                           counterexamples=self.counterexamples)

    def _check_refusal(self) -> None:
        clf = self.clf
        fresh = compile_classifier(self.pipeline, clf.vid)
        if fresh.ok:
            self._violated(
                "refusal-reason",
                f"classifier refused ({clf.reason!r}) but the installed "
                f"configuration compiles cleanly at the same epoch")
        elif fresh.reason != clf.reason:
            self._violated(
                "refusal-reason",
                f"refusal reason {clf.reason!r} does not reproduce; "
                f"recompiling refuses with {fresh.reason!r}")
        else:
            self._proved("refusal-reason", detail=clf.reason)

    # -- parse / deparse plans ---------------------------------------------------

    def _check_plans(self) -> None:
        clf = self.clf
        pipeline = self.pipeline
        max_end = 0
        expected_parse: List[Tuple[int, int, int]] = []
        parse_fault = ""
        for action in pipeline.parser.read_program(clf.vid):
            if action.container.ctype == ContainerType.META:
                parse_fault = ("installed parse program targets metadata "
                               "(the scalar path faults) but the "
                               "classifier compiled ok")
                break
            end = action.bytes_from_head + action.container.size_bytes
            max_end = max(max_end, end)
            expected_parse.append(
                (action.bytes_from_head, end, action.container.flat_index))
        expected_deparse: List[Tuple[int, int, int, int]] = []
        deparse_fault = ""
        for action in pipeline.deparser.read_program(clf.vid):
            if action.container.ctype == ContainerType.META:
                deparse_fault = ("installed deparse program targets "
                                 "metadata (the scalar path faults) but "
                                 "the classifier compiled ok")
                break
            size = action.container.size_bytes
            end = action.bytes_from_head + size
            max_end = max(max_end, end)
            expected_deparse.append(
                (action.bytes_from_head, end,
                 action.container.flat_index, size))

        if parse_fault:
            self._violated("parse-plan", parse_fault)
        elif tuple(expected_parse) != clf._parse:
            self._violated(
                "parse-plan",
                f"compiled parse plan {clf._parse} != installed parser "
                f"program {tuple(expected_parse)}")
        elif not deparse_fault and clf.max_end != max_end:
            self._violated(
                "parse-plan",
                f"compiled window bound max_end={clf.max_end} != "
                f"{max_end} derived from the installed programs")
        else:
            self._proved("parse-plan",
                         detail=f"{len(expected_parse)} copies, "
                                f"window {max_end}B")
        if deparse_fault:
            self._violated("deparse-plan", deparse_fault)
        elif tuple(expected_deparse) != clf._deparse:
            self._violated(
                "deparse-plan",
                f"compiled deparse plan {clf._deparse} != installed "
                f"deparser program {tuple(expected_deparse)}")
        else:
            self._proved("deparse-plan",
                         detail=f"{len(expected_deparse)} write-backs")

    # -- stages ------------------------------------------------------------------

    def _kept_stages(self) -> List[Tuple[int, Any, int, List[int], int]]:
        """Re-derive which stages the compiler must keep for this vid:
        (stage index, stage, acting module, CAM addresses, default word)."""
        kept = []
        pipeline = self.pipeline
        for index, stage in enumerate(pipeline.stages):
            module = (SYSTEM_MODULE_ID
                      if index in pipeline.system_stages else self.clf.vid)
            addresses = list(stage.match_table.entries_of(module))
            default_word = 0
            if stage.default_vliw_table is not None:
                default_word = stage.default_vliw_table.read(module)
            if addresses or default_word:
                kept.append((index, stage, module, addresses, default_word))
        return kept

    def _check_stages(self) -> None:
        kept = self._kept_stages()
        plans = list(self.clf._stages)
        if len(kept) != len(plans):
            self._violated(
                "stage-alignment",
                f"{len(kept)} pipeline stages have installed entries or "
                f"a default action for vid {self.clf.vid}, but the "
                f"classifier compiled {len(plans)} stage plans")
            return
        self._proved("stage-alignment",
                     detail=f"{len(plans)} stage plans")
        for (index, stage, module, addresses, default_word), plan in \
                zip(kept, plans):
            self._check_stage(index, stage, module, addresses,
                              default_word, plan)

    def _check_stage(self, index: int, stage: Any, module: int,
                     addresses: List[int], default_word: int,
                     plan: _StagePlan) -> None:
        entry = stage.key_extractor.read_entry(module)
        mask = stage.key_mask_table.read(module)
        if not self._check_key_recipe(index, entry, mask, plan):
            return  # a wrong key recipe makes every deeper proof unsound

        table = stage.match_table
        exact = isinstance(table, ExactMatchTable)
        try:
            leaves_ref = {addr: stage.vliw_table.read_decoded(addr)
                          for addr in addresses}
            default_instr = (stage.default_action(module)
                             or VliwInstruction())
        except Exception as exc:
            self._violated(
                "exact-keys" if exact else "residual-order",
                f"stage {index}: installed VLIW word undecodable "
                f"({type(exc).__name__}: {exc}) but the classifier "
                f"compiled ok", stage=index)
            return

        self._check_miss_default(index, plan, default_word, default_instr)
        if exact != (plan.kind == 0):
            self._violated(
                "exact-keys",
                f"stage {index}: {'exact-match' if exact else 'ternary'} "
                f"stage compiled as kind {plan.kind}", stage=index)
        elif exact:
            self._check_exact(index, plan, table, addresses, leaves_ref,
                              mask)
        else:
            self._check_residual(index, plan, table, addresses,
                                 leaves_ref, mask)

    def _check_key_recipe(self, index: int, entry: KeyExtractEntry,
                          mask: int, plan: _StagePlan) -> bool:
        flats = (16 + entry.idx_6b_1, 16 + entry.idx_6b_2,
                 8 + entry.idx_4b_1, 8 + entry.idx_4b_2,
                 entry.idx_2b_1, entry.idx_2b_2)
        expected_slots = []
        for (shift, width), flat in zip(_KEY_SLOTS, flats):
            slot_mask = (mask >> shift) & ((1 << width) - 1)
            if slot_mask:
                expected_slots.append((shift, slot_mask, flat))
        for operand in (entry.cmp_a, entry.cmp_b):
            if isinstance(operand, ContainerRef) and \
                    operand.ctype == ContainerType.META:
                self._violated(
                    "key-recipe",
                    f"stage {index}: extractor predicate reads metadata "
                    f"(the scalar path faults) but the classifier "
                    f"compiled ok", stage=index)
                return False
        expected_flag = 0
        expected_pred: Optional[Tuple[int, Optional[int], int,
                                      Optional[int], int]] = None
        flag_mask = mask & 1
        if flag_mask and entry.cmp_op == CmpOp.ALWAYS:
            expected_flag = 1
        elif flag_mask and entry.cmp_op != CmpOp.DISABLED:
            def operand(ref_or_imm: Any) -> Tuple[Optional[int], int]:
                if isinstance(ref_or_imm, ContainerRef):
                    return ref_or_imm.flat_index, 0
                return None, int(ref_or_imm)
            a_flat, a_imm = operand(entry.cmp_a)
            b_flat, b_imm = operand(entry.cmp_b)
            expected_pred = (int(entry.cmp_op), a_flat, a_imm,
                             b_flat, b_imm)
        got = (plan.key_slots, plan.flag_const, plan.pred)
        want = (tuple(expected_slots), expected_flag, expected_pred)
        if got != want:
            self._violated(
                "key-recipe",
                f"stage {index}: compiled key recipe (slots, flag, pred) "
                f"= {got} != {want} re-derived from the installed "
                f"extractor entry and mask", stage=index)
            return False
        self._proved("key-recipe", stage=index,
                     detail=f"{len(expected_slots)} key slots, "
                            f"mask {mask.bit_length()} bits")
        return True

    def _check_miss_default(self, index: int, plan: _StagePlan,
                            default_word: int,
                            default_instr: VliwInstruction) -> None:
        mismatch = self._compare_leaf(plan.miss_ops, default_instr)
        if mismatch is None:
            detail = (f"default word {default_word:#x}" if default_word
                      else "no default action")
            self._proved("miss-default", stage=index, detail=detail)
            return
        kind, expected, actual = mismatch
        name = "fallback-reason" if kind == "fallback-reason" \
            else "miss-default"
        self._violated(
            name,
            f"stage {index}: compiled miss leaf diverges from the "
            f"module's default action: expected {expected}, "
            f"got {actual}", stage=index)

    # -- leaf comparison ---------------------------------------------------------

    def _compare_leaf(self, compiled: Optional[_Leaf],
                      instr: VliwInstruction
                      ) -> Optional[Tuple[str, str, str]]:
        """``None`` when equivalent, else (kind, expected, actual)."""
        self._leaf_checks += 1
        ref_reason = reference_fallback_reason(instr)
        if isinstance(compiled, Fallback):
            if ref_reason is None:
                return ("fallback-reason",
                        "compiled ops (the instruction is pure)",
                        f"Fallback({compiled.reason!r})")
            if compiled.reason != ref_reason:
                return ("fallback-reason", f"Fallback({ref_reason!r})",
                        f"Fallback({compiled.reason!r})")
            return None
        if ref_reason is not None:
            return ("fallback-reason", f"Fallback({ref_reason!r})",
                    "compiled ops")
        ops = compiled if compiled is not None else ()
        try:
            got = compiled_effect(ops)
        except ValueError as exc:
            return ("effect", "well-formed op tuples", str(exc))
        want = reference_effect(instr)
        if got != want:
            return ("effect", want.render(), got.render())
        return None

    # -- exact stages ------------------------------------------------------------

    def _check_exact(self, index: int, plan: _StagePlan, table: Any,
                     addresses: List[int],
                     leaves_ref: Dict[int, VliwInstruction],
                     mask: int) -> None:
        expected: Dict[int, int] = {}
        for addr in addresses:
            expected.setdefault(table.read(addr).key, addr)
        plan_index = self._plan_index(plan)
        if set(plan.exact) != set(expected):
            missing = sorted(set(expected) - set(plan.exact))
            extra = sorted(set(plan.exact) - set(expected))
            witness = (missing or extra)[0]
            side = "misses installed key" if missing else \
                "serves uninstalled key"
            ce = self._counterexample(
                "exact-keys", index, plan_index, mask, witness,
                description=f"stage {index}: compiled exact hash {side} "
                            f"{witness:#x}",
                expected=f"{len(expected)} installed keys",
                actual=f"{len(plan.exact)} compiled keys")
            self._violated(
                "exact-keys",
                f"stage {index}: compiled key set != installed CAM keys "
                f"(missing {len(missing)}, extra {len(extra)})",
                stage=index, counterexample=ce)
            return
        for key in sorted(expected):
            mismatch = self._compare_leaf(plan.exact[key],
                                          leaves_ref[expected[key]])
            if mismatch is None:
                continue
            kind, want, got = mismatch
            name = "fallback-reason" if kind == "fallback-reason" \
                else "exact-keys"
            ce = self._counterexample(
                name, index, plan_index, mask, key,
                description=f"stage {index}: leaf for exact key "
                            f"{key:#x} diverges from CAM row "
                            f"{expected[key]}",
                expected=want, actual=got)
            self._violated(
                name,
                f"stage {index}: compiled leaf for key {key:#x} != "
                f"installed action at CAM row {expected[key]}: expected "
                f"{want}, got {got}", stage=index, counterexample=ce)
            return
        self._proved("exact-keys", stage=index,
                     detail=f"{len(expected)} keys")

    # -- ternary first-match stages ----------------------------------------------

    def _check_residual(self, index: int, plan: _StagePlan, table: Any,
                        addresses: List[int],
                        leaves_ref: Dict[int, VliwInstruction],
                        mask: int) -> None:
        plan_index = self._plan_index(plan)
        expected: List[Tuple[int, int, int]] = []  # (mask, pattern, addr)
        for addr in addresses:
            tentry = table.read(addr)
            pattern = tentry.key & tentry.mask
            if pattern & ~mask:
                continue
            expected.append((tentry.mask, pattern, addr))

        def fail(detail: str) -> None:
            ce = self._residual_counterexample(
                index, plan_index, plan, expected, leaves_ref, mask)
            self._violated("residual-order",
                           f"stage {index}: {detail}", stage=index,
                           counterexample=ce)

        if len(plan.residual) != len(expected):
            fail(f"residual has {len(plan.residual)} entries; "
                 f"{len(expected)} live CAM entries installed")
            return
        for pos, ((e_mask, e_pattern, addr), (r_mask, r_pattern, leaf)) \
                in enumerate(zip(expected, plan.residual)):
            if (e_mask, e_pattern) != (r_mask, r_pattern):
                fail(f"residual position {pos} is "
                     f"(mask={r_mask:#x}, pattern={r_pattern:#x}); CAM "
                     f"address order demands (mask={e_mask:#x}, "
                     f"pattern={e_pattern:#x}) from row {addr}")
                return
            mismatch = self._compare_leaf(leaf, leaves_ref[addr])
            if mismatch is not None:
                kind, want, got = mismatch
                if kind == "fallback-reason":
                    ce = self._counterexample(
                        "fallback-reason", index, plan_index, mask,
                        e_pattern,
                        description=f"stage {index}: residual position "
                                    f"{pos} (CAM row {addr})",
                        expected=want, actual=got)
                    self._violated(
                        "fallback-reason",
                        f"stage {index}: residual position {pos} "
                        f"expected {want}, got {got}", stage=index,
                        counterexample=ce)
                else:
                    fail(f"residual position {pos} leaf != installed "
                         f"action at CAM row {addr}: expected {want}, "
                         f"got {got}")
                return
        self._proved("residual-order", stage=index,
                     detail=f"{len(expected)} entries in address order")

    def _residual_counterexample(
            self, index: int, plan_index: int, plan: _StagePlan,
            expected: List[Tuple[int, int, int]],
            leaves_ref: Dict[int, VliwInstruction],
            mask: int) -> Optional[Counterexample]:
        """Find a key where first-match over the installed entries and
        over the compiled residual disagree."""
        candidates: List[int] = [p for _m, p, _a in expected]
        candidates += [p for _m, p, _l in plan.residual]
        for key in candidates:
            if key & ~mask:
                continue
            ref_addr = next((addr for e_mask, e_pattern, addr in expected
                             if key & e_mask == e_pattern), None)
            compiled_leaf: Optional[_Leaf] = next(
                (leaf for r_mask, r_pattern, leaf in plan.residual
                 if key & r_mask == r_pattern), None)
            if ref_addr is None and compiled_leaf is None:
                continue
            if ref_addr is None or compiled_leaf is None or \
                    self._compare_leaf(compiled_leaf,
                                       leaves_ref[ref_addr]) is not None:
                ref_desc = (f"CAM row {ref_addr}"
                            if ref_addr is not None else "miss")
                return self._counterexample(
                    "residual-order", index, plan_index, mask, key,
                    description=f"stage {index}: first-match diverges "
                                f"at key {key:#x}",
                    expected=ref_desc,
                    actual="miss" if compiled_leaf is None
                           else "a different leaf")
        return None

    # -- counterexample synthesis ------------------------------------------------

    def _plan_index(self, plan: _StagePlan) -> int:
        for i, sp in enumerate(self.clf._stages):
            if sp is plan:
                return i
        return len(self.clf._stages)  # pragma: no cover

    def _counterexample(self, obligation: str, stage_index: int,
                        plan_index: int, mask: int, full_key: int,
                        description: str, expected: str,
                        actual: str) -> Counterexample:
        packet = self._packet_for_key(plan_index, mask, full_key)
        return Counterexample(
            obligation=obligation, stage=stage_index,
            description=description, key=full_key,
            packet_hex=packet.hex() if packet is not None else None,
            expected=expected, actual=actual)

    def _packet_for_key(self, plan_index: int, mask: int,
                        full_key: int) -> Optional[bytes]:
        """An admissible packet driving stage plan ``plan_index`` to
        lookup key ``full_key``, or ``None`` when unreachable.

        Inverts the key through the stage's key slots and the parse
        plan, pins the VLAN tag to this tenant's VID, then validates by
        replaying the compiled prefix stages — only a packet that
        provably produces ``full_key`` at the target stage is returned.
        """
        if plan_index >= len(self.clf._stages):
            return None
        plan = self.clf._stages[plan_index]
        if full_key & ~mask:
            return None  # not reachable: the extractor masks it away

        # Per-container demanded bits from the key slots.
        required: Dict[int, Tuple[int, int]] = {}  # flat -> (bits, value)
        for shift, slot_mask, flat in plan.key_slots:
            value = (full_key >> shift) & slot_mask
            bits, want = required.get(flat, (0, 0))
            if (want ^ value) & (bits & slot_mask):
                return None  # one container feeds two conflicting slots
            required[flat] = (bits | slot_mask, want | value)
        vals: Dict[int, int] = {flat: want
                                for flat, (_bits, want) in required.items()}
        if mask & 1:
            if not self._satisfy_flag(plan, vals, required,
                                      full_key & 1):
                return None
        elif full_key & 1:
            return None  # impossible: full_key is a subset of mask

        # Constraint masks: key containers pin only their demanded key
        # bits; predicate operands pin their whole value (the predicate
        # reads the full container).
        constraint: Dict[int, Tuple[int, int]] = dict(required)
        for flat, value in vals.items():
            if flat not in required:
                constraint[flat] = (_WRAP[flat], value)
        if plan.pred is not None:
            for flat in (plan.pred[1], plan.pred[3]):
                if flat is not None:
                    constraint[flat] = (_WRAP[flat], vals.get(flat, 0))

        # Byte constraints: VLAN tag for admission + parse-plan inverse.
        clf = self.clf
        byte_bits: Dict[int, Tuple[int, int]] = {
            12: (0xFF, 0x81), 13: (0xFF, 0x00),
            14: (0xFF, (clf.vid >> 8) & 0x0F),
            15: (0xFF, clf.vid & 0xFF),
        }
        last_span: Dict[int, Tuple[int, int]] = {}
        for off, end, flat in clf._parse:
            last_span[flat] = (off, end)
        for flat, (bits, value) in constraint.items():
            span = last_span.get(flat)
            if span is None:
                if value & bits:
                    return None  # container never parsed: stuck at zero
                continue
            off, end = span
            width = end - off
            for i in range(width):
                shift = 8 * (width - 1 - i)
                bit_mask = (bits >> shift) & 0xFF
                bit_value = (value >> shift) & 0xFF
                if not bit_mask:
                    continue
                have_mask, have_value = byte_bits.get(off + i, (0, 0))
                if (have_value ^ bit_value) & (have_mask & bit_mask):
                    return None  # conflicts with another constraint
                byte_bits[off + i] = (have_mask | bit_mask,
                                     have_value | (bit_value & bit_mask))

        length = max(clf.max_end, 16)
        parsed_positions = set()
        for off, end, _flat in clf._parse:
            parsed_positions.update(range(off, min(end, length)))
        # Prefer a nonzero fill in unconstrained parsed bytes: it makes
        # divergent container writes observable (a wrong-target write of
        # zero over zero is invisible to the differential oracle). Fall
        # back to a zero fill if the noise happens to perturb the key
        # (e.g. via a prefix-stage rewrite).
        for fill in (0xA5, 0x00):
            data = bytearray(length)
            for pos in sorted(parsed_positions):
                data[pos] = fill
            bad = False
            for pos, (bit_mask, bit_value) in byte_bits.items():
                if pos >= length:
                    bad = True
                    break
                data[pos] = bit_value | (data[pos] & ~bit_mask)
            if bad:
                return None
            packet = bytes(data)
            if self._replayed_key(packet, plan_index) == full_key:
                return packet
        return None  # a prefix stage rewrites a key container

    def _satisfy_flag(self, plan: _StagePlan, vals: Dict[int, int],
                      required: Dict[int, Tuple[int, int]],
                      needed: int) -> bool:
        """Make the stage's flag bit evaluate to ``needed``, choosing
        free (non-key) predicate operand values when possible."""
        if plan.pred is None:
            return plan.flag_const == needed
        op, a_flat, a_imm, b_flat, b_imm = plan.pred

        def value_of(flat: Optional[int], imm: int) -> int:
            if flat is None:
                return imm
            return vals.get(flat, 0)

        if int(CmpOp(op).evaluate(value_of(a_flat, a_imm),
                                  value_of(b_flat, b_imm))) == needed:
            for flat in (a_flat, b_flat):
                if flat is not None and flat not in vals:
                    vals[flat] = 0  # pin what we just evaluated with
            return True
        for flat, other in ((a_flat, value_of(b_flat, b_imm)),
                            (b_flat, value_of(a_flat, a_imm))):
            if flat is None or flat in required:
                continue  # immediate, or pinned by the key — untouchable
            width_mask = _WRAP[flat]
            for candidate in (0, 1, other, other + 1,
                              max(other - 1, 0), width_mask):
                if candidate > width_mask:
                    continue
                vals[flat] = candidate
                a = value_of(a_flat, a_imm)
                b = value_of(b_flat, b_imm)
                if int(CmpOp(op).evaluate(a, b)) == needed:
                    return True
            del vals[flat]
        return False

    def _replayed_key(self, data: bytes,
                      plan_index: int) -> Optional[int]:
        """The lookup key stage plan ``plan_index`` computes for this
        packet, replaying the compiled prefix stages concretely
        (mirroring ``classify``); ``None`` if a prefix leaf bails."""
        clf = self.clf
        vals = [0] * 24
        try:
            for off, end, flat in clf._parse:
                vals[flat] = int.from_bytes(data[off:end], "big")
            for sp in clf._stages[:plan_index]:
                key = _stage_key(sp, vals)
                leaf = _stage_lookup(sp, key)
                if leaf is None:
                    leaf = sp.miss_ops
                    if leaf is None:
                        continue
                if isinstance(leaf, Fallback):
                    return None  # whole packet would take the oracle
                _apply_leaf(leaf, vals)
            return _stage_key(clf._stages[plan_index], vals)
        except Exception:
            return None  # corrupt artifact faults mid-replay


def _stage_key(sp: _StagePlan, vals: List[int]) -> int:
    key = sp.flag_const
    if sp.pred is not None:
        op, a_flat, a_imm, b_flat, b_imm = sp.pred
        a = vals[a_flat] if a_flat is not None else a_imm
        b = vals[b_flat] if b_flat is not None else b_imm
        if CmpOp(op).evaluate(a, b):
            key |= 1
    for shift, slot_mask, flat in sp.key_slots:
        key |= (vals[flat] & slot_mask) << shift
    return key


def _stage_lookup(sp: _StagePlan, key: int) -> Optional[_Leaf]:
    if sp.kind == 0:
        return sp.exact.get(key)
    for mask, pattern, candidate in sp.residual:
        if key & mask == pattern:
            return candidate
    return None


def _apply_leaf(leaf: Any, vals: List[int]) -> None:
    # Mirrors classify's pending-writes loop; port/mcast/discard are
    # irrelevant to key replay and ignored.
    pending: List[Tuple[int, int]] = []
    for op_tuple in leaf:
        code = op_tuple[0]
        if code == _ADD:
            pending.append((op_tuple[1],
                            (vals[op_tuple[2]] + vals[op_tuple[3]])
                            & op_tuple[4]))
        elif code == _SUB:
            pending.append((op_tuple[1],
                            (vals[op_tuple[2]] - vals[op_tuple[3]])
                            & op_tuple[4]))
        elif code == _ADDI:
            pending.append((op_tuple[1],
                            (vals[op_tuple[2]] + op_tuple[3])
                            & op_tuple[4]))
        elif code == _SUBI:
            pending.append((op_tuple[1],
                            (vals[op_tuple[2]] - op_tuple[3])
                            & op_tuple[4]))
        elif code == _SET:
            pending.append((op_tuple[1], op_tuple[3] & op_tuple[4]))
    for slot, value in pending:
        vals[slot] = value


__all__ = [
    "CERTIFICATE_SCHEMA_VERSION",
    "Certificate",
    "Counterexample",
    "OBLIGATIONS",
    "Obligation",
    "certify_classifier",
]
