"""Seeded corruption of compiled classifiers — the certifier's test jig.

Each mutator clones a :class:`~repro.engine.classifier.CompiledClassifier`
and injects one *known* corruption of a kind a buggy compiler could
plausibly produce. Corruptions are applied to the plans, before
generation: :func:`apply_mutation` regenerates the clone's classify
function from its corrupted plans, so the mutant serves what they
say. Leaf corruptions: swapped first-match priorities, a
dropped first-match entry, an op tuple writing the wrong container,
swapped exact-match leaves, a ``Fallback`` carrying the wrong reason.
Plan corruptions: a parse offset one byte late, a dropped deparse
write, a dropped stage plan, a key slot reading the wrong container, an
extra write in an exact stage's miss leaf. The mutation harness
(``tests/test_equiv.py``) asserts that
:func:`~repro.analysis.equiv.certify.certify_classifier` catches every
one under the obligation it targets, and — for the
behaviorally observable mutations — that the scalar differential
oracle disagrees with the mutant on a synthesized counterexample
packet or, for plan corruptions (which name no single key), on a
packet of the module's flow stream.

Mutators are deterministic ("seeded" by the artifact itself): they scan
in a fixed order and corrupt the first applicable site; a leaf
corruption takes the first site where it is *observable* (e.g. a
dropped residual entry is only dropped if its own pattern would have
selected it, so the drop changes first-match behavior). A mutator
returns a description of what it changed, or ``None`` when the
classifier has no applicable site.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ...engine.classifier import (
    _ADD,
    _ADDI,
    _SET,
    _SUB,
    _SUBI,
    _WRAP,
    CompiledClassifier,
    Fallback,
    _StagePlan,
)

_Mutator = Callable[[CompiledClassifier], Optional[str]]

_WRITE_CODES = (_ADD, _SUB, _ADDI, _SUBI, _SET)


def _clone_stage(sp: _StagePlan) -> _StagePlan:
    dup = _StagePlan()
    dup.kind = sp.kind
    dup.key_slots = sp.key_slots
    dup.flag_const = sp.flag_const
    dup.pred = sp.pred
    dup.exact = dict(sp.exact)
    dup.residual = sp.residual
    dup.miss_ops = sp.miss_ops
    return dup


def clone_classifier(clf: CompiledClassifier) -> CompiledClassifier:
    """A deep-enough copy: stage plans are cloned, leaves shared (they
    are immutable tuples — mutators replace, never modify in place)."""
    dup = CompiledClassifier(clf.vid, clf.epoch, clf.ok, clf.reason)
    dup.max_end = clf.max_end
    dup._parse = clf._parse
    dup._deparse = clf._deparse
    dup._stages = tuple(_clone_stage(sp) for sp in clf._stages)
    dup._run = clf._run  # equal plans: the same function serves both
    return dup


def mutate_swap_priorities(clf: CompiledClassifier) -> Optional[str]:
    """Swap two overlapping first-match entries with different leaves —
    the classic priority-inversion compiler bug."""
    for si, sp in enumerate(clf._stages):
        if len(sp.residual) >= 2:
            residual = list(sp.residual)
            for i in range(len(residual) - 1):
                m1, p1, l1 = residual[i]
                m2, p2, l2 = residual[i + 1]
                overlapping = (p1 ^ p2) & (m1 & m2) == 0
                if overlapping and l1 != l2:
                    residual[i], residual[i + 1] = \
                        residual[i + 1], residual[i]
                    sp.residual = tuple(residual)
                    return (f"stage plan {si}: residual entries {i} "
                            f"and {i + 1} swapped")
    return None


def mutate_drop_residual(clf: CompiledClassifier) -> Optional[str]:
    """Drop a residual entry that its own pattern would select (i.e.
    not shadowed by a higher-priority entry), so first-match changes."""
    for si, sp in enumerate(clf._stages):
        if not sp.residual:
            continue
        residual = list(sp.residual)
        for j, (mask, pattern, leaf) in enumerate(residual):
            first = next(i for i, (m, p, _l) in enumerate(residual)
                         if pattern & m == p)
            if first != j:
                continue  # shadowed: dropping it changes nothing
            after = residual[:j] + residual[j + 1:]
            new_leaf = next((l for m, p, l in after
                             if pattern & m == p), None)
            if new_leaf == leaf:
                continue  # a twin below would mask the drop
            sp.residual = tuple(after)
            return (f"stage plan {si}: residual entry {j} "
                    f"(pattern {pattern:#x}) dropped")
    return None


def _retarget(leaf: Tuple[Tuple[int, int, int, int, int], ...]
              ) -> Optional[Tuple[Tuple[Tuple[int, int, int, int, int],
                                        ...], str]]:
    ops = list(leaf)
    for k, op_tuple in enumerate(ops):
        code, slot, a, b, wrap = op_tuple
        if code not in _WRITE_CODES:
            continue
        new_slot = slot ^ 1  # stays inside the same width class
        ops[k] = (code, new_slot, a, b, wrap)
        return tuple(ops), f"op {k} retargeted c{slot} -> c{new_slot}"
    return None


def mutate_op_target(clf: CompiledClassifier) -> Optional[str]:
    """Point a compiled write at the wrong container — the symbolic
    replay must notice the PHV divergence."""
    for si, sp in enumerate(clf._stages):
        for key in sorted(sp.exact):
            leaf = sp.exact[key]
            if isinstance(leaf, Fallback):
                continue
            hit = _retarget(leaf)
            if hit is not None:
                sp.exact[key] = hit[0]
                return (f"stage plan {si}: exact key {key:#x} leaf, "
                        f"{hit[1]}")
        residual = list(sp.residual)
        for j, (mask, pattern, leaf) in enumerate(residual):
            if isinstance(leaf, Fallback):
                continue
            hit = _retarget(leaf)
            if hit is not None:
                residual[j] = (mask, pattern, hit[0])
                sp.residual = tuple(residual)
                return (f"stage plan {si}: residual entry {j} leaf, "
                        f"{hit[1]}")
        if sp.miss_ops is not None and \
                not isinstance(sp.miss_ops, Fallback):
            hit = _retarget(sp.miss_ops)
            if hit is not None:
                sp.miss_ops = hit[0]
                return f"stage plan {si}: miss leaf, {hit[1]}"
    return None


def mutate_exact_leaves(clf: CompiledClassifier) -> Optional[str]:
    """Swap the leaves of two exact-match keys."""
    for si, sp in enumerate(clf._stages):
        if sp.kind != 0 or len(sp.exact) < 2:
            continue
        keys = sorted(sp.exact)
        for i, k1 in enumerate(keys):
            for k2 in keys[i + 1:]:
                if sp.exact[k1] != sp.exact[k2]:
                    sp.exact[k1], sp.exact[k2] = \
                        sp.exact[k2], sp.exact[k1]
                    return (f"stage plan {si}: leaves of exact keys "
                            f"{k1:#x} and {k2:#x} swapped")
    return None


def mutate_fallback_reason(clf: CompiledClassifier) -> Optional[str]:
    """Mislabel a Fallback leaf's reason. Not behaviorally observable
    (the engine bails to the correct oracle either way) but must still
    be caught: fallback histograms feed capacity accounting."""
    swap = {"stateful": "unsupported-action",
            "unsupported-action": "stateful"}

    def rewrite(leaf: object) -> Optional[Fallback]:
        if isinstance(leaf, Fallback) and leaf.reason in swap:
            return Fallback(swap[leaf.reason])
        return None

    for si, sp in enumerate(clf._stages):
        for key in sorted(sp.exact):
            new = rewrite(sp.exact[key])
            if new is not None:
                sp.exact[key] = new
                return (f"stage plan {si}: exact key {key:#x} Fallback "
                        f"reason swapped to {new.reason!r}")
        residual = list(sp.residual)
        for j, (mask, pattern, leaf) in enumerate(residual):
            new = rewrite(leaf)
            if new is not None:
                residual[j] = (mask, pattern, new)
                sp.residual = tuple(residual)
                return (f"stage plan {si}: residual entry {j} Fallback "
                        f"reason swapped to {new.reason!r}")
        new = rewrite(sp.miss_ops)
        if new is not None:
            sp.miss_ops = new
            return (f"stage plan {si}: miss Fallback reason swapped "
                    f"to {new.reason!r}")
    return None


def mutate_parse_offset(clf: CompiledClassifier) -> Optional[str]:
    """Copy the first parsed field from one byte later in the packet."""
    if not clf._parse:
        return None
    off, end, flat = clf._parse[0]
    clf._parse = ((off + 1, end + 1, flat),) + clf._parse[1:]
    return f"parse copy 0 (c{flat}) moved from byte {off} to {off + 1}"


def mutate_drop_deparse(clf: CompiledClassifier) -> Optional[str]:
    """Drop the first deparse write-back: that container's new value
    never reaches the wire."""
    if not clf._deparse:
        return None
    off, end, flat, _size = clf._deparse[0]
    clf._deparse = clf._deparse[1:]
    return f"deparse write of c{flat} to bytes [{off}, {end}) dropped"


def mutate_drop_stage(clf: CompiledClassifier) -> Optional[str]:
    """Drop the first stage plan: its lookup and actions vanish."""
    if not clf._stages:
        return None
    clf._stages = clf._stages[1:]
    return "stage plan 0 dropped"


def mutate_key_slot(clf: CompiledClassifier) -> Optional[str]:
    """Fill a stage's first key slot from the wrong container (same
    width class)."""
    for si, sp in enumerate(clf._stages):
        if sp.key_slots:
            shift, slot_mask, flat = sp.key_slots[0]
            sp.key_slots = ((shift, slot_mask, flat ^ 1),) + \
                sp.key_slots[1:]
            return (f"stage plan {si}: key slot 0 reads c{flat ^ 1} "
                    f"instead of c{flat}")
    return None


def mutate_miss_write(clf: CompiledClassifier) -> Optional[str]:
    """Append a write to an exact stage's miss leaf: every key the CAM
    misses now sets container 0 to all ones."""
    for si, sp in enumerate(clf._stages):
        if sp.kind == 0 and not isinstance(sp.miss_ops, Fallback):
            sp.miss_ops = tuple(sp.miss_ops or ()) + \
                ((_SET, 0, 0, _WRAP[0], _WRAP[0]),)
            return f"stage plan {si}: miss leaf gained c0 := {_WRAP[0]:#x}"
    return None


#: Known corruptions, by name; iteration order is the harness order.
MUTATIONS: Dict[str, _Mutator] = {
    "swapped-priorities": mutate_swap_priorities,
    "dropped-residual-entry": mutate_drop_residual,
    "wrong-op-target": mutate_op_target,
    "swapped-exact-leaves": mutate_exact_leaves,
    "wrong-fallback-reason": mutate_fallback_reason,
    "parse-offset-off-by-one": mutate_parse_offset,
    "dropped-deparse-write": mutate_drop_deparse,
    "dropped-stage-plan": mutate_drop_stage,
    "flipped-key-slot": mutate_key_slot,
    "extra-miss-write": mutate_miss_write,
}


def apply_mutation(clf: CompiledClassifier, name: str
                   ) -> Tuple[CompiledClassifier, Optional[str]]:
    """Clone ``clf`` and apply one named mutation. Returns the (possibly
    unchanged) clone and what was mutated (``None`` = no applicable
    site in this classifier)."""
    mutator = MUTATIONS.get(name)
    if mutator is None:
        raise ValueError(f"unknown mutation {name!r}; known: "
                         f"{', '.join(MUTATIONS)}")
    dup = clone_classifier(clf)
    description = mutator(dup)
    dup.generate()  # serve the corrupted plans, not the original's
    return dup, description


__all__ = [
    "MUTATIONS",
    "apply_mutation",
    "clone_classifier",
]
