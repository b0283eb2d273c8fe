"""Seeded corruption of compiled classifiers — the certifier's test jig.

Each mutator clones a :class:`~repro.engine.classifier.CompiledClassifier`
and injects one *known* corruption of a kind a buggy compiler could
plausibly produce. Leaf corruptions: an off-by-one interval bound,
swapped priorities, a dropped residual entry, an op tuple writing the
wrong container, swapped exact-match leaves, a ``Fallback`` carrying
the wrong reason. Plan corruptions: a parse offset one byte late, a
dropped deparse write, a dropped stage plan, a key slot reading the
wrong container, a shifted compaction segment, interval arrays of
different lengths, a residual stage flattened to interval arrays, an
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

from typing import Any, Callable, Dict, Optional, Tuple

from ...engine.classifier import (
    _ADD,
    _ADDI,
    _SET,
    _SUB,
    _SUBI,
    _WRAP,
    CompiledClassifier,
    Fallback,
    _mask_segments,
    _StagePlan,
)
from .symbolic import compiled_effect

_Mutator = Callable[[CompiledClassifier], Optional[str]]

_WRITE_CODES = (_ADD, _SUB, _ADDI, _SUBI, _SET)


def _clone_stage(sp: _StagePlan) -> _StagePlan:
    dup = _StagePlan()
    dup.kind = sp.kind
    dup.key_slots = sp.key_slots
    dup.flag_const = sp.flag_const
    dup.pred = sp.pred
    dup.exact = dict(sp.exact)
    dup.segments = sp.segments
    dup.starts = list(sp.starts)
    dup.ends = list(sp.ends)
    dup.leaves = list(sp.leaves)
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
    return dup


def _full_compact(sp: _StagePlan) -> int:
    return (1 << sum(run.bit_length()
                     for _s, run, _o in sp.segments)) - 1


def _effect(leaf: Any) -> Any:
    """What a leaf does to a packet; every ``Fallback`` bails alike."""
    if isinstance(leaf, Fallback):
        return Fallback
    return compiled_effect(leaf or ())


def mutate_interval_bound(clf: CompiledClassifier) -> Optional[str]:
    """Off-by-one interval bound: extend an interval's end into a miss
    gap (so a key the CAM misses now hits the interval's leaf), or — if
    the partition has no gaps — shrink an interval instead. Only an
    interval whose leaf acts unlike the miss leaf is touched."""
    for si, sp in enumerate(clf._stages):
        if sp.kind != 1 or not sp.starts:
            continue
        full = _full_compact(sp)
        miss = _effect(sp.miss_ops)
        for i in range(len(sp.ends)):
            nxt = sp.starts[i + 1] if i + 1 < len(sp.starts) else full + 1
            if sp.ends[i] + 1 < nxt and _effect(sp.leaves[i]) != miss:
                sp.ends[i] += 1
                return (f"stage plan {si}: interval {i} end extended "
                        f"from {sp.ends[i] - 1:#x} to {sp.ends[i]:#x}")
        for i in range(len(sp.ends)):
            if sp.ends[i] > sp.starts[i] and _effect(sp.leaves[i]) != miss:
                sp.ends[i] -= 1
                return (f"stage plan {si}: interval {i} end shrunk "
                        f"from {sp.ends[i] + 1:#x} to {sp.ends[i]:#x}")
    return None


def mutate_swap_priorities(clf: CompiledClassifier) -> Optional[str]:
    """Swap the resolved leaves of two intervals (or two overlapping
    residual entries) — the classic priority-inversion compiler bug."""
    for si, sp in enumerate(clf._stages):
        if sp.kind == 1:
            for i in range(len(sp.leaves) - 1):
                a, b = sp.leaves[i], sp.leaves[i + 1]
                if a != b and not isinstance(a, Fallback) and \
                        not isinstance(b, Fallback):
                    sp.leaves[i], sp.leaves[i + 1] = b, a
                    return (f"stage plan {si}: leaves of intervals "
                            f"{i} and {i + 1} swapped")
        if sp.kind == 2 and len(sp.residual) >= 2:
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
        if sp.kind != 2 or not sp.residual:
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
        for i, leaf in enumerate(sp.leaves):
            if isinstance(leaf, Fallback):
                continue
            hit = _retarget(leaf)
            if hit is not None:
                sp.leaves[i] = hit[0]
                return f"stage plan {si}: interval {i} leaf, {hit[1]}"
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
        for i, leaf in enumerate(sp.leaves):
            new = rewrite(leaf)
            if new is not None:
                sp.leaves[i] = new
                return (f"stage plan {si}: interval {i} Fallback "
                        f"reason swapped to {new.reason!r}")
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


def mutate_segment_shift(clf: CompiledClassifier) -> Optional[str]:
    """Shift an interval stage's top compaction segment one key bit
    up, so the compacted key is read from the wrong bits."""
    for si, sp in enumerate(clf._stages):
        if sp.kind == 1 and sp.segments:
            shift, run_mask, out_shift = sp.segments[-1]
            sp.segments = sp.segments[:-1] + \
                ((shift + 1, run_mask, out_shift),)
            return (f"stage plan {si}: compaction segment at key bit "
                    f"{shift} shifted to {shift + 1}")
    return None


def mutate_ragged_intervals(clf: CompiledClassifier) -> Optional[str]:
    """Drop an interval stage's first start, leaving its end and leaf:
    ``starts`` is one shorter than ``ends`` and ``leaves``, so each
    later start pairs with the end before its own and every key
    misses."""
    for si, sp in enumerate(clf._stages):
        if sp.kind == 1 and sp.starts:
            start = sp.starts.pop(0)
            return (f"stage plan {si}: start {start:#x} of the first of "
                    f"{len(sp.ends)} intervals dropped")
    return None


def mutate_flatten_residual(clf: CompiledClassifier) -> Optional[str]:
    """Compile a residual stage as interval arrays: compaction segments
    from its key recipe, no intervals. Its entries' wildcard bits are
    not contiguous in the compacted key space — why the compiler kept
    them residual — so interval arrays cannot represent them."""
    for si, sp in enumerate(clf._stages):
        if sp.kind == 2 and sp.residual:
            mask = 0
            for shift, slot_mask, _flat in sp.key_slots:
                mask |= slot_mask << shift
            if sp.flag_const or sp.pred is not None:
                mask |= 1
            sp.kind, sp.segments, sp.residual = 1, _mask_segments(mask), ()
            sp.starts, sp.ends, sp.leaves = [], [], []
            return (f"stage plan {si}: residual stage compiled as "
                    f"empty interval arrays")
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
    "interval-bound-off-by-one": mutate_interval_bound,
    "swapped-priorities": mutate_swap_priorities,
    "dropped-residual-entry": mutate_drop_residual,
    "wrong-op-target": mutate_op_target,
    "swapped-exact-leaves": mutate_exact_leaves,
    "wrong-fallback-reason": mutate_fallback_reason,
    "parse-offset-off-by-one": mutate_parse_offset,
    "dropped-deparse-write": mutate_drop_deparse,
    "dropped-stage-plan": mutate_drop_stage,
    "flipped-key-slot": mutate_key_slot,
    "shifted-compaction-segment": mutate_segment_shift,
    "ragged-interval-arrays": mutate_ragged_intervals,
    "flattened-residual-stage": mutate_flatten_residual,
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
    return dup, description


__all__ = [
    "MUTATIONS",
    "apply_mutation",
    "clone_classifier",
]
