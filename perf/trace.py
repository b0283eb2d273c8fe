"""Outside-in span tracing for the benchmark.

The program under test has no timers of its own, so the benchmark
wraps its public callables *from outside*: :meth:`Tracer.install`
replaces each target (named ``"package.module:Class.attr"`` or
``"package.module:function"``) with a timing wrapper and
:meth:`Tracer.restore` puts the originals back. A target that no
longer exists is recorded in :attr:`Tracer.missing` and its span
reads ``None`` — the benchmark must outlive the layers it measures.

Open spans form a stack, so a span's *self* time is its duration minus
the part its child spans cover. Every span is aggregated by name
(count, total, self); while the first :data:`RAW_PACKETS` packets are
in flight the individual spans are kept too (name, start, end, parent,
packet id) and written out when the run ends.

Self times include the wrapper cost of a span's *children* (the part
of each child wrapper that runs outside the child's own clock reads);
``trace.overhead_pct`` bounds the distortion.

This is the only file in ``perf/`` that reads the clock.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

#: The benchmark's clock (seconds, monotonic).
now = time.perf_counter

#: Individual spans are kept until a packet with this id shows up.
RAW_PACKETS = 1000

#: What one reference slice takes, in seconds, at the machine speed
#: all reported times are normalised to (typical for the 2-core box
#: the baselines were taken on).
NOMINAL_SLICE_S = 0.0018

_ABSENT = object()


class Target(NamedTuple):
    """One callable to wrap, and the span name its time is booked to."""

    span: str
    path: str
    #: index into the wrapped call's positional arguments (``self``
    #: included) of a packet, for the per-packet span records
    packet_arg: Optional[int] = None
    #: ``probe(args, result) -> number`` sampled after each call; the
    #: maximum is kept in :attr:`Tracer.peaks`
    probe: Optional[Callable] = None


class SpanStat(NamedTuple):
    count: int
    total_s: float
    self_s: float


class Reference:
    """A fixed pure-Python kernel timed in small slices *between* the
    pieces of a workload, to know how fast the machine was meanwhile.

    The sandbox's speed wanders by a third over seconds to minutes
    (shared host), far more than any bound worth setting. The workloads
    and this kernel are both single-threaded interpreter work and slow
    down together, so a time divided by :meth:`since`'s *slowness* —
    measured slice time over :data:`NOMINAL_SLICE_S` — is steady where
    the raw time is not. Slices run inside timed regions; their own
    time is subtracted from those regions.
    """

    def __init__(self) -> None:
        self.seconds = 0.0
        self.slices = 0

    def slice(self) -> None:
        start = now()
        table = {}
        for i in range(10_000):
            table[i & 1023] = (i * 2654435761) & 0xFFFFFFFF
        self.seconds += now() - start
        self.slices += 1

    def burst(self, slices: int = 25) -> None:
        for _ in range(slices):
            self.slice()

    def mark(self) -> tuple:
        return self.seconds, self.slices

    def since(self, mark: tuple) -> tuple:
        """(seconds spent in slices, slowness) since ``mark``."""
        seconds, slices = self.seconds - mark[0], self.slices - mark[1]
        return seconds, seconds / (slices * NOMINAL_SLICE_S)


class Tracer:
    """Wraps callables, aggregates their spans, restores them."""

    def __init__(self) -> None:
        #: maps a packet object to its small integer id (or ``None``);
        #: set by whoever knows the packets
        self.packet_id: Optional[Callable] = None
        self.peaks: Dict[str, float] = {}
        #: span names none of whose targets resolved
        self.missing: List[str] = []
        #: [name, start, end, parent index, packet id] per kept span
        self.raw: List[list] = []
        self._stats: Dict[str, List[float]] = {}
        self._raw_open = False
        self._stack: List[list] = []     # [child seconds, raw index, pid]
        self._patched: List[tuple] = []  # (owner, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             packet_arg: Optional[int] = None,
             probe: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``."""
        stat = self._stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        raw = self.raw

        def wrapper(*args, **kwargs):
            frame = [0.0, -1, None]
            if self._raw_open:
                self._open_raw(name, frame, args, packet_arg)
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if frame[1] >= 0:
                    raw[frame[1]][1:3] = (start, end)
            if probe is not None:
                value = probe(args, result)
                if value > self.peaks.get(name, 0):
                    self.peaks[name] = value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _open_raw(self, name: str, frame: list, args: tuple,
                  packet_arg: Optional[int]) -> None:
        parent, pid = -1, None
        if self._stack:
            _child_s, parent, pid = self._stack[-1]
        if packet_arg is not None and self.packet_id is not None \
                and len(args) > packet_arg:
            packet = args[packet_arg]
            if packet is not None:
                pid = self.packet_id(packet)
        if pid is not None and pid >= RAW_PACKETS:
            self._raw_open = False
            return
        frame[1], frame[2] = len(self.raw), pid
        self.raw.append([name, 0.0, 0.0, parent, pid])

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A benchmark-owned span around a block of its own code
        (aggregated only, never kept individually)."""
        stat = self._stats.setdefault(name, [0, 0.0, 0.0])
        frame = [0.0, -1, None]
        self._stack.append(frame)
        start = now()
        try:
            yield
        finally:
            elapsed = now() - start
            self._stack.pop()
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    def install(self, targets: List[Target]) -> None:
        """Replace every resolvable target with its timing wrapper."""
        resolved = set()
        for target in targets:
            found = _resolve(target.path)
            if found is None:
                continue
            owner, attr = found
            original = vars(owner).get(attr, _ABSENT)
            plain = getattr(owner, attr) if original is _ABSENT \
                else original
            kind = type(plain) if isinstance(
                plain, (staticmethod, classmethod)) else None
            if kind is not None:
                plain = plain.__func__
            wrapped = self.wrap(target.span, plain, target.packet_arg,
                                target.probe)
            setattr(owner, attr,
                    kind(wrapped) if kind is not None else wrapped)
            self._patched.append((owner, attr, original))
            resolved.add(target.span)
        self.missing = sorted({t.span for t in targets} - resolved)

    def restore(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self, targets: List[Target]) -> Iterator["Tracer"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.restore()

    @property
    def active(self) -> bool:
        """Whether targets are currently wrapped."""
        return bool(self._patched)

    # -- reading ------------------------------------------------------------

    def keep_raw(self) -> None:
        """Start keeping individual spans (until packet RAW_PACKETS)."""
        self._raw_open = True

    def take(self) -> Dict[str, Optional[SpanStat]]:
        """The aggregates so far, by span name, and a fresh start.

        A span whose targets are all gone reads ``None``."""
        taken: Dict[str, Optional[SpanStat]] = {
            name: None for name in self.missing}
        for name, stat in self._stats.items():
            taken[name] = SpanStat(int(stat[0]), stat[1], stat[2])
            stat[:] = [0, 0.0, 0.0]
        return taken

    def write(self, path, spans: Dict[str, Optional[SpanStat]]) -> None:
        """Write aggregates and the kept individual spans as JSON."""
        document = {
            "spans": {name: stat._asdict() if stat is not None else None
                      for name, stat in sorted(spans.items())},
            "peaks": self.peaks,
            "missing": self.missing,
            "raw_fields": ["name", "start_s", "end_s", "parent",
                           "packet"],
            "raw": self.raw,
        }
        with open(path, "w") as handle:
            json.dump(document, handle)
            handle.write("\n")


def _resolve(path: str) -> Optional[tuple]:
    """``"pkg.mod:A.b"`` -> (owner object, attribute name), or ``None``
    when the module, an intermediate, or the attribute is gone."""
    module_name, _, dotted = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = dotted.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr
