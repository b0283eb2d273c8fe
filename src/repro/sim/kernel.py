"""A minimal discrete-event simulation kernel.

Classic event-queue design: the heap holds ``(time, sequence, event)``
tuples; :meth:`Simulator.run` pops them in time order. The sequence
number makes simultaneous events deterministic (FIFO), and because it
is unique the tuple comparison is decided on the first two fields, in
C — it never reaches the :class:`Event` or its unorderable callback.
An event carries its handler and the handler's arguments (the NS-2
event-list shape), so scheduling one builds no closure.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..errors import ReproError


class SimulationError(ReproError):
    """Scheduling into the past, or a run whose event list emptied
    with packets still queued."""


class Event:
    """The handle :meth:`Simulator.schedule` returns: cancel it and the
    kernel skips it when its time comes."""

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None], args: tuple) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """Event-driven simulator with a virtual clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0
        self.events_processed = 0

    def schedule(self, delay: float,
                 callback: Callable[..., None], *args: object) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` time units from
        now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: {delay}")
        event = Event(self.now + delay, self._seq, callback, args)
        self._seq += 1
        heapq.heappush(self._queue, (event.time, event.seq, event))
        return event

    def schedule_at(self, time: float,
                    callback: Callable[..., None], *args: object) -> Event:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        return self.schedule(time - self.now, callback, *args)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Process events until the queue empties, ``until`` passes, or
        ``max_events`` fire. Returns the final clock value."""
        processed = 0
        queue = self._queue
        while queue:
            if max_events is not None and processed >= max_events:
                break
            time, _seq, event = queue[0]
            if until is not None and time > until:
                self.now = until
                break
            heapq.heappop(queue)
            if event.cancelled:
                continue
            self.now = time
            event.callback(*event.args)
            processed += 1
            self.events_processed += 1
        else:
            if until is not None:
                self.now = until
        return self.now

    def pending(self) -> int:
        return sum(1 for _time, _seq, event in self._queue
                   if not event.cancelled)
