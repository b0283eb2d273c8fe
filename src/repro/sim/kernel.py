"""A minimal discrete-event simulation kernel.

Classic event-queue design, the NS-2 event-list shape: each heap entry
is a plain ``(time, sequence, handler, args)`` tuple, and
:meth:`Simulator.run` pops them in time order. The sequence number
makes simultaneous events deterministic (FIFO), and because it is
unique the tuple comparison is decided on the first two fields, in C —
it never reaches the unorderable handler. Scheduling builds no closure
and no event object, and returns nothing: an event cannot be cancelled.
A handler whose work may have gone stale checks its own state when it
fires instead (an execution-core service event compares its time with
the port's ``service_at`` slot), and a packet never starts a
transmission a later control event could change (the execution core's
control horizon).
"""

from __future__ import annotations

import heapq
from math import inf
from typing import Callable, List, Optional, Tuple

from ..errors import ReproError


class SimulationError(ReproError):
    """Scheduling into the past or at a non-finite time, running to a
    time before the clock or to a non-finite one, or a run whose event
    list emptied with packets still queued."""


class Simulator:
    """Event-driven simulator with a virtual clock."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: List[Tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = 0
        self.events_processed = 0

    def schedule(self, delay: float,
                 callback: Callable[..., None], *args: object) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` time units from
        now. A negative, NaN or infinite delay is a
        :class:`SimulationError`."""
        if not 0 <= delay < inf:
            raise SimulationError(
                f"cannot schedule into the past: {delay}" if delay < 0
                else f"delay must be finite, got {delay}")
        heapq.heappush(self._queue,
                       (self.now + delay, self._seq, callback, args))
        self._seq += 1

    def schedule_at(self, time: float,
                    callback: Callable[..., None], *args: object) -> None:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        self.schedule(time - self.now, callback, *args)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Process events until the queue empties, ``until`` passes, or
        ``max_events`` fire. Returns the final clock value.

        An ``until`` before the clock, NaN or infinite is a
        :class:`SimulationError`: the clock never runs backwards, so no
        later event can fire before one already processed, and never
        leaves the finite times every event is scheduled at."""
        if until is not None and not self.now <= until < inf:
            raise SimulationError(
                f"cannot run backwards: until={until} is before "
                f"now={self.now}" if until < self.now
                else f"until must be a finite time, got {until}")
        processed = 0
        queue = self._queue
        while queue:
            if max_events is not None and processed >= max_events:
                break
            if until is not None and queue[0][0] > until:
                self.now = until
                break
            time, _seq, callback, args = heapq.heappop(queue)
            self.now = time
            callback(*args)
            processed += 1
            self.events_processed += 1
        else:
            if until is not None:
                self.now = until
        return self.now

    def pending(self) -> int:
        """Events scheduled and not yet run."""
        return len(self._queue)
