"""Typed records of a serving run's outcomes.

:class:`LostRecord` is the typed currency for lost traffic: *which
tenant* lost *how many* packets on *which link* (a downed wire, or the
``switch:<name>`` pseudo-link of a crashed switch), aggregated and
deterministically ordered, so a run's losses compare with a chaos
post-mortem's and with an expected list in one shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple


@dataclass(frozen=True, order=True)
class LostRecord:
    """Losses of one tenant on one link."""

    vid: int
    link: str
    count: int


def summarize_lost(pairs: Iterable[Tuple[int, str]]) -> List[LostRecord]:
    """Aggregate ``(vid, link name)`` loss events into sorted records."""
    counts: Dict[Tuple[int, str], int] = {}
    for vid, link in pairs:
        counts[(vid, link)] = counts.get((vid, link), 0) + 1
    return [LostRecord(vid=vid, link=link, count=count)
            for (vid, link), count in sorted(counts.items())]
