"""PIFO scheduling for inter-module bandwidth sharing (§3.5).

The paper scopes output-link bandwidth isolation out of Menshen proper
but points at the solution:

    "Proposals like PIFO can be used here, by assigning PIFO ranks to
    different modules to realize a desired inter-module
    bandwidth-sharing policy."

This module holds the rank computer of that suggestion: Start-Time Fair
Queueing (STFQ) turns per-module weights into the ranks a Push-In-
First-Out queue (Sivaraman et al., SIGCOMM 2016) dequeues in order,
which yields weighted-fair bandwidth shares. The queue itself — one
PIFO per output port, with rate limits and a transmission clock — is
:class:`repro.engine.scheduler.EgressScheduler`.
"""

from __future__ import annotations

from typing import Dict

from ..errors import ConfigError


class StfqRanker:
    """Start-Time Fair Queueing ranks over per-module weights.

    rank = max(virtual_time, module's last virtual finish);
    finish = rank + length / weight. Backlogged modules then share the
    link proportionally to their weights regardless of arrival pattern —
    a flooding module cannot crowd out the others.
    """

    def __init__(self, weights: Dict[int, float],
                 default_weight: float = 1.0):
        for module_id, weight in weights.items():
            if weight <= 0:
                raise ConfigError(
                    f"module {module_id}: weight must be positive")
        self.weights = dict(weights)
        self.default_weight = default_weight
        self.virtual_time = 0.0
        self._last_finish: Dict[int, float] = {}

    def weight_of(self, module_id: int) -> float:
        return self.weights.get(module_id, self.default_weight)

    def rank(self, module_id: int, length_bytes: int) -> float:
        start = max(self.virtual_time,
                    self._last_finish.get(module_id, 0.0))
        self._last_finish[module_id] = (
            start + length_bytes / self.weight_of(module_id))
        return start

    def on_dequeue(self, rank: float) -> None:
        """Advance virtual time to the served packet's start tag."""
        self.virtual_time = max(self.virtual_time, rank)
