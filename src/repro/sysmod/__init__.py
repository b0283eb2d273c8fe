"""The Menshen system-level module (§3.3)."""

from .system_module import SYSTEM_P4_SOURCE, system_entries

__all__ = [
    "SYSTEM_P4_SOURCE",
    "system_entries",
]
