"""Baseline RMT (Reconfigurable Match Tables) pipeline substrate.

This package implements the behavioral model of an RMT pipeline as
described by Bosshart et al. (SIGCOMM 2013) at the parameter point used by
Menshen's prototype (Table 5 of the paper):

* a 128-byte PHV of 25 containers (8 x 2 B, 8 x 4 B, 8 x 6 B, 32 B metadata),
* a table-driven programmable parser and deparser,
* per-stage key extraction (24-byte key + 1 predicate bit), exact-match
  CAM lookup, VLIW action tables driving 25 parallel ALUs, and
  stateful memory,
* five processing stages and a traffic manager.

All configuration entries use the exact bit widths of the paper
(``repro.rmt.encodings``), so they can ride inside reconfiguration
packets byte-for-byte. Isolation primitives (overlays, segment tables,
packet filter) live in :mod:`repro.core`, layered on top of this package.
"""

from .params import HardwareParams, DEFAULT_PARAMS
from .phv import (
    PHV,
    ContainerRef,
    ContainerType,
    Metadata,
)
from .parser import ProgrammableParser, ParseAction
from .deparser import Deparser
from .key_extractor import KeyExtractor, KeyExtractEntry, CmpOp
from .match_table import ExactMatchTable, TernaryMatchTable, CamEntry, TernaryEntry
from .entry_types import Exact, Ternary, Match, ActionCall, TableEntry
from .action import AluOp, AluAction, VliwInstruction
from .action_engine import ActionEngine, StatefulAccess
from .stateful import StatefulMemory
from .stage import Stage
from .pipeline import RmtPipeline, PipelineResult
from .traffic_manager import TrafficManager
from .pifo import StfqRanker
from .cuckoo import CuckooExactTable, CuckooInsertError

__all__ = [
    "HardwareParams",
    "DEFAULT_PARAMS",
    "PHV",
    "ContainerRef",
    "ContainerType",
    "Metadata",
    "ProgrammableParser",
    "ParseAction",
    "Deparser",
    "KeyExtractor",
    "KeyExtractEntry",
    "CmpOp",
    "ExactMatchTable",
    "TernaryMatchTable",
    "CamEntry",
    "TernaryEntry",
    "Exact",
    "Ternary",
    "Match",
    "ActionCall",
    "TableEntry",
    "AluOp",
    "AluAction",
    "VliwInstruction",
    "ActionEngine",
    "StatefulAccess",
    "StatefulMemory",
    "Stage",
    "RmtPipeline",
    "PipelineResult",
    "TrafficManager",
    "StfqRanker",
    "CuckooExactTable",
    "CuckooInsertError",
]
