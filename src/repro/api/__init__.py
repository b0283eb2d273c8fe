"""``repro.api`` — the unified tenant-session API.

The canonical way to drive the reproduction. One import gives the whole
control surface, P4Runtime-style:

.. code-block:: python

    from repro.api import Switch

    switch = Switch.build().stages(5).create()
    fw = switch.admit("fw", firewall.P4_SOURCE, vid=1)
    fw.table("acl").insert(match={"hdr.udp.dstPort": 53}, action="block")
    with fw.transaction() as txn:
        txn.table("acl").insert(match={...}, action="allow",
                                params={"port": 2})
    result = switch.process(packet)

Everything a tenant can do hangs off its :class:`Tenant` handle, so
behavior isolation is enforced at the API boundary
(:class:`~repro.errors.TenantIsolationError`), not by convention. The
layered modules (:mod:`repro.core`, :mod:`repro.runtime`,
:mod:`repro.compiler`) stay importable for tests and benchmarks that
need the internals.
"""

from ..analysis import (
    AnalysisReport,
    Finding,
    Severity,
    analyze_source,
)
from ..errors import (
    AnalysisError,
    CompilationFailed,
    TenantIsolationError,
    TransactionError,
)
from ..chaos import (
    ChaosController,
    ChaosEvent,
    ChaosSchedule,
    PostMortemReport,
    RecoveryController,
    ReplacedTenant,
)
from ..engine import BatchEngine, EgressScheduler, EngineCounters
from ..exec import ExecutionCore, ExecutionSink, LostRecord
from ..rmt.entry_types import ActionCall, Exact, Match, TableEntry, Ternary
from .compile_report import CompileResult, StageUsage, compile
from .switch import (
    PendingEntry,
    RegisterHandle,
    Switch,
    SwitchBuilder,
    TableHandle,
    Tenant,
    TenantCounters,
    Transaction,
)

__all__ = [
    # entry vocabulary
    "Exact",
    "Ternary",
    "Match",
    "ActionCall",
    "TableEntry",
    # compile surface
    "compile",
    "CompileResult",
    "StageUsage",
    "CompilationFailed",
    # static analysis
    "AnalysisError",
    "AnalysisReport",
    "Finding",
    "Severity",
    "analyze_source",
    # session surface
    "Switch",
    "SwitchBuilder",
    "Tenant",
    "TenantCounters",
    "TableHandle",
    "RegisterHandle",
    "Transaction",
    "PendingEntry",
    # batched serving + the unified execution core
    "BatchEngine",
    "EngineCounters",
    "EgressScheduler",
    "ExecutionCore",
    "ExecutionSink",
    "LostRecord",
    # chaos & recovery
    "ChaosEvent",
    "ChaosSchedule",
    "ChaosController",
    "RecoveryController",
    "PostMortemReport",
    "ReplacedTenant",
    # errors
    "TenantIsolationError",
    "TransactionError",
]
