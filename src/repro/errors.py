"""Exception hierarchy for the Menshen reproduction.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch a single type at API boundaries. Sub-hierarchies mirror
the major subsystems: packet crafting, the RMT/Menshen data plane, the
compiler, the runtime interface, and resource policies.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


# ---------------------------------------------------------------------------
# Packet / net substrate
# ---------------------------------------------------------------------------

class PacketError(ReproError):
    """Malformed packet bytes or invalid header field values."""


class TruncatedPacketError(PacketError):
    """A header view extends past the end of the packet buffer."""


class FieldRangeError(PacketError):
    """A header field was assigned a value outside its bit width."""


# ---------------------------------------------------------------------------
# RMT / Menshen data plane
# ---------------------------------------------------------------------------

class DataPlaneError(ReproError):
    """Base class for errors in the behavioral pipeline."""


class EncodingError(DataPlaneError):
    """A configuration entry failed bit-level encoding or decoding."""


class ConfigError(DataPlaneError):
    """A configuration write targeted an invalid table, index, or width."""


class IsolationViolationError(DataPlaneError):
    """An operation would have crossed a module isolation boundary.

    Raised, e.g., when a stateful-memory access falls outside the module's
    segment-table range, or when a config write would touch another
    module's partition. In real hardware these are silently prevented;
    the simulator raises so tests can assert the guard fired.
    """


class SegmentFaultError(IsolationViolationError):
    """A per-module stateful-memory address exceeded the module's range."""


class ReconfigurationError(DataPlaneError):
    """The reconfiguration protocol was violated or a packet was rejected."""


class TenantIsolationError(IsolationViolationError):
    """A tenant-scoped API operation tried to cross a VID boundary.

    Raised by the :mod:`repro.api` facade when, e.g., a tenant handle
    names a table owned by a different tenant. The lower layers would
    also refuse the eventual write (the partition ledger / segment
    table), but the facade rejects it at the object-capability boundary
    so the caller learns *whose* resource it touched."""


# ---------------------------------------------------------------------------
# Fabric (multi-switch topologies)
# ---------------------------------------------------------------------------

class FabricError(ReproError):
    """Base class for errors in the multi-switch fabric layer."""


class TopologyError(FabricError):
    """Invalid fabric graph construction: unknown switch, port already
    wired, port out of range, or a self-loop link."""


class LinkDownError(FabricError):
    """A packet or route needed a link that is administratively down.

    Raised both at route computation time (no up path between two
    switches) and at forwarding time (a scheduled departure left on a
    fabric port whose link went down after placement)."""


class PlacementError(FabricError):
    """Tenant placement failed: every candidate path crosses a switch
    with no free module slot, or a user pin names a switch that cannot
    host the tenant."""


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------

class CompilerError(ReproError):
    """Base class for compiler errors; carries source location if known."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (at line {line}, column {column})"
        super().__init__(message)


class LexerError(CompilerError):
    """Unrecognized character or malformed token in P4 source."""


class ParseError(CompilerError):
    """P4 source does not conform to the supported grammar subset."""


class TypeCheckError(CompilerError):
    """A name is undefined, redefined, or used at the wrong type/width."""


class StaticCheckError(CompilerError):
    """Module violates a Menshen static-safety rule (VID write, stats
    write, recirculation, or routing loop)."""


class ResourceError(CompilerError):
    """Module exceeds its allocated share of a pipeline resource."""


class AllocationError(CompilerError):
    """The compiler could not place tables into stages or fields into
    PHV containers under the hardware constraints."""


class CompilationFailed(CompilerError):
    """A :class:`repro.api.CompileResult` with errors was unwrapped.

    Carries the structured findings so callers that do want an
    exception still get all of them, not just the first one."""

    def __init__(self, message: str, findings=()):
        self.findings = list(findings)
        super().__init__(message)


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------

class AnalysisError(ReproError):
    """A :mod:`repro.analysis` report with ERROR findings was enforced.

    Carries the full structured finding list (``.findings``) so callers
    on the exception path still see every violation, not just the
    summary string."""

    def __init__(self, message: str, findings=()):
        self.findings = list(findings)
        super().__init__(message)


# ---------------------------------------------------------------------------
# Runtime / policy
# ---------------------------------------------------------------------------

class RuntimeInterfaceError(ReproError):
    """Software-to-hardware interface misuse (unknown module/table, bad
    entry, interface in the wrong protocol state)."""


class TransactionError(RuntimeInterfaceError):
    """A transactional reconfiguration batch failed.

    Every operation that had already been applied was rolled back
    through the same daisy-chain protocol before this was raised; the
    original failure is chained as ``__cause__``."""


class AdmissionError(ReproError):
    """A module's resource request was rejected by admission control."""


class PolicyError(ReproError):
    """A resource-sharing policy was configured inconsistently."""
