"""Menshen's static safety checks (§3.4).

Three properties are analyzed on the typed AST before lowering:

1. **No stats writes** — modules must not modify the hardware statistics
   the system-level module exposes (read-only ``standard_metadata``
   fields).
2. **No VID writes** — a module may not modify its VLAN ID: the written
   byte range of every assigned field must not overlap the TCI bytes
   [14, 16). (Changing the VID could redirect packets into another
   module's identity on a downstream device.)
3. **No recirculation** — ``recirculate()``/``resubmit()``/``clone()``
   are rejected; recirculating steals shared ingress bandwidth from
   other modules.

Loop freedom of routing tables is a control-plane check
(:func:`repro.analysis.passes.find_loop`), run against the actual
next-hop relation a placement installs.
"""

from __future__ import annotations

from ..errors import StaticCheckError
from .ast_nodes import AssignStmt, PrimitiveCall
from .typecheck import Env

#: Byte range of the VLAN TCI (the VID lives in its low 12 bits).
VID_BYTE_RANGE = (14, 16)

_FORBIDDEN_PRIMITIVES = {"recirculate", "resubmit", "clone"}


def check_module(env: Env) -> None:
    """Run all static checks; raises :class:`StaticCheckError`."""
    control = env.program.control
    for action in control.actions:
        for stmt in action.body:
            if isinstance(stmt, PrimitiveCall):
                name = stmt.target.parts[-1]
                if name in _FORBIDDEN_PRIMITIVES:
                    raise StaticCheckError(
                        f"action {action.name!r} calls {name}(): modules "
                        f"must not recirculate packets (they share ingress "
                        f"bandwidth with other modules)", stmt.line)
                continue
            if not isinstance(stmt, AssignStmt):
                continue
            target = stmt.target
            if env.is_metadata_ref(target):
                name, _width, writable = env.metadata_field(target)
                if not writable:
                    raise StaticCheckError(
                        f"action {action.name!r} writes "
                        f"standard_metadata.{name}: hardware statistics "
                        f"are read-only for modules", stmt.line)
                continue
            if len(target.parts) == 1:
                continue  # parameter writes are rejected by typecheck
            info = env.resolve_field(target)
            lo, hi = info.byte_offset, info.byte_offset + info.width_bytes
            if lo < VID_BYTE_RANGE[1] and VID_BYTE_RANGE[0] < hi:
                raise StaticCheckError(
                    f"action {action.name!r} writes {info.dotted!r} "
                    f"(bytes [{lo}, {hi})), overlapping the VLAN TCI "
                    f"bytes {VID_BYTE_RANGE}: modules may not modify "
                    f"their VID", stmt.line)
