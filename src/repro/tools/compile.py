"""``python -m repro.tools.compile <module.p4>`` — compile and report.

Compiles a P4-16 module for the Menshen pipeline and prints the
allocation report: stages, key layouts, PHV containers, parse/deparse
programs, and resource usage. ``--name`` selects one of the built-in
evaluated modules instead of a file.
"""

from __future__ import annotations

import argparse
import sys

from ..api import compile as compile_source
from ..errors import ReproError


def format_report(module) -> str:
    lines = [f"module: {module.name}"]
    lines.append(f"stages used: {module.stages_used()}")
    lines.append("parse program:")
    for action in module.parse_actions:
        lines.append(f"  byte {action.bytes_from_head:3d} -> "
                     f"{action.container!r}")
    lines.append("deparse program:")
    for action in module.deparse_actions:
        lines.append(f"  {action.container!r} -> byte "
                     f"{action.bytes_from_head}")
    lines.append("tables:")
    for name in module.table_order:
        table = module.tables[name]
        keys = ", ".join(f"{dotted}@{slot}"
                         for slot, dotted, _ref in table.key_layout)
        lines.append(f"  {name}: stage {table.stage}, size {table.size}, "
                     f"{table.match_kind} key [{keys}]")
        if table.predicate_value is not None:
            lines.append(f"    predicate branch: flag="
                         f"{int(table.predicate_value)}")
        if table.default_action:
            lines.append(f"    default action: {table.default_action}")
        for action_name, action in table.actions.items():
            params = ", ".join(f"{n}:bit<{w}>" for n, w in action.params)
            ops = ", ".join(f"slot{t.slot}:{t.opcode.name}"
                            for t in action.slots)
            lines.append(f"    action {action_name}({params}): {ops}")
    if module.registers:
        lines.append("registers:")
        for name, spec in module.registers.items():
            lines.append(f"  {name}: {spec.size} x bit<{spec.width_bits}> "
                         f"in stage {spec.stage}")
    usage = module.resource_usage()
    lines.append(f"resource usage: {usage}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.tools.compile",
        description="Compile a P4-16 module for the Menshen pipeline")
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("source", nargs="?", help="P4 source file")
    group.add_argument("--builtin", metavar="NAME",
                       help="compile a built-in evaluated module "
                            "(calc, firewall, ...)")
    args = parser.parse_args(argv)

    try:
        if args.builtin:
            from ..modules import module_by_name
            mod = module_by_name(args.builtin)
            source, name = mod.P4_SOURCE, mod.NAME
        else:
            with open(args.source) as fileobj:
                source = fileobj.read()
            name = args.source
    except (ReproError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = compile_source(source, name)
    for finding in result.findings:
        print(finding, file=sys.stderr)
    if not result.ok:
        return 1
    print(format_report(result.module))
    return 0


if __name__ == "__main__":
    sys.exit(main())
