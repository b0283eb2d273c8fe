"""``python -m repro.tools.info`` — print the hardware parameters.

Dumps the Table-5 design point (and the derived geometry) the library
models, plus the table inventory used by the area models. ``--json``
emits the same inventory as machine-readable JSON for downstream
tooling (dashboards, config generators) instead of the human table.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from ..engine.batch import (
    CERTIFY_MODES,
    FALLBACK_REASONS,
    EngineCounters,
    EngineTenantCounters,
)
from ..rmt.params import CORUNDUM_PARAMS, DEFAULT_PARAMS, NETFPGA_PARAMS


def _analysis_info() -> dict:
    """The static-analysis surface: pass names, lint rules, and the
    classifier certifier's obligation catalog — introspected from
    :mod:`repro.analysis` so this section can never drift from it.
    """
    from ..analysis import CONFIG_PASSES, MODULE_PASSES
    from ..analysis.equiv import CERTIFICATE_SCHEMA_VERSION, OBLIGATIONS
    from ..analysis.lint import RULES

    return {
        "module_passes": [p.name for p in MODULE_PASSES],
        "config_passes": [p.name for p in CONFIG_PASSES],
        "lint_rules": list(RULES),
        "certifier": {
            "obligations": list(OBLIGATIONS),
            "certificate_schema_version": CERTIFICATE_SCHEMA_VERSION,
            "modes": list(CERTIFY_MODES),
        },
    }


def _engine_info() -> dict:
    """The serving engine's hot-path shape and counter schema.

    Counter names are introspected from the dataclasses so this section
    can never drift from :mod:`repro.engine.batch`.
    """
    scalar = ("per_tenant", "classifier_fallbacks")
    return {
        "hot_path_levels": [
            {"level": 1, "name": "flow_cache",
             "counter": "cache_hits",
             "description": "exact-match hit on the tenant's LRU shard"},
            {"level": 2, "name": "compiled_classifier",
             "counter": "compiled_hits",
             "description": "compiled hash/first-match classification of "
                            "the installed tables (flow cache v2)"},
            {"level": 3, "name": "scalar_pipeline",
             "counter": "classifier_fallbacks",
             "description": "interpreted stage-by-stage walk (the "
                            "differential oracle)"},
        ],
        "counters": [f.name for f in dataclasses.fields(EngineCounters)
                     if f.name not in scalar],
        "tenant_counters": [f.name for f in
                            dataclasses.fields(EngineTenantCounters)],
        "fallback_reasons": list(FALLBACK_REASONS),
        "counter_units": {
            "invalidations": "flushed cache entries",
            "invalidation_calls": "invalidate() calls",
        },
    }


def info_dict() -> dict:
    """The Table-5 parameters and table inventory, as plain data."""
    p = DEFAULT_PARAMS
    return {
        "analysis": _analysis_info(),
        "engine": _engine_info(),
        "params": {
            "containers_per_type": p.containers_per_type,
            "container_sizes": list(p.container_sizes),
            "metadata_bytes": p.metadata_bytes,
            "phv_bytes": p.phv_bytes,
            "num_containers": p.num_containers,
            "parse_actions_per_entry": p.parse_actions_per_entry,
            "parse_action_bits": p.parse_action_bits,
            "parser_entry_bits": p.parser_entry_bits,
            "parser_table_depth": p.parser_table_depth,
            "key_bytes": p.key_bytes,
            "key_bits": p.key_bits,
            "cam_entry_bits": p.cam_entry_bits,
            "match_entries_per_stage": p.match_entries_per_stage,
            "alu_action_bits": p.alu_action_bits,
            "vliw_entry_bits": p.vliw_entry_bits,
            "vliw_entries_per_stage": p.vliw_entries_per_stage,
            "stateful_words_per_stage": p.stateful_words_per_stage,
            "stateful_word_bits": p.stateful_word_bits,
            "segment_entry_bits": p.segment_entry_bits,
            "segment_table_depth": p.segment_table_depth,
            "num_stages": p.num_stages,
            "module_id_bits": p.module_id_bits,
            "max_modules": p.max_modules,
        },
        "platforms": {
            name: {"clock_mhz": plat.clock_mhz,
                   "bus_width_bits": plat.bus_width_bits,
                   "bus_bytes": plat.bus_bytes}
            for name, plat in (("netfpga_sume", NETFPGA_PARAMS),
                               ("corundum", CORUNDUM_PARAMS))
        },
        "table_inventory": p.table_inventory(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-info",
        description="Menshen prototype hardware parameters "
                    "(paper Table 5)")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON instead of "
                             "the human-readable table")
    args = parser.parse_args(argv)
    if args.json:
        print(json.dumps(info_dict(), indent=2, sort_keys=True))
        return 0

    p = DEFAULT_PARAMS
    print("Menshen prototype hardware parameters (paper Table 5)")
    print(f"  PHV: {p.containers_per_type} containers each of "
          f"{p.container_sizes} bytes + {p.metadata_bytes} B metadata "
          f"= {p.phv_bytes} B, {p.num_containers} ALUs")
    print(f"  parser/deparser: {p.parse_actions_per_entry} actions x "
          f"{p.parse_action_bits} b = {p.parser_entry_bits}-bit entries, "
          f"{p.parser_table_depth} deep")
    print(f"  key: {p.key_bytes} B + predicate flag = {p.key_bits} bits; "
          f"CAM word {p.cam_entry_bits} bits x "
          f"{p.match_entries_per_stage} entries/stage")
    print(f"  VLIW: {p.num_containers} x {p.alu_action_bits} b = "
          f"{p.vliw_entry_bits}-bit instructions, "
          f"{p.vliw_entries_per_stage} deep")
    print(f"  stateful: {p.stateful_words_per_stage} x "
          f"{p.stateful_word_bits}-bit words/stage, segment entries "
          f"{p.segment_entry_bits} b x {p.segment_table_depth}")
    print(f"  pipeline: {p.num_stages} stages, module id "
          f"{p.module_id_bits} bits, max {p.max_modules} modules")
    print("platforms:")
    for name, plat in [("NetFPGA SUME", NETFPGA_PARAMS),
                       ("Corundum", CORUNDUM_PARAMS)]:
        print(f"  {name}: {plat.clock_mhz} MHz, {plat.bus_width_bits}-bit "
              f"bus ({plat.bus_bytes} B/cycle)")
    print("table inventory (width_bits x depth, per_stage):")
    for table, spec in p.table_inventory().items():
        print(f"  {table}: {spec['width_bits']} x {spec['depth']}"
              f"{'  (per stage)' if spec['per_stage'] else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
