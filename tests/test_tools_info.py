"""`repro-info` console tool: human table and ``--json`` output."""

import json

import pytest

from repro.rmt.params import DEFAULT_PARAMS
from repro.tools.info import info_dict, main


def test_json_flag_emits_parseable_inventory(capsys):
    assert main(["--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    p = DEFAULT_PARAMS
    assert data["params"]["num_stages"] == p.num_stages
    assert data["params"]["max_modules"] == p.max_modules
    assert data["params"]["cam_entry_bits"] == p.cam_entry_bits
    assert data["params"]["alu_action_bits"] == p.alu_action_bits
    assert data["params"]["container_sizes"] == list(p.container_sizes)
    assert set(data["platforms"]) == {"netfpga_sume", "corundum"}
    for plat in data["platforms"].values():
        assert plat["bus_bytes"] == plat["bus_width_bits"] // 8
    # The table inventory round-trips shape and content.
    assert data["table_inventory"] == p.table_inventory()


def test_json_engine_section(capsys):
    """The engine section documents the three-level hot path and its
    counter schema, and can never drift from the dataclasses."""
    import dataclasses

    from repro.engine.batch import EngineCounters, EngineTenantCounters

    assert main(["--json"]) == 0
    engine = json.loads(capsys.readouterr().out)["engine"]

    levels = engine["hot_path_levels"]
    assert [lvl["level"] for lvl in levels] == [1, 2, 3]
    assert [lvl["name"] for lvl in levels] == \
        ["flow_cache", "compiled_classifier", "scalar_pipeline"]

    counter_fields = {f.name for f in dataclasses.fields(EngineCounters)}
    assert set(engine["counters"]) <= counter_fields
    assert {"cache_hits", "compiled_hits", "invalidations",
            "invalidation_calls", "compile_rebuilds"} <= \
        set(engine["counters"])
    assert set(engine["tenant_counters"]) == \
        {f.name for f in dataclasses.fields(EngineTenantCounters)}

    assert set(engine["fallback_reasons"]) == \
        {"stateful", "unsupported-action", "uncompilable", "parse-window",
         "uncertified"}
    # The satellite-1 unit fix is part of the documented schema.
    assert engine["counter_units"]["invalidations"] == \
        "flushed cache entries"
    assert engine["counter_units"]["invalidation_calls"] == \
        "invalidate() calls"


def test_json_analysis_section(capsys):
    """The analysis section mirrors the live pass/rule/obligation
    registries, so downstream tooling can discover them without
    importing the library."""
    from repro.analysis import CONFIG_PASSES, MODULE_PASSES
    from repro.analysis.equiv import CERTIFICATE_SCHEMA_VERSION, OBLIGATIONS
    from repro.analysis.lint import RULES
    from repro.engine.batch import CERTIFY_MODES

    assert main(["--json"]) == 0
    analysis = json.loads(capsys.readouterr().out)["analysis"]

    assert analysis["module_passes"] == [p.name for p in MODULE_PASSES]
    assert analysis["config_passes"] == [p.name for p in CONFIG_PASSES]
    assert analysis["lint_rules"] == list(RULES)
    assert "bare-assert" in analysis["lint_rules"]

    certifier = analysis["certifier"]
    assert certifier["obligations"] == list(OBLIGATIONS)
    assert certifier["certificate_schema_version"] == \
        CERTIFICATE_SCHEMA_VERSION
    assert certifier["modes"] == list(CERTIFY_MODES)
    assert "env_var" not in certifier


def test_json_exec_section(capsys):
    """There is one execution backend and nothing to select, so the
    JSON advertises no backend registry."""
    assert main(["--json"]) == 0
    assert "exec" not in json.loads(capsys.readouterr().out)


def test_json_matches_info_dict(capsys):
    main(["--json"])
    assert json.loads(capsys.readouterr().out) == \
        json.loads(json.dumps(info_dict()))


def test_human_output_unchanged_by_default(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "Menshen prototype hardware parameters" in out
    assert "table inventory" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)