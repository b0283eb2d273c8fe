"""Smoke test of the benchmark itself, at a tiny ``--scale``.

Checks the contract between ``BENCHMARK.json`` and what the runner
emits, determinism in the seed, and that tracing leaves the program
exactly as it found it. Timing is not asserted.
"""

import os

import pytest

from perf import layers, run, trace, workloads
from perf.trace import Target, Tracer

SCALE = 0.02
SEED = 7
SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


def _attribute(path):
    owner, attr = trace._resolve(path)
    return vars(owner).get(attr)


@pytest.fixture(scope="module")
def results():
    """One traced run of every workload, the program's ``REPRO_*``
    knobs unset as ``perf.run``'s entry point leaves them."""
    with pytest.MonkeyPatch.context() as patch:
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            patch.delenv(key)
        before = {t.path: _attribute(t.path) for t in layers.TARGETS}
        traced = {name: run.run_workload(name, SEED, seconds=0, trace=True,
                                         scale=SCALE, min_passes=1)
                  for name in NAMES}
        after = {t.path: _attribute(t.path) for t in layers.TARGETS}
        again = run.run_workload("engine_zipf", SEED, seconds=0,
                                 scale=SCALE, min_passes=1)
        other = workloads.EngineZipf(seed=SEED + 1, scale=SCALE)
        other.setup()
    return {"traced": traced, "before": before, "after": after,
            "again": again, "other": other}


@pytest.mark.parametrize("name", NAMES)
def test_emits_exactly_the_declared_metrics(results, name):
    result = results["traced"][name]
    per_layer = run.emitted(result, SPEC)
    end_to_end = run.emitted({**result, "trace": False}, SPEC)
    assert list(per_layer["metrics"]) == \
        [m["name"] for m in SPEC["per_layer"]]
    assert set(result["per_layer"]) == set(per_layer["metrics"])
    assert list(end_to_end["metrics"]) == \
        [m["name"] for m in SPEC["end_to_end"]]
    assert set(result["end_to_end"]) == set(end_to_end["metrics"])
    for emitted in (per_layer, end_to_end):
        assert set(emitted) == {"correct", "attempted", "failed", "metrics"}
        for metric in emitted["metrics"].values():
            assert isinstance(metric["value"], (int, float))
    assert all(value > 0 for value in result["end_to_end"].values())


@pytest.mark.parametrize("name", NAMES)
def test_no_packet_fails(results, name):
    result = results["traced"][name]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert result["correct"], result["problems"]
    assert result["missing_targets"] == []


def test_same_seed_same_outputs_other_seed_other_packets(results):
    traced = results["traced"]["engine_zipf"]
    again, other = results["again"], results["other"]
    assert again["sim_digest"] == traced["sim_digest"]
    assert again["input_digest"] == traced["input_digest"]
    assert other.input_digest() != traced["input_digest"]


def test_tracing_restores_every_wrapped_attribute(results):
    assert results["before"] == results["after"]
    for path, attribute in results["after"].items():
        assert not hasattr(attribute, "__wrapped__"), path


def test_vanished_target_reads_null_and_is_emitted_as_zero():
    tracer = Tracer()
    with tracer.installed([
            Target("engine.gone", "repro.engine.batch:NoSuchEngine.run"),
            Target("nowhere.gone", "repro.no_such_module:f")]):
        spans = tracer.take()
    assert spans == {"engine.gone": None, "nowhere.gone": None}
    assert tracer.missing == ["engine.gone", "nowhere.gone"]
    result = {"trace": True, "correct": True, "attempted": 1, "failed": 0,
              "per_layer": {m["name"]: None for m in SPEC["per_layer"]}}
    assert all(metric["value"] == 0.0 for metric
               in run.emitted(result, SPEC)["metrics"].values())
