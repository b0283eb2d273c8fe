"""Tests for the determinism lint: every rule, pragma suppression, the
baseline mechanism, and the guarantee that src/repro itself is clean."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.findings import AnalysisReport, Severity
from repro.analysis.lint import (
    RULES,
    apply_baseline,
    lint_paths,
    lint_source,
    parse_pragmas,
)

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"


def codes(source, **kw):
    return [f.code for f in lint_source(textwrap.dedent(source), **kw)
            .findings]


class TestMutableGlobal:
    def test_mutated_module_dict_flagged(self):
        assert codes("""
            CACHE = {}
            def put(k, v):
                CACHE[k] = v
            """) == ["mutable-global"]

    def test_mutator_method_flagged(self):
        assert codes("""
            REGISTRY = []
            def register(x):
                REGISTRY.append(x)
            """) == ["mutable-global"]

    def test_global_rebinding_flagged(self):
        assert codes("""
            STATE = {"n": 0}
            def reset():
                global STATE
                STATE = {}
            """) == ["mutable-global"]

    def test_constant_table_not_flagged(self):
        assert codes("""
            OPCODES = {"add": 1, "sub": 2}
            def lookup(name):
                return OPCODES[name]
            """) == []

    def test_local_shadowing_not_flagged(self):
        assert codes("""
            POOL = []
            def build():
                POOL = []
                POOL.append(1)
                return POOL
            """) == []

    def test_parameter_shadowing_not_flagged(self):
        assert codes("""
            ITEMS = []
            def fill(ITEMS):
                ITEMS.append(1)
            """) == []


class TestUnseededRandom:
    def test_global_generator_call_flagged(self):
        assert codes("""
            import random
            def jitter():
                return random.random()
            """) == ["unseeded-random"]

    def test_unseeded_constructor_flagged(self):
        assert codes("""
            import random
            rng = random.Random()
            """) == ["unseeded-random"]

    def test_seeded_constructor_clean(self):
        assert codes("""
            import random
            rng = random.Random(1234)
            def jitter():
                return rng.random()
            """) == []

    def test_numpy_global_flagged(self):
        assert codes("""
            import numpy as np
            def noise():
                return np.random.rand()
            """) == ["unseeded-random"]


class TestWallClock:
    def test_time_time_flagged(self):
        assert codes("""
            import time
            def stamp():
                return time.time()
            """) == ["wall-clock"]

    def test_datetime_now_flagged(self):
        assert codes("""
            import datetime
            def stamp():
                return datetime.datetime.now()
            """) == ["wall-clock"]

    def test_monotonic_virtual_time_clean(self):
        assert codes("""
            def advance(clock, dt):
                return clock + dt
            """) == []


class TestSetIteration:
    def test_for_over_set_literal_name(self):
        assert codes("""
            def walk():
                seen = {1, 2, 3}
                for x in seen:
                    print(x)
            """) == ["set-iteration"]

    def test_comprehension_over_set_call(self):
        assert codes("""
            def walk(items):
                return [x for x in set(items)]
            """) == ["set-iteration"]

    def test_sorted_neutralizes(self):
        assert codes("""
            def walk(items):
                seen = set(items)
                return [x for x in sorted(seen)]
            """) == []

    def test_set_algebra_tracked(self):
        assert codes("""
            def walk(a, b):
                both = set(a) & set(b)
                for x in both:
                    print(x)
            """) == ["set-iteration"]

    def test_rebinding_to_list_clears_inference(self):
        assert codes("""
            def walk(items):
                xs = set(items)
                xs = sorted(xs)
                for x in xs:
                    print(x)
            """) == []

    def test_dict_iteration_clean(self):
        assert codes("""
            def walk(d):
                for k in d:
                    print(k)
            """) == []


class TestPragmas:
    def test_blanket_pragma_suppresses(self):
        assert codes("""
            import time
            def stamp():
                return time.time()  # repro-lint: disable
            """) == []

    def test_named_pragma_suppresses_only_that_rule(self):
        src = """
            import time, random
            def stamp():
                return time.time()  # repro-lint: disable=wall-clock
            def jitter():
                return random.random()  # repro-lint: disable=wall-clock
            """
        assert codes(src) == ["unseeded-random"]

    def test_parse_pragmas_maps_lines(self):
        pragmas = parse_pragmas(
            "x = 1  # repro-lint: disable=set-iteration, wall-clock\n"
            "y = 2  # repro-lint: disable\n")
        assert pragmas[1] == {"set-iteration", "wall-clock"}
        assert pragmas[2] is None


class TestBareAssert:
    def test_assert_flagged(self):
        assert codes("""
            def admit(n):
                assert n > 0
                return n
            """) == ["bare-assert"]

    def test_assert_with_message_still_flagged(self):
        # The message does not survive python -O either.
        assert codes("""
            def admit(n):
                assert n > 0, "n must be positive"
            """) == ["bare-assert"]

    def test_module_level_assert_flagged(self):
        assert codes("assert True\n") == ["bare-assert"]

    def test_raise_not_flagged(self):
        assert codes("""
            def admit(n):
                if n <= 0:
                    raise ValueError(n)
                return n
            """) == []

    def test_pragma_suppresses(self):
        assert codes("""
            def f(n):
                assert n  # repro-lint: disable=bare-assert
            """) == []


class TestEnvRead:
    @pytest.mark.parametrize("expr", [
        'os.environ["REPRO_MODE"]',
        'os.environ.get("REPRO_MODE", "off")',
        'os.getenv("REPRO_MODE")',
        'os.environb[b"REPRO_MODE"]',
        '"REPRO_MODE" in os.environ',
    ])
    def test_each_form_flagged(self, expr):
        assert codes(f"""
            import os
            def mode():
                return {expr}
            """) == ["env-read"]

    def test_from_import_flagged(self):
        assert codes("""
            from os import environ, getenv, path
            """) == ["env-read"]

    def test_other_os_use_clean(self):
        assert codes("""
            import os
            def here(name):
                return os.path.join(os.getcwd(), name), os.getpid()
            """) == []

    def test_explicit_argument_clean(self):
        # A local that happens to be called ``environ`` is not the
        # process environment.
        assert codes("""
            def mode(environ):
                return environ.get("REPRO_MODE")
            """) == []

    def test_pragma_suppresses(self):
        assert codes("""
            import os
            def mode():
                return os.getenv("X")  # repro-lint: disable=env-read
            """) == []


class TestDriver:
    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown lint rule"):
            lint_source("x = 1", rules=("made-up",))

    def test_rule_subset_filters(self):
        src = textwrap.dedent("""
            import time
            def f(s):
                for x in set(s):
                    print(x)
                return time.time()
            """)
        report = lint_source(src, rules=("wall-clock",))
        assert [f.code for f in report.findings] == ["wall-clock"]

    def test_syntax_error_becomes_finding(self):
        report = lint_source("def broken(:\n")
        assert [f.code for f in report.findings] == ["syntax-error"]
        assert report.findings[0].severity is Severity.ERROR

    def test_findings_carry_path_and_line(self):
        report = lint_source("import time\nt = time.time()\n",
                             path="pkg/mod.py")
        finding = report.findings[0]
        assert finding.subject == "pkg/mod.py" and finding.line == 2

    def test_baseline_subtracts_and_reports_stale(self):
        src = "import time\nt = time.time()\n"
        current = lint_source(src, path="m.py")
        fresh, stale = apply_baseline(current, current)
        assert fresh.findings == [] and stale == []
        empty = AnalysisReport()
        fresh, stale = apply_baseline(empty, current)
        assert fresh.findings == [] and len(stale) == 1


class TestRepoIsClean:
    def test_src_repro_has_no_hazards(self):
        """The committed baseline is empty and must stay empty: the
        serving core is free of nondeterminism hazards."""
        report = lint_paths([SRC_REPRO])
        assert report.findings == [], "\n".join(
            str(f) for f in report.findings)

    def test_committed_baseline_is_empty(self):
        baseline_file = SRC_REPRO.parent.parent / "lint-baseline.json"
        baseline = AnalysisReport.from_json(
            baseline_file.read_text(encoding="utf-8"))
        assert baseline.findings == []

    def test_all_rules_documented_in_rules_tuple(self):
        assert RULES == ("mutable-global", "unseeded-random",
                         "wall-clock", "set-iteration", "bare-assert",
                         "env-read")


def test_importing_the_library_leaves_multiprocessing_unloaded():
    """The timeline runs in one process. A fresh interpreter that
    imports every layer must not have pulled ``multiprocessing`` in,
    so a process fork cannot come back through an import nobody
    reads."""
    probe = ("import sys; "
             "import repro.api, repro.sim, repro.fabric, repro.chaos, "
             "repro.tools.info; "
             "sys.exit('multiprocessing' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, (
        result.stderr[-2000:] or "multiprocessing was imported")


def test_failing_property_reports_its_example_not_an_internal_error(tmp_path):
    """``pyproject.toml`` turns DeprecationWarnings into errors. A
    *failing* hypothesis property makes the plugin import its patch
    writer, whose ``libcst`` import warns — which must not end the
    session in a pytest ``INTERNALERROR``: the shrunk example is
    printed and the tests after it still run."""
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_falsifiable(x):
            assert x < 100

        def test_after():
            pass
        """))
    (tmp_path / "pyproject.toml").write_text(
        (SRC_REPRO.parent.parent / "pyproject.toml").read_text())
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = result.stdout + result.stderr
    assert "INTERNALERROR" not in output, output[-3000:]
    assert "Falsifying example" in output, output[-3000:]
    assert "1 failed, 1 passed" in output, output[-3000:]
