"""Fixture-driven tests for the ``repro-lint`` invariant linter.

Each rule family gets a bad snippet (must fire) and a clean snippet
(must not), plus end-to-end checks of pragmas, baselines and the CLI.
"""

import json
import textwrap

import pytest

from repro.analysis import (
    Finding,
    all_rules,
    lint_file,
    lint_paths,
    load_baseline,
    parse_pragmas,
    partition_findings,
    select_rules,
    write_baseline,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.engine import LintError


def lint_source(tmp_path, source, name="snippet.py", select=None):
    """Write ``source`` to a temp module and lint it with all rules."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    rules = select_rules(select=select)
    return lint_file(path, rules)


def codes(findings):
    return sorted({f.code for f in findings})


class TestDeterminismRules:
    def test_stdlib_random_import_fires(self, tmp_path):
        findings = lint_source(tmp_path, "import random\n")
        assert "REPRO101" in codes(findings)

    def test_from_random_import_fires(self, tmp_path):
        findings = lint_source(tmp_path, "from random import shuffle\n")
        assert "REPRO101" in codes(findings)

    def test_numpy_legacy_global_rng_fires(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            x = np.random.rand(3)
            """,
        )
        assert "REPRO102" in codes(findings)

    def test_numpy_generator_construction_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng(0)
            x = rng.random(3)
            """,
        )
        assert "REPRO102" not in codes(findings)

    def test_wall_clock_fires_but_perf_counter_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time
            stamp = time.time()
            elapsed = time.perf_counter()
            """,
        )
        assert codes([f for f in findings if f.code == "REPRO103"]) == ["REPRO103"]
        assert sum(1 for f in findings if f.code == "REPRO103") == 1


class TestSpanWallClockRule:
    def _lint_as(self, tmp_path, source, module):
        """Lint ``source`` as if it lived at dotted ``module``."""
        import ast as ast_module

        from repro.analysis.rules.base import FileContext
        from repro.analysis.rules.determinism import SpanWallClock

        path = tmp_path / (module.rsplit(".", 1)[-1] + ".py")
        path.write_text(textwrap.dedent(source))
        text = path.read_text()
        ctx = FileContext(
            path=path,
            display_path=str(path),
            source=text,
            lines=text.splitlines(),
            tree=ast_module.parse(text),
            module=module,
        )
        return list(SpanWallClock().check(ctx))

    def test_monotonic_clock_in_span_function_fires(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def emit_span():
                return time.perf_counter()
            """,
        )
        assert "REPRO104" in codes(findings)

    def test_clock_anywhere_in_spans_module_fires(self, tmp_path):
        findings = self._lint_as(
            tmp_path,
            """
            import time

            def unrelated_helper():
                return time.monotonic()
            """,
            "repro.obs.spans",
        )
        assert [f.code for f in findings] == ["REPRO104"]

    def test_wall_helper_inside_span_code_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def finish_span(enabled):
                def _wall_now(gate):
                    return time.perf_counter() if gate else None

                return _wall_now(enabled)
            """,
        )
        assert "REPRO104" not in codes(findings)

    def test_monotonic_clock_outside_span_code_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import time

            def measure():
                return time.perf_counter()
            """,
        )
        assert "REPRO104" not in codes(findings)

    def test_pragma_suppresses(self, tmp_path):
        from repro.analysis.engine import lint_file as engine_lint_file
        from repro.analysis import select_rules as select

        path = tmp_path / "snippet.py"
        path.write_text(
            textwrap.dedent(
                """
                import time

                def emit_span():
                    return time.perf_counter()  # repro-lint: disable=REPRO104
                """
            )
        )
        findings = engine_lint_file(path, select(), warn_unused=True)
        assert "REPRO104" not in codes(findings)


class TestPrivacyProvenanceRule:
    def test_noise_draw_outside_privacy_fires(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng(0)
            noise = rng.laplace(0.0, 1.0)
            """,
        )
        assert "REPRO201" in codes(findings)

    def test_uniform_draw_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            import numpy as np
            rng = np.random.default_rng(0)
            u = rng.uniform()
            """,
        )
        assert "REPRO201" not in codes(findings)

    def test_privacy_package_exempt(self, tmp_path):
        package = tmp_path / "repro" / "privacy"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        module = package / "mech.py"
        module.write_text(
            "import numpy as np\n"
            "rng = np.random.default_rng(0)\n"
            "noise = rng.laplace(0.0, 1.0)\n"
        )
        findings = lint_file(module, select_rules())
        assert "REPRO201" not in codes(findings)


class TestNumericalSafetyRules:
    def test_float_equality_fires(self, tmp_path):
        findings = lint_source(tmp_path, "ok = (x == 0.5)\n")
        assert "REPRO301" in codes(findings)

    def test_integer_equality_clean(self, tmp_path):
        findings = lint_source(tmp_path, "ok = (x == 3)\n")
        assert "REPRO301" not in codes(findings)

    def test_mutable_default_fires(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(items=[]):
                return items
            """,
        )
        assert "REPRO302" in codes(findings)

    def test_none_default_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            def f(items=None):
                return items or []
            """,
        )
        assert "REPRO302" not in codes(findings)

    def test_bare_except_fires(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            try:
                risky()
            except:
                pass
            """,
        )
        assert "REPRO303" in codes(findings)


class TestApiHygieneRule:
    def test_undefined_all_entry_fires(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            __all__ = ["missing_name"]
            """,
        )
        assert "REPRO501" in codes(findings)

    def test_duplicate_all_entry_fires(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            __all__ = ["f", "f"]

            def f():
                return 1
            """,
        )
        assert "REPRO501" in codes(findings)

    def test_consistent_all_clean(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            __all__ = ["f", "CONST"]

            CONST = 1

            def f():
                return CONST
            """,
        )
        assert "REPRO501" not in codes(findings)


class TestPragmas:
    def test_same_line_pragma_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random  # repro-lint: disable=no-stdlib-random -- test fixture\n",
        )
        assert "REPRO101" not in codes(findings)

    def test_previous_line_pragma_suppresses(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            # repro-lint: disable=no-stdlib-random -- test fixture
            import random
            """,
        )
        assert "REPRO101" not in codes(findings)

    def test_pragma_is_rule_specific(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random  # repro-lint: disable=float-equality\n",
        )
        assert "REPRO101" in codes(findings)

    def test_disable_by_code(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random  # repro-lint: disable=REPRO101\n",
        )
        assert "REPRO101" not in codes(findings)

    def test_disable_file_pragma(self, tmp_path):
        findings = lint_source(
            tmp_path,
            """
            # repro-lint: disable-file=no-stdlib-random
            import random
            import random as rnd
            """,
        )
        assert "REPRO101" not in codes(findings)

    def test_parse_pragmas_grammar(self):
        line_pragmas, file_pragmas = parse_pragmas(
            "# repro-lint: disable-file=all-mismatch\n"
            "x = 1  # repro-lint: disable=float-equality,no-bare-except -- why\n"
        )
        assert file_pragmas == {"all-mismatch"}
        assert line_pragmas[2] == {"float-equality", "no-bare-except"}


class TestBaseline:
    def _finding(self, line=3):
        return Finding(
            path="pkg/mod.py",
            line=line,
            col=0,
            code="REPRO101",
            rule="no-stdlib-random",
            message="stdlib random imported",
        )

    def test_roundtrip_and_partition(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        lookup = {("pkg/mod.py", 3): "import random"}

        def line_lookup(finding):
            return lookup[(finding.path, finding.line)]

        count = write_baseline(baseline_path, [self._finding()], line_lookup)
        assert count == 1
        baseline = load_baseline(baseline_path)
        new, old = partition_findings([self._finding()], baseline, line_lookup)
        assert not new and len(old) == 1

    def test_baseline_survives_line_drift(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"

        def line_lookup(finding):
            return "import random"

        write_baseline(baseline_path, [self._finding(line=3)], line_lookup)
        baseline = load_baseline(baseline_path)
        # Same violation text, shifted ten lines down: still grandfathered.
        new, old = partition_findings([self._finding(line=13)], baseline, line_lookup)
        assert not new and len(old) == 1

    def test_new_violation_not_grandfathered(self, tmp_path):
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, [], lambda f: "")
        baseline = load_baseline(baseline_path)
        new, old = partition_findings([self._finding()], baseline, lambda f: "import random")
        assert len(new) == 1 and not old

    def test_bad_baseline_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 99}))
        with pytest.raises(ValueError):
            load_baseline(bad)


class TestEngine:
    def test_syntax_error_reported_not_raised(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        findings = lint_file(path, select_rules())
        assert codes(findings) == ["REPRO000"]

    def test_unknown_rule_raises(self):
        with pytest.raises(LintError):
            select_rules(select=["no-such-rule"])

    def test_lint_paths_counts_files(self, tmp_path):
        (tmp_path / "a.py").write_text("import random\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "c.py").write_text("import random\n")
        findings, checked = lint_paths([tmp_path])
        assert checked == 2
        assert codes(findings) == ["REPRO101"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(LintError):
            lint_paths([tmp_path / "nope"])

    def test_rule_catalogue_covers_all_families(self):
        families = {rule.code[:6] for rule in all_rules()}
        # REPRO1xx determinism, 2xx privacy, 3xx numerics, 5xx API
        # hygiene.
        assert {"REPRO1", "REPRO2", "REPRO3", "REPRO5"} <= families


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert lint_main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REPRO101" in out and "no-stdlib-random" in out

    def test_each_rule_family_fails_cli(self, tmp_path):
        snippets = {
            "determinism.py": "import random\n",
            "privacy.py": (
                "import numpy as np\n"
                "rng = np.random.default_rng(0)\n"
                "x = rng.laplace(0.0, 1.0)\n"
            ),
            "numerics.py": "flag = (value == 0.5)\n",
            "api.py": '__all__ = ["ghost"]\n',
        }
        for name, source in snippets.items():
            case_dir = tmp_path / name.replace(".py", "")
            case_dir.mkdir()
            (case_dir / name).write_text(source)
            assert lint_main([str(case_dir)]) == 1, name

    def test_select_limits_rules(self, tmp_path):
        (tmp_path / "bad.py").write_text("import random\nflag = (x == 0.5)\n")
        assert lint_main([str(tmp_path), "--select", "float-equality"]) == 1
        assert lint_main([str(tmp_path), "--select", "all-mismatch"]) == 0

    def test_ignore_drops_rule(self, tmp_path):
        (tmp_path / "bad.py").write_text("import random\n")
        assert lint_main([str(tmp_path), "--ignore", "no-stdlib-random"]) == 0

    def test_unknown_rule_exits_two(self, tmp_path):
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert lint_main([str(tmp_path), "--select", "bogus"]) == 2

    def test_json_format(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert lint_main([str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 1
        assert payload["findings"][0]["code"] == "REPRO101"

    def test_baseline_workflow(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        baseline = tmp_path / "baseline.json"
        args = [str(tmp_path), "--baseline", str(baseline)]
        assert lint_main(args + ["--update-baseline"]) == 0
        assert baseline.exists()
        capsys.readouterr()
        # Grandfathered: same violation now passes...
        assert lint_main(args) == 0
        assert "baselined" in capsys.readouterr().out
        # ...but a new violation still fails.
        (tmp_path / "worse.py").write_text("flag = (x == 0.5)\n")
        assert lint_main(args) == 1

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REPRO101", "REPRO201", "REPRO301", "REPRO501"):
            assert code in out
        assert "REPRO401" not in out

    def test_statistics_footer(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text("import random\n")
        assert lint_main([str(tmp_path), "--statistics"]) == 1
        assert "no-stdlib-random" in capsys.readouterr().out


class TestHotPathRule:
    def _hot_module(self, tmp_path, source, module="core/subproblem.py"):
        """Materialize ``source`` as a fake ``repro.core.subproblem``."""
        root = tmp_path / "repro"
        target = root / module
        target.parent.mkdir(parents=True, exist_ok=True)
        current = target.parent
        while current != tmp_path:
            (current / "__init__.py").write_text("")
            current = current.parent
        target.write_text(textwrap.dedent(source))
        return lint_file(target, select_rules())

    def test_file_index_loop_fires(self, tmp_path):
        findings = self._hot_module(
            tmp_path,
            """
            def polish(cached_files):
                total = 0.0
                for file_index in cached_files:
                    total += file_index
                return total
            """,
        )
        assert "REPRO304" in codes(findings)

    def test_outer_dual_iteration_allowed(self, tmp_path):
        findings = self._hot_module(
            tmp_path,
            """
            def ascend(max_iter):
                for iteration in range(max_iter):
                    pass
            """,
        )
        assert "REPRO304" not in codes(findings)

    def test_cold_module_ignored(self, tmp_path):
        findings = self._hot_module(
            tmp_path,
            """
            def anything(groups):
                for group in groups:
                    pass
            """,
            module="experiments/helpers.py",
        )
        assert "REPRO304" not in codes(findings)

    def test_solver_module_is_hot(self, tmp_path):
        findings = self._hot_module(
            tmp_path,
            """
            def step(items):
                for item in items:
                    pass
            """,
            module="solvers/fractional_knapsack.py",
        )
        assert "REPRO304" in codes(findings)


class TestSelfLint:
    #: Codes with committed ratchet entries in ``.repro-lint-baseline.json``:
    #: REPRO304 accepted scalar loops (polish passes and adds, exhaustive
    #: reference oracle, chunk dispatch) and REPRO601 single-threaded
    #: setup/teardown writes to module globals (registry/recorder
    #: activation, per-worker-process ledgers).
    RATCHETED_CODES = frozenset({"REPRO304", "REPRO601"})

    def test_repo_src_tree_is_clean(self):
        """No findings outside the committed ratchet codes, and every
        ratcheted finding is suppressed by the baseline file."""
        import pathlib

        import repro
        from repro.analysis import load_baseline

        src_root = pathlib.Path(repro.__file__).parent
        findings, checked = lint_paths([src_root], warn_unused=True)
        assert checked > 50
        unratcheted = [f for f in findings if f.code not in self.RATCHETED_CODES]
        assert unratcheted == [], "\n".join(f.render() for f in unratcheted)
        baseline_path = src_root.parent.parent / ".repro-lint-baseline.json"
        baseline = load_baseline(baseline_path)
        new, _grandfathered = partition_findings(findings, baseline)
        assert new == [], "\n".join(f.render() for f in new)


class TestUnguardedSharedMutation:
    MODULE = "registry.py"

    def _lint_threaded(self, tmp_path, source):
        """Lint ``source`` as if it were ``repro.perf.registry``."""
        from repro.analysis.rules.base import FileContext
        from repro.analysis.rules.threading import UnguardedSharedMutation

        import ast as ast_module

        path = tmp_path / self.MODULE
        path.write_text(textwrap.dedent(source))
        text = path.read_text()
        ctx = FileContext(
            path=path,
            display_path=str(path),
            source=text,
            lines=text.splitlines(),
            tree=ast_module.parse(text),
            module="repro.perf.registry",
        )
        return list(UnguardedSharedMutation().check(ctx))

    def test_global_write_fires(self, tmp_path):
        findings = self._lint_threaded(
            tmp_path,
            """
            _active = None

            def activate(registry):
                global _active
                _active = registry
            """,
        )
        assert codes(findings) == ["REPRO601"]
        assert "_active" in findings[0].message

    def test_global_mutating_call_fires_without_global_stmt(self, tmp_path):
        findings = self._lint_threaded(
            tmp_path,
            """
            _SINKS = []

            def install(sink):
                _SINKS.append(sink)
            """,
        )
        assert codes(findings) == ["REPRO601"]

    def test_lock_guarded_global_write_clean(self, tmp_path):
        findings = self._lint_threaded(
            tmp_path,
            """
            import threading

            _lock = threading.Lock()
            _active = None

            def activate(registry):
                global _active
                with _lock:
                    _active = registry
            """,
        )
        assert findings == []

    def test_self_mutation_in_lock_owning_class_fires(self, tmp_path):
        findings = self._lint_threaded(
            tmp_path,
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.counters = {}

                def reset(self):
                    self.counters.clear()
            """,
        )
        assert codes(findings) == ["REPRO601"]
        assert "self.counters" in findings[0].message

    def test_self_mutation_under_lock_clean(self, tmp_path):
        findings = self._lint_threaded(
            tmp_path,
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.counters = {}

                def count(self, name):
                    with self._lock:
                        self.counters[name] = self.counters.get(name, 0) + 1
            """,
        )
        assert findings == []

    def test_init_is_exempt(self, tmp_path):
        findings = self._lint_threaded(
            tmp_path,
            """
            import threading

            class Registry:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.counters = {}
                    self.counters["boot"] = 1
            """,
        )
        assert findings == []

    def test_lockless_class_self_mutation_clean(self, tmp_path):
        findings = self._lint_threaded(
            tmp_path,
            """
            class Accumulator:
                def push(self, value):
                    self.values.append(value)
            """,
        )
        assert findings == []

    def test_lock_named_attribute_is_not_a_lock(self, tmp_path):
        """A name containing "lock" (``_agg_blocks``) does not make a class
        lock-owning: only a ``Lock()``/``RLock()`` or a ``with`` does."""
        findings = self._lint_threaded(
            tmp_path,
            """
            class Agent:
                def __init__(self):
                    self._agg_blocks = None
                    self.seen = 0

                def ingest(self, blocks):
                    self._agg_blocks = blocks
                    self.seen += 1
            """,
        )
        assert findings == []

    def test_setattr_lock_makes_class_lock_owning(self, tmp_path):
        findings = self._lint_threaded(
            tmp_path,
            """
            import threading

            class Instance:
                def __init__(self):
                    object.__setattr__(self, "_derived_lock", threading.RLock())

                def remember(self, key, value):
                    with self._derived_lock:
                        self.cache = {key: value}
                    self.hits = 1
            """,
        )
        assert codes(findings) == ["REPRO601"]
        assert "self.hits" in findings[0].message

    def test_untargeted_module_is_skipped(self, tmp_path):
        from repro.analysis.rules.base import FileContext
        from repro.analysis.rules.threading import UnguardedSharedMutation

        import ast as ast_module

        source = "_active = None\n\ndef activate(r):\n    global _active\n    _active = r\n"
        path = tmp_path / "elsewhere.py"
        path.write_text(source)
        ctx = FileContext(
            path=path,
            display_path=str(path),
            source=source,
            lines=source.splitlines(),
            tree=ast_module.parse(source),
            module="repro.network.messaging",
        )
        assert list(UnguardedSharedMutation().check(ctx)) == []


class TestUnusedPragmas:
    def test_unused_pragma_is_repro502(self, tmp_path):
        from repro.analysis.engine import lint_file as engine_lint_file

        path = tmp_path / "snippet.py"
        path.write_text("x = 1  # repro-lint: disable=REPRO101\n")
        findings = engine_lint_file(path, select_rules(), warn_unused=True)
        assert codes(findings) == ["REPRO502"]
        assert "REPRO101" in findings[0].message

    def test_used_pragma_not_reported(self, tmp_path):
        from repro.analysis.engine import lint_file as engine_lint_file

        path = tmp_path / "snippet.py"
        path.write_text("import random  # repro-lint: disable=REPRO101\n")
        findings = engine_lint_file(path, select_rules(), warn_unused=True)
        assert findings == []

    def test_warn_off_by_default_in_engine(self, tmp_path):
        path = tmp_path / "snippet.py"
        path.write_text("x = 1  # repro-lint: disable=REPRO101\n")
        assert lint_file(path, select_rules()) == []

    def test_cli_reports_unused_by_default(self, tmp_path, capsys):
        path = tmp_path / "snippet.py"
        path.write_text("x = 1  # repro-lint: disable=REPRO101\n")
        assert lint_main([str(path)]) == 1
        assert "REPRO502" in capsys.readouterr().out

    def test_cli_no_warn_flag_disables(self, tmp_path, capsys):
        path = tmp_path / "snippet.py"
        path.write_text("x = 1  # repro-lint: disable=REPRO101\n")
        assert lint_main([str(path), "--no-warn-unused-pragmas"]) == 0
        capsys.readouterr()

    def test_update_baseline_never_ratchets_repro502(self, tmp_path, capsys):
        path = tmp_path / "snippet.py"
        path.write_text("x = 1  # repro-lint: disable=REPRO101\n")
        baseline = tmp_path / "baseline.json"
        lint_main([str(path), "--baseline", str(baseline), "--update-baseline"])
        capsys.readouterr()
        assert json.loads(baseline.read_text())["fingerprints"] == {}


class TestSarifRendering:
    def _finding(self):
        return Finding(
            path="src/repro/core/problem.py",
            line=12,
            col=5,
            code="REPRO101",
            rule="stdlib-random",
            message="nondeterministic RNG",
        )

    def test_sarif_structure(self):
        from repro.analysis.reporters import render_sarif

        sarif = json.loads(
            render_sarif([self._finding()], tool_name="repro-lint")
        )
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == ["REPRO101"]
        result = run["results"][0]
        assert result["ruleId"] == "REPRO101"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/core/problem.py"
        assert location["region"]["startLine"] == 12

    def test_cli_sarif_format(self, tmp_path, capsys):
        path = tmp_path / "snippet.py"
        path.write_text("import random\n")
        lint_main([str(path), "--format", "sarif"])
        sarif = json.loads(capsys.readouterr().out)
        assert [r["ruleId"] for r in sarif["runs"][0]["results"]] == ["REPRO101"]
