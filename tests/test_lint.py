"""Tests for the simlint static-analysis suite (``repro.lint``).

Each rule is exercised against fixture modules stored as plain data
under ``tests/lint_fixtures/`` and linted under *virtual* paths via
:func:`repro.lint.lint_sources`, so the path-scoped rules fire exactly
as they would on real package files — without planting deliberately
broken code inside ``src/repro``.
"""

import json
import pathlib
import shutil

import pytest

from repro.lint import RULES, lint_paths, lint_sources, main

FIXTURES = pathlib.Path(__file__).parent / "lint_fixtures"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Virtual paths that land fixtures inside each rule's scope.
NET = "src/repro/net/example.py"
SIM = "src/repro/sim/example.py"
EXPERIMENTS = "src/repro/experiments/example.py"


def fixture_text(name):
    return (FIXTURES / f"{name}.py").read_text(encoding="utf-8")


def lint_fixture(name, virtual_path, select):
    return lint_sources(
        {virtual_path: fixture_text(name)}, select=set(select.split(","))
    )


def lines(report, code=None):
    return sorted(
        f.line for f in report.findings if code is None or f.rule == code
    )


# ---------------------------------------------------------------------------
# D001: no ambient randomness in simulation-domain packages
# ---------------------------------------------------------------------------


class TestD001:
    def test_bad_fixture_flags_every_route(self):
        report = lint_fixture("d001_bad", NET, "D001")
        assert all(f.rule == "D001" for f in report.findings)
        # from-import, silent Random(0) fallback, module-level draw
        assert lines(report) == [4, 10, 14]

    def test_good_fixture_is_clean(self):
        report = lint_fixture("d001_good", NET, "D001")
        assert report.ok
        assert report.suppressed == 0

    def test_rule_is_scoped_to_sim_packages(self):
        # The same bad code outside sim/net/cc/traffic is not D001's
        # business (experiments code seeds rngs from job fields).
        report = lint_fixture("d001_bad", EXPERIMENTS, "D001")
        assert report.ok


# ---------------------------------------------------------------------------
# D002: no wall-clock reads in simulation-domain code
# ---------------------------------------------------------------------------


class TestD002:
    def test_bad_fixture_flags_wall_clock_reads(self):
        report = lint_fixture("d002_bad", SIM, "D002")
        assert all(f.rule == "D002" for f in report.findings)
        assert lines(report) == [5, 9, 10]

    def test_good_fixture_is_clean(self):
        assert lint_fixture("d002_good", SIM, "D002").ok

    def test_executor_and_runlog_are_allowlisted(self):
        # Telemetry timestamps are wall-clock on purpose.
        for allowed in (
            "src/repro/experiments/executor.py",
            "src/repro/experiments/runlog.py",
        ):
            report = lint_fixture("d002_bad", allowed, "D002")
            assert report.ok, allowed


# ---------------------------------------------------------------------------
# D003: unordered set iteration escaping into outputs
# ---------------------------------------------------------------------------


class TestD003:
    def test_bad_fixture_flags_order_escapes(self):
        report = lint_fixture("d003_bad", SIM, "D003")
        assert all(f.rule == "D003" for f in report.findings)
        assert lines(report) == [6, 12, 13]

    def test_sorted_is_the_sanctioned_normalizer(self):
        assert lint_fixture("d003_good", SIM, "D003").ok


# ---------------------------------------------------------------------------
# P001: scenario runners and Job fields must survive pickling
# ---------------------------------------------------------------------------


class TestP001:
    def test_bad_fixture_flags_nested_runner_and_lambda(self):
        report = lint_fixture("p001_bad", EXPERIMENTS, "P001")
        assert all(f.rule == "P001" for f in report.findings)
        # the nested runner anchors on its ``def`` line, the lambda on
        # the Job field that carries it
        assert lines(report) == [8, 19]
        nested, lam = report.findings
        assert "module-level" in nested.message
        assert "lambda" in lam.message

    def test_good_fixture_is_clean(self):
        assert lint_fixture("p001_good", EXPERIMENTS, "P001").ok


# ---------------------------------------------------------------------------
# H001: content-hash stability
# ---------------------------------------------------------------------------


class TestH001:
    def test_bad_fixture_flags_each_instability(self):
        report = lint_fixture("h001_bad", EXPERIMENTS, "H001")
        assert all(f.rule == "H001" for f in report.findings)
        # hash(), unsorted json.dumps, undeclared field, and the
        # display-only field (anchored on its declaration) leaking
        # into describe()
        assert lines(report) == [8, 12, 19, 21]

    def test_good_fixture_is_clean(self):
        assert lint_fixture("h001_good", EXPERIMENTS, "H001").ok


# ---------------------------------------------------------------------------
# E001: no blind excepts on worker execution paths
# ---------------------------------------------------------------------------


class TestE001:
    def test_bad_fixture_flags_blind_handlers(self):
        report = lint_fixture("e001_bad", EXPERIMENTS, "E001")
        assert all(f.rule == "E001" for f in report.findings)
        # except Exception, bare except, BaseException inside a tuple
        assert lines(report) == [7, 16, 20]

    def test_typed_or_justified_handlers_pass(self):
        report = lint_fixture("e001_good", EXPERIMENTS, "E001")
        assert report.ok
        assert report.suppressed == 1  # the justified teardown handler

    def test_rule_is_scoped_to_experiments(self):
        assert lint_fixture("e001_bad", SIM, "E001").ok


# ---------------------------------------------------------------------------
# T001: measurement storage must be telemetry probes
# ---------------------------------------------------------------------------


class TestT001:
    def test_bad_fixture_flags_bare_measurement_lists(self):
        report = lint_fixture("t001_bad", NET, "T001")
        assert all(f.rule == "T001" for f in report.findings)
        # plain list, list() spelling, annotated form, comprehension
        assert lines(report) == [6, 7, 8, 11]

    def test_probes_and_honest_state_pass(self):
        assert lint_fixture("t001_ok", NET, "T001").ok

    def test_rule_is_scoped_to_sim_packages(self):
        # The telemetry package itself (and the experiment layer) may
        # hold raw lists — probes need internal storage somewhere.
        assert lint_fixture("t001_bad", EXPERIMENTS, "T001").ok

    def test_suppression_requires_a_reason(self):
        src = (
            "class M:\n"
            "    def __init__(self):\n"
            "        self.drop_times = []  # simlint: disable=T001\n"
        )
        report = lint_sources({NET: src}, select={"T001"})
        assert len(report.findings) == 1
        assert "requires a justification" in report.findings[0].message


# ---------------------------------------------------------------------------
# R001: registry consistency (project-wide rule)
# ---------------------------------------------------------------------------


R001_VIRTUAL = {
    "src/repro/experiments/__init__.py": "r001/init_bad",
    "src/repro/experiments/fig01_good.py": "r001/fig01_good",
    "src/repro/experiments/fig02_missing_api.py": "r001/fig02_missing_api",
    "src/repro/experiments/ext_widget.py": "r001/ext_widget",
    "src/repro/experiments/jobs_registry.py": "r001/jobs_registry",
}


class TestR001:
    @pytest.fixture()
    def report(self):
        sources = {
            path: fixture_text(name) for path, name in R001_VIRTUAL.items()
        }
        return lint_sources(sources, select={"R001"})

    def test_every_drift_is_caught(self, report):
        messages = [f.message for f in report.findings]
        assert len(messages) == 6

        def one(substring):
            hits = [m for m in messages if substring in m]
            assert len(hits) == 1, (substring, messages)
            return hits[0]

        # fig02 lacks reduce
        assert "define reduce at" in one("'fig02_missing_api' does not define")
        # ALL_FIGURES points at a module that does not exist
        assert "fig03_ghost" in one("no such module exists")
        # key "fig9" maps to a module whose name disagrees
        assert "fig01_good" in one("does not match the expected fig9*")
        # a complete extension module the tables forgot
        one("'ext_widget' is not listed")
        # a job names a scenario nothing registers
        assert "available: alpha" in one("scenario 'ghost_scenario'")
        # the same scenario name registered twice
        one("scenario 'alpha' is registered more than once")

    def test_clean_subset_is_clean(self):
        # A well-formed module plus its registry, and a module-level
        # @scenario beside the jobs() that uses it: nothing to report.
        report = lint_sources(
            {
                "src/repro/experiments/fig01_good.py": fixture_text(
                    "r001/fig01_good"
                ),
                "src/repro/experiments/fig04_own_scenario.py": fixture_text(
                    "r001/fig04_own_scenario"
                ),
                "src/repro/experiments/jobs_registry.py": fixture_text(
                    "r001/jobs_registry"
                ).replace('@scenario("alpha")  # duplicate', '@scenario("beta")  #'),
            },
            select={"R001"},
        )
        assert report.ok

    def test_scenario_check_skipped_without_registry_in_view(self):
        # Partial lint runs (a single figure file) must not flag every
        # scenario name just because the registry module is not loaded.
        report = lint_sources(
            {
                "src/repro/experiments/fig02_missing_api.py": fixture_text(
                    "r001/fig02_missing_api"
                )
            },
            select={"R001"},
        )
        assert all(
            "ghost_scenario" not in f.message for f in report.findings
        )


# ---------------------------------------------------------------------------
# Suppression directives
# ---------------------------------------------------------------------------


class TestSuppressions:
    def test_line_scoped_suppression_with_reason(self):
        report = lint_fixture("suppressions", NET, "D001")
        assert lines(report) == [13]  # only the loud draw survives
        assert report.suppressed == 1

    def test_reason_required_suppression_without_reason_survives(self):
        report = lint_fixture("suppressions", EXPERIMENTS, "E001")
        assert len(report.findings) == 1
        assert report.suppressed == 0
        assert "requires a justification" in report.findings[0].message
        assert "disable=E001(reason)" in report.findings[0].message

    def test_file_wide_suppression(self):
        src = (
            "# simlint: disable-file=D001(fixture-wide waiver)\n"
            "import random\n"
            "r = random.Random(0)\n"
            "x = random.random()\n"
        )
        report = lint_sources({NET: src}, select={"D001"})
        assert report.ok
        assert report.suppressed == 2

    def test_suppression_in_string_literal_is_ignored(self):
        src = (
            "import random\n"
            's = "# simlint: disable-file=D001"\n'
            "r = random.Random(0)\n"
        )
        report = lint_sources({NET: src}, select={"D001"})
        assert lines(report) == [3]

    def test_multiple_codes_one_directive(self):
        src = (
            "import random, time\n"
            "def f():\n"
            "    return random.random(), time.time()  "
            "# simlint: disable=D001(demo), D002(demo)\n"
        )
        report = lint_sources({SIM: src}, select={"D001", "D002"})
        assert report.ok
        assert report.suppressed == 2


# ---------------------------------------------------------------------------
# Engine behaviour
# ---------------------------------------------------------------------------


class TestEngine:
    def test_syntax_error_yields_x000(self):
        report = lint_sources({SIM: "def broken(:\n"})
        assert [f.rule for f in report.findings] == ["X000"]
        assert "syntax error" in report.findings[0].message

    def test_report_dict_schema(self):
        report = lint_fixture("d001_bad", NET, "D001")
        payload = report.as_dict()
        assert set(payload) == {
            "version",
            "ok",
            "files_checked",
            "suppressed",
            "counts",
            "findings",
        }
        assert payload["version"] == 3
        assert payload["ok"] is False
        assert payload["counts"] == {"D001": 3}
        for entry in payload["findings"]:
            assert set(entry) == {"rule", "path", "line", "col", "message"}

    def test_ignore_excludes_a_rule(self):
        report = lint_sources(
            {NET: fixture_text("d001_bad")}, ignore={"D001"}
        )
        assert report.ok

    def test_every_advertised_rule_is_registered(self):
        assert set(RULES) == {
            "D001",
            "D002",
            "D003",
            "P001",
            "H001",
            "R001",
            "E001",
            "T001",
        }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def _bad_tree(self, tmp_path):
        """A throwaway tree whose path puts a fixture in E001's scope."""
        pkg = tmp_path / "repro" / "experiments"
        pkg.mkdir(parents=True)
        shutil.copy(FIXTURES / "e001_bad.py", pkg / "runner_helpers.py")
        return tmp_path

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        rc = main([str(self._bad_tree(tmp_path))])
        out = capsys.readouterr().out
        assert rc == 1
        assert "E001" in out
        assert "finding(s)" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        rc = main([str(tmp_path)])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_json_report(self, tmp_path, capsys):
        rc = main([str(self._bad_tree(tmp_path)), "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["version"] == 3
        assert payload["ok"] is False
        assert payload["counts"] == {"E001": 3}
        assert len(payload["findings"]) == 3

    def test_select_narrows_to_one_rule(self, tmp_path, capsys):
        rc = main([str(self._bad_tree(tmp_path)), "--select", "D001"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_code_is_usage_error(self, capsys):
        assert main(["--select", "Z999"]) == 2
        assert "Z999" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope")]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out

    def test_stats_reports_per_rule_wall_time(self, tmp_path, capsys):
        # The bad tree sits in E001's scope, so both a per-file rule
        # (E001) and a project rule (R001) accumulate wall time.
        rc = main([str(self._bad_tree(tmp_path)), "--stats"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "per-rule wall time:" in out
        assert " ms" in out
        for code in ("R001", "E001"):
            assert code in out


# ---------------------------------------------------------------------------
# Self-check: the repository itself must lint clean
# ---------------------------------------------------------------------------


class TestSelfCheck:
    def test_repo_lints_clean(self):
        report = lint_paths(
            [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
        )
        assert report.ok, "\n".join(f.format() for f in report.findings)
        # Every suppression in tree carries a justification; the count
        # is pinned so new waivers are a conscious, reviewed decision.
        # 9: three D001 in sim/rng.py, H001 on Job.figure, and five E001
        # in the executor — the salvage accounting, the in-process retry
        # loop, and the three places an exception crosses a worker's pipe
        # (a job that raises, an exception that does not pickle, a reply
        # that does not unpickle).  The pool plumbing's seven best-effort
        # waivers went with the pools, the D002 on tmp-file ages with
        # the cache's sweeper.
        assert report.suppressed == 9

    def test_fixtures_are_skipped_by_the_walker(self):
        report = lint_paths([str(REPO_ROOT / "tests")])
        paths = {f.path for f in report.findings}
        assert not any("lint_fixtures" in p for p in paths)
        assert report.ok
