"""Tests for the terminal visualization helpers and the CLI."""

import math

import pytest

from repro.cli import main
from repro.viz import bar_chart, line_chart, sparkline


class TestSparkline:
    def test_monotone_ramp(self):
        assert sparkline([0, 1, 2, 3]) == " ▂▅█"

    def test_flat_series(self):
        line = sparkline([5.0, 5.0, 5.0])
        assert len(line) == 3
        assert len(set(line)) == 1

    def test_empty(self):
        assert sparkline([]) == ""

    def test_nan_rendered_as_space(self):
        line = sparkline([0.0, math.nan, 1.0])
        assert line[1] == " "

    def test_all_nan(self):
        assert sparkline([math.nan, math.nan]) == "  "


class TestLineChart:
    def test_basic_render(self):
        chart = line_chart(
            {"up": [(1, 1), (2, 2), (3, 3)]}, width=20, height=5, title="T"
        )
        assert "T" in chart
        assert "U=up" in chart
        assert chart.count("U") >= 3

    def test_two_series_distinct_markers(self):
        chart = line_chart(
            {"alpha": [(1, 1)], "beta": [(2, 2)]}, width=10, height=4
        )
        assert "A=alpha" in chart
        assert "b=beta" in chart

    def test_axis_labels_present(self):
        chart = line_chart({"s": [(1, 10), (100, 20)]}, width=30, height=5)
        assert "1" in chart and "100" in chart
        assert "10" in chart and "20" in chart

    def test_log_scale_requires_positive(self):
        with pytest.raises(ValueError):
            line_chart({"s": [(0, 1), (1, 2)]}, log_x=True)
        with pytest.raises(ValueError):
            line_chart({"s": [(1, 0), (2, 2)]}, log_y=True)

    def test_log_scale_renders(self):
        chart = line_chart(
            {"s": [(1, 1), (10, 10), (100, 100)]}, log_x=True, log_y=True,
            width=30, height=9,
        )
        assert "S" in chart

    def test_nan_points_skipped(self):
        chart = line_chart({"s": [(1, 1), (2, math.nan), (3, 3)]}, width=10, height=4)
        assert "S" in chart

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            line_chart({"s": []})


class TestBarChart:
    def test_render(self):
        chart = bar_chart({"aa": 2.0, "b": 1.0}, width=10, title="bars")
        lines = chart.splitlines()
        assert lines[0] == "bars"
        assert lines[1].startswith("aa |")
        assert lines[1].count("█") > lines[2].count("█")

    def test_zero_value_has_no_bar(self):
        chart = bar_chart({"z": 0.0, "x": 1.0})
        z_line = [l for l in chart.splitlines() if l.startswith("z")][0]
        assert "█" not in z_line

    def test_validation(self):
        with pytest.raises(ValueError):
            bar_chart({})
        with pytest.raises(ValueError):
            bar_chart({"neg": -1.0})


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig03" in out and "fig20" in out

    def test_run_analytic_figure(self, capsys):
        assert main(["run", "fig20"]) == 0
        out = capsys.readouterr().out
        assert "Figure 20" in out
        assert "completed" in out

    def test_run_with_chart(self, capsys):
        assert main(["run", "fig11", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "expected_acks" in out

    def test_run_unknown_figure(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown" in err

    def test_run_persists_output(self, tmp_path, capsys):
        assert main(["run", "fig11", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig11_convergence_analysis.txt").exists()  # results/'s name

    def test_profile_reports_hot_functions(self, capsys):
        assert main(["profile", "fig11", "--jobs", "1", "--top", "5"]) == 0
        report = capsys.readouterr().out
        assert report.startswith("profile: fig11 scale=fast jobs=1 sort=cumulative")
        assert "function calls" in report and "cumulative" in report

    def test_profile_rejects_unknown_inputs(self, capsys):
        assert main(["profile", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["profile", "fig11", "--sort", "bogus"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["profile", "all"]) == 2
        streams = capsys.readouterr()
        assert "one figure at a time" in streams.err
        assert streams.out == ""

    @pytest.mark.parametrize("flags", [["--jobs", "0"], ["--top", "0"], ["--jobs", "-1"]])
    def test_profile_rejects_a_count_below_one(self, flags, capsys):
        assert main(["profile", "fig20", *flags]) == 2
        streams = capsys.readouterr()
        assert "must be >= 1" in streams.err
        assert streams.out == ""

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--channel", "x"], "--channel needs --job"),
            (["--out", "unused"], "--out needs --replay"),
        ],
        ids=["channel without job", "out without replay"],
    )
    def test_trace_rejects_a_flag_without_the_one_it_needs(
        self, flags, message, tmp_path, capsys
    ):
        argv = ["trace", "fig20", "--cache-dir", str(tmp_path), *flags]
        assert main(argv) == 2
        streams = capsys.readouterr()
        assert message in streams.err
        assert streams.out == ""
