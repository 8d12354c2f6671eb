"""Smoke tests: the example scripts run and produce their key output.

The fast examples run end to end; the longer studies are executed with
the module's building blocks at reduced scale elsewhere in the suite, so
here we only verify they load and expose a main().  The ``>>>`` examples
in the package's docstrings run too.
"""

import doctest
import importlib
import importlib.util
import pathlib

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"
PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Every module of the package whose docstrings hold a ``>>>`` example.
DOCTESTED = sorted(
    ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
    for path in PACKAGE.rglob("*.py")
    if ">>>" in path.read_text(encoding="utf-8")
)


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ALL_EXAMPLES = [
    "quickstart",
    "streaming_media",
    "flash_crowd_safety",
    "fairness_study",
    "ecn_marking",
    "parallel_sweep",
]


class TestExamplesLoad:
    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_loads_and_has_main(self, name):
        module = load_example(name)
        assert callable(module.main)


class TestFastExamplesRun:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "TCP  throughput" in out
        assert "Jain fairness index" in out

    def test_flash_crowd_safety(self, capsys):
        load_example("flash_crowd_safety").main()
        out = capsys.readouterr().out
        assert "TFRC(256)+SC" in out
        assert "crowd share" in out

    def test_ecn_marking(self, capsys):
        load_example("ecn_marking").main()
        out = capsys.readouterr().out
        assert "ECN-marked" in out
        assert "goodput_mbps" in out


@pytest.mark.parametrize("module", DOCTESTED)
def test_docstring_examples_run(module):
    result = doctest.testmod(importlib.import_module(module))
    assert result.attempted and not result.failed
