"""Smoke tests: every example script imports and runs."""

import importlib.util
import pathlib
import sys

import pytest

from repro.trace import validate_chrome_trace

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


ALL_EXAMPLES = ["quickstart", "analyze_workload", "ycsb_on_pm", "trace_rap"]


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_imports(name):
    module = load_example(name)
    assert callable(module.main)


def test_quickstart_runs(capsys):
    load_example("quickstart").main()
    out = capsys.readouterr().out
    assert "write amplification" in out
    assert "read amplification" in out


def test_analyze_workload_runs(capsys):
    load_example("analyze_workload").main()
    out = capsys.readouterr().out
    assert "PM" in out and "DRAM" in out


def test_trace_rap_writes_a_valid_trace(tmp_path, capsys):
    load_example("trace_rap").main(out_dir=tmp_path)
    assert "rap-stall spans" in capsys.readouterr().out
    stats = validate_chrome_trace(tmp_path / "rap-trace.json")
    assert stats["events"] > 0
    assert (tmp_path / "rap-occupancy.csv").exists()


@pytest.mark.slow
def test_ycsb_on_pm_runs(capsys):
    load_example("ycsb_on_pm").main()
    out = capsys.readouterr().out
    assert out.count(" PM ") == 4 and out.count(" DRAM ") == 4
