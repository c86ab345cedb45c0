"""Tests for the command-line runner."""

import pytest

from repro.cli import build_parser, main
from repro.runner import REGISTRY


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Keep CLI runs from touching the user's real result cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_CODE_VERSION", "cli-test-version")


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in REGISTRY:
            assert name in out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_generation_choices(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "fig2", "--generation", "3"])

    def test_profile_choices(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig2", "--profile", "full"])
        assert args.profile == "full"

    def test_all_expands(self):
        parser = build_parser()
        args = parser.parse_args(["run", "all"])
        assert args.experiments == ["all"]

    def test_runner_flags(self):
        parser = build_parser()
        args = parser.parse_args(["run", "fig2", "-j", "8", "--force", "--cache-dir", "/tmp/x"])
        assert args.jobs == 8 and args.force and args.cache_dir == "/tmp/x"
        assert args.cache  # caching is the default

    def test_no_cache_flag(self):
        args = build_parser().parse_args(["run", "fig2", "--no-cache"])
        assert not args.cache

    def test_cache_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig2", "--cache", "--no-cache"])


class TestSchedulingValues:
    """Nonsensical scheduling values are usage errors, not degraded sweeps."""

    @pytest.mark.parametrize("argv", [
        ["run", "fig4", "--jobs", "0"],
        ["run", "fig4", "--jobs", "-3"],
        ["run", "fig4", "--retries", "-1"],
        ["run", "fig4", "--jobs", "2", "--shard-timeout", "0", "--retries", "1"],
        ["run", "fig4", "--shard-timeout", "-2.5"],
        ["crashtest", "linkedlist", "--jobs", "0"],
        ["crashtest", "linkedlist", "--retries", "-1"],
        ["crashtest", "linkedlist", "--shard-timeout", "0"],
        ["validate", "--jobs", "0"],
        ["validate", "--jobs", "-3"],
    ])
    def test_rejected_with_usage_message(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: repro {argv[0]}")
        assert "must be" in err
        assert "DEGRADED" not in err

    def test_boundary_values_accepted(self):
        args = build_parser().parse_args(
            ["run", "fig4", "--jobs", "1", "--retries", "0", "--shard-timeout", "0.5"])
        assert (args.jobs, args.retries, args.shard_timeout) == (1, 0, 0.5)
        assert build_parser().parse_args(["validate", "--jobs", "1"]).jobs == 1


class TestRun:
    def test_run_fig4_smoke(self, capsys):
        assert main(["run", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "Write buffer hit ratio" in out
        assert "G1 Optane" in out
        assert "cache: 0 hits / 1 miss" in out

    def test_run_sec33_smoke(self, capsys):
        assert main(["run", "sec33", "--generation", "2"]) == 0
        out = capsys.readouterr().out
        assert "buffers_are_separate = True" in out

    def test_second_run_served_from_cache(self, capsys):
        assert main(["run", "sec33"]) == 0
        first = capsys.readouterr().out
        assert "cache: 0 hits / 1 miss" in first
        assert main(["run", "sec33"]) == 0
        second = capsys.readouterr().out
        assert "[sec33 served from cache]" in second
        assert "cache: 1 hit / 0 misses" in second
        # The rendered report is identical either way.
        table = lambda out: [l for l in out.splitlines() if l.startswith(" ") or "==" in l]
        assert table(first) == table(second)

    def test_force_recomputes(self, capsys):
        assert main(["run", "sec33"]) == 0
        capsys.readouterr()
        assert main(["run", "sec33", "--force"]) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hits / 1 miss" in out
        assert "served from cache" not in out

    def test_no_cache_bypasses(self, capsys):
        assert main(["run", "sec33", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["run", "sec33", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "served from cache" not in out

    def test_trace_fig4_exports_artifacts(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        timeline = tmp_path / "occupancy.csv"
        assert main(["trace", "fig4", "--interval", "1000",
                     "--out", str(out), "--timeline", str(timeline)]) == 0
        printed = capsys.readouterr().out
        assert "[chrome trace:" in printed and "[trace:" in printed
        from repro.trace import validate_chrome_trace

        stats = validate_chrome_trace(out)
        assert stats["events"] > 0 and len(stats["categories"]) >= 4
        assert timeline.read_text().startswith("ts,device")

    def test_trace_timeline_json(self, tmp_path, capsys):
        import json

        timeline = tmp_path / "occupancy.json"
        assert main(["trace", "fig4", "--interval", "1000",
                     "--out", str(tmp_path / "t.json"),
                     "--timeline", str(timeline)]) == 0
        data = json.loads(timeline.read_text())
        assert data["columns"][:2] == ["ts", "device"] and data["rows"]

    def test_trace_zero_interval_disables_sampling(self, tmp_path, capsys):
        assert main(["trace", "fig4", "--interval", "0",
                     "--out", str(tmp_path / "t.json")]) == 0
        assert "samples @" not in capsys.readouterr().out

    def test_trace_category_filter(self, tmp_path):
        import json

        out = tmp_path / "t.json"
        assert main(["trace", "fig4", "--categories", "imc,persist",
                     "--out", str(out)]) == 0
        cats = {e.get("cat") for e in json.loads(out.read_text())["traceEvents"]
                if e["ph"] != "M"}
        assert cats <= {"imc", "persist"}

    def test_trace_unknown_experiment(self, capsys):
        assert main(["trace", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_trace_bad_category_fails_cleanly(self, capsys):
        assert main(["trace", "fig4", "--categories", "bogus"]) == 2
        assert "trace failed" in capsys.readouterr().err

    def test_experiment_table_complete(self):
        # Every experiment id the README/DESIGN mention is runnable.
        for required in ("fig2", "fig3", "fig4", "sec33", "fig6", "fig7",
                         "fig8", "table1", "fig10", "fig12", "fig13", "fig14"):
            assert required in REGISTRY
