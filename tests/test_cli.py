"""CLI entry-point tests."""

import pytest

from repro.__main__ import COMMANDS, EXPERIMENTS, main


def _report_field(out: str, key: str) -> str:
    """Value of one ``key : value`` line in a rendered replay report."""
    for line in out.splitlines():
        if ":" in line and line.split(":")[0].strip() == key:
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"no {key!r} line in output:\n{out}")


class TestCli:
    def test_list_is_default(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "available experiments" in out
        for name in EXPERIMENTS:
            assert name in out

    def test_single_experiment(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "DDR5-32Gb" in out

    def test_multiple_experiments(self, capsys):
        assert main(["table2", "table3"]) == 0
        out = capsys.readouterr().out
        assert "LUTs" in out and "Dynamic" in out

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_budget(self, capsys):
        assert main(["budget"]) == 0
        assert "locked_fraction" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["fig1", "fig3", "table1"])
    def test_fast_experiments_run(self, name, capsys):
        assert main([name]) == 0
        assert capsys.readouterr().out.strip()

    def test_export_writes_figure_data(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "data")]) == 0
        written = {p.name for p in (tmp_path / "data").iterdir()}
        assert written == {
            "fig1.csv", "fig3.json", "fig8.csv", "fig11.json", "fig12.csv",
        }


class TestReplayCli:
    def test_replay_shipped_scenario_exits_clean(self, capsys):
        assert main(["replay", "kv-cache", "--backend", "dfm"]) == 0
        out = capsys.readouterr().out
        assert "scenario" in out and "kv-cache" in out
        assert "amat" in out

    def test_replay_writes_telemetry_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "run"
        assert main(
            ["replay", "web-session", "--out", str(out_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert str(out_dir / "trace.json") in out
        assert str(out_dir / "metrics.json") in out
        assert (out_dir / "trace.json").exists()
        assert (out_dir / "metrics.json").exists()

    def test_replay_with_validation_checkers(self, capsys):
        assert main(
            ["replay", "kv-cache", "--backend", "cpu", "--validation"]
        ) == 0
        assert _report_field(capsys.readouterr().out, "clean") == "True"

    def test_chaos_replay_smoke(self, capsys):
        # Transient faults heal: replay stays clean under injection.
        assert main(
            ["replay", "chaos-soak", "--fault-profile", "transient",
             "--fault-seed", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert _report_field(out, "clean") == "True"
        assert _report_field(out, "data_loss_events") == "0"

    def test_replay_unknown_scenario_is_usage_error(self, capsys):
        assert main(["replay", "nope"]) == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_replay_unknown_backend_is_usage_error(self, capsys):
        assert main(["replay", "kv-cache", "--backend", "floppy"]) == 2
        assert "invalid choice: 'floppy'" in capsys.readouterr().err

    def test_replay_unreadable_trace_file_is_usage_error(
        self, tmp_path, capsys
    ):
        bad = tmp_path / "bad.trace.jsonl.gz"
        bad.write_bytes(b"not a trace")
        assert main(["replay", "--trace-file", str(bad)]) == 2
        assert "unusable trace" in capsys.readouterr().err


class TestRecordCli:
    def test_record_then_replay_round_trip(self, tmp_path, capsys):
        path = tmp_path / "kv.trace.jsonl.gz"
        assert main(
            ["record", "kv-cache", "--trace-file", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert path.exists()
        assert "fingerprint" in out and str(path) in out
        assert main(
            ["replay", "--trace-file", str(path), "--backend", "pipeline"]
        ) == 0

    def test_record_unknown_scenario_is_usage_error(self, capsys):
        assert main(["record", "mystery"]) == 2
        assert "invalid choice: 'mystery'" in capsys.readouterr().err


class TestIngestCli:
    def test_ingest_writes_manifest(self, tmp_path, capsys):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "a.py").write_text("x = 1\n" * 400)
        (root / "b.md").write_text("words " * 600)
        out_dir = tmp_path / "corpus"
        assert main(["ingest", str(root), "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "source" in out and "text" in out
        assert str(out_dir / "manifest.json") in out
        assert (out_dir / "manifest.json").exists()
        assert (out_dir / "source.pages.gz").exists()

    def test_ingest_missing_root_is_usage_error(self, tmp_path, capsys):
        assert main(
            ["ingest", str(tmp_path / "absent"),
             "--out", str(tmp_path / "o")]
        ) == 2
        assert "ingest failed" in capsys.readouterr().err

    def test_ingest_needs_exactly_one_root(self, capsys):
        assert main(["ingest"]) == 2
        err = capsys.readouterr().err
        assert "the following arguments are required: root" in err

    def test_list_mentions_scenario_commands(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "replay" in out and "record" in out and "ingest" in out
        assert "kv-cache" in out


class TestCodectuneCli:
    def _tree(self, tmp_path):
        root = tmp_path / "tree"
        root.mkdir()
        (root / "a.py").write_text(
            "def handler(request):\n    return request.body\n" * 200
        )
        (root / "b.md").write_text("far memory compresses well " * 400)
        return root

    def test_codectune_trains_and_persists(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        out_path = tmp_path / "tables.json"
        assert main(
            ["codectune", str(root), "--out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "source" in out and "text" in out
        assert str(out_path) in out
        from repro.compression.static_tables import StaticTableRegistry

        registry = StaticTableRegistry.load(out_path)
        assert "source" in registry and "text" in registry
        entry = registry.get("source")
        assert entry.num_pages > 0 and entry.window_size >= 1024

    def test_codectune_accepts_preingested_corpus(self, tmp_path, capsys):
        root = self._tree(tmp_path)
        corpus = tmp_path / "corpus"
        assert main(["ingest", str(root), "--out", str(corpus)]) == 0
        capsys.readouterr()
        out_path = tmp_path / "tables.json"
        assert main(
            ["codectune", str(corpus), "--out", str(out_path)]
        ) == 0
        assert "source" in capsys.readouterr().out
        assert out_path.exists()

    def test_codectune_rejects_extra_targets(self, capsys):
        assert main(["codectune", "a", "b"]) == 2
        assert "unrecognized arguments: b" in capsys.readouterr().err

    def test_codectune_empty_tree_is_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(
            ["codectune", str(empty), "--out", str(tmp_path / "t.json")]
        ) == 2
        assert "no corpus domains" in capsys.readouterr().err

    def test_list_mentions_codectune(self, capsys):
        assert main([]) == 0
        assert "codectune" in capsys.readouterr().out


class TestSloCli:
    def test_slo_prints_percentiles_and_summary(self, capsys):
        assert main(["slo", "web-session"]) == 0
        out = capsys.readouterr().out
        assert "latency percentiles" in out
        for column in ("p50_us", "p99_us", "p999_us"):
            assert column in out
        # Rows exist per op class x tier.
        assert "pipeline" in out and "cpu-zswap" in out
        assert "slo summary" in out
        assert "store-latency" in out
        assert "load-latency" in out
        assert "availability" in out

    def test_slo_writes_report_json(self, tmp_path, capsys):
        import json

        out_dir = tmp_path / "slo"
        assert main(
            ["slo", "web-session", "--out", str(out_dir)]
        ) == 0
        assert str(out_dir / "slo_report.json") in capsys.readouterr().out
        doc = json.loads((out_dir / "slo_report.json").read_text())
        assert doc["scenario"] == "web-session"
        assert doc["slo"]["summary"]
        assert doc["latency_percentiles"]
        assert (out_dir / "trace.json").exists()
        assert (out_dir / "metrics.json").exists()

    def test_slo_fail_on_violation_gates_exit_code(self, capsys):
        # The default objectives are deliberately tight enough that the
        # demotion cascades in web-session burn the store budget.
        code = main(
            ["slo", "web-session", "--fail-on-violation"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "VIOLATED" in out

    def test_slo_unknown_scenario_is_usage_error(self, capsys):
        assert main(["slo", "nope"]) == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err

    def test_slo_unknown_backend_is_usage_error(self, capsys):
        assert main(["slo", "web-session", "--backend", "tape"]) == 2
        assert "invalid choice: 'tape'" in capsys.readouterr().err

    def test_list_mentions_slo(self, capsys):
        assert main([]) == 0
        assert "repro slo" in capsys.readouterr().out


class TestParsers:
    @pytest.mark.parametrize(
        "argv, token",
        [
            (["replay", "kv-cache", "--rate-rps", "5"], "--rate-rps"),
            (["slo", "web-session", "--validation"], "--validation"),
            (["tiers", "foo"], "foo"),
            (["table1", "--ops", "5"], "--ops"),
            (["fleet", "--backend", "dfm"], "--backend"),
            (
                ["fleet", "--expect-shed", "--expect-no-shed"],
                "--expect-no-shed",
            ),
            (
                ["chaos", "--profile", "bogus"],
                "bad chaos config: unknown chaos profile 'bogus'",
            ),
            (
                ["chaos", "--ops", "0"],
                "bad chaos config: ops must be positive",
            ),
        ],
    )
    def test_usage_error_names_the_bad_input(self, argv, token, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert token in captured.err
        assert not captured.out

    def test_list_names_every_command_and_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        for name in COMMANDS:
            assert f"python -m repro {name} [-h]" in out

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_command_help_exits_zero(self, name, capsys):
        assert main([name, "--help"]) == 0
        assert f"usage: python -m repro {name}" in capsys.readouterr().out

    def test_fig3_prints_the_bench_renderer(self, capsys):
        from repro.analysis import goldens

        assert main(["fig3"]) == 0
        assert goldens.fig3_table("cost") in capsys.readouterr().out
