"""Integration tests for `repro-sim stats` and the table metrics sidecar."""

import json

from repro.cli import main


class TestStatsCommand:
    def test_json_schema(self, tmp_path):
        target = tmp_path / "stats.json"
        assert main(
            ["stats", "ghz:6", "-M", "12", "-w", "2", "--fidelity",
             "--json", "-o", str(target)]
        ) == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro.stats/v1"
        assert payload["backend"] == "dd"
        assert payload["workers"] == 2
        assert payload["completed_trajectories"] == 12
        assert payload["timed_out"] is False
        assert payload["cpu_seconds"] > 0.0
        assert payload["peak_nodes"] > 0

        counters = payload["metrics"]["counters"]
        assert counters["trajectory.completed"] == 12
        assert counters["scheduler.retries"] == 0
        assert counters["scheduler.worker_respawns"] == 0

        histograms = payload["metrics"]["histograms"]
        assert histograms["trajectory.seconds"]["count"] == 12

        rates = payload["rates"]
        assert "dd.compute.mat_vec.hit_rate" in rates
        for name, value in rates.items():
            assert 0.0 <= value <= 1.0, name

    def test_human_output_mentions_key_sections(self, capsys):
        assert main(["stats", "ghz:4", "-M", "6"]) == 0
        out = capsys.readouterr().out
        assert "hit rates:" in out
        assert "dd.compute.mat_vec.hit_rate" in out
        assert "scheduler.retries: 0" in out
        assert "trajectory.seconds:" in out
        assert "peak DD nodes:" in out

    def test_statevector_backend(self, capsys):
        assert main(["stats", "ghz:3", "-M", "4", "-b", "statevector"]) == 0
        out = capsys.readouterr().out
        assert "statevector backend" in out
        assert "trajectory.seconds:" in out

    def test_trace_flag_with_workers(self, capsys):
        assert main(["stats", "ghz:4", "-M", "8", "-w", "2", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "trace (" in out
        assert "job.finalize" in out


class TestNodeCeilingFallback:
    """`run` and `stats` fall back to sampling like the scheduler does."""

    def test_run_falls_back_to_stochastic(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_EXACT_NODE_CEILING", "2")
        assert main(["run", "ghz:4", "--method", "exact", "--fidelity", "-M", "20"]) == 0
        captured = capsys.readouterr()
        assert "exact fallback -> stochastic" in captured.err
        assert "trajectories: 20/20" in captured.out

    def test_stats_reports_the_fallback(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EXACT_NODE_CEILING", "2")
        target = tmp_path / "stats.json"
        assert main(
            ["stats", "ghz:4", "--method", "exact", "--fidelity", "-M", "20",
             "--json", "-o", str(target)]
        ) == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["method"] == "stochastic"
        assert payload["completed_trajectories"] == 20
        counters = payload["metrics"]["counters"]
        assert counters["dispatch.fallback"] == 1
        assert counters["dispatch.stochastic"] == 1
        assert counters["dispatch.exact"] == 0

    def test_parallel_stats_counts_one_dispatch(self, tmp_path):
        target = tmp_path / "stats.json"
        assert main(
            ["stats", "ghz:4", "-M", "12", "-w", "2", "--json", "-o", str(target)]
        ) == 0
        counters = json.loads(target.read_text(encoding="utf-8"))["metrics"]["counters"]
        assert counters["dispatch.stochastic"] == 1
        assert counters["dispatch.fallback"] == 0


class TestTableMetricsSidecar:
    def test_sidecar_schema(self, tmp_path, capsys):
        sidecar = tmp_path / "table.metrics.json"
        assert main(
            ["table", "1b", "-M", "2", "--timeout", "10",
             "--metrics", str(sidecar)]
        ) == 0
        assert "Table Ib" in capsys.readouterr().out
        payload = json.loads(sidecar.read_text(encoding="utf-8"))
        assert payload["schema"] == "repro.table-metrics/v1"
        assert payload["rows"]
        some_row = next(iter(payload["rows"].values()))
        cell = some_row["dd"]
        assert cell["completed_trajectories"] > 0
        assert cell["cpu_seconds"] > 0.0
        assert "dd.compute.mat_vec.hit_rate" in cell["rates"]
        for value in cell["rates"].values():
            assert 0.0 <= value <= 1.0
