"""Unit tests for the prism CLI."""

from __future__ import annotations

import pytest

from repro.workbench.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_arguments(self):
        args = build_parser().parse_args(
            [
                "search",
                "--database", "mondial",
                "--columns", "3",
                "--sample", "California || Nevada;Lake Tahoe;",
                "--metadata", "2:DataType=='decimal' AND MinValue>=0",
            ]
        )
        assert args.database == "mondial"
        assert args.columns == 3
        assert len(args.sample) == 1
        assert args.scheduler == "bayesian"


class TestCommands:
    def test_databases_command_lists_bundled_sources(self, capsys):
        assert main(["databases"]) == 0
        output = capsys.readouterr().out
        assert "mondial" in output and "imdb" in output and "nba" in output

    def test_schema_command_describes_tables(self, capsys):
        assert main(["schema", "nba"]) == 0
        output = capsys.readouterr().out
        assert "Team" in output and "Player" in output
        assert "foreign keys:" in output

    def test_search_command_end_to_end(self, capsys):
        exit_code = main(
            [
                "search",
                "--database", "nba",
                "--columns", "2",
                "--sample", "Lakers;LeBron James",
                "--max-queries", "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "satisfying queries" in output
        assert "SELECT" in output

    def test_search_command_with_explain(self, capsys):
        exit_code = main(
            [
                "search",
                "--database", "nba",
                "--columns", "2",
                "--sample", "Lakers;LeBron James",
                "--explain", "1",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "relations:" in output

    def test_explain_command_prints_the_graph(self, capsys):
        exit_code = main(
            [
                "explain",
                "--database", "nba",
                "--columns", "2",
                "--sample", "Lakers;LeBron James",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "query [1]:" in output
        assert "relations:" in output

    def test_explain_command_plan_prints_the_optimized_plan(self, capsys):
        exit_code = main(
            [
                "explain",
                "--database", "nba",
                "--columns", "2",
                "--sample", "Lakers;LeBron James",
                "--plan",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Project[" in output
        assert "Scan(" in output
        # Cardinality annotations come from the planner's estimates.
        assert "rows" in output

    def test_explain_command_without_results_fails_cleanly(self, capsys):
        exit_code = main(
            [
                "explain",
                "--database", "nba",
                "--columns", "2",
                "--sample", "No Such Team;Nobody At All",
                "--plan",
            ]
        )
        assert exit_code == 1
        assert "no satisfying queries" in capsys.readouterr().err

    def test_search_rejects_too_many_cells(self, capsys):
        exit_code = main(
            [
                "search",
                "--database", "nba",
                "--columns", "1",
                "--sample", "a;b;c",
            ]
        )
        assert exit_code == 2
        assert "error" in capsys.readouterr().err

    def test_search_rejects_malformed_metadata(self, capsys):
        exit_code = main(
            [
                "search",
                "--database", "nba",
                "--columns", "1",
                "--sample", "Lakers",
                "--metadata", "DataType=='text'",
            ]
        )
        assert exit_code == 2
        assert "COLUMN:TEXT" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["search", "explain"])
    def test_missing_constraint_prints_one_line(self, capsys, command):
        exit_code = main([command, "--database", "nba", "--columns", "2"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no constraints" in err


class TestTimeoutSurface:
    def test_search_times_out_structurally_with_exit_code(self, capsys):
        exit_code = main(
            [
                "search",
                "--database", "nba",
                "--columns", "2",
                "--sample", "Lakers;LeBron James",
                "--deadline-s", "0.000001",
                "--fail-on-timeout",
            ]
        )
        assert exit_code == 3
        output = capsys.readouterr().out
        # Structured partial output, not a traceback: the stats line and
        # the timeout warning are both printed.
        assert "satisfying queries" in output
        assert "results are partial" in output

    def test_search_timeout_without_flag_still_exits_zero(self, capsys):
        exit_code = main(
            [
                "search",
                "--database", "nba",
                "--columns", "2",
                "--sample", "Lakers;LeBron James",
                "--deadline-s", "0.000001",
            ]
        )
        assert exit_code == 0
        assert "results are partial" in capsys.readouterr().out


class TestServeBatch:
    def test_serve_batch_demo_workload(self, capsys):
        exit_code = main(["serve-batch", "--workers", "2", "--rounds", "1"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "served 3 requests with 2 workers" in output
        assert "3 builds" in output
        assert "[demo-mondial-1] mondial: ok" in output
        assert "latency:" in output

    def test_serve_batch_refresh_reports_counters(self, capsys):
        exit_code = main(
            ["serve-batch", "--workers", "2", "--rounds", "1", "--refresh"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        # A static workload never triggers a delta, but the incremental
        # maintenance counters must be reported (and stay at zero).
        assert "incremental refresh: 0 refreshes" in output
        assert "0 rebuild fallbacks" in output

    def test_serve_batch_requests_file(self, capsys, tmp_path):
        import json

        requests_path = tmp_path / "requests.json"
        requests_path.write_text(
            json.dumps(
                [
                    {
                        "database": "nba",
                        "columns": 2,
                        "samples": [["Lakers", "LeBron James"]],
                        "request_id": "file-1",
                    },
                    {
                        "database": "nba",
                        "columns": 1,
                        "samples": [["Celtics"]],
                        "request_id": "file-2",
                    },
                ]
            ),
            encoding="utf-8",
        )
        exit_code = main(
            ["serve-batch", "--workers", "2", "--requests", str(requests_path)]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "[file-1] nba: ok" in output
        assert "[file-2] nba: ok" in output
        # One preprocessing pass serves both requests.
        assert "1 builds" in output

    def test_serve_batch_persists_artifacts(self, capsys, tmp_path):
        import json

        requests_path = tmp_path / "requests.json"
        requests_path.write_text(
            json.dumps(
                [
                    {
                        "database": "nba",
                        "columns": 1,
                        "samples": [["Lakers"]],
                        "request_id": "warm-1",
                    }
                ]
            ),
            encoding="utf-8",
        )
        args = [
            "serve-batch",
            "--workers", "1",
            "--requests", str(requests_path),
            "--artifact-dir", str(tmp_path / "artifacts"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "1 builds" in first
        # Second run warm-starts from the persisted bundle.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 builds" in second
        assert "1 disk loads" in second

    def test_serve_batch_rejects_bad_requests_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["serve-batch", "--requests", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_serve_batch_rejects_non_list_payload(self, capsys, tmp_path):
        not_list = tmp_path / "obj.json"
        not_list.write_text("{}", encoding="utf-8")
        assert main(["serve-batch", "--requests", str(not_list)]) == 2
        assert "JSON list" in capsys.readouterr().err

    def test_serve_batch_rejects_bad_pool_configuration(self, capsys):
        assert main(["serve-batch", "--rounds", "0"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["serve-batch", "--workers", "0"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["serve-batch", "--queue-size", "0"]) == 2
        assert "error" in capsys.readouterr().err
