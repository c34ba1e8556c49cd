"""Integration tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.serialize import concrete_instance_to_json, setting_to_json
from repro.workloads import (
    employment_setting,
    employment_source_concrete,
    medical_conflicting_scenario,
)


def _rejected_by_argparse(argv, capsys):
    """*argv* names a removed switch: argparse refuses it with exit 2."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.fixture
def mapping_file(tmp_path):
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps(setting_to_json(employment_setting())))
    return str(path)


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "source.json"
    path.write_text(
        json.dumps(concrete_instance_to_json(employment_source_concrete()))
    )
    return str(path)


class TestChaseCommand:
    def test_writes_solution(self, mapping_file, source_file, tmp_path, capsys):
        out = tmp_path / "solution.json"
        code = main(
            [
                "chase",
                "--mapping",
                mapping_file,
                "--source",
                source_file,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["facts"]) == 5  # Figure 9

    def test_pretty_prints_tables(self, mapping_file, source_file, capsys):
        code = main(
            ["chase", "--mapping", mapping_file, "--source", source_file, "--pretty"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Emp+" in output and "[2013, 2014)" in output

    def test_trace_flag(self, mapping_file, source_file, capsys):
        code = main(
            ["chase", "--mapping", mapping_file, "--source", source_file, "--trace"]
        )
        assert code == 0
        assert "chase steps" in capsys.readouterr().err

    def test_failure_exit_code(self, tmp_path, capsys):
        scenario = medical_conflicting_scenario()
        mapping = tmp_path / "m.json"
        mapping.write_text(json.dumps(setting_to_json(scenario.setting)))
        source = tmp_path / "s.json"
        source.write_text(
            json.dumps(concrete_instance_to_json(scenario.source))
        )
        code = main(
            ["chase", "--mapping", str(mapping), "--source", str(source)]
        )
        assert code == 1
        assert "chase failed" in capsys.readouterr().err

    def test_missing_file_exits(self, mapping_file):
        with pytest.raises(SystemExit):
            main(["chase", "--mapping", mapping_file, "--source", "/nope.json"])


class TestNormalizeCommand:
    def test_conjunction_normalization(self, mapping_file, source_file, capsys):
        code = main(
            ["normalize", "--mapping", mapping_file, "--source", source_file]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "5 facts -> 9 facts" in captured.err  # Figure 5
        assert len(json.loads(captured.out)["facts"]) == 9

    def test_naive_normalization(self, source_file, capsys):
        code = main(["normalize", "--naive", "--source", source_file])
        assert code == 0
        captured = capsys.readouterr()
        assert "5 facts -> 14 facts" in captured.err  # Figure 6

    def test_mapping_required_without_naive(self, source_file):
        with pytest.raises(SystemExit):
            main(["normalize", "--source", source_file])


class TestQueryCommand:
    def test_certain_answers(self, mapping_file, source_file, capsys):
        code = main(
            [
                "query",
                "--mapping",
                mapping_file,
                "--source",
                source_file,
                "--query",
                "q(n, s) :- Emp(n, c, s)",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "(Ada, 18k)" in output and "[2013, inf)" in output
        assert "(Bob, 13k)" in output

    def test_union_query(self, mapping_file, source_file, capsys):
        code = main(
            [
                "query",
                "--mapping",
                mapping_file,
                "--source",
                source_file,
                "--query",
                "q(n) :- Emp(n, 'IBM', s); q(n) :- Emp(n, 'Google', s)",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "(Ada)" in output and "(Bob)" in output

    QUERY = "q(n, s) :- Emp(n, c, s)"

    def _query(self, mapping_file, source_file, *extra):
        return main(
            [
                "query",
                "--mapping",
                mapping_file,
                "--source",
                source_file,
                "--query",
                self.QUERY,
                *extra,
            ]
        )

    def test_scan_engine_agrees(self, mapping_file, source_file, capsys):
        from repro.concrete import c_chase
        from repro.oracle import scan_naive_evaluate_concrete
        from repro.query import ConjunctiveQuery

        assert self._query(mapping_file, source_file) == 0
        indexed = capsys.readouterr().out
        solution = c_chase(employment_source_concrete(), employment_setting()).unwrap()
        scan = scan_naive_evaluate_concrete(
            ConjunctiveQuery.parse(self.QUERY), solution
        ).to_temporal()
        expected = "".join(
            f"({', '.join(str(v) for v in row)})\t{support}\n" for row, support in scan
        )
        assert indexed == expected
        _rejected_by_argparse(
            ["query", "--mapping", mapping_file, "--source", source_file,
             "--query", self.QUERY, "--engine", "scan"],
            capsys,
        )

    def test_incremental_replay_chain(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        log = str(tmp_path / "query.log")
        code = self._query(
            mapping_file, source_file, "--incremental", "--query-log", log
        )
        assert code == 0
        first = capsys.readouterr()
        assert "0 replayed" in first.err
        code = self._query(
            mapping_file, source_file, "--incremental", "--query-log", log
        )
        assert code == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "1 replayed, 0 evaluated" in second.err

    def test_incremental_requires_query_log(self, mapping_file, source_file):
        with pytest.raises(SystemExit):
            self._query(mapping_file, source_file, "--incremental")

    def test_query_log_requires_incremental(
        self, mapping_file, source_file, tmp_path
    ):
        with pytest.raises(SystemExit):
            self._query(
                mapping_file,
                source_file,
                "--query-log",
                str(tmp_path / "query.log"),
            )

    def test_failed_query_log_write_keeps_previous_log(
        self, mapping_file, source_file, tmp_path, monkeypatch
    ):
        import pickle

        from repro.query import QueryLog
        from repro.state import load_query_log

        log = tmp_path / "query.log"
        assert (
            self._query(mapping_file, source_file, "--incremental", "--query-log", str(log))
            == 0
        )
        before = log.read_bytes()
        real_dump = pickle.dump

        def dump_then_crash(payload, handle):
            real_dump(payload, handle)
            handle.truncate(handle.tell() // 2)
            raise OSError("disk vanished mid-write")

        monkeypatch.setattr(pickle, "dump", dump_then_crash)
        with pytest.raises(SystemExit, match="cannot write query log"):
            self._query(mapping_file, source_file, "--incremental", "--query-log", str(log))
        monkeypatch.undo()
        assert log.read_bytes() == before
        assert isinstance(load_query_log(log), QueryLog)
        assert sorted(path.name for path in tmp_path.iterdir() if "query" in path.name) == [
            "query.log"
        ]

    def test_incremental_rejects_scan_engine(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        _rejected_by_argparse(
            ["query", "--mapping", mapping_file, "--source", source_file,
             "--query", self.QUERY, "--engine", "scan", "--incremental",
             "--query-log", str(tmp_path / "query.log")],
            capsys,
        )

    def test_corrupt_query_log_rejected(
        self, mapping_file, source_file, tmp_path
    ):
        log = tmp_path / "query.log"
        log.write_bytes(b"not a pickle")
        with pytest.raises(SystemExit):
            self._query(
                mapping_file,
                source_file,
                "--incremental",
                "--query-log",
                str(log),
            )


class TestVerifyAndFigures:
    def test_verify_success(self, mapping_file, source_file, capsys):
        code = main(
            ["verify", "--mapping", mapping_file, "--source", source_file]
        )
        assert code == 0
        assert "correspondence holds" in capsys.readouterr().out

    def test_verify_reports_joint_failure(self, tmp_path, capsys):
        scenario = medical_conflicting_scenario()
        mapping = tmp_path / "m.json"
        mapping.write_text(json.dumps(setting_to_json(scenario.setting)))
        source = tmp_path / "s.json"
        source.write_text(json.dumps(concrete_instance_to_json(scenario.source)))
        code = main(["verify", "--mapping", str(mapping), "--source", str(source)])
        assert code == 0
        assert "both chases fail" in capsys.readouterr().out

    def test_figures_prints_everything(self, capsys):
        code = main(["figures"])
        assert code == 0
        output = capsys.readouterr().out
        for marker in [
            "Figure 1",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 9",
            "Figure 10",
            "holds: True",
        ]:
            assert marker in output


class TestEngineAndShardFlags:
    def test_chase_engine_rescan_matches_delta(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        from repro.oracle import rescan_c_chase

        out_delta = tmp_path / "delta.json"
        assert (
            main(
                [
                    "chase",
                    "--mapping",
                    mapping_file,
                    "--source",
                    source_file,
                    "--out",
                    str(out_delta),
                ]
            )
            == 0
        )
        rescan = rescan_c_chase(employment_source_concrete(), employment_setting())
        assert json.loads(out_delta.read_text()) == concrete_instance_to_json(
            rescan.target
        )
        _rejected_by_argparse(
            ["chase", "--mapping", mapping_file, "--source", source_file,
             "--engine", "rescan"],
            capsys,
        )

    @pytest.mark.parametrize("command", ["chase", "query", "verify", "client"])
    def test_help_lists_no_engine_join_or_normalization(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--engine", "--join", "--normalization"):
            assert flag not in text

    def test_verify_with_shards_prints_reports(
        self, mapping_file, source_file, capsys
    ):
        code = main(
            [
                "verify",
                "--mapping",
                mapping_file,
                "--source",
                source_file,
                "--shards",
                "2",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "correspondence holds" in captured.out
        assert "shard 0:" in captured.err and "shard 1:" in captured.err

    def test_verify_engine_rescan(self, mapping_file, source_file, capsys):
        _rejected_by_argparse(
            ["verify", "--mapping", mapping_file, "--source", source_file,
             "--engine", "rescan"],
            capsys,
        )


class TestSchedulerFlags:
    """--shards/--incremental symmetric on chase/verify."""

    def test_chase_via_abstract_prints_snapshots(
        self, mapping_file, source_file, capsys
    ):
        code = main(
            [
                "chase",
                "--mapping",
                mapping_file,
                "--source",
                source_file,
                "--via",
                "abstract",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Emp(Ada, IBM" in out

    def test_chase_via_abstract_incremental_matches_off(
        self, mapping_file, source_file, capsys
    ):
        main(
            [
                "chase", "--mapping", mapping_file, "--source", source_file,
                "--via", "abstract", "--incremental", "on",
            ]
        )
        on_output = capsys.readouterr().out
        main(
            [
                "chase", "--mapping", mapping_file, "--source", source_file,
                "--via", "abstract", "--incremental", "off",
            ]
        )
        off_output = capsys.readouterr().out
        assert on_output == off_output

    def test_chase_accepts_shards(self, mapping_file, source_file, capsys):
        code = main(
            [
                "chase", "--mapping", mapping_file, "--source", source_file,
                "--via", "abstract", "--shards", "2",
            ]
        )
        assert code == 0
        assert "shard 1:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["chase", "verify", "serve"])
    @pytest.mark.parametrize("flag", ["--executor", "--workers"])
    def test_pool_flags_are_gone(
        self, command, flag, mapping_file, source_file, capsys
    ):
        # The region blocks run serially; no pool can be chosen or sized.
        inputs = (
            [] if command == "serve"
            else ["--mapping", mapping_file, "--source", source_file]
        )
        with pytest.raises(SystemExit) as exc_info:
            main([command, *inputs, flag, "2"])
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["chase", "verify"])
    def test_invalid_shards_fails_cleanly(
        self, command, mapping_file, source_file, capsys
    ):
        with pytest.raises(SystemExit) as exc_info:
            main(
                [
                    command, "--mapping", mapping_file, "--source", source_file,
                    "--shards", "0",
                ]
            )
        assert exc_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_verify_accepts_shards_and_incremental(
        self, mapping_file, source_file, capsys
    ):
        code = main(
            [
                "verify", "--mapping", mapping_file, "--source", source_file,
                "--shards", "2", "--incremental", "off",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "correspondence holds" in captured.out
        assert "shard 0:" in captured.err

    @pytest.mark.parametrize(
        "extra",
        [["--out", "x.json"], ["--pretty"], ["--coalesce"],
         ["--norm-log", "x.log"]],
    )
    def test_via_abstract_rejects_concrete_only_flags(
        self, extra, mapping_file, source_file
    ):
        with pytest.raises(SystemExit, match="concrete c-chase only"):
            main(
                [
                    "chase", "--mapping", mapping_file, "--source",
                    source_file, "--via", "abstract", *extra,
                ]
            )

    def test_concrete_chase_rejects_scheduler_flags(
        self, mapping_file, source_file
    ):
        with pytest.raises(SystemExit, match="add --via abstract"):
            main(
                [
                    "chase", "--mapping", mapping_file, "--source",
                    source_file, "--shards", "2",
                ]
            )


class TestNormLogPersistence:
    def test_chase_writes_and_replays_log(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        log = tmp_path / "norm.log"
        out1 = tmp_path / "first.json"
        assert (
            main(
                [
                    "chase",
                    "--mapping",
                    mapping_file,
                    "--source",
                    source_file,
                    "--norm-log",
                    str(log),
                    "--out",
                    str(out1),
                ]
            )
            == 0
        )
        assert log.exists()
        out2 = tmp_path / "second.json"
        assert (
            main(
                [
                    "chase",
                    "--mapping",
                    mapping_file,
                    "--source",
                    source_file,
                    "--norm-log",
                    str(log),
                    "--out",
                    str(out2),
                ]
            )
            == 0
        )
        assert out1.read_text() == out2.read_text()

    def test_incremental_off_skips_log(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        log = tmp_path / "norm.log"
        code = main(
            [
                "chase",
                "--mapping",
                mapping_file,
                "--source",
                source_file,
                "--norm-log",
                str(log),
                "--incremental",
                "off",
                "--out",
                str(tmp_path / "out.json"),
            ]
        )
        assert code == 0
        assert not log.exists()

    def test_abstract_path_rejects_norm_log(
        self, mapping_file, source_file, tmp_path
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "chase",
                    "--via",
                    "abstract",
                    "--mapping",
                    mapping_file,
                    "--source",
                    source_file,
                    "--norm-log",
                    str(tmp_path / "norm.log"),
                ]
            )
        assert "--norm-log" in str(excinfo.value)

    def test_corrupt_log_is_a_clean_error(
        self, mapping_file, source_file, tmp_path
    ):
        log = tmp_path / "norm.log"
        log.write_text("definitely not a pickle")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "chase",
                    "--mapping",
                    mapping_file,
                    "--source",
                    source_file,
                    "--norm-log",
                    str(log),
                ]
            )
        assert "cannot read normalization log" in str(excinfo.value)

    def test_verify_honors_norm_log(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        log = tmp_path / "norm.log"
        assert (
            main(
                [
                    "verify",
                    "--mapping",
                    mapping_file,
                    "--source",
                    source_file,
                    "--norm-log",
                    str(log),
                ]
            )
            == 0
        )
        assert log.exists()
        assert (
            main(
                [
                    "verify",
                    "--mapping",
                    mapping_file,
                    "--source",
                    source_file,
                    "--norm-log",
                    str(log),
                ]
            )
            == 0
        )
        assert "correspondence holds" in capsys.readouterr().out

    def test_verify_incremental_off_skips_log(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        log = tmp_path / "norm.log"
        code = main(
            [
                "verify",
                "--mapping",
                mapping_file,
                "--source",
                source_file,
                "--norm-log",
                str(log),
                "--incremental",
                "off",
            ]
        )
        assert code == 0
        assert not log.exists()

    def test_naive_normalization_rejects_norm_log(
        self, mapping_file, source_file, tmp_path, capsys
    ):
        _rejected_by_argparse(
            ["chase", "--mapping", mapping_file, "--source", source_file,
             "--normalization", "naive", "--norm-log",
             str(tmp_path / "norm.log")],
            capsys,
        )


class TestIngestCommand:
    @pytest.fixture
    def event_files(self, tmp_path):
        from repro.workloads import org_event_mapping, org_event_stream

        events = org_event_stream(people=6, timeline=32, seed=4)
        stream = tmp_path / "events.jsonl"
        stream.write_text("\n".join(json.dumps(item) for item in events) + "\n")
        mapping = tmp_path / "event-mapping.json"
        mapping.write_text(json.dumps(org_event_mapping().to_json()))
        return str(stream), str(mapping)

    def test_snapshot_to_file(self, event_files, tmp_path, capsys):
        stream, mapping = event_files
        out = tmp_path / "snapshot.json"
        code = main(
            ["ingest", "--events", stream, "--event-mapping", mapping, "--out", str(out)]
        )
        assert code == 0
        assert "ingested" in capsys.readouterr().err
        payload = json.loads(out.read_text())
        assert payload["facts"]

    def test_snapshot_matches_library(self, event_files, tmp_path):
        from repro.events import EventLog, EventMapping

        stream, mapping = event_files
        out = tmp_path / "snapshot.json"
        assert (
            main(
                [
                    "ingest",
                    "--events",
                    stream,
                    "--event-mapping",
                    mapping,
                    "--at",
                    "12",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        log = EventLog(EventMapping.from_json(json.loads(open(mapping).read())))
        log.ingest(open(stream).read())
        expected = concrete_instance_to_json(log.snapshot_at(12))
        assert json.loads(out.read_text()) == expected

    def test_delta_between(self, event_files, capsys):
        stream, mapping = event_files
        code = main(
            [
                "ingest",
                "--events",
                stream,
                "--event-mapping",
                mapping,
                "--since",
                "8",
                "--until",
                "16",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"add", "remove"}

    def test_missing_events_file(self, event_files):
        _, mapping = event_files
        with pytest.raises(SystemExit) as excinfo:
            main(
                ["ingest", "--events", "/no/such/file.jsonl", "--event-mapping", mapping]
            )
        assert "cannot read events" in str(excinfo.value)

    def test_stdin_input(self, event_files, capsys, monkeypatch, tmp_path):
        import io

        stream, mapping = event_files
        text = open(stream).read()
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        out = tmp_path / "snapshot.json"
        code = main(
            ["ingest", "--events", "-", "--event-mapping", mapping, "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["facts"]
