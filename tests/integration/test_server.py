"""End-to-end tests for the resident chase daemon (repro.server).

Every test runs the real HTTP stack — an in-process daemon on a
background event loop thread, the :class:`ServerClient` on a persistent
``http.client`` connection — so the wire format, the error mapping and
the session state machine are all exercised exactly as an operator
would hit them.
"""

import json
import threading

import pytest

from repro.cli import main
from repro.concrete import ConcreteInstance
from repro.serialize import (
    concrete_fact_to_json,
    concrete_instance_from_json,
    concrete_instance_to_json,
    setting_to_json,
)
from repro.server import ClientError, ServerClient, ServerThread
from repro.workloads import (
    employment_setting,
    employment_source_concrete,
    exchange_setting_org,
    random_org_history,
)

ORG_SETTING_JSON = setting_to_json(exchange_setting_org())
ORG_FACTS = list(random_org_history(people=8, timeline=16, seed=11).instance)


def org_instance(count: int) -> ConcreteInstance:
    instance = ConcreteInstance()
    for fact in ORG_FACTS[:count]:
        instance.add(fact)
    return instance


def org_source_json(count: int) -> dict:
    return concrete_instance_to_json(org_instance(count))


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    spool = tmp_path_factory.mktemp("spool")
    with ServerThread(snapshot_dir=str(spool)) as thread:
        yield thread


@pytest.fixture
def client(server):
    with ServerClient(port=server.port) as connection:
        yield connection


def canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestLifecycle:
    def test_health(self, client):
        assert client.healthz()["status"] == "ok"

    def test_create_and_info(self, client):
        result = client.create("life", ORG_SETTING_JSON, org_source_json(10))
        assert result["session"]["name"] == "life"
        assert result["session"]["target_facts"] > 0
        info = client.info("life")
        assert info["source_facts"] == 10
        client.evict("life")

    def test_create_twice_conflicts_without_replace(self, client):
        client.create("dup", ORG_SETTING_JSON, org_source_json(5))
        with pytest.raises(ClientError) as err:
            client.create("dup", ORG_SETTING_JSON, org_source_json(5))
        assert err.value.status == 409
        client.create("dup", ORG_SETTING_JSON, org_source_json(6), replace=True)
        assert client.info("dup")["source_facts"] == 6
        client.evict("dup")


class TestChurnByteIdentity:
    """The tentpole guarantee: a session maintained by deltas serves a
    target byte-identical to a from-scratch CLI chase of the cumulative
    source instance."""

    def test_delta_stream_matches_cold_cli_chase(self, client, tmp_path):
        initial = 10
        client.create("churn", ORG_SETTING_JSON, org_source_json(initial))
        count = initial
        for step in range(3):
            batch = [
                concrete_fact_to_json(fact)
                for fact in ORG_FACTS[count : count + 4]
            ]
            result = client.delta("churn", add=batch)
            count += 4
            assert result["source_facts"] == count
            # the diff is relative to the previous target, in the
            # canonical SourceDelta codec (versioned client)
            assert "add" in result["diff"] and "remove" in result["diff"]

        served = client.target("churn")

        mapping = tmp_path / "mapping.json"
        source = tmp_path / "source.json"
        out = tmp_path / "solution.json"
        mapping.write_text(json.dumps(ORG_SETTING_JSON))
        source.write_text(json.dumps(client.source("churn")))
        code = main(
            [
                "chase",
                "--mapping",
                str(mapping),
                "--source",
                str(source),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert canonical(json.loads(out.read_text())) == canonical(served)
        client.evict("churn")

    def test_removals_flow_through(self, client):
        client.create("shrink", ORG_SETTING_JSON, org_source_json(12))
        victim = concrete_fact_to_json(ORG_FACTS[3])
        result = client.delta("shrink", remove=[victim])
        assert result["source_facts"] == 11
        roundtrip = concrete_instance_from_json(client.source("shrink"))
        assert ORG_FACTS[3] not in roundtrip
        client.evict("shrink")

    def test_strict_delta_rejects_drift(self, client):
        client.create("strict", ORG_SETTING_JSON, org_source_json(8))
        present = concrete_fact_to_json(ORG_FACTS[0])
        absent = concrete_fact_to_json(ORG_FACTS[-1])
        with pytest.raises(ClientError) as err:
            client.delta("strict", add=[present])
        assert err.value.status == 400
        with pytest.raises(ClientError) as err:
            client.delta("strict", remove=[absent])
        assert err.value.status == 400
        # the failed delta must not have mutated the session
        assert client.info("strict")["source_facts"] == 8
        client.evict("strict")


class TestQueries:
    def test_query_answers_and_ledger_replay(self, client):
        client.create("q", ORG_SETTING_JSON, org_source_json(14))
        first = client.query("q", "answer(e, m) :- Reports(e, m)")
        assert first["answers"]
        assert first["evaluated"] >= 1
        again = client.query("q", "answer(e, m) :- Reports(e, m)")
        assert again["answers"] == first["answers"]
        assert again["replayed"] >= 1
        assert again["evaluated"] == 0
        client.evict("q")

    def test_union_query(self, client):
        client.create("u", ORG_SETTING_JSON, org_source_json(10))
        result = client.query(
            "u",
            "answer(e) :- Reports(e, m); answer(e) :- Log(e, t, s)",
        )
        assert result["answers"]
        client.evict("u")

    def test_scan_engine_agrees(self, client):
        from repro.concrete import c_chase
        from repro.oracle import scan_naive_evaluate_concrete
        from repro.query import ConjunctiveQuery
        from repro.server.sessions import _answers_to_json

        client.create("eng", ORG_SETTING_JSON, org_source_json(10))
        indexed = client.query("eng", "answer(e, m) :- Reports(e, m)")
        solution = c_chase(org_instance(10), exchange_setting_org()).unwrap()
        scan = scan_naive_evaluate_concrete(
            ConjunctiveQuery.parse("answer(e, m) :- Reports(e, m)"), solution
        ).to_temporal()
        assert indexed["answers"] == _answers_to_json(scan)
        client.evict("eng")

    def test_unknown_query_fields_are_400(self, client):
        client.create("qfields", ORG_SETTING_JSON, org_source_json(3))
        with pytest.raises(ClientError) as err:
            client.post(
                "/sessions/qfields/query",
                {"query": "answer(e, m) :- Reports(e, m)", "engine": "scan"},
            )
        assert err.value.status == 400
        assert "unknown query request field(s) ['engine']" in str(err.value)
        client.evict("qfields")


class TestCache:
    def test_identical_create_is_a_cache_hit(self, client):
        source = org_source_json(9)
        first = client.create("cache-a", ORG_SETTING_JSON, source)
        second = client.create("cache-b", ORG_SETTING_JSON, source)
        assert first["cached"] is False
        assert second["cached"] is True
        assert first["digest"] == second["digest"]
        assert canonical(client.target("cache-a")) == canonical(
            client.target("cache-b")
        )
        client.evict("cache-a")
        client.evict("cache-b")

    def test_cached_sessions_do_not_alias(self, client):
        source = org_source_json(7)
        client.create("alias-a", ORG_SETTING_JSON, source)
        client.create("alias-b", ORG_SETTING_JSON, source)
        batch = [concrete_fact_to_json(ORG_FACTS[7])]
        client.delta("alias-a", add=batch)
        # b's session must be untouched by a's delta
        assert client.info("alias-b")["source_facts"] == 7
        assert canonical(client.target("alias-a")) != canonical(
            client.target("alias-b")
        )
        client.evict("alias-a")
        client.evict("alias-b")


class TestSnapshotEvictLoad:
    def test_round_trip_preserves_target_and_ledgers(self, client):
        client.create("snap", ORG_SETTING_JSON, org_source_json(11))
        client.delta("snap", add=[concrete_fact_to_json(ORG_FACTS[11])])
        client.query("snap", "answer(e, m) :- Reports(e, m)")
        before = client.target("snap")

        client.evict("snap", snapshot=True)
        assert "snap" not in [s["name"] for s in client.sessions()]

        client.load("snap")
        assert canonical(client.target("snap")) == canonical(before)
        # the reloaded query ledger still replays
        again = client.query("snap", "answer(e, m) :- Reports(e, m)")
        assert again["replayed"] >= 1
        # and the replay state still drives incremental deltas
        result = client.delta("snap", add=[concrete_fact_to_json(ORG_FACTS[12])])
        assert result["source_facts"] == 13
        client.evict("snap")

    def test_failed_dump_keeps_previous_snapshot(self, client, server, monkeypatch):
        import pickle

        client.create("crash", ORG_SETTING_JSON, org_source_json(9))
        client.snapshot("crash")
        before = client.target("crash")
        client.delta("crash", add=[concrete_fact_to_json(ORG_FACTS[9])])
        real_dump = pickle.dump

        def dump_then_crash(payload, handle):
            real_dump(payload, handle)
            handle.truncate(handle.tell() // 2)
            raise OSError("disk vanished mid-write")

        monkeypatch.setattr(pickle, "dump", dump_then_crash)
        with pytest.raises(ClientError) as err:
            client.snapshot("crash")
        assert err.value.status == 500
        monkeypatch.undo()
        spool = server.manager.snapshot_dir
        assert sorted(p.name for p in spool.iterdir() if "crash" in p.name) == [
            "crash.session"
        ]
        client.evict("crash")
        client.load("crash")
        assert canonical(client.target("crash")) == canonical(before)
        assert client.info("crash")["source_facts"] == 9
        client.evict("crash")

    def test_load_unknown_is_404(self, client):
        with pytest.raises(ClientError) as err:
            client.load("never-snapshotted")
        assert err.value.status == 404


class TestErrorMapping:
    """Malformed requests are 4xx, never 5xx."""

    @pytest.mark.parametrize(
        "method,path,payload,expected",
        [
            ("GET", "/nope", None, 404),
            ("PUT", "/sessions", {}, 405),
            ("POST", "/sessions", {"v": 1}, 400),
            ("POST", "/sessions", {"v": 1, "name": "x y", "setting": {}, "source": {}}, 400),
            (
                "POST",
                "/sessions",
                {"v": 1, "name": "ok", "setting": {"junk": 1}, "source": {}},
                400,
            ),
            ("POST", "/sessions/ghost/delta", {"v": 1, "delta": {"add": []}}, 404),
            ("GET", "/sessions/ghost", None, 404),
            ("POST", "/sessions/ghost/query", {"v": 1, "query": "x"}, 404),
            ("DELETE", "/sessions/ghost", None, 404),
        ],
    )
    def test_statuses(self, client, method, path, payload, expected):
        with pytest.raises(ClientError) as err:
            client.request(method, path, payload)
        assert err.value.status == expected

    def test_bad_fact_payload(self, client):
        client.create("facts", ORG_SETTING_JSON, org_source_json(5))
        with pytest.raises(ClientError) as err:
            client.delta("facts", add=[{"bogus": True}])
        assert err.value.status == 400
        assert "add[0]" in str(err.value)
        client.evict("facts")

    def test_bad_query_text(self, client):
        client.create("badq", ORG_SETTING_JSON, org_source_json(5))
        with pytest.raises(ClientError) as err:
            client.query("badq", "this is not a rule")
        assert 400 <= err.value.status < 500
        client.evict("badq")

    def test_invalid_json_body(self, server):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        connection.request(
            "POST",
            "/sessions",
            body=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 400
        response.read()
        connection.close()

    def test_non_utf8_body_is_400(self, server, client):
        # A body that is not UTF-8 is a bad body like any other: a 400,
        # not a connection dropped unanswered.
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        connection.request("POST", "/sessions", body=b"\x83\xcf{}")
        response = connection.getresponse()
        assert response.status == 400
        assert b"invalid JSON body" in response.read()
        connection.close()
        assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize(
        "head",
        [
            b"Content-Length: -5\r\n",
            b"Content-Length: +5\r\n",
            b"".join(b"X-Filler-%d: 1\r\n" % index for index in range(101)),
            b"X-Long: " + b"a" * 9000 + b"\r\n",
            b"X-Huge: " + b"a" * 70000 + b"\r\n",
        ],
        ids=["negative-length", "signed-length", "too-many-headers",
             "long-header-line", "header-line-over-buffer"],
    )
    def test_malformed_head_is_400(self, server, client, head):
        import socket

        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as raw:
            raw.sendall(b"POST /sessions HTTP/1.1\r\nHost: x\r\n" + head + b"\r\n")
            reply = b""
            while chunk := raw.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 "), reply[:80]
        assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize(
        "partial",
        [
            b"POST /sessions HTTP/1.1\r\nHost: x\r\n",
            b"POST /sessions HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"v\": 1",
        ],
        ids=["stalled-head", "stalled-body"],
    )
    def test_stalled_request_is_408(self, server, client, monkeypatch, partial):
        import socket

        from repro.server import app

        monkeypatch.setattr(app, "REQUEST_READ_TIMEOUT", 0.2)
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as raw:
            raw.sendall(partial)
            reply = b""
            while chunk := raw.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 408 "), reply[:80]
        assert client.healthz()["status"] == "ok"

    def test_replace_must_be_a_boolean(self, client):
        with pytest.raises(ClientError) as err:
            client.post(
                "/sessions",
                {
                    "name": "strict",
                    "setting": ORG_SETTING_JSON,
                    "source": org_source_json(3),
                    "replace": "no",
                },
            )
        assert err.value.status == 400
        assert "'replace'" in str(err.value)

    def test_incremental_must_be_a_boolean(self, client):
        client.create("strict-inc", ORG_SETTING_JSON, org_source_json(3))
        with pytest.raises(ClientError) as err:
            client.post("/sessions/strict-inc/abstract", {"incremental": "false"})
        assert err.value.status == 400
        assert "'incremental'" in str(err.value)
        client.evict("strict-inc")

    @pytest.mark.parametrize("shards", [True, 0, 1.5, "2", None])
    def test_shards_must_be_a_positive_integer(self, client, shards):
        client.create("strict-shards", ORG_SETTING_JSON, org_source_json(3))
        with pytest.raises(ClientError) as err:
            client.post("/sessions/strict-shards/abstract", {"shards": shards})
        assert err.value.status == 400
        assert "'shards'" in str(err.value)
        client.evict("strict-shards")

    def test_failing_chase_is_409(self, client):
        # The medical key EGD fails on conflicting treatments.
        from repro.workloads import medical_conflicting_scenario

        scenario = medical_conflicting_scenario()
        with pytest.raises(ClientError) as err:
            client.create(
                "doomed",
                setting_to_json(scenario.setting),
                concrete_instance_to_json(scenario.source),
            )
        assert err.value.status == 409


class TestAbstract:
    def test_sharded_abstract_chase(self, client):
        client.create("abs", ORG_SETTING_JSON, org_source_json(12))
        result = client.abstract("abs", shards=2)
        assert result["regions"] > 0
        assert result["templates"] > 0
        assert len(result["shards"]) == 2
        for report in result["shards"]:
            assert set(report) == {"shard", "regions", "nulls", "ms"}
        client.evict("abs")

    def test_stats_shape(self, client):
        stats = client.stats()
        assert set(stats) == {"sessions", "cache"}
        assert {"hits", "misses", "evictions"} <= set(stats["cache"])


class TestConcurrency:
    def test_concurrent_sessions_make_progress(self, server):
        names = [f"conc-{index}" for index in range(4)]
        errors: list[BaseException] = []

        def worker(name: str, offset: int) -> None:
            try:
                with ServerClient(port=server.port) as mine:
                    mine.create(
                        name, ORG_SETTING_JSON, org_source_json(6 + offset)
                    )
                    for step in range(2):
                        fact = concrete_fact_to_json(
                            ORG_FACTS[6 + offset + step]
                        )
                        mine.delta(name, add=[fact])
                    answers = mine.query(
                        name, "answer(e, m) :- Reports(e, m)"
                    )
                    assert "answers" in answers
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(name, index))
            for index, name in enumerate(names)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors

        with ServerClient(port=server.port) as check:
            live = {s["name"] for s in check.sessions()}
            assert set(names) <= live
            for index, name in enumerate(names):
                assert check.info(name)["source_facts"] == 8 + index
                check.evict(name)


class TestEmploymentWorkload:
    """A second mapping through the same daemon (schema independence)."""

    def test_figure9_served(self, client):
        client.create(
            "emp",
            setting_to_json(employment_setting()),
            concrete_instance_to_json(employment_source_concrete()),
        )
        target = client.target("emp")
        assert len(target["facts"]) == 5  # Figure 9
        client.evict("emp")
