"""Unit tests for the content-addressed chase cache (repro.server.cache).

Entries hold the chase's own target, shared by every session served
from them and never changed after the chase; replay state stays with
each session.  These tests pin that contract.
"""

import json
import sys
import threading
from typing import Callable

from repro.concrete import ConcreteInstance, c_chase, concrete_fact
from repro.deltas import SourceDelta
from repro.dependencies import DataExchangeSetting
from repro.query import eval as query_eval
from repro.relational import Schema
from repro.serialize import chase_request_digest, concrete_instance_to_json
from repro.serialize.jsonio import setting_to_json
from repro.server.cache import CachedChase, ChaseCache
from repro.server.sessions import SessionManager
from repro.temporal import Interval
from repro.workloads import (
    employment_setting,
    employment_source_concrete,
    exchange_setting_org,
    random_org_history,
)

import pytest

ORG_SETTING = exchange_setting_org()
ORG_FACTS = list(random_org_history(people=8, timeline=16, seed=11).instance)
JOIN_QUERY = "answer(e, m, t) :- Reports(e, m) & Log(e, t, s)"


def canonical(instance) -> str:
    return json.dumps(
        concrete_instance_to_json(instance), sort_keys=True, separators=(",", ":")
    )


def org_source_json(count: int) -> dict:
    instance = ConcreteInstance()
    for fact in ORG_FACTS[:count]:
        instance.add(fact)
    return concrete_instance_to_json(instance)


WIDE = 40
WIDE_SETTING = DataExchangeSetting.create(
    Schema.of(**{f"R{i}": ("A", "B") for i in range(WIDE)}),
    Schema.of(**{f"T{i}": ("A", "B") for i in range(WIDE)}),
    st_tgds=[f"R{i}(x, y) -> T{i}(x, y)" for i in range(WIDE)],
)


def wide_source_json(seed: int) -> dict:
    """Copies of one stamp per name: joins on the name never fragment."""
    instance = ConcreteInstance()
    for i in range(WIDE):
        for j in range(60):
            instance.add(
                concrete_fact(
                    f"R{i}", f"p{j}", f"c{(j + seed) % 7}", interval=Interval(j, j + 2)
                )
            )
    return concrete_instance_to_json(instance)


def run_concurrently(workers: list[Callable[[], None]]) -> list[BaseException]:
    """Start *workers* together on threads, switching as often as possible."""
    barrier = threading.Barrier(len(workers))
    errors: list[BaseException] = []

    def guarded(work: Callable[[], None]) -> None:
        try:
            barrier.wait(timeout=30)
            work()
        except BaseException as exc:  # noqa: BLE001 - returned to the caller
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(work,)) for work in workers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


@pytest.fixture(scope="module")
def chased():
    setting = employment_setting()
    source = employment_source_concrete()
    digest = chase_request_digest(setting, source)
    return digest, c_chase(source, setting, incremental=True)


@pytest.fixture(scope="module")
def entry(chased) -> CachedChase:
    digest, result = chased
    return CachedChase.from_result(digest, result)


class RecordingCache(ChaseCache):
    """A cache that remembers each entry's canonical JSON at ``put`` time."""

    def __init__(self, max_entries: int = 64):
        super().__init__(max_entries=max_entries)
        self.at_put: dict[str, tuple[CachedChase, str]] = {}

    def put(self, entry: CachedChase) -> None:
        self.at_put[entry.digest] = (entry, canonical(entry.target))
        super().put(entry)


class TestCachedChase:
    def test_records_outcome(self, entry):
        assert not entry.failed
        assert entry.failure is None
        assert entry.facts == 5  # Figure 9
        assert entry.steps > 0

    def test_entry_is_the_chase_result_target(self, chased, entry):
        _digest, result = chased
        assert entry.target is result.target
        assert entry.materialize() is result.target
        assert entry.materialize() is entry.materialize()


class TestSharedEntries:
    """Sessions adopt cached targets without copying them."""

    def manager(self) -> SessionManager:
        manager = SessionManager()
        manager.cache = RecordingCache()
        return manager

    def test_entries_never_change_after_put(self):
        manager = self.manager()
        setting_json = setting_to_json(ORG_SETTING)
        manager.create("a", setting_json, org_source_json(10))
        manager.create("b", setting_json, org_source_json(10))  # a hit
        assert manager._get("a").target is manager._get("b").target
        for step in range(4):
            fresh = SourceDelta(add=(ORG_FACTS[10 + step],))
            manager.delta("a", fresh)
            manager.query("a", JOIN_QUERY)
            manager.query("b", JOIN_QUERY)
        # revert to the state two deltas back: a cache hit
        revert = SourceDelta(remove=(ORG_FACTS[13], ORG_FACTS[12]))
        assert manager.delta("a", revert)["cached"] is True
        manager.query("a", "answer(e, m) :- Reports(e, m)")
        manager.delta("b", SourceDelta(remove=(ORG_FACTS[0],)))
        manager.query("b", JOIN_QUERY)
        assert len(manager.cache.at_put) >= 6
        for digest, (recorded, at_put) in manager.cache.at_put.items():
            assert canonical(recorded.target) == at_put, digest

    def test_fresh_delta_after_hit_matches_cold_chase(self):
        manager = self.manager()
        setting_json = setting_to_json(ORG_SETTING)
        manager.create("s", setting_json, org_source_json(10))
        manager.delta("s", SourceDelta(add=(ORG_FACTS[10],)))
        hit = manager.delta("s", SourceDelta(remove=(ORG_FACTS[10],)))
        assert hit["cached"] is True
        fresh = manager.delta("s", SourceDelta(add=(ORG_FACTS[11], ORG_FACTS[12])))
        assert fresh["cached"] is False
        session = manager._get("s")
        cold = c_chase(session.source, ORG_SETTING)
        assert not cold.failed
        assert canonical(session.target) == canonical(cold.target)

    def test_leaving_a_target_drops_its_normalization_memo(self):
        manager = SessionManager()
        manager.create("s", setting_to_json(ORG_SETTING), org_source_json(10))
        manager.query("s", JOIN_QUERY)
        first = manager._get("s").target
        assert first in query_eval._NORMALIZATION_MEMO
        manager.delta("s", SourceDelta(add=(ORG_FACTS[10],)))
        assert first not in query_eval._NORMALIZATION_MEMO
        manager.query("s", JOIN_QUERY)
        second = manager._get("s").target
        manager.evict("s")
        assert second not in query_eval._NORMALIZATION_MEMO

    def test_concurrent_queries_on_a_shared_target(self):
        manager = SessionManager()
        setting_json = setting_to_json(ORG_SETTING)
        manager.create("left", setting_json, org_source_json(14))
        assert manager.create("right", setting_json, org_source_json(14))["cached"]
        assert manager._get("left").target is manager._get("right").target
        queries = [JOIN_QUERY, "answer(e) :- Reports(e, m); answer(e) :- Log(e, t, s)"]
        answers: list[tuple[str, list]] = []

        def worker(index: int) -> Callable[[], None]:
            name = ("left", "right")[index % 2]
            query = queries[(index // 2) % 2]
            return lambda: answers.append(
                (query, manager.query(name, query)["answers"])
            )

        errors = run_concurrently([worker(index) for index in range(8)])
        assert not errors, errors[0]
        assert len(answers) == 8
        for query in queries:
            seen = [rows for asked, rows in answers if asked == query]
            assert len(seen) == 4
            assert seen[0]
            assert all(rows == seen[0] for rows in seen)

    def test_join_copy_races_first_lookups_on_other_relations(self):
        # A multi-atom query that fragments nothing copies the shared
        # target's warm lifted view; single-atom queries on the sibling
        # session build that view's caches for relations it lacks.
        manager = SessionManager()
        setting_json = setting_to_json(WIDE_SETTING)
        half = WIDE // 2
        joins = [
            f"answer(a, c) :- T{i}(a, b) & T{i + 1}(a, c)" for i in range(half - 1)
        ]
        singles = [f"answer(b) :- T{i}('p2', b)" for i in range(half, WIDE)]
        for round_ in range(4):
            left, right = f"left{round_}", f"right{round_}"
            manager.create(left, setting_json, wide_source_json(round_))
            assert manager.create(right, setting_json, wide_source_json(round_))[
                "cached"
            ]
            for i in range(half):
                manager.query(right, f"answer(b) :- T{i}('p1', b)")
            answers: dict[str, list] = {}

            def ask(name: str, texts: list[str]) -> Callable[[], None]:
                def run() -> None:
                    for text in texts:
                        answers[text] = manager.query(name, text)["answers"]

                return run

            errors = run_concurrently([ask(left, joins), ask(right, singles)])
            assert not errors, errors[0]
        cold = SessionManager()
        cold.create("cold", setting_json, wide_source_json(3))
        for text in joins + singles:
            assert answers[text] == cold.query("cold", text)["answers"], text


class TestChaseCache:
    def test_miss_then_hit(self, entry):
        cache = ChaseCache(max_entries=4)
        assert cache.get(entry.digest) is None
        cache.put(entry)
        assert cache.get(entry.digest) is entry
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_order(self, entry):
        cache = ChaseCache(max_entries=2)
        first = CachedChase(
            digest="a" * 64,
            target=entry.target,
            facts=entry.facts,
            steps=entry.steps,
            failed=False,
            failure=None,
        )
        second = CachedChase(
            digest="b" * 64,
            target=entry.target,
            facts=entry.facts,
            steps=entry.steps,
            failed=False,
            failure=None,
        )
        cache.put(first)
        cache.put(second)
        assert cache.get(first.digest) is first  # refresh: first is now MRU
        cache.put(entry)  # evicts second, the LRU
        assert cache.get(second.digest) is None
        assert cache.get(first.digest) is first
        assert cache.get(entry.digest) is entry
        assert cache.stats()["evictions"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ChaseCache(max_entries=0)

    def test_len_tracks_entries(self, entry):
        cache = ChaseCache(max_entries=4)
        assert len(cache) == 0
        cache.put(entry)
        assert len(cache) == 1
        cache.put(entry)  # same digest: replaces, not grows
        assert len(cache) == 1
