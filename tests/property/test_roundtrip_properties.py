"""Property-based round-trip tests: serialization, pickling, coalescing."""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstract_view import semantics
from repro.chase import NullFactory
from repro.concrete import c_chase
from repro.serialize import (
    concrete_instance_from_json,
    concrete_instance_to_json,
    instance_from_csv_dict,
    instance_to_csv_dict,
)
from repro.workloads import exchange_setting_join

from .strategies import concrete_instances, employment_instances, relational_instances


class TestSerializationRoundtrips:
    @settings(max_examples=50, deadline=None)
    @given(concrete_instances())
    def test_json_roundtrip(self, instance):
        payload = concrete_instance_to_json(instance)
        assert concrete_instance_from_json(payload) == instance

    @settings(max_examples=50, deadline=None)
    @given(concrete_instances())
    def test_csv_roundtrip(self, instance):
        tables = instance_to_csv_dict(instance)
        assert instance_from_csv_dict(tables) == instance

    @settings(max_examples=20, deadline=None)
    @given(employment_instances())
    def test_solution_with_nulls_roundtrips(self, instance):
        result = c_chase(instance, exchange_setting_join())
        if not result.succeeded:
            return
        solution = result.target
        assert concrete_instance_from_json(
            concrete_instance_to_json(solution)
        ) == solution
        assert instance_from_csv_dict(instance_to_csv_dict(solution)) == solution


class TestPickleRoundtrips:
    """Session snapshots are pickles: values must survive them whole."""

    @settings(max_examples=60, deadline=None)
    @given(instance=relational_instances())
    def test_pickle_preserves_equality_and_indexes(self, instance):
        # Warm the lazy caches so the round trip has to discard them.
        for relation in instance.relation_names():
            instance.lookup(relation, {})
        clone = pickle.loads(pickle.dumps(instance))
        assert clone == instance
        for relation in instance.relation_names():
            for item in instance.facts_of(relation):
                for position, value in enumerate(item.args):
                    assert clone.lookup(
                        relation, {position: value}
                    ) == instance.lookup(relation, {position: value})

    @settings(max_examples=50, deadline=None)
    @given(source=concrete_instances())
    def test_concrete_pickle_preserves_lifted_view(self, source):
        source.lifted()
        clone = pickle.loads(pickle.dumps(source))
        assert clone == source
        assert clone.lifted() == source.lifted()

    @settings(max_examples=40, deadline=None)
    @given(
        prefix=st.sampled_from(("N", "Ns0_", "Ng2s1_")),
        warmup=st.integers(min_value=0, max_value=20),
        issue=st.integers(min_value=1, max_value=10),
    )
    def test_null_factory_pickle_keeps_transcript(self, prefix, warmup, issue):
        original = NullFactory(prefix=prefix)
        for _ in range(warmup):
            original.fresh()
        pickled = pickle.loads(pickle.dumps(original))
        produced = [original.fresh().name for _ in range(issue)]
        assert [pickled.fresh().name for _ in range(issue)] == produced


class TestCoalescingProperties:
    @settings(max_examples=50, deadline=None)
    @given(concrete_instances())
    def test_coalesce_idempotent(self, instance):
        once = instance.coalesce()
        assert once.coalesce() == once

    @settings(max_examples=50, deadline=None)
    @given(concrete_instances())
    def test_coalesce_preserves_semantics(self, instance):
        assert semantics(instance.coalesce()).same_snapshots_as(
            semantics(instance)
        )

    @settings(max_examples=50, deadline=None)
    @given(concrete_instances())
    def test_coalesce_output_is_coalesced(self, instance):
        assert instance.coalesce().is_coalesced()

    @settings(max_examples=50, deadline=None)
    @given(concrete_instances())
    def test_coalesce_never_grows(self, instance):
        assert len(instance.coalesce()) <= len(instance)

    @settings(max_examples=20, deadline=None)
    @given(employment_instances())
    def test_chase_of_coalesced_source_equivalent(self, instance):
        # Coalescing the source never changes the exchange semantics.
        from repro.abstract_view import homomorphically_equivalent

        setting = exchange_setting_join()
        raw = c_chase(instance, setting)
        merged = c_chase(instance.coalesce(), setting)
        assert raw.failed == merged.failed
        if raw.succeeded:
            assert homomorphically_equivalent(
                semantics(raw.target), semantics(merged.target)
            )
