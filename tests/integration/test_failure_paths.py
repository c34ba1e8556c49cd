"""Integration tests around failure modes and edge conditions."""

import pytest

from repro.abstract_view import abstract_chase, semantics
from repro.concrete import ConcreteInstance, c_chase, concrete_fact
from repro.dependencies import DataExchangeSetting
from repro.errors import ChaseFailureError
from repro.oracle import naive_c_chase
from repro.relational import Schema
from repro.temporal import Interval, interval


@pytest.fixture
def key_setting() -> DataExchangeSetting:
    return DataExchangeSetting.create(
        Schema.of(P=("K", "V")),
        Schema.of(T=("K", "V")),
        st_tgds=["P(k, v) -> T(k, v)"],
        egds=["T(k, v) & T(k, v2) -> v = v2"],
    )


class TestFailureBoundaries:
    def test_overlap_of_one_point_still_fails(self, key_setting):
        source = ConcreteInstance(
            [
                concrete_fact("P", "a", "1", interval=Interval(0, 5)),
                concrete_fact("P", "a", "2", interval=Interval(4, 9)),
            ]
        )
        assert c_chase(source, key_setting).failed

    def test_adjacent_stamps_never_fail(self, key_setting):
        source = ConcreteInstance(
            [
                concrete_fact("P", "a", "1", interval=Interval(0, 5)),
                concrete_fact("P", "a", "2", interval=Interval(5, 9)),
            ]
        )
        result = c_chase(source, key_setting)
        assert result.succeeded
        assert len(result.target) == 2

    def test_unbounded_overlap_fails(self, key_setting):
        source = ConcreteInstance(
            [
                concrete_fact("P", "a", "1", interval=interval(3)),
                concrete_fact("P", "a", "2", interval=interval(1000)),
            ]
        )
        assert c_chase(source, key_setting).failed

    def test_failure_agrees_across_views(self, key_setting):
        source = ConcreteInstance(
            [
                concrete_fact("P", "a", "1", interval=Interval(0, 5)),
                concrete_fact("P", "a", "2", interval=Interval(4, 9)),
            ]
        )
        concrete = c_chase(source, key_setting)
        abstract = abstract_chase(semantics(source), key_setting)
        assert concrete.failed and abstract.failed
        # Both report the same clash pair.
        assert {str(concrete.failure.left), str(concrete.failure.right)} == {
            str(abstract.failure.left),
            str(abstract.failure.right),
        }

    def test_failure_under_naive_normalization_too(self, key_setting):
        source = ConcreteInstance(
            [
                concrete_fact("P", "a", "1", interval=Interval(0, 5)),
                concrete_fact("P", "a", "2", interval=Interval(4, 9)),
            ]
        )
        assert naive_c_chase(source, key_setting).failed

    def test_unwrap_raises_with_context(self, key_setting):
        source = ConcreteInstance(
            [
                concrete_fact("P", "a", "1", interval=Interval(0, 5)),
                concrete_fact("P", "a", "2", interval=Interval(4, 9)),
            ]
        )
        with pytest.raises(ChaseFailureError) as err:
            c_chase(source, key_setting).unwrap()
        assert err.value.left is not None


class TestEdgeInstances:
    def test_single_point_intervals(self, key_setting):
        source = ConcreteInstance(
            [concrete_fact("P", "a", "1", interval=Interval(5, 6))]
        )
        result = c_chase(source, key_setting)
        assert result.succeeded
        assert len(result.target) == 1

    def test_far_future_stamps(self, key_setting):
        source = ConcreteInstance(
            [concrete_fact("P", "a", "1", interval=Interval(10**9, 10**9 + 5))]
        )
        result = c_chase(source, key_setting)
        assert result.succeeded

    def test_no_dependencies_setting(self):
        setting = DataExchangeSetting.create(
            Schema.of(P=("K",)), Schema.of(T=("K",))
        )
        source = ConcreteInstance(
            [concrete_fact("P", "a", interval=Interval(0, 5))]
        )
        result = c_chase(source, setting)
        assert result.succeeded and len(result.target) == 0

    def test_source_relations_unused_by_mapping(self, key_setting):
        source = ConcreteInstance(
            [concrete_fact("P", "a", "1", interval=Interval(0, 5))]
        )
        # Extra relation not mentioned by the mapping: rejected by the
        # schema-checked setting? No — the instance is schema-free, the
        # chase simply ignores unmatched relations.
        source.add(concrete_fact("Z", "noise", interval=Interval(0, 9)))
        result = c_chase(source, key_setting)
        assert result.succeeded
        assert result.target.relation_names() == ("T",)
