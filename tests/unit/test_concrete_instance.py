"""Unit tests for concrete temporal instances."""

import pytest

from repro.concrete import ConcreteFact, ConcreteInstance, concrete_fact
from repro.relational import Constant, Instance, fact
from repro.relational.terms import AnnotatedNull
from repro.temporal import Interval, IntervalSet, interval


@pytest.fixture
def instance(source) -> ConcreteInstance:
    """Figure 4 instance from the shared fixture."""
    return source


class TestBasics:
    def test_len_iter_contains(self, instance):
        assert len(instance) == 5
        listed = list(instance)
        assert len(listed) == 5
        assert concrete_fact(
            "E", "Ada", "IBM", interval=Interval(2012, 2014)
        ) in instance

    def test_add_and_discard(self):
        inst = ConcreteInstance()
        item = concrete_fact("R", "a", interval=Interval(1, 3))
        assert inst.add(item)
        assert not inst.add(item)
        assert inst.discard(item)
        assert not inst.discard(item)
        assert len(inst) == 0

    def test_replace_swaps_fragments(self):
        inst = ConcreteInstance()
        item = concrete_fact("R", "a", interval=Interval(1, 5))
        inst.add(item)
        inst.replace(item, item.fragment([3]))
        assert len(inst) == 2
        assert item not in inst

    def test_from_buckets_matches_add(self, instance):
        buckets = {name: instance.facts_of(name) for name in instance.relation_names()}
        buckets["R"] = frozenset()
        built = ConcreteInstance.from_buckets(buckets)
        assert built == instance
        assert built.relation_names() == ("E", "S")
        # The instance owns its buckets: adding does not touch the input.
        built.add(concrete_fact("E", "Bob", "HP", interval=Interval(1, 2)))
        assert len(buckets["E"]) == 3 and len(built) == 6

    def test_relation_names_and_facts_of(self, instance):
        assert instance.relation_names() == ("E", "S")
        assert len(instance.facts_of("E")) == 3

    def test_equality_set_semantics(self, instance):
        clone = ConcreteInstance(instance.facts())
        assert clone == instance
        assert hash(clone) == hash(instance)


class TestTemporalStructure:
    def test_breakpoints(self, instance):
        assert instance.breakpoints() == (2012, 2013, 2014, 2015, 2018)

    def test_horizon(self, instance):
        assert instance.horizon() == 2018

    def test_active_time(self, instance):
        assert instance.active_time() == IntervalSet.of(interval(2012))

    def test_intervals(self, instance):
        assert len(instance.intervals()) == 5

    def test_empty_instance_horizon_zero(self):
        assert ConcreteInstance().horizon() == 0


class TestSnapshots:
    def test_snapshot_2013(self, instance):
        snap = instance.snapshot(2013)
        assert snap == Instance(
            [
                fact("E", "Ada", "IBM"),
                fact("E", "Bob", "IBM"),
                fact("S", "Ada", "18k"),
            ]
        )

    def test_snapshot_2012(self, instance):
        assert instance.snapshot(2012) == Instance([fact("E", "Ada", "IBM")])

    def test_snapshot_before_everything_is_empty(self, instance):
        assert not instance.snapshot(2000)

    def test_snapshot_projects_nulls(self):
        null = AnnotatedNull("N", Interval(1, 3))
        inst = ConcreteInstance(
            [concrete_fact("R", "a", null, interval=Interval(1, 3))]
        )
        snap = inst.snapshot(2)
        (item,) = snap.facts()
        assert item.args[1].name == "N@2"

    def test_facts_at(self, instance):
        covering = instance.facts_at(2016)
        assert {f.relation for f in covering} == {"E", "S"}
        assert len(covering) == 4


class TestLiftedView:
    def test_lifted_roundtrip(self, instance):
        lifted = instance.lifted()
        assert len(lifted) == len(instance)
        back = {ConcreteInstance.from_lifted_fact(item) for item in lifted.facts()}
        assert back == instance.facts()

    def test_lifted_view_tracks_mutation(self, instance):
        # The lifted view is maintained incrementally: adds and removals
        # show up without a rebuild.
        size_before = len(instance.lifted())
        added = concrete_fact("E", "Zoe", "SUN", interval=interval(2020))
        instance.add(added)
        assert len(instance.lifted()) == size_before + 1
        assert added.lifted() in instance.lifted()
        instance.discard(added)
        assert len(instance.lifted()) == size_before
        assert added.lifted() not in instance.lifted()

    def test_from_lifted_fact_requires_interval_column(self):
        from repro.errors import InstanceError

        with pytest.raises(InstanceError):
            ConcreteInstance.from_lifted_fact(fact("R", "a", "b"))


class TestNullsAndCompleteness:
    def test_complete_instance(self, instance):
        assert instance.is_complete
        assert instance.nulls() == frozenset()

    def test_nulls_reported(self):
        null = AnnotatedNull("N", Interval(1, 3))
        inst = ConcreteInstance(
            [concrete_fact("R", "a", null, interval=Interval(1, 3))]
        )
        assert inst.nulls() == {null}
        assert not inst.is_complete

    def test_constants(self, instance):
        values = {c.value for c in instance.constants()}
        assert {"Ada", "Bob", "IBM", "Google", "18k", "13k"} == values


class TestCoalescing:
    def test_figure4_is_coalesced(self, instance):
        assert instance.is_coalesced()

    def test_adjacent_value_equal_facts_not_coalesced(self):
        inst = ConcreteInstance(
            [
                concrete_fact("R", "a", interval=Interval(1, 3)),
                concrete_fact("R", "a", interval=Interval(3, 5)),
            ]
        )
        assert not inst.is_coalesced()
        merged = inst.coalesce()
        assert merged == ConcreteInstance(
            [concrete_fact("R", "a", interval=Interval(1, 5))]
        )

    def test_different_values_stay_apart(self):
        inst = ConcreteInstance(
            [
                concrete_fact("R", "a", interval=Interval(1, 3)),
                concrete_fact("R", "b", interval=Interval(3, 5)),
            ]
        )
        assert inst.is_coalesced()
        assert inst.coalesce() == inst

    def test_null_fragments_recoalesce(self):
        # Fragments of one unknown merge back into a wider annotation.
        inst = ConcreteInstance(
            [
                ConcreteFact("R", (AnnotatedNull("N", Interval(1, 3)),), Interval(1, 3)),
                ConcreteFact("R", (AnnotatedNull("N", Interval(3, 6)),), Interval(3, 6)),
            ]
        )
        merged = inst.coalesce()
        (item,) = merged.facts()
        assert item.interval == Interval(1, 6)
        assert item.data == (AnnotatedNull("N", Interval(1, 6)),)

    def test_coalesce_idempotent(self, instance):
        assert instance.coalesce().coalesce() == instance.coalesce()


class TestSubstitution:
    def test_substitute_merges(self):
        null = AnnotatedNull("N", Interval(1, 3))
        inst = ConcreteInstance(
            [
                concrete_fact("R", "a", null, interval=Interval(1, 3)),
                concrete_fact("R", "a", "b", interval=Interval(1, 3)),
            ]
        )
        merged = inst.substitute({null: Constant("b")})
        assert len(merged) == 1

    def test_substitute_preserves_original(self):
        null = AnnotatedNull("N", Interval(1, 3))
        inst = ConcreteInstance(
            [concrete_fact("R", null, interval=Interval(1, 3))]
        )
        inst.substitute({null: Constant("b")})
        assert inst.nulls() == {null}

    def test_union(self, instance):
        extra = ConcreteInstance(
            [concrete_fact("E", "Zoe", "SUN", interval=interval(2020))]
        )
        combined = instance.union(extra)
        assert len(combined) == 6
        assert len(instance) == 5
