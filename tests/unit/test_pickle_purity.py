"""Regression tests: cached-state classes pickle identity fields only.

PR 5's replay bug was a cached salted ``Interval`` hash crossing a
process boundary inside a pickle; these tests pin the fix pattern for
every class the invariant linter (TDX001) flags as caching derived
state: warming the caches must not change the pickled bytes, and the
unpickled object must come back with its caches unset.
"""

import pickle

from repro.abstract_view.abstract_instance import TemplateFact
from repro.chase import NullFactory
from repro.concrete import ConcreteInstance, concrete_fact
from repro.dependencies.dependency import EGD, SourceToTargetTGD
from repro.dependencies.mapping import DataExchangeSetting
from repro.relational import Instance, fact
from repro.relational.formulas import Atom, TemporalConjunction
from repro.relational.schema import Schema
from repro.relational.terms import Constant, Variable
from repro.temporal.interval import Interval


def roundtrip(value):
    return pickle.loads(pickle.dumps(value))


class TestTemplateFact:
    def make(self) -> TemplateFact:
        return TemplateFact("Emp", (Constant("ada"),), Interval(3, 7))

    def test_warm_cache_not_pickled(self):
        fresh = self.make()
        warmed = self.make()
        warmed.at(5)  # populates the point-independent _pointless cache
        assert warmed._pointless is not None
        assert pickle.dumps(warmed) == pickle.dumps(fresh)

    def test_roundtrip_resets_cache_and_preserves_identity(self):
        warmed = self.make()
        warmed.at(5)
        clone = roundtrip(warmed)
        assert clone._pointless is None
        assert clone == warmed
        assert clone.at(5) == warmed.at(5)


class TestAtom:
    def make(self) -> Atom:
        return Atom("R", (Variable("x"), Constant(1)))

    def test_warm_cache_not_pickled(self):
        fresh = self.make()
        warmed = self.make()
        object.__setattr__(warmed, "_search_plan", ("plan",))
        assert pickle.dumps(warmed) == pickle.dumps(fresh)

    def test_roundtrip_resets_cache(self):
        warmed = self.make()
        object.__setattr__(warmed, "_search_plan", ("plan",))
        clone = roundtrip(warmed)
        assert clone._search_plan is None
        assert clone == warmed


class TestTemporalConjunction:
    def make(self) -> TemporalConjunction:
        return TemporalConjunction.shared(
            (Atom("R", (Variable("x"),)), Atom("S", (Variable("x"),)))
        )

    def test_warm_cache_not_pickled(self):
        fresh = self.make()
        warmed = self.make()
        warmed.normalized()  # populates _normalized
        assert warmed._normalized is not None
        assert pickle.dumps(warmed) == pickle.dumps(fresh)

    def test_roundtrip_resets_cache(self):
        warmed = self.make()
        warmed.normalized()
        clone = roundtrip(warmed)
        assert clone._normalized is None
        assert clone._lifted_atoms is None
        assert clone == warmed
        assert clone.normalized() == warmed.normalized()


class TestDependencies:
    def tgd(self) -> SourceToTargetTGD:
        return SourceToTargetTGD.parse("E(n,c) -> Emp(n,c,s)", name="st1")

    def egd(self) -> EGD:
        return EGD.parse("Emp(n,c,s) & Emp(n,c,s2) -> s = s2", name="e1")

    def test_tgd_warm_cache_not_pickled(self):
        fresh, warmed = self.tgd(), self.tgd()
        warmed.lift_lhs()  # populates _lifted_lhs
        assert warmed._lifted_lhs is not None
        assert pickle.dumps(warmed) == pickle.dumps(fresh)

    def test_tgd_roundtrip_resets_caches(self):
        warmed = self.tgd()
        warmed.lift_lhs()
        clone = roundtrip(warmed)
        assert clone._lifted_lhs is None
        assert clone._lifted_rhs is None
        assert clone == warmed
        assert str(clone.lift_lhs()) == str(warmed.lift_lhs())

    def test_egd_warm_cache_not_pickled(self):
        fresh, warmed = self.egd(), self.egd()
        warmed.lift_lhs()
        assert warmed._lifted_lhs is not None
        assert pickle.dumps(warmed) == pickle.dumps(fresh)

    def test_egd_roundtrip_resets_cache(self):
        warmed = self.egd()
        warmed.lift_lhs()
        clone = roundtrip(warmed)
        assert clone._lifted_lhs is None
        assert clone == warmed


class TestDataExchangeSetting:
    def make(self) -> DataExchangeSetting:
        return DataExchangeSetting.create(
            Schema.of(E=("n", "c")),
            Schema.of(Emp=("n", "c", "s")),
            st_tgds=["E(n,c) -> Emp(n,c,s)"],
            egds=["Emp(n,c,s) & Emp(n,c,s2) -> s = s2"],
        )

    def test_injected_engine_caches_not_pickled(self):
        fresh = self.make()
        warmed = self.make()
        # The chase engines stash compiled task lists in the setting's
        # __dict__ (see chase/standard.py and concrete/cchase.py).
        object.__setattr__(warmed, "_snapshot_egd_tasks", ("compiled",))
        object.__setattr__(warmed, "_concrete_egd_tasks", ("compiled",))
        assert pickle.dumps(warmed) == pickle.dumps(fresh)
        clone = roundtrip(warmed)
        assert "_snapshot_egd_tasks" not in clone.__dict__
        assert "_concrete_egd_tasks" not in clone.__dict__
        assert clone == warmed


class TestSnapshotValues:
    """Values a session snapshot pickles come back whole, caches rebuilt."""

    def test_instance_roundtrip_drops_and_rebuilds_caches(self):
        instance = Instance([fact("E", "ada", "ibm"), fact("E", "bob", "hp")])
        # Force the lazy index so the pickle has something to drop.
        assert instance.lookup("E", {0: Constant("ada")})
        clone = roundtrip(instance)
        assert clone == instance
        assert clone.lookup("E", {0: Constant("ada")}) == instance.lookup(
            "E", {0: Constant("ada")}
        )

    def test_concrete_instance_roundtrip(self):
        instance = ConcreteInstance(
            [
                concrete_fact("E", "ada", "ibm", interval=Interval(0, 5)),
                concrete_fact("S", "ada", "10k", interval=Interval(2, 7)),
            ]
        )
        assert instance.lifted()  # warm the cached view
        clone = roundtrip(instance)
        assert clone == instance
        assert clone.lifted() == instance.lifted()

    def test_fact_state_excludes_caches(self):
        item = fact("E", "ada", "ibm")
        hash(item)
        item.sort_key()
        assert item.__getstate__() == ("E", item.args)
        clone = roundtrip(item)
        assert clone == item and hash(clone) == hash(item)
        assert clone.sort_key() == item.sort_key()

    def test_null_factory_transcript_survives(self):
        factory = NullFactory()
        factory.fresh()
        factory.fresh()
        clone = roundtrip(factory)
        assert clone.fresh().name == factory.fresh().name
        assert clone.fresh_annotated(Interval(0, 2)) == factory.fresh_annotated(
            Interval(0, 2)
        )
        assert clone.for_shard(1, 2).prefix == factory.for_shard(1, 2).prefix
