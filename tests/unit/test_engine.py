"""Unit tests for the delta-driven engine core and the region scheduler.

Covers the pieces the chase procedures compose: in-place substitution
with delta reporting (both instance kinds), semi-naive equation
enumeration, the shard-partitioned null factory (the regression target:
no name collisions across shards, ever), and the scheduler's
deterministic merge including per-shard reports.
"""

from __future__ import annotations

import pytest

from repro.abstract_view import abstract_chase, semantics
from repro.abstract_view.hom import homomorphically_equivalent
from repro.chase.nulls import NullFactory
from repro.concrete import ConcreteInstance, concrete_fact
from repro.relational import Constant, Instance, LabeledNull, fact
from repro.relational.formulas import Atom
from repro.relational.homomorphism import (
    iter_egd_equations,
    iter_egd_equations_delta,
    match_atom_against_fact,
)
from repro.relational.terms import AnnotatedNull, Variable
from repro.temporal import Interval
from repro.workloads import exchange_setting_join, random_employment_history


class TestSubstituteInPlace:
    def test_rewrites_only_affected_facts_and_returns_delta(self):
        n1, n2 = LabeledNull("N1"), LabeledNull("N2")
        instance = Instance(
            [fact("R", "a", n1), fact("R", "b", n2), fact("R", "c", "k")]
        )
        # Build the index first so the targeted path is exercised.
        instance.lookup_ordered("R", {1: n1})
        added = instance.substitute_in_place({n1: Constant("v")})
        assert added == [fact("R", "a", "v")]
        assert instance == Instance(
            [fact("R", "a", "v"), fact("R", "b", n2), fact("R", "c", "k")]
        )

    def test_merging_images_report_empty_delta(self):
        n1 = LabeledNull("N1")
        instance = Instance([fact("R", "a", n1), fact("R", "a", "v")])
        added = instance.substitute_in_place({n1: Constant("v")})
        assert added == []
        assert instance == Instance([fact("R", "a", "v")])

    def test_equivalent_to_functional_substitute(self):
        n1, n2 = LabeledNull("N1"), LabeledNull("N2")
        instance = Instance(
            [fact("R", n1, n2), fact("S", n2, "x"), fact("T", "y", "z")]
        )
        mapping = {n1: Constant("a"), n2: Constant("b")}
        expected = instance.substitute(mapping)
        instance.substitute_in_place(mapping)
        assert instance == expected

    def test_index_stays_consistent_after_in_place_substitution(self):
        n1 = LabeledNull("N1")
        instance = Instance([fact("R", "a", n1), fact("R", "b", n1)])
        instance.lookup_ordered("R", {1: n1})  # force the index
        instance.substitute_in_place({n1: Constant("v")})
        assert list(instance.lookup_ordered("R", {1: Constant("v")})) == [
            fact("R", "a", "v"),
            fact("R", "b", "v"),
        ]
        assert instance.lookup_ordered("R", {1: n1}) == ()

    def test_concrete_in_place_substitution_keeps_lifted_view(self):
        stamp = Interval(0, 5)
        null = AnnotatedNull("N1", stamp)
        instance = ConcreteInstance(
            [
                concrete_fact("R", "a", null, interval=stamp),
                concrete_fact("R", "b", "k", interval=stamp),
            ]
        )
        instance.lifted()
        added = instance.substitute_in_place({null: Constant("v")})
        assert [str(item) for item in added] == ["R+(a, v, [0, 5))"]
        assert instance == ConcreteInstance(
            [
                concrete_fact("R", "a", "v", interval=stamp),
                concrete_fact("R", "b", "k", interval=stamp),
            ]
        )
        # The lifted view was maintained, not rebuilt: probing it agrees.
        assert len(instance.lifted().facts_of("R")) == 2


class TestDeltaEnumeration:
    ATOMS = (
        Atom("R", (Variable("x"), Variable("y"))),
        Atom("R", (Variable("x"), Variable("y2"))),
    )

    def test_match_atom_against_fact_respects_repeats(self):
        atom = Atom("R", (Variable("x"), Variable("x")))
        assert match_atom_against_fact(atom, fact("R", "a", "a")) is not None
        assert match_atom_against_fact(atom, fact("R", "a", "b")) is None

    def test_delta_equations_cover_exactly_matches_touching_delta(self):
        n1, n2, n3 = (LabeledNull(f"N{i}") for i in range(1, 4))
        old = [fact("R", "a", n1), fact("R", "b", n2)]
        instance = Instance(old)
        new_fact = fact("R", "a", n3)
        instance.add(new_fact)
        x, y, y2 = Variable("x"), Variable("y"), Variable("y2")
        full = set(iter_egd_equations(self.ATOMS, y, y2, instance))
        delta = set(
            iter_egd_equations_delta(self.ATOMS, y, y2, instance, [new_fact])
        )
        # Delta equations = full equations minus the ones among old facts.
        old_only = set(iter_egd_equations(self.ATOMS, y, y2, Instance(old)))
        assert delta == full - old_only
        assert (n1, n3) in delta and (n3, n1) in delta
        assert (n1, n1) not in delta


class TestShardedNullFactory:
    def test_shard_namespaces_never_collide(self):
        """Regression: names issued by different shards (and the base
        factory) must be pairwise distinct regardless of interleaving."""
        base = NullFactory()
        shards = [base.for_shard(index) for index in range(4)]
        issued: list[str] = []
        for _round_index in range(50):
            for factory in shards:
                issued.append(factory.fresh_name())
            issued.append(base.fresh_name())
        assert len(issued) == len(set(issued))

    def test_shard_names_are_deterministic(self):
        factory = NullFactory().for_shard(2)
        assert factory.fresh_name() == "Ns2_1"
        assert factory.fresh_name() == "Ns2_2"

    def test_nested_sharding_stays_collision_free(self):
        base = NullFactory(prefix="M")
        inner = [base.for_shard(0).for_shard(i) for i in range(2)]
        names = {f.fresh_name() for f in inner} | {base.for_shard(0).fresh_name()}
        assert len(names) == 3

    def test_repeated_sharded_runs_on_one_factory_stay_disjoint(self):
        """Regression: two sharded abstract chases sharing one base
        factory must not reissue the same null names."""
        from repro.abstract_view import abstract_chase, semantics
        from repro.workloads import (
            exchange_setting_join,
            random_employment_history,
        )

        setting = exchange_setting_join()
        abstract = semantics(
            random_employment_history(people=2, timeline=12, seed=3).instance
        )
        shared = NullFactory()
        first = abstract_chase(
            abstract, setting, null_factory=shared, shards=2
        )
        second = abstract_chase(
            abstract, setting, null_factory=shared, shards=2
        )
        first_names = {n.base for n in first.target.per_snapshot_nulls()}
        second_names = {n.base for n in second.target.per_snapshot_nulls()}
        assert first_names and second_names
        assert first_names.isdisjoint(second_names)


class TestRegionScheduler:
    SETTING = exchange_setting_join()

    def _abstract(self):
        workload = random_employment_history(people=3, timeline=20, seed=5)
        return semantics(workload.instance)

    def test_sharded_result_equivalent_to_serial(self):
        abstract = self._abstract()
        serial = abstract_chase(abstract, self.SETTING)
        for shards in (2, 3, 16):
            sharded = abstract_chase(abstract, self.SETTING, shards=shards)
            assert sharded.succeeded
            assert homomorphically_equivalent(sharded.target, serial.target)
            assert set(sharded.region_results) == set(serial.region_results)

    def test_sharded_null_names_disjoint_across_shards(self):
        abstract = self._abstract()
        result = abstract_chase(abstract, self.SETTING, shards=3)
        per_shard: dict[str, set[str]] = {}
        for null in result.target.per_snapshot_nulls():
            assert null.base.startswith("Ns")
            shard_tag = null.base.split("_", 1)[0]
            per_shard.setdefault(shard_tag, set()).add(null.base)
        assert len(per_shard) > 1  # the work really was partitioned
        for tag, names in per_shard.items():
            for other_tag, other_names in per_shard.items():
                if tag != other_tag:
                    assert names.isdisjoint(other_names)

    def test_unsharded_run_advances_shared_factory(self):
        abstract = self._abstract()
        base = NullFactory()
        result = abstract_chase(abstract, self.SETTING, null_factory=base)
        assert result.succeeded
        assert base.issued == result.shard_reports[0].nulls_issued > 0
        # A second run off the same factory must not repeat null names.
        again = abstract_chase(abstract, self.SETTING, null_factory=base)
        first_nulls = {n.base for n in result.target.per_snapshot_nulls()}
        second_nulls = {n.base for n in again.target.per_snapshot_nulls()}
        assert first_nulls.isdisjoint(second_nulls)

    def test_shard_reports_account_for_all_regions(self):
        abstract = self._abstract()
        result = abstract_chase(abstract, self.SETTING, shards=4)
        assert sum(r.regions for r in result.shard_reports) == len(
            abstract.regions()
        )
        assert all(r.seconds >= 0 for r in result.shard_reports)

    def test_shards_one_is_byte_identical_to_legacy(self):
        abstract = self._abstract()
        one = abstract_chase(abstract, self.SETTING, shards=1)
        # Null names come from the single shared factory: N1, N2, …
        names = {null.base for null in one.target.per_snapshot_nulls()}
        assert all(name.startswith("N") and "_" not in name for name in names)

    def test_invalid_shards_and_executor_rejected(self):
        from repro.errors import InstanceError

        abstract = self._abstract()
        with pytest.raises(InstanceError):
            abstract_chase(abstract, self.SETTING, shards=0)
        # There is one serial scheduler: no executor can be chosen.
        with pytest.raises(TypeError, match="executor"):
            abstract_chase(
                abstract, self.SETTING, shards=2, executor="bogus"
            )
