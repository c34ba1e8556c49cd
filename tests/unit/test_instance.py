"""Unit tests for relational instances (snapshots)."""

import sys
import threading

import pytest

from repro.errors import SchemaError
from repro.relational import Constant, Fact, Instance, LabeledNull, Schema, fact


@pytest.fixture
def simple() -> Instance:
    return Instance(
        [
            fact("E", "Ada", "IBM"),
            fact("E", "Bob", "IBM"),
            fact("S", "Ada", "18k"),
        ]
    )


class TestMutation:
    def test_add_returns_novelty(self, simple):
        assert simple.add(fact("E", "Cyd", "HP"))
        assert not simple.add(fact("E", "Cyd", "HP"))

    def test_add_all_counts_new(self, simple):
        added = simple.add_all([fact("E", "Ada", "IBM"), fact("E", "Dee", "HP")])
        assert added == 1

    def test_discard(self, simple):
        assert simple.discard(fact("S", "Ada", "18k"))
        assert not simple.discard(fact("S", "Ada", "18k"))
        assert fact("S", "Ada", "18k") not in simple

    def test_schema_validation(self):
        schema = Schema.of(E=("Name", "Company"))
        inst = Instance(schema=schema)
        inst.add(fact("E", "Ada", "IBM"))
        with pytest.raises(SchemaError):
            inst.add(fact("F", "x"))
        with pytest.raises(SchemaError):
            inst.add(fact("E", "just-one"))


class TestQueries:
    def test_len_and_bool(self, simple):
        assert len(simple) == 3
        assert simple
        assert not Instance()

    def test_contains(self, simple):
        assert fact("E", "Ada", "IBM") in simple
        assert fact("E", "Ada", "HP") not in simple
        assert "not a fact" not in simple

    def test_relation_names_sorted(self, simple):
        assert simple.relation_names() == ("E", "S")

    def test_facts_of(self, simple):
        assert simple.facts_of("E") == {
            fact("E", "Ada", "IBM"),
            fact("E", "Bob", "IBM"),
        }
        assert simple.facts_of("Z") == frozenset()

    def test_iteration_deterministic(self, simple):
        assert list(simple) == sorted(simple.facts(), key=Fact.sort_key)


class TestLookup:
    def test_lookup_by_position(self, simple):
        hits = simple.lookup("E", {1: Constant("IBM")})
        assert hits == {fact("E", "Ada", "IBM"), fact("E", "Bob", "IBM")}

    def test_lookup_multiple_positions(self, simple):
        hits = simple.lookup("E", {0: Constant("Ada"), 1: Constant("IBM")})
        assert hits == {fact("E", "Ada", "IBM")}

    def test_lookup_no_bindings_returns_all(self, simple):
        assert simple.lookup("S", {}) == simple.facts_of("S")

    def test_lookup_miss(self, simple):
        assert simple.lookup("E", {0: Constant("Zed")}) == frozenset()
        assert simple.lookup("Nope", {}) == frozenset()

    def test_lookup_after_mutation_sees_new_facts(self, simple):
        simple.lookup("E", {1: Constant("IBM")})  # build the index
        simple.add(fact("E", "Eve", "IBM"))
        hits = simple.lookup("E", {1: Constant("IBM")})
        assert fact("E", "Eve", "IBM") in hits


class TestTermQueries:
    def test_nulls_and_completeness(self):
        null = LabeledNull("N")
        inst = Instance([fact("Emp", "Ada", null)])
        assert inst.nulls() == {null}
        assert not inst.is_complete
        assert Instance([fact("E", "a")]).is_complete

    def test_constants(self, simple):
        values = {c.value for c in simple.constants()}
        assert values == {"Ada", "Bob", "IBM", "18k"}

    def test_active_domain(self):
        null = LabeledNull("N")
        inst = Instance([fact("R", "a", null)])
        assert inst.active_domain() == {Constant("a"), null}


class TestTransformation:
    def test_substitute_merges_facts(self):
        n1, n2 = LabeledNull("N1"), LabeledNull("N2")
        inst = Instance([fact("R", "a", n1), fact("R", "a", n2)])
        merged = inst.substitute({n1: n2})
        assert len(merged) == 1
        assert fact("R", "a", n2) in merged

    def test_substitute_empty_mapping_copies(self, simple):
        clone = simple.substitute({})
        assert clone == simple
        clone.add(fact("E", "Eve", "HP"))
        assert len(simple) == 3  # original untouched

    def test_copy_independent(self, simple):
        clone = simple.copy()
        clone.discard(fact("S", "Ada", "18k"))
        assert fact("S", "Ada", "18k") in simple

    def test_cache_preserving_copy_races_lazy_lookups(self):
        # A shared read-only instance may be copied on one thread while a
        # lookup on another builds a relation's index for the first time.
        relations = 48

        def race() -> list[BaseException]:
            inst = Instance(
                fact(f"R{r}", f"p{i}", f"c{i % 5}")
                for r in range(relations)
                for i in range(24)
            )
            for r in range(0, relations, 2):
                inst.lookup_ordered(f"R{r}", {0: Constant("p0")})
            errors: list[BaseException] = []
            barrier = threading.Barrier(2)

            def copier() -> None:
                try:
                    barrier.wait(timeout=30)
                    for _ in range(20):
                        clone = inst.copy(preserve_caches=True)
                        assert clone == inst
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            def prober() -> None:
                try:
                    barrier.wait(timeout=30)
                    for r in range(1, relations, 2):
                        assert len(inst.lookup_ordered(f"R{r}", {})) == 24
                        inst.lookup_ordered(f"R{r}", {1: Constant("c1")})
                except BaseException as exc:  # noqa: BLE001 - asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=copier), threading.Thread(target=prober)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            return errors

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            failures = [errors for errors in (race() for _ in range(12)) if errors]
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[0]

    def test_union(self, simple):
        other = Instance([fact("S", "Bob", "13k")])
        combined = simple.union(other)
        assert len(combined) == 4
        assert len(simple) == 3

    def test_restrict_to(self, simple):
        only_e = simple.restrict_to(["E"])
        assert only_e.relation_names() == ("E",)
        assert len(only_e) == 2

    def test_map_facts(self, simple):
        renamed = simple.map_facts(lambda f: Fact("X" + f.relation, f.args))
        assert renamed.relation_names() == ("XE", "XS")


class TestEquality:
    def test_set_semantics(self):
        a = Instance([fact("R", 1), fact("R", 2)])
        b = Instance([fact("R", 2), fact("R", 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_not_equal_to_other_types(self, simple):
        assert simple != {"not": "an instance"}
