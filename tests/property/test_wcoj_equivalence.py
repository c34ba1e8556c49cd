"""Worst-case-optimal join ≡ flat join ≡ scan, swept by Hypothesis.

The generic (wcoj) join of :mod:`repro.relational.homomorphism` promises
more than answer equality: its row sequence is **byte-identical** to the
flat written-order join's for *any* plan shape (the order contract
documented next to :func:`_iter_wcoj_rows`), which is what lets the
chase, normalization and the query evaluator switch engines without
perturbing traces, null numbering or goldens.  This suite sweeps that
contract over the shapes the join modes actually disagree on how to
compute:

* cyclic bodies — the triangle and the 4-cycle, where ``auto`` picks
  the generic join;
* skew-heavy hub graphs — many length-2 paths, few closing edges, the
  worst case for the flat join's intermediate results;
* acyclic paths/stars under *forced* ``wcoj`` mode, where ``auto``
  would keep the flat join but the order contract must still hold.

Three layers are checked: the raw plan rows (byte-identical sequence),
tgd-style homomorphism matching (same match set under every mode, plus a
brute-force nested-loop scan reference), and query answering (indexed
evaluator under every mode vs the scan transcription).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.concrete import ConcreteInstance, c_chase, concrete_fact
from repro.oracle import join_mode, scan_naive_evaluate_concrete
from repro.query import ConjunctiveQuery, naive_evaluate_concrete
from repro.relational import Instance, fact, homomorphism, parse_conjunction
from repro.relational.homomorphism import (
    _flat_join_plan,
    _iter_flat_join_rows,
    _iter_wcoj_rows,
    _plan_is_cyclic,
    find_homomorphisms_with_images,
)
from repro.temporal import Interval
from repro.workloads import exchange_setting_triangle

# One parsed body per shape class.  All-variable, no repeats — the shapes
# the flat-join planner accepts (anything else falls back to the generic
# backtracking search in every mode, so there is nothing to compare).
TRIANGLE = parse_conjunction("T(x, y) & T(y, z) & T(z, x)").atoms
FOUR_CYCLE = parse_conjunction(
    "T(x, y) & T(y, z) & T(z, w) & T(w, x)"
).atoms
MIXED_CYCLE = parse_conjunction("A(x, y) & B(y, z) & C(z, x)").atoms
PATH = parse_conjunction("T(x, y) & T(y, z) & T(z, w)").atoms
STAR = parse_conjunction("A(h, x) & B(h, y) & C(h, z)").atoms

CYCLIC_BODIES = (TRIANGLE, FOUR_CYCLE, MIXED_CYCLE)
ACYCLIC_BODIES = (PATH, STAR)
MODES = ("flat", "wcoj", "auto")


@st.composite
def edge_instances(draw, relations=("T",), max_edges: int = 14):
    """Random digraphs over a tiny, hub-skewed vertex domain.

    Half the draws force an endpoint onto the hub vertex ``h``, so the
    generated graphs are dense around one vertex — lots of length-2
    paths, comparatively few closed cycles, exactly the skew the two
    join algorithms process differently.
    """
    vertices = ("h", "a", "b", "c", "d")
    count = draw(st.integers(min_value=0, max_value=max_edges))
    instance = Instance()
    for _ in range(count):
        relation = draw(st.sampled_from(relations))
        source = draw(st.sampled_from(vertices))
        target = draw(st.sampled_from(vertices))
        if draw(st.booleans()):
            source = "h"
        instance.add(fact(relation, source, target))
    return instance


def _scan_rows(atoms, instance):
    """Brute-force written-order nested-loop join: the scan reference.

    Outer-to-inner loops follow the written atom order over each
    relation's ``sort_key``-ordered facts, checking variable consistency
    positionally — no indexes, no plans.  By the order contract this is
    also the flat join's (and hence the wcoj's) exact row sequence.
    """
    rows = []
    candidates = [
        [
            item
            for item in instance.lookup_ordered(atom.relation, {})
            if item.arity == atom.arity
        ]
        for atom in atoms
    ]

    def descend(index, binding, row):
        if index == len(atoms):
            rows.append(tuple(row))
            return
        atom = atoms[index]
        for item in candidates[index]:
            extended = dict(binding)
            ok = True
            for variable, value in zip(atom.args, item.args, strict=True):
                if extended.setdefault(variable, value) != value:
                    ok = False
                    break
            if ok:
                descend(index + 1, extended, [*row, item])

    descend(0, {}, [])
    return rows


class TestRowSequenceByteIdentical:
    """The plan-level order contract: wcoj rows ≡ flat rows, in sequence."""

    @settings(max_examples=60, deadline=None)
    @given(instance=edge_instances())
    def test_cyclic_bodies(self, instance):
        for atoms in (TRIANGLE, FOUR_CYCLE, PATH):
            plan = _flat_join_plan(atoms)
            assert plan is not None
            flat = list(_iter_flat_join_rows(plan, instance))
            wcoj = list(_iter_wcoj_rows(plan, instance))
            assert flat == wcoj  # same rows, same order, same fact objects

    @settings(max_examples=60, deadline=None)
    @given(instance=edge_instances(relations=("A", "B", "C")))
    def test_mixed_relation_bodies(self, instance):
        for atoms in (MIXED_CYCLE, STAR):
            plan = _flat_join_plan(atoms)
            assert plan is not None
            assert list(_iter_flat_join_rows(plan, instance)) == list(
                _iter_wcoj_rows(plan, instance)
            )

    @settings(max_examples=60, deadline=None)
    @given(instance=edge_instances())
    def test_scan_reference(self, instance):
        for atoms in (TRIANGLE, FOUR_CYCLE, PATH):
            plan = _flat_join_plan(atoms)
            assert list(_iter_flat_join_rows(plan, instance)) == _scan_rows(
                atoms, instance
            )

    def test_plan_cyclicity_classification(self):
        # auto's selection rule: generic join exactly on the cyclic cores.
        for atoms in CYCLIC_BODIES:
            assert _plan_is_cyclic(_flat_join_plan(atoms))
        for atoms in ACYCLIC_BODIES:
            assert not _plan_is_cyclic(_flat_join_plan(atoms))

    def test_auto_mode_size_cutoff(self):
        # auto only pays the generic join's constant factor once some
        # body relation is big enough for the asymptotics to matter;
        # explicit flat/wcoj ignore the cutoff.
        from repro.relational.homomorphism import _WCOJ_MIN_FACTS

        small = Instance([fact("T", f"a{i}", f"b{i}") for i in range(10)])
        big = Instance(
            [fact("T", f"a{i}", f"b{i}") for i in range(_WCOJ_MIN_FACTS)]
        )
        plan = _flat_join_plan(TRIANGLE)
        # Looked up at call time: join_mode pins the module's selector.
        with join_mode("auto"):
            assert not homomorphism._wcoj_selected(plan, small)
            assert homomorphism._wcoj_selected(plan, big)
            assert homomorphism._wcoj_selected(plan)  # no instance: cyclicity decides
        with join_mode("wcoj"):
            assert homomorphism._wcoj_selected(plan, small)
        with join_mode("flat"):
            assert not homomorphism._wcoj_selected(plan, big)


class TestTgdMatchingModeEquivalence:
    """Homomorphism search — the chase's tgd matcher — under every mode.

    The match *set* (assignment plus per-atom images) must be identical
    across modes; the enumeration order may legitimately differ because
    flat mode's ≥3-atom search is cardinality-driven while the generic
    join is written-variable-ordered, so the comparison sorts.
    """

    @staticmethod
    def _matches(atoms, instance):
        # The per-atom image row fully determines the assignment (every
        # variable occurs in some atom), so the image rows are a faithful
        # fingerprint of the match set; repr gives them a sort order.
        found = []
        for assignment, images in find_homomorphisms_with_images(
            atoms, instance
        ):
            for atom, image in zip(atoms, images, strict=True):
                assert {
                    variable: image.args[position]
                    for position, variable in enumerate(atom.args)
                }.items() <= assignment.items()
            found.append(images)
        return sorted(found, key=repr)

    @settings(max_examples=50, deadline=None)
    @given(instance=edge_instances())
    def test_single_relation_bodies(self, instance):
        for atoms in (TRIANGLE, FOUR_CYCLE, PATH):
            reference = None
            for mode in MODES:
                with join_mode(mode):
                    found = self._matches(atoms, instance)
                if reference is None:
                    reference = found
                else:
                    assert found == reference
            assert reference == sorted(_scan_rows(atoms, instance), key=repr)

    @settings(max_examples=50, deadline=None)
    @given(instance=edge_instances(relations=("A", "B", "C")))
    def test_mixed_relation_bodies(self, instance):
        for atoms in (MIXED_CYCLE, STAR):
            results = []
            for mode in MODES:
                with join_mode(mode):
                    results.append(self._matches(atoms, instance))
            assert results[0] == results[1] == results[2]


@st.composite
def temporal_edge_instances(draw, relation: str = "T", max_edges: int = 10):
    """Hub-skewed digraphs with small colliding-endpoint stamps."""
    vertices = ("h", "a", "b", "c")
    count = draw(st.integers(min_value=0, max_value=max_edges))
    instance = ConcreteInstance()
    for _ in range(count):
        source = draw(st.sampled_from(vertices))
        target = draw(st.sampled_from(vertices))
        if draw(st.booleans()):
            source = "h"
        start = draw(st.integers(min_value=0, max_value=6))
        length = draw(st.integers(min_value=1, max_value=4))
        instance.add(
            concrete_fact(
                relation,
                source,
                target,
                interval=Interval(start, start + length),
            )
        )
    return instance


TRIANGLE_QUERY = ConjunctiveQuery.parse(
    "q(x, y, z) :- T(x, y) & T(y, z) & T(z, x)"
)
FOUR_CYCLE_QUERY = ConjunctiveQuery.parse(
    "q(x, z) :- T(x, y) & T(y, z) & T(z, w) & T(w, x)"
)


class TestQueryAnsweringModeEquivalence:
    """The indexed evaluator routes cyclic bodies through the same plan
    layer; every mode must agree with the scan transcription — answers,
    interval annotations, and (sorted) tuple order alike."""

    @settings(max_examples=40, deadline=None)
    @given(source=temporal_edge_instances())
    def test_cyclic_queries_all_modes(self, source):
        for query in (TRIANGLE_QUERY, FOUR_CYCLE_QUERY):
            with join_mode("flat"):
                scan = scan_naive_evaluate_concrete(query, source)
            for mode in MODES:
                with join_mode(mode):
                    indexed = naive_evaluate_concrete(query, source)
                assert indexed.rows == scan.rows
                assert list(indexed) == list(scan)


class TestChaseModeEquivalence:
    """End to end: the triangle exchange chased under flat and wcoj must
    produce the identical target *and* the identical trace — nulls,
    firing order and all — because the tgd matcher's row order is the
    same content-determined sequence in both engines."""

    @settings(max_examples=30, deadline=None)
    @given(source=temporal_edge_instances(relation="R", max_edges=8))
    def test_triangle_exchange_byte_identical(self, source):
        setting = exchange_setting_triangle()
        runs = {}
        for mode in ("flat", "wcoj"):
            with join_mode(mode):
                result = c_chase(source, setting)
            assert result.succeeded
            runs[mode] = result
        assert runs["flat"].target == runs["wcoj"].target
        assert repr(runs["flat"].trace.steps) == repr(runs["wcoj"].trace.steps)
