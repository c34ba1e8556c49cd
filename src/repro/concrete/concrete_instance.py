"""Concrete temporal database instances (the implementable view).

A :class:`ConcreteInstance` is a finite set of
:class:`~repro.concrete.concrete_fact.ConcreteFact` objects.  It offers:

* snapshot extraction — the ⟦·⟧ semantics pointwise (``snapshot(ℓ)``);
* a *lifted* relational view in which the interval is an ordinary last
  column, enabling reuse of the relational homomorphism machinery
  ("intervals behave as constants") — built once and then maintained
  incrementally on every ``add``/``discard``, so the c-chase can probe
  it between mutations without paying a rebuild;
* coalescing and coalescedness checks (Section 2), including the
  null-aware variant that merges fragments of one unknown back together;
* substitution (egd c-chase steps) and fragmentation support.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import InstanceError, SchemaError
from repro.concrete.concrete_fact import ConcreteFact
from repro.relational.fact import Fact
from repro.relational.instance import Instance
from repro.relational.schema import Schema
from repro.relational.terms import AnnotatedNull, Constant, Term
from repro.temporal.coalesce import coalesce_intervals, is_coalesced_intervals
from repro.temporal.interval import Interval
from repro.temporal.interval_set import IntervalSet
from repro.temporal.timepoint import Infinity

__all__ = ["ConcreteInstance"]


class ConcreteInstance:
    """A mutable set of concrete facts with a cached lifted relational view."""

    # __weakref__ lets the query layer keep weak per-target memos (the
    # normalization memo of repro.query.eval) without pinning instances.
    __slots__ = (
        "_facts_by_relation",
        "_lifted",
        "_by_lifted",
        "_group_indexes",
        "schema",
        "__weakref__",
    )

    def __init__(
        self,
        facts: Iterable[ConcreteFact] = (),
        schema: Schema | None = None,
    ):
        self._facts_by_relation: dict[str, set[ConcreteFact]] = {}
        self._lifted: Instance | None = None
        self._by_lifted: dict[Fact, ConcreteFact] = {}
        self._group_indexes: dict[
            tuple[str, int, tuple[int, ...]], dict[tuple, list[ConcreteFact]]
        ] = {}
        self.schema = schema
        for item in facts:
            self.add(item)

    # -- mutation ------------------------------------------------------------
    def add(self, item: ConcreteFact) -> bool:
        """Insert a fact; returns ``True`` iff it was not already present."""
        if self.schema is not None:
            if item.relation not in self.schema:
                raise SchemaError(
                    f"fact {item} uses relation {item.relation!r} absent from schema"
                )
            # The schema may be given in lifted form (with the temporal
            # attribute) or in data-only form; accept either arity.
            expected = self.schema[item.relation].arity
            if item.arity not in (expected, expected - 1):
                raise SchemaError(
                    f"relation {item.relation} expects {expected} attributes "
                    f"(incl. temporal) but fact has {item.arity} data values"
                )
        bucket = self._facts_by_relation.setdefault(item.relation, set())
        if item in bucket:
            return False
        bucket.add(item)
        if self._lifted is not None:
            lifted_fact = item.lifted()
            self._lifted.add(lifted_fact)
            self._by_lifted[lifted_fact] = item
        if self._group_indexes:
            relation = item.relation
            arity = item.arity
            data = item.data
            for (rel, want_arity, positions), groups in (
                self._group_indexes.items()
            ):
                if rel != relation or want_arity != arity:
                    continue
                key = tuple(data[position] for position in positions)
                members = groups.get(key)
                if members is None:
                    groups[key] = [item]
                else:
                    members.append(item)
        return True

    def add_all(self, items: Iterable[ConcreteFact]) -> int:
        return sum(1 for item in items if self.add(item))

    @classmethod
    def from_buckets(
        cls, buckets: Mapping[str, Iterable[ConcreteFact]]
    ) -> "ConcreteInstance":
        """A schema-less instance over per-relation fact collections.

        The bulk form of :meth:`add` for a caller that already holds the
        facts split by relation: each collection must hold facts of its
        own relation only.  Empty collections are dropped.
        """
        instance = cls()
        instance._facts_by_relation = {
            relation: bucket
            for relation, facts in buckets.items()
            if (bucket := set(facts))
        }
        return instance

    # -- pickling ------------------------------------------------------------
    def __getstate__(self):
        """Facts and schema only — the lifted view rebuilds on first use.

        Shipping the cached lifted :class:`Instance` (and its fact-level
        back-map) would double the payload for a view that is derived
        data; buckets are stored sorted so equal instances serialize
        identically.
        """
        return (
            self.schema,
            tuple(
                (
                    relation,
                    tuple(sorted(bucket, key=ConcreteFact.sort_key)),
                )
                for relation, bucket in sorted(self._facts_by_relation.items())
            ),
        )

    def __setstate__(self, state) -> None:
        schema, groups = state
        self.schema = schema
        self._facts_by_relation = {
            relation: set(bucket) for relation, bucket in groups
        }
        self._lifted = None
        self._by_lifted = {}
        self._group_indexes = {}

    def discard(self, item: ConcreteFact) -> bool:
        bucket = self._facts_by_relation.get(item.relation)
        if bucket is None or item not in bucket:
            return False
        bucket.remove(item)
        if not bucket:
            del self._facts_by_relation[item.relation]
        if self._lifted is not None:
            lifted_fact = item.lifted()
            self._lifted.discard(lifted_fact)
            self._by_lifted.pop(lifted_fact, None)
        if self._group_indexes:
            relation = item.relation
            arity = item.arity
            data = item.data
            for (rel, want_arity, positions), groups in (
                self._group_indexes.items()
            ):
                if rel != relation or want_arity != arity:
                    continue
                key = tuple(data[position] for position in positions)
                members = groups.get(key)
                if members is not None:
                    members.remove(item)
                    if not members:
                        del groups[key]
        return True

    def replace(
        self, item: ConcreteFact, replacements: Iterable[ConcreteFact]
    ) -> None:
        """Swap *item* for its fragments (the normalization update step)."""
        self.discard(item)
        self.add_all(replacements)

    def apply_fragments(
        self,
        planned: Iterable[tuple[ConcreteFact, Iterable[ConcreteFact]]],
    ) -> None:
        """Apply a batch of fact → fragments replacements.

        The normalization engine plans all fragmentations first and
        applies them in one pass; fragments of one fact never collide
        with each other, but may merge with fragments of other facts —
        set semantics, exactly as per-fact :meth:`replace` calls.
        """
        for item, fragments in planned:
            self.discard(item)
            self.add_all(fragments)

    # -- basic queries -----------------------------------------------------------
    def __contains__(self, item: object) -> bool:
        if not isinstance(item, ConcreteFact):
            return False
        return item in self._facts_by_relation.get(item.relation, ())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._facts_by_relation.values())

    def __iter__(self) -> Iterator[ConcreteFact]:
        for relation in sorted(self._facts_by_relation):
            yield from sorted(
                self._facts_by_relation[relation], key=ConcreteFact.sort_key
            )

    def __bool__(self) -> bool:
        return any(self._facts_by_relation.values())

    def relation_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._facts_by_relation))

    def facts_of(self, relation: str) -> frozenset[ConcreteFact]:
        return frozenset(self._facts_by_relation.get(relation, ()))

    def iter_facts_of(self, relation: str) -> Iterator[ConcreteFact]:
        """Iterate the stored facts of *relation* without copying.

        Arbitrary (bucket) order — for consumers whose outcome is
        order-independent, like the normalization sweeps, which sort by
        interval themselves.  Do not mutate the instance mid-iteration.
        """
        return iter(self._facts_by_relation.get(relation, ()))

    def group_index(
        self, relation: str, data_arity: int, key_positions: tuple[int, ...]
    ) -> dict[tuple, list[ConcreteFact]]:
        """Facts of *relation* (data arity *data_arity*) grouped by the
        values at *key_positions* of their data tuple.

        Built on first request and maintained incrementally by
        :meth:`add` / :meth:`discard` from then on, so consumers that
        re-group between mutations — the normalization sweep's
        value-equivalence groups, re-requested by every chained
        ``c_chase`` round — pay one index update per change instead of
        re-hashing every fact.  The returned mapping is the live index:
        treat it as read-only, and do not mutate the instance while
        iterating it.  Groups hold no facts of other arities; empty
        groups are pruned.
        """
        signature = (relation, data_arity, key_positions)
        groups = self._group_indexes.get(signature)
        if groups is None:
            groups = {}
            for item in self._facts_by_relation.get(relation, ()):
                if item.arity != data_arity:
                    continue
                data = item.data
                key = tuple(data[position] for position in key_positions)
                members = groups.get(key)
                if members is None:
                    groups[key] = [item]
                else:
                    members.append(item)
            self._group_indexes[signature] = groups
        return groups

    def facts(self) -> frozenset[ConcreteFact]:
        return frozenset(
            item for bucket in self._facts_by_relation.values() for item in bucket
        )

    # -- terms ----------------------------------------------------------------------
    def nulls(self) -> frozenset[AnnotatedNull]:
        found: set[AnnotatedNull] = set()
        for bucket in self._facts_by_relation.values():
            for item in bucket:
                found.update(item.nulls())
        return frozenset(found)

    def constants(self) -> frozenset[Constant]:
        found: set[Constant] = set()
        for bucket in self._facts_by_relation.values():
            for item in bucket:
                found.update(item.constants())
        return frozenset(found)

    @property
    def is_complete(self) -> bool:
        """``True`` iff the instance contains no (annotated) nulls."""
        return not self.nulls()

    # -- temporal structure -----------------------------------------------------------
    def intervals(self) -> tuple[Interval, ...]:
        return tuple(item.interval for item in self)

    def breakpoints(self) -> tuple[int, ...]:
        """All distinct finite endpoints, ascending."""
        points: set[int] = set()
        for item in self.facts():
            points.add(item.interval.start)
            if not isinstance(item.interval.end, Infinity):
                points.add(item.interval.end)
        return tuple(sorted(points))

    def horizon(self) -> int:
        """The largest finite endpoint (0 for the empty instance).

        Beyond the horizon every snapshot is identical — the finite change
        condition made concrete.
        """
        points = self.breakpoints()
        return points[-1] if points else 0

    def active_time(self) -> IntervalSet:
        """The set of time points at which at least one fact holds."""
        return IntervalSet(self.intervals())

    # -- semantics ------------------------------------------------------------------
    def snapshot(self, point: int) -> Instance:
        """The snapshot ``db_ℓ`` of ⟦·⟧ at time ℓ (Section 2 / 4.1)."""
        result = Instance()
        for bucket in self._facts_by_relation.values():
            for item in bucket:
                if point in item.interval:
                    result.add(item.at(point))
        return result

    def facts_at(self, point: int) -> tuple[ConcreteFact, ...]:
        """The concrete facts whose stamp covers ℓ (deterministic order)."""
        return tuple(item for item in self if point in item.interval)

    # -- the lifted relational view ------------------------------------------------------
    def lifted(self) -> Instance:
        """The instance as flat relational tuples, interval as last column.

        Built on the first call and maintained incrementally by
        :meth:`add` / :meth:`discard` from then on — mutating between
        probes (the chase's access pattern) costs one index update, not a
        rebuild.  Temporal homomorphisms over the concrete instance are
        plain relational homomorphisms over this view, with temporal
        variables binding to ``Constant(interval)``.
        """
        if self._lifted is None:
            lifted = Instance()
            by_lifted: dict[Fact, ConcreteFact] = {}
            for bucket in self._facts_by_relation.values():
                for item in bucket:
                    lifted_fact = item.lifted()
                    lifted.add(lifted_fact)
                    by_lifted[lifted_fact] = item
            # Map first: a thread that sees the view must see its map.
            self._by_lifted = by_lifted
            self._lifted = lifted
        return self._lifted

    def resolve_lifted(self, item: Fact) -> ConcreteFact:
        """The stored concrete fact behind a fact of :meth:`lifted`.

        Returns the instance's own object (with its caches warm) when the
        fact is present; otherwise reconstructs via
        :meth:`from_lifted_fact`.
        """
        found = self._by_lifted.get(item)
        if found is not None:
            return found
        return ConcreteInstance.from_lifted_fact(item)

    @staticmethod
    def from_lifted_fact(item: Fact) -> ConcreteFact:
        """Inverse of :meth:`ConcreteFact.lifted` for one fact."""
        last = item.args[-1]
        if not (isinstance(last, Constant) and isinstance(last.value, Interval)):
            raise InstanceError(f"lifted fact {item} has no interval column")
        return ConcreteFact(item.relation, item.args[:-1], last.value)

    # -- coalescing (Section 2) ------------------------------------------------------
    def is_coalesced(self) -> bool:
        """Facts with identical data values have disjoint, non-adjacent stamps.

        Annotated nulls are compared by *base name* (data_shape): fragments
        of one unknown count as identical data values.
        """
        grouped: dict[tuple, list[Interval]] = {}
        for item in self.facts():
            grouped.setdefault((item.relation, item.data_shape()), []).append(
                item.interval
            )
        return all(is_coalesced_intervals(stamps) for stamps in grouped.values())

    def coalesce(self) -> "ConcreteInstance":
        """The unique coalesced instance with the same ⟦·⟧ semantics.

        Value-equivalent facts over overlapping or adjacent stamps merge;
        annotated nulls sharing a base merge into a null annotated with the
        merged stamp (the inverse of fragmentation).
        """
        grouped: dict[tuple, list[ConcreteFact]] = {}
        for item in self.facts():
            grouped.setdefault((item.relation, item.data_shape()), []).append(item)
        result = ConcreteInstance(schema=self.schema)
        for (relation, shape), members in grouped.items():
            merged = coalesce_intervals([m.interval for m in members])
            template = members[0]
            for stamp in merged:
                data = tuple(
                    AnnotatedNull(v.base, stamp)
                    if isinstance(v, AnnotatedNull)
                    else v
                    for v in template.data
                )
                result.add(ConcreteFact(relation, data, stamp))
        return result

    # -- transformation ----------------------------------------------------------------
    def copy(self, preserve_caches: bool = False) -> "ConcreteInstance":
        """A fact-level clone.

        With ``preserve_caches=True`` a built lifted view travels along
        as an index-preserving clone — the c-chase threads one warm
        lifted view from the target normalization through to the egd
        fixpoint this way, instead of rebuilding it at every stage
        boundary.  The default drops it, which suits mutation-heavy
        consumers better than paying incremental maintenance per change.
        """
        clone = ConcreteInstance(schema=self.schema)
        for relation, bucket in self._facts_by_relation.items():
            clone._facts_by_relation[relation] = set(bucket)
        if preserve_caches and self._lifted is not None:
            clone._lifted = self._lifted.copy(preserve_caches=True)
            clone._by_lifted = dict(self._by_lifted)
        return clone

    def substitute_in_place(self, mapping: Mapping[Term, Term]) -> list[ConcreteFact]:
        """Apply *mapping* to the data terms, rewriting only affected facts.

        Mirrors :meth:`repro.relational.instance.Instance.substitute_in_place`:
        affected facts are located through the lifted view's term index,
        discarded and re-added in substituted form, keeping the lifted
        view and its indexes incrementally maintained.  Returns the facts
        new to the instance in a deterministic order (their replaced
        facts' ``sort_key`` order) — the delta for the next chase round.
        """
        if not mapping:
            return []
        lookup = dict(mapping)
        lifted = self.lifted()
        affected = {
            self.resolve_lifted(lifted_fact)
            for lifted_fact in lifted.facts_with_any_term(lookup)
        }
        if not affected:
            return []
        images = [
            item.substitute(lookup)
            for item in sorted(affected, key=ConcreteFact.sort_key)
        ]
        for item in affected:
            self.discard(item)
        return [image for image in images if self.add(image)]

    def substitute(self, mapping: Mapping[Term, Term]) -> "ConcreteInstance":
        """Replace data terms everywhere (egd c-chase step).

        Facts that become equal after replacement merge silently, exactly
        as in the set-based semantics.  Facts not mentioning any mapped
        term are shared with the original instance.
        """
        if not mapping:
            return self.copy()
        lookup = dict(mapping)
        mapped_terms = frozenset(lookup)
        result = ConcreteInstance(schema=self.schema)
        for relation, bucket in self._facts_by_relation.items():
            result._facts_by_relation[relation] = {
                item
                if mapped_terms.isdisjoint(item.data)
                else item.substitute(lookup)
                for item in bucket
            }
        return result

    def map_facts(
        self, mapper: Callable[[ConcreteFact], ConcreteFact]
    ) -> "ConcreteInstance":
        result = ConcreteInstance(schema=self.schema)
        for bucket in self._facts_by_relation.values():
            for item in bucket:
                result.add(mapper(item))
        return result

    def union(self, other: "ConcreteInstance") -> "ConcreteInstance":
        result = self.copy()
        result.add_all(other.facts())
        return result

    # -- comparison and rendering ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConcreteInstance):
            return NotImplemented
        return self.facts() == other.facts()

    def __hash__(self) -> int:
        return hash(self.facts())

    def __str__(self) -> str:
        if not self:
            return "{}"
        return "{" + ", ".join(str(item) for item in self) + "}"

    def __repr__(self) -> str:
        return (
            f"ConcreteInstance({len(self)} facts over "
            f"{list(self.relation_names())})"
        )
