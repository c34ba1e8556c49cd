"""In-memory relational instances (the snapshots of the abstract view).

An :class:`Instance` stores facts grouped by relation with hash indexes
``(position, value) → facts`` for the homomorphism search.  Index buckets
are built lazily per relation on the first probe and from then on
**maintained incrementally** by :meth:`add` / :meth:`discard` — the chase
mutates its target between homomorphism checks constantly, and rebuilding
the index on every insert is what used to dominate chase runtime.

Each bucket is kept pre-sorted by :meth:`Fact.sort_key`, so
:meth:`lookup_ordered` hands the search deterministic candidate order for
free (no per-node sorting).  Instances compare by their fact sets, support
substitution (used by egd chase steps), and report their nulls/constants
(used by solution checks and naïve evaluation).

Instances may optionally carry a :class:`~repro.relational.schema.Schema`;
when present, every added fact is validated against it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import InstanceError, SchemaError
from repro.relational.fact import Fact
from repro.relational.schema import Schema
from repro.relational.terms import (
    AnnotatedNull,
    Constant,
    GroundTerm,
    LabeledNull,
    Term,
)

__all__ = ["Instance"]


def _remove_sorted(bucket: list[Fact], item: Fact) -> None:
    """Delete *item* from a list kept sorted by ``Fact.sort_key``."""
    position = bisect_left(bucket, item.sort_key(), key=Fact.sort_key)
    while position < len(bucket):
        if bucket[position] == item:
            del bucket[position]
            return
        position += 1
    raise InstanceError(f"index bucket out of sync: {item} missing")


class Instance:
    """A mutable set of snapshot-level facts with per-relation indexes."""

    __slots__ = ("_facts_by_relation", "_index", "_ordered", "_max_arity", "schema")

    def __init__(
        self,
        facts: Iterable[Fact] = (),
        schema: Schema | None = None,
    ):
        self._facts_by_relation: dict[str, set[Fact]] = {}
        # (position, value) → facts, sorted; built lazily per relation,
        # then maintained incrementally on every mutation.
        self._index: dict[str, dict[tuple[int, GroundTerm], list[Fact]]] = {}
        # All facts of a relation, sorted; same lazy-then-incremental life.
        self._ordered: dict[str, list[Fact]] = {}
        # Largest arity ever seen per relation — bounds the positions the
        # term-level index probes of facts_with_term have to visit.
        self._max_arity: dict[str, int] = {}
        self.schema = schema
        for item in facts:
            self.add(item)

    # -- mutation -----------------------------------------------------------
    def add(self, item: Fact) -> bool:
        """Insert a fact; returns ``True`` iff it was not already present."""
        if self.schema is not None:
            if item.relation not in self.schema:
                raise SchemaError(
                    f"fact {item} uses relation {item.relation!r} "
                    f"absent from schema {self.schema}"
                )
            self.schema.validate_arity(item.relation, item.arity)
        bucket = self._facts_by_relation.setdefault(item.relation, set())
        if item in bucket:
            return False
        bucket.add(item)
        if item.arity > self._max_arity.get(item.relation, 0):
            self._max_arity[item.relation] = item.arity
        index = self._index.get(item.relation)
        if index is not None:
            for position, value in enumerate(item.args):
                insort(
                    index.setdefault((position, value), []),
                    item,
                    key=Fact.sort_key,
                )
        ordered = self._ordered.get(item.relation)
        if ordered is not None:
            insort(ordered, item, key=Fact.sort_key)
        return True

    def add_all(self, items: Iterable[Fact]) -> int:
        """Insert many facts; returns the number actually added."""
        return sum(1 for item in items if self.add(item))

    def discard(self, item: Fact) -> bool:
        """Remove a fact if present; returns ``True`` iff it was removed."""
        bucket = self._facts_by_relation.get(item.relation)
        if bucket is None or item not in bucket:
            return False
        bucket.remove(item)
        if not bucket:
            del self._facts_by_relation[item.relation]
        index = self._index.get(item.relation)
        if index is not None:
            for position, value in enumerate(item.args):
                entries = index[(position, value)]
                _remove_sorted(entries, item)
                if not entries:
                    del index[(position, value)]
        ordered = self._ordered.get(item.relation)
        if ordered is not None:
            _remove_sorted(ordered, item)
        return True

    # -- pickling ------------------------------------------------------------
    def __getstate__(self):
        """Facts and schema only — never the lazily-built indexes.

        The index buckets alias the fact objects heavily; pickling them
        would balloon the payload and ship per-process hash-ordering
        artifacts.  Buckets are stored sorted so the serialized form is
        deterministic for equal instances.
        """
        return (
            self.schema,
            tuple(
                (relation, tuple(sorted(bucket, key=Fact.sort_key)))
                for relation, bucket in sorted(self._facts_by_relation.items())
            ),
        )

    def __setstate__(self, state) -> None:
        schema, groups = state
        self.schema = schema
        self._facts_by_relation = {
            relation: set(bucket) for relation, bucket in groups
        }
        self._index = {}
        self._ordered = {}
        self._max_arity = {}

    # -- basic queries ---------------------------------------------------------
    def __contains__(self, item: object) -> bool:
        if not isinstance(item, Fact):
            return False
        return item in self._facts_by_relation.get(item.relation, ())

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._facts_by_relation.values())

    def __iter__(self) -> Iterator[Fact]:
        for relation in sorted(self._facts_by_relation):
            # Copy: the ordered cache is maintained in place, and callers
            # may mutate the instance while iterating.
            yield from tuple(self._ordered_for(relation))

    def __bool__(self) -> bool:
        return any(self._facts_by_relation.values())

    def relation_names(self) -> tuple[str, ...]:
        return tuple(sorted(self._facts_by_relation))

    def facts_of(self, relation: str) -> frozenset[Fact]:
        """All facts of one relation (empty set when the relation is absent)."""
        return frozenset(self._facts_by_relation.get(relation, ()))

    def facts(self) -> frozenset[Fact]:
        """All facts of the instance as a frozen set."""
        return frozenset(
            item for bucket in self._facts_by_relation.values() for item in bucket
        )

    # -- index-backed lookup (homomorphism search) ------------------------------
    def _index_for(self, relation: str) -> dict[tuple[int, GroundTerm], list[Fact]]:
        cached = self._index.get(relation)
        if cached is not None:
            return cached
        built: dict[tuple[int, GroundTerm], list[Fact]] = {}
        for item in self._ordered_for(relation):
            for position, value in enumerate(item.args):
                built.setdefault((position, value), []).append(item)
        self._index[relation] = built
        return built

    def _ordered_for(self, relation: str) -> list[Fact]:
        cached = self._ordered.get(relation)
        if cached is not None:
            return cached
        built = sorted(
            self._facts_by_relation.get(relation, ()), key=Fact.sort_key
        )
        self._ordered[relation] = built
        return built

    def lookup_ordered(
        self, relation: str, bindings: Mapping[int, GroundTerm]
    ) -> Sequence[Fact]:
        """Facts of *relation* matching *bindings*, in ``sort_key`` order.

        The search relies on this order being deterministic; because index
        buckets are kept pre-sorted, no sorting happens per probe.  With
        several bound positions the buckets are intersected *pairwise*,
        smallest first — each step keeps only the facts present in the
        next bucket, so the cost is bounded by the bucket sizes, never by
        candidate-times-positions filtering.

        The result may alias a live index bucket — treat it as read-only
        and snapshot it before mutating the instance mid-iteration.
        """
        bucket = self._facts_by_relation.get(relation)
        if not bucket:
            return ()
        if not bindings:
            return self._ordered_for(relation)
        index = self._index_for(relation)
        if len(bindings) == 1:
            ((position, value),) = bindings.items()
            entries = index.get((position, value))
            return () if entries is None else entries
        empty: list[Fact] = []
        probes = sorted(
            (
                index.get((position, value), empty)
                for position, value in bindings.items()
            ),
            key=len,
        )
        smallest = probes[0]
        if not smallest:
            return ()
        # Estimate: position-filtering touches every binding per smallest-
        # bucket fact; pairwise set intersection hashes every other bucket
        # once.  Pick the cheaper — tiny probes (the common chase shape)
        # stay on the filter, wide scans intersect pairwise.
        if len(smallest) * (len(probes) - 1) <= sum(len(p) for p in probes[1:]):
            return [
                item
                for item in smallest
                if all(item.args[pos] == val for pos, val in bindings.items())
            ]
        current: Sequence[Fact] = smallest
        for other in probes[1:]:
            if not current:
                return ()
            membership = set(other)
            current = [item for item in current if item in membership]
        return current

    def lookup(
        self, relation: str, bindings: Mapping[int, GroundTerm]
    ) -> frozenset[Fact]:
        """Facts of *relation* whose argument at each position matches.

        With empty *bindings* this is :meth:`facts_of`; order-sensitive
        callers use :meth:`lookup_ordered` instead.
        """
        return frozenset(self.lookup_ordered(relation, bindings))

    def candidate_count(
        self, relation: str, bindings: Mapping[int, GroundTerm]
    ) -> int:
        """Cheap upper bound on ``len(lookup(relation, bindings))``.

        The size of the most selective index bucket (no residual filtering)
        — what the homomorphism search uses to pick the next atom.
        """
        bucket = self._facts_by_relation.get(relation)
        if not bucket:
            return 0
        if not bindings:
            return len(bucket)
        index = self._index_for(relation)
        count = len(bucket)
        for position, value in bindings.items():
            entries = index.get((position, value))
            probe = 0 if entries is None else len(entries)
            if probe < count:
                count = probe
        return count

    # -- term-level queries -------------------------------------------------------
    def _arity_bound(self, relation: str) -> int:
        cached = self._max_arity.get(relation)
        if cached is None:
            bucket = self._facts_by_relation.get(relation, ())
            cached = max((item.arity for item in bucket), default=0)
            self._max_arity[relation] = cached
        return cached

    def facts_with_term(self, term: GroundTerm) -> set[Fact]:
        """Every fact mentioning *term* in some position."""
        return self.facts_with_any_term((term,))

    def facts_with_any_term(self, terms: Iterable[GroundTerm]) -> set[Fact]:
        """Every fact mentioning at least one of *terms*.

        Per relation: probes the ``(position, value)`` index where it is
        already built (one bucket per term and position up to the
        relation's arity bound), and otherwise makes a single
        ``isdisjoint`` pass over the relation's facts for *all* terms at
        once — the probe never forces an index build and never scans a
        bucket more than once per call.
        """
        term_set = frozenset(terms)
        found: set[Fact] = set()
        for relation, bucket in self._facts_by_relation.items():
            index = self._index.get(relation)
            if index is None:
                found.update(
                    item
                    for item in bucket
                    if not term_set.isdisjoint(item.args)
                )
                continue
            for term in term_set:
                for position in range(self._arity_bound(relation)):
                    entries = index.get((position, term))
                    if entries:
                        found.update(entries)
        return found

    def nulls(self) -> frozenset[LabeledNull | AnnotatedNull]:
        """``Null(db)``: every null occurring anywhere in the instance."""
        found: set[LabeledNull | AnnotatedNull] = set()
        for bucket in self._facts_by_relation.values():
            for item in bucket:
                found.update(item.nulls())
        return frozenset(found)

    def constants(self) -> frozenset[Constant]:
        """Every constant occurring anywhere in the instance."""
        found: set[Constant] = set()
        for bucket in self._facts_by_relation.values():
            for item in bucket:
                found.update(item.constants())
        return frozenset(found)

    def active_domain(self) -> frozenset[GroundTerm]:
        """All ground terms occurring in the instance."""
        found: set[GroundTerm] = set()
        for bucket in self._facts_by_relation.values():
            for item in bucket:
                found.update(item.args)
        return frozenset(found)

    @property
    def is_complete(self) -> bool:
        """``True`` iff no nulls occur (paper: a *complete* instance)."""
        return not self.nulls()

    # -- transformation --------------------------------------------------------
    def copy(self, preserve_caches: bool = False) -> "Instance":
        """A fact-level clone.

        With ``preserve_caches=True`` the lazily-built index buckets and
        ordered caches are cloned as flat list copies (no re-sorting) —
        worthwhile when the copy will be probed more than it is mutated,
        as in the egd fixpoint's working copy.  The default drops them:
        mutation-heavy consumers (normalization fragment replacement on a
        cold instance) are better off rebuilding once afterwards.
        """
        clone = Instance(schema=self.schema)
        for relation, bucket in self._facts_by_relation.items():
            clone._facts_by_relation[relation] = set(bucket)
        clone._max_arity.update(self._max_arity)
        if preserve_caches:
            # Snapshot the cache maps: on a target shared across threads,
            # a concurrent lookup may add a relation's cache mid-copy.
            for relation, index in tuple(self._index.items()):
                clone._index[relation] = {
                    key: list(entries) for key, entries in index.items()
                }
            for relation, ordered in tuple(self._ordered.items()):
                clone._ordered[relation] = list(ordered)
        return clone

    def substitute_in_place(self, mapping: Mapping[Term, Term]) -> list[Fact]:
        """Apply *mapping* by rewriting only the affected facts, in place.

        The value-level equivalent of :meth:`substitute`, built for the
        egd chase rounds: facts mentioning a mapped term are found through
        the index, discarded, and re-added in substituted form — every
        other fact (and the incrementally-maintained indexes over them)
        stays untouched.  Returns the facts that are *new* to the instance
        (images that merged into an existing fact are not new), in a
        deterministic order (their *replaced* facts' ``sort_key`` order) —
        exactly the delta the next semi-naive chase round has to look at.
        """
        if not mapping:
            return []
        lookup = dict(mapping)
        affected = self.facts_with_any_term(lookup)
        if not affected:
            return []
        images = [
            item.substitute(lookup)
            for item in sorted(affected, key=Fact.sort_key)
        ]
        for item in affected:
            self.discard(item)
        return [image for image in images if self.add(image)]

    def substitute(self, mapping: Mapping[Term, Term]) -> "Instance":
        """A new instance with every term replaced per *mapping*.

        Used by egd chase steps: replacing a null everywhere may merge
        facts, which the set-based storage handles automatically.  Facts
        not mentioning any mapped term are shared with the original.
        """
        if not mapping:
            return self.copy()
        lookup = dict(mapping)
        mapped_terms = frozenset(lookup)
        result = Instance(schema=self.schema)
        for relation, bucket in self._facts_by_relation.items():
            new_bucket = {
                item
                if mapped_terms.isdisjoint(item.args)
                else item.substitute(lookup)
                for item in bucket
            }
            result._facts_by_relation[relation] = new_bucket
        return result

    def map_facts(self, mapper: Callable[[Fact], Fact]) -> "Instance":
        """A new instance built by transforming every fact."""
        result = Instance(schema=self.schema)
        for bucket in self._facts_by_relation.values():
            for item in bucket:
                result.add(mapper(item))
        return result

    def union(self, other: "Instance") -> "Instance":
        """A new instance containing the facts of both."""
        result = self.copy()
        result.add_all(other.facts())
        return result

    def restrict_to(self, relations: Iterable[str]) -> "Instance":
        """Projection of the instance onto a subset of relation names."""
        wanted = set(relations)
        result = Instance(schema=self.schema)
        for relation in wanted:
            result.add_all(self._facts_by_relation.get(relation, ()))
        return result

    # -- comparison and rendering ----------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self.facts() == other.facts()

    def __hash__(self) -> int:
        return hash(self.facts())

    def __str__(self) -> str:
        if not self:
            return "{}"
        return "{" + ", ".join(str(item) for item in self) + "}"

    def __repr__(self) -> str:
        return f"Instance({len(self)} facts over {list(self.relation_names())})"
