"""Reference implementations the differential suites compare against.

Every production layer has exactly one path; the paper's literal
procedures and the historical slow paths live here instead, under fixed
names and with no mode parameters, so tests and benchmarks can check
each fast path against its reference on the same input.  No module of
the production package imports this one (a unit test enforces it).

* query evaluation — :func:`scan_evaluate_snapshot`,
  :func:`scan_naive_evaluate_abstract` and
  :func:`scan_naive_evaluate_concrete` are the literal transcriptions of
  Section 5 (a fresh snapshot per region; the four-step ``q+(Jc)↓`` with
  normalization and null freezing per disjunct), sharing no logic with
  :mod:`repro.query.eval`;
* the chase — :func:`rescan_chase_snapshot` and :func:`rescan_c_chase`
  re-enumerate every egd match of the whole instance each round instead
  of the previous round's delta; :func:`naive_c_chase` normalizes both
  stages with the endpoint baseline
  :func:`~repro.concrete.normalization.naive_normalize`, and
  :func:`naive_verify_correspondence` checks Corollary 20 for it;
* normalization — :func:`pairwise_normalize_with_report` discovers
  Algorithm 1's overlap sets by per-pair enumeration instead of the
  endpoint sweep;
* joins — :func:`join_mode` pins the flat or the worst-case-optimal
  join for ≥3-atom bodies while a block runs (the production choice is
  made from the input: cyclic body and ``_WCOJ_MIN_FACTS``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable

from repro.abstract_view.abstract_chase import abstract_chase
from repro.abstract_view.abstract_instance import AbstractInstance
from repro.abstract_view.semantics import semantics
from repro.chase import standard
from repro.chase.engine import run_egd_fixpoint
from repro.chase.nulls import NullFactory
from repro.chase.standard import SnapshotChaseResult
from repro.chase.trace import ChaseTrace
from repro.concrete import cchase
from repro.concrete.cchase import CChaseResult
from repro.concrete.concrete_fact import ConcreteFact
from repro.concrete.concrete_instance import ConcreteInstance
from repro.concrete.normalization import (
    NormalizationReport,
    _algorithm1,
    find_temporal_homomorphisms,
    interval_of,
    naive_normalize,
    normalize,
)
from repro.correspondence import CorrespondenceReport, _square
from repro.dependencies.mapping import DataExchangeSetting
from repro.query.answers import AnswerTuple, ConcreteAnswerSet, TemporalAnswerSet
from repro.query.query import ConjunctiveQuery, UnionQuery
from repro.relational import homomorphism
from repro.relational.formulas import Atom, TemporalConjunction
from repro.relational.homomorphism import find_homomorphisms
from repro.relational.instance import Instance
from repro.relational.terms import (
    AnnotatedNull,
    Constant,
    GroundTerm,
    LabeledNull,
)
from repro.temporal.interval_set import IntervalSet

__all__ = [
    "join_mode",
    "naive_c_chase",
    "naive_verify_correspondence",
    "pairwise_normalize_with_report",
    "rescan_c_chase",
    "rescan_chase_snapshot",
    "scan_evaluate_snapshot",
    "scan_naive_evaluate_abstract",
    "scan_naive_evaluate_concrete",
]


def _as_union(query: ConjunctiveQuery | UnionQuery) -> UnionQuery:
    if isinstance(query, ConjunctiveQuery):
        return UnionQuery((query,))
    return query


# ---------------------------------------------------------------------------
# Query evaluation — the scan transcriptions of Section 5
# ---------------------------------------------------------------------------


def scan_evaluate_snapshot(
    query: ConjunctiveQuery | UnionQuery,
    snapshot: Instance,
) -> frozenset[AnswerTuple]:
    """Plain evaluation: nulls behave as constants and *are* returned."""
    results: set[AnswerTuple] = set()
    for disjunct in _as_union(query):
        for assignment in find_homomorphisms(disjunct.body, snapshot):
            results.add(tuple(assignment[var] for var in disjunct.head))
    return frozenset(results)


def _scan_naive_evaluate_snapshot(
    query: ConjunctiveQuery | UnionQuery,
    snapshot: Instance,
) -> frozenset[AnswerTuple]:
    """``q(db)↓``: evaluate, then drop tuples containing any null."""
    return frozenset(
        item
        for item in scan_evaluate_snapshot(query, snapshot)
        if not any(isinstance(v, (LabeledNull, AnnotatedNull)) for v in item)
    )


def scan_naive_evaluate_abstract(
    query: ConjunctiveQuery | UnionQuery,
    instance: AbstractInstance,
) -> TemporalAnswerSet:
    """``q(Ja)↓`` computed region-wise, one fresh snapshot per region.

    Inside a region the snapshot is constant up to per-snapshot null
    renaming; since naive evaluation only keeps null-free tuples, the
    answer set at one representative point is the answer set everywhere
    in the region.
    """
    grouped: dict[AnswerTuple, IntervalSet] = {}
    for region in instance.regions():
        snapshot = instance.snapshot(region.start)
        for item in _scan_naive_evaluate_snapshot(query, snapshot):
            existing = grouped.get(item, IntervalSet.empty())
            grouped[item] = existing.union(region)
    return TemporalAnswerSet(grouped)


@dataclass(frozen=True)
class _FrozenNull:
    """The payload of a fresh constant standing in for an annotated null.

    Step 2 of the paper's procedure replaces each interval-annotated null
    with a fresh constant ``cn^[s,e)``; wrapping the null in this marker
    type makes step 4's "drop rows with fresh constants" a type check.
    """

    base: str
    annotation_repr: str

    def __str__(self) -> str:
        return f"c⟨{self.base}^{self.annotation_repr}⟩"


def _freeze_nulls(instance: ConcreteInstance) -> ConcreteInstance:
    """Step 2: each annotated null becomes a fresh marker constant."""
    mapping = {
        null: Constant(_FrozenNull(null.base, str(null.annotation)))
        for null in instance.nulls()
    }
    return instance.substitute(mapping)


def _is_frozen(value: GroundTerm) -> bool:
    return isinstance(value, Constant) and isinstance(value.value, _FrozenNull)


def scan_naive_evaluate_concrete(
    query: ConjunctiveQuery | UnionQuery,
    solution: ConcreteInstance,
) -> ConcreteAnswerSet:
    """``q+(Jc)↓``: the union over disjuncts of the four-step procedure."""
    rows: set[tuple[AnswerTuple, object]] = set()
    for disjunct in _as_union(query):
        lifted = disjunct.lift()
        tvar = lifted.shared_variable
        # Step 1: normalize the solution w.r.t. this disjunct's body.
        normalized = normalize(solution, [lifted])
        # Step 2: freeze annotated nulls into fresh constants.
        frozen = _freeze_nulls(normalized)
        # Step 3: evaluate; t maps to a single stamp per match.
        for assignment, _images in find_temporal_homomorphisms(lifted, frozen):
            item = tuple(assignment[var] for var in disjunct.head)
            # Step 4: drop rows that still mention a fresh constant.
            if any(_is_frozen(value) for value in item):
                continue
            rows.add((item, interval_of(assignment, tvar)))
    return ConcreteAnswerSet(rows)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# The chase — full re-enumeration per egd round, naive normalization
# ---------------------------------------------------------------------------


def rescan_chase_snapshot(
    source: Instance, setting: DataExchangeSetting
) -> SnapshotChaseResult:
    """:func:`~repro.chase.standard.chase_snapshot` with every egd round
    re-enumerating the full instance."""
    trace = ChaseTrace()
    target = Instance()
    standard._run_tgd_phase(source, target, setting, NullFactory(), "standard", trace)
    failure = run_egd_fixpoint(
        standard._SnapshotDomain(target),
        standard._egd_tasks(setting),
        trace,
        _rescan=True,
    )
    return SnapshotChaseResult(
        target=target, failed=failure is not None, failure=failure, trace=trace
    )


def _c_chase(
    source: ConcreteInstance,
    setting: DataExchangeSetting,
    normalize_stage,
    rescan: bool,
) -> CChaseResult:
    """The c-chase pipeline of :func:`~repro.concrete.cchase.c_chase`
    with both normalization stages run by *normalize_stage*."""
    nulls = NullFactory()
    trace = ChaseTrace()
    normalized_source = normalize_stage(source, setting.lifted_st_lhs_conjunctions())
    target = ConcreteInstance()
    cchase._run_st_phase(normalized_source, target, setting, nulls, "standard", trace)
    pre_egd_target = normalize_stage(target, setting.lifted_egd_lhs_conjunctions())
    final = pre_egd_target.copy(preserve_caches=True)
    failure = run_egd_fixpoint(
        cchase._ConcreteDomain(final), cchase._egd_tasks(setting), trace, _rescan=rescan
    )
    return CChaseResult(
        target=final,
        failed=failure is not None,
        failure=failure,
        trace=trace,
        normalized_source=normalized_source,
        pre_egd_target=pre_egd_target,
    )


def rescan_c_chase(source: ConcreteInstance, setting: DataExchangeSetting) -> CChaseResult:
    """:func:`~repro.concrete.cchase.c_chase` with every egd round
    re-enumerating the full target."""
    return _c_chase(source, setting, normalize, rescan=True)


def naive_c_chase(source: ConcreteInstance, setting: DataExchangeSetting) -> CChaseResult:
    """The c-chase with both stages normalized by the endpoint baseline
    :func:`~repro.concrete.normalization.naive_normalize` (no reports,
    no replay state)."""
    return _c_chase(
        source,
        setting,
        lambda instance, _conjunctions: naive_normalize(instance),
        rescan=False,
    )


def naive_verify_correspondence(
    source: ConcreteInstance, setting: DataExchangeSetting
) -> CorrespondenceReport:
    """Corollary 20 for :func:`naive_c_chase` against the abstract chase."""
    return _square(naive_c_chase(source, setting), abstract_chase(semantics(source), setting))


# ---------------------------------------------------------------------------
# Normalization — per-pair overlap discovery
# ---------------------------------------------------------------------------


def pairwise_normalize_with_report(
    instance: ConcreteInstance,
    conjunctions: Iterable[TemporalConjunction],
) -> tuple[ConcreteInstance, NormalizationReport]:
    """Algorithm 1 with every two-atom form's overlap sets found by
    per-pair enumeration (see :func:`_pairwise_two_atom`)."""
    return _algorithm1(instance, tuple(conjunctions), _pairwise_two_atom, None, None)


def _pairwise_two_atom(
    instance: ConcreteInstance,
    lifted_atoms: tuple[Atom, ...],
    plan,
    _conj_index: int,
    union_find,
    report: NormalizationReport,
    _replay: None,
    _log: None,
) -> None:
    """The historical inline per-pair enumeration (a two-atom pass).

    The original loops (minus the never-read matchable bookkeeping) —
    the same matches, Δ sets and counts as the generic homomorphism
    path, with the per-match interval test collapsed to two endpoint
    comparisons.  It reports the historical per-match count in both
    ``matched_sets`` and ``matched_pairs``, and records nothing.
    """
    lifted = instance.lifted()
    resolve = instance.resolve_lifted
    find = union_find.find
    # Registration of a (possibly fresh) member is just "ensure a
    # parent entry exists" — no path to compress yet.
    register = union_find._parent.setdefault
    union = union_find.union
    matched = 0
    first_atom, second_atom = lifted_atoms
    key_positions = plan.key_positions[1]
    grouped: dict[tuple, list[ConcreteFact]] = {}
    for item in lifted.lookup_ordered(second_atom.relation, {}):
        if item.arity != second_atom.arity:
            continue
        key = tuple(item.args[position] for position in key_positions)
        grouped.setdefault(key, []).append(resolve(item))
    sources = tuple(position for _atom, position in plan.key_sources[1])
    if (
        first_atom.relation == second_atom.relation
        and first_atom.arity == second_atom.arity
        and sources == key_positions
    ):
        # Symmetric shape: each group joins with itself, so walk group²
        # directly.  Every member self-matches, so the whole group is
        # matchable up front and the inner loop only pays for the
        # interval test and real merges.
        for members in grouped.values():
            matched += len(members)  # the self-pairs
            for item in members:
                register(item, item)
            if len(members) == 1:
                continue
            enriched = [
                (item, item.interval.start, item.interval.end)
                for item in members
            ]
            for first, start, end in enriched:
                for other, other_start, other_end in enriched:
                    if (
                        first is not other
                        and other_start < end
                        and start < other_end
                    ):
                        matched += 1
                        union(first, other)
        report.matched_sets += matched
        report.matched_pairs += matched
        return
    for item in lifted.lookup_ordered(first_atom.relation, {}):
        if item.arity != first_atom.arity:
            continue
        args = item.args
        key = tuple(args[position] for position in sources)
        partners = grouped.get(key)
        if not partners:
            continue
        first = resolve(item)
        stamp = first.interval
        start, end = stamp.start, stamp.end
        for other in partners:
            if first is other or first == other:
                matched += 1
                find(first)
                continue
            second_stamp = other.interval
            if second_stamp.start < end and start < second_stamp.end:
                matched += 1
                union(first, other)
    report.matched_sets += matched
    report.matched_pairs += matched


# ---------------------------------------------------------------------------
# Joins — pinning the flat or the worst-case-optimal join
# ---------------------------------------------------------------------------

_SELECTORS = {
    "auto": homomorphism._wcoj_selected,
    "flat": lambda plan, instance=None: False,
    "wcoj": lambda plan, instance=None: len(plan.atoms) >= 3,
}


@contextmanager
def join_mode(mode: str):
    """Pin the join for multi-atom all-variable bodies while the block runs.

    * ``"auto"``: the production choice (the generic join for ≥3-atom
      cyclic bodies over large-enough relations, the flat join elsewhere);
    * ``"flat"``: always the flat written-order join;
    * ``"wcoj"``: the generic join for every ≥3-atom body.

    Both joins enumerate byte-identical rows in the identical order, so
    pinning never changes results — only the work done to produce them.
    """
    if mode not in _SELECTORS:
        raise ValueError(f"unknown join mode {mode!r}; expected one of {tuple(_SELECTORS)}")
    previous = homomorphism._wcoj_selected
    homomorphism._wcoj_selected = _SELECTORS[mode]
    try:
        yield
    finally:
        homomorphism._wcoj_selected = previous
