"""The concrete chase — *c-chase* — of Definition 16.

Pipeline (Section 4.3), with both chase phases running on the shared
delta-driven engine of :mod:`repro.chase.engine`:

1. normalize the concrete source instance w.r.t. the lhs of ``Σ+st``;
2. apply all s-t tgd c-chase steps: a step fires for a homomorphism ``h``
   from the lifted lhs (shared temporal variable ``t``) that does not
   extend to the rhs over the current target; each existential variable
   receives a **fresh null annotated with h(t)**;
3. normalize the target w.r.t. the lhs of ``Σ+eg``;
4. apply egd c-chase steps to a fixpoint: equating two constants fails
   the whole chase (no solution exists — Theorem 19(2)); otherwise an
   interval-annotated null is replaced everywhere by the other term.
   Normalization guarantees both equated nulls carry the same annotation.

   Like the snapshot chase, the egd fixpoint runs in *batched semi-naive
   rounds*: all matches of the round's worklist are merged into one
   :class:`~repro.chase.union_find.TermUnionFind` (constructed with
   annotation checking, so a merge of two differently-annotated nulls —
   impossible after normalization — raises instead of corrupting the
   instance), then a single in-place substitution pass applies the round
   by rewriting only the facts that mention a replaced term.  Round 0's
   worklist is the full target; every later round enumerates only the
   matches touching the previous round's delta, and the fixpoint is
   confirmed when that delta is empty.  Matched terms are resolved
   through ``find`` first because earlier merges of the round are not yet
   visible in the instance; every recorded step equates class
   representatives, and constant/constant clashes are detected at
   representative level — both exactly as the per-equation loop behaved
   after its eager substitutions.

A successful run returns a *concrete solution* ``Jc`` whose semantics
``⟦Jc⟧`` is a universal solution for ``⟦Ic⟧`` (Theorem 19(1),
Corollary 20 — verified end-to-end in this repository's tests).

``c_chase(..., incremental=previous)`` replays a previous run phase by
phase (:class:`CChaseReplayState`): the normalizations through their
logs, the tgd pass through a replaying domain over the patched match
streams, the egd fixpoint from the recorded key-egd groups.  Both
replays run inside the engine calls the cold chase makes, and every
output is byte-identical to the cold chase's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Literal

from repro.errors import ChaseFailureError
from repro.chase.engine import (
    EgdTask,
    RhsProbe,
    build_rhs_probe,
    run_egd_fixpoint,
    run_tgd_pass,
)
from repro.chase.incremental import (
    ReplayLedger,
    StreamPatcher,
    _FiringRecord,
    _MatchEntry,
    _PairShape,
    stream_shape,
)
from repro.chase.nulls import NullFactory
from repro.chase.trace import (
    ChaseTrace,
    EgdStepRecord,
    FailureRecord,
    TgdStepRecord,
)
from repro.concrete.concrete_fact import ConcreteFact
from repro.concrete.concrete_instance import ConcreteInstance
from repro.concrete.normalization import (
    NormalizationLog,
    NormalizationReport,
    _lift_atoms,
    find_temporal_assignments,
    interval_of,
    normalize_with_report,
)
from repro.dependencies.dependency import SourceToTargetTGD
from repro.dependencies.mapping import DataExchangeSetting
from repro.relational.fact import Fact
from repro.relational.formulas import Atom
from repro.relational.homomorphism import (
    find_homomorphisms_with_images,
    has_homomorphism,
)
from repro.relational.terms import (
    Constant,
    GroundTerm,
    Variable,
)

__all__ = ["CChaseResult", "CChaseReplayState", "c_chase"]

TgdVariant = Literal["standard", "oblivious"]


@dataclass
class CChaseReplayState:
    """The replayable decisions of one c-chase run, phase by phase.

    * ``source``/``target`` — one
      :class:`~repro.concrete.normalization.NormalizationLog` per
      normalization stage (w.r.t. the lhs of ``Σ+st`` and of ``Σ+eg``);
    * ``tgd`` — the s-t tgd pass: each tgd's match stream with its
      fire/skip decisions, rhs facts and null counters, keyed by the
      normalized-source facts it matched;
    * ``egd`` — the egd classes: per key egd, every group of the pre-egd
      target with the steps that merged it.

    A later :func:`c_chase` hands the state back as ``incremental=``:
    unchanged normalization groups replay, the tgd streams are patched
    with the normalized-source diff and replayed (re-minting every
    shifted null under the renaming ρ), and only the egd groups the
    pre-egd target diff touches are re-resolved.  Outputs are
    byte-identical to a from-scratch run.  A log replays only against
    the setting and variant it was recorded under; ``tgd``/``egd`` are
    ``None`` in states written before they existed (and for a run whose
    egd phase ran live), and those phases then run live and record.  The
    state pickles, which is how the CLI persists it between invocations
    (``repro chase --norm-log``).
    """

    source: NormalizationLog | None = None
    target: NormalizationLog | None = None
    tgd: "_TgdLog | None" = None
    egd: "_EgdLog | None" = None


@dataclass
class CChaseResult:
    """The outcome of one c-chase run, with intermediate stages retained.

    ``normalized_source`` is the source after stage 1; ``pre_egd_target``
    is the target after stages 2–3 (normalized w.r.t. Σ+eg but before any
    egd step) — both are pedagogically useful and feed the figure
    benchmarks.
    """

    target: ConcreteInstance
    failed: bool = False
    failure: FailureRecord | None = None
    trace: ChaseTrace = field(default_factory=ChaseTrace)
    normalized_source: ConcreteInstance = field(default_factory=ConcreteInstance)
    pre_egd_target: ConcreteInstance = field(default_factory=ConcreteInstance)
    # The two Algorithm 1 stages' reports (source w.r.t. Σ+st, target
    # w.r.t. Σ+eg), and — when the run was asked to record (incremental=
    # anything but None/False) — the replayable state for the next run.
    normalization_reports: tuple[NormalizationReport, NormalizationReport] | None = None
    replay_state: CChaseReplayState | None = None

    @property
    def succeeded(self) -> bool:
        return not self.failed

    def unwrap(self) -> ConcreteInstance:
        """The concrete solution, raising on a failed chase."""
        if self.failed:
            assert self.failure is not None
            raise ChaseFailureError(
                self.failure.dependency, self.failure.left, self.failure.right
            )
        return self.target


def _lift_rhs(tgd: SourceToTargetTGD, tvar: Variable) -> tuple[Atom, ...]:
    # Cached on the tgd: with lift_lhs cached, tvar is stable across runs,
    # and stable atoms keep the homomorphism search's plan cache warm.
    cached = tgd._lifted_rhs
    if cached is not None and cached[0] == tvar:
        return cached[1]
    lifted = tuple(
        Atom(atom.relation, atom.args + (tvar,)) for atom in tgd.rhs.atoms
    )
    object.__setattr__(tgd, "_lifted_rhs", (tvar, lifted))
    return lifted


class _ConcreteTgdTask:
    """One lifted s-t tgd prepared for the engine's tgd pass."""

    __slots__ = (
        "label",
        "tgd",
        "lifted_lhs",
        "tvar",
        "lifted_rhs",
        "exported",
        "rhs_probe",
    )

    def __init__(self, label: str, tgd: SourceToTargetTGD) -> None:
        self.label = label
        self.tgd = tgd
        self.lifted_lhs = tgd.lift_lhs()
        self.tvar = self.lifted_lhs.shared_variable
        self.lifted_rhs = _lift_rhs(tgd, self.tvar)
        self.exported = set(tgd.exported_variables)
        # The lifted rhs atoms bind the temporal variable like any other
        # exported variable, so only the existentials stay unbound.
        self.rhs_probe = build_rhs_probe(
            self.lifted_rhs, tgd.existential_variables
        )


class _ConcreteDomain:
    """:class:`~repro.chase.engine.ChaseDomain` over a concrete target.

    Egd matches are enumerated on the target's lifted relational view;
    the substitution delta is translated back into lifted facts so the
    engine's semi-naive rounds see the view they enumerate on.
    """

    check_annotations = True

    def __init__(
        self,
        target: ConcreteInstance,
        source: ConcreteInstance | None = None,
        nulls: NullFactory | None = None,
        variant: TgdVariant = "standard",
    ) -> None:
        self.target = target
        self.source = source
        self.nulls = nulls
        self.variant = variant
        self.probes_for: dict[str, list] = {}

    def attach_probes(self, tasks) -> None:
        """Register and seed the tasks' rhs projection probes.

        Probes watch the *lifted* form of the target's facts (the lifted
        rhs atoms carry the temporal variable as their last argument).
        """
        for task in tasks:
            probe = task.rhs_probe
            if probe is not None:
                self.probes_for.setdefault(probe.relation, []).append(probe)
                probe.seed(
                    item.lifted()
                    for item in self.target.facts_of(probe.relation)
                )

    # -- egd side ----------------------------------------------------------
    def match_view(self):
        return self.target.lifted()

    def apply_substitution(self, mapping) -> list[Fact]:
        added = self.target.substitute_in_place(mapping)
        return [item.lifted() for item in added]

    # -- tgd side ----------------------------------------------------------
    def iter_tgd_matches(self, task: _ConcreteTgdTask):
        # copy=False: the live assignment is read (and copied into the
        # extension/trace record) before the iterator resumes.
        assert self.source is not None
        return find_temporal_assignments(task.lifted_lhs, self.source, copy=False)

    def extension_exists(self, task: _ConcreteTgdTask, assignment) -> bool:
        """The *standard* variant's check: does *assignment* extend to
        the lifted rhs over the current target?"""
        if task.rhs_probe is not None:
            return task.rhs_probe.check(assignment)
        initial = {
            var: value
            for var, value in assignment.items()
            if var in task.exported or var == task.tvar
        }
        return has_homomorphism(
            task.lifted_rhs, self.target.lifted(), initial=initial
        )

    def add_fact(self, new_fact: ConcreteFact) -> bool:
        """Insert one rhs fact, keeping the seeded rhs probes current."""
        if not self.target.add(new_fact):
            return False
        watchers = self.probes_for.get(new_fact.relation)
        if watchers:
            lifted_fact = new_fact.lifted()
            for probe in watchers:
                probe.observe(lifted_fact)
        return True

    def instantiate(
        self, task: _ConcreteTgdTask, assignment
    ) -> tuple[tuple[ConcreteFact, ...], tuple[GroundTerm, ...]]:
        """The rhs facts of one firing (pre-dedup) and its fresh nulls,
        each existential a fresh null annotated with ``h(t)``."""
        tgd = task.tgd
        stamp = interval_of(assignment, task.tvar)
        assert self.nulls is not None
        fresh: list[GroundTerm] = []
        if tgd.existential_variables:
            extension = dict(assignment)
            for variable in tgd.existential_variables:
                null = self.nulls.fresh_annotated(stamp)
                extension[variable] = null
                fresh.append(null)
        else:
            extension = assignment
        facts = tuple(
            ConcreteFact.make(
                atom.relation,
                tuple([extension.get(arg, arg) for arg in atom.args]),
                stamp,
            )
            for atom in tgd.rhs.atoms
        )
        return facts, tuple(fresh)

    def fire_tgd(
        self, task: _ConcreteTgdTask, assignment
    ) -> TgdStepRecord | None:
        if self.variant == "standard" and self.extension_exists(task, assignment):
            return None
        record_assignment: dict[Variable, GroundTerm] = dict(assignment)
        facts, fresh = self.instantiate(task, record_assignment)
        added = tuple(
            new_fact.lifted() for new_fact in facts if self.add_fact(new_fact)
        )
        return TgdStepRecord(
            dependency=task.label,
            assignment=record_assignment,
            added_facts=added,
            fresh_nulls=fresh,
        )


# ---------------------------------------------------------------------------
# Replay: the recorded tgd pass and egd classes of the previous run
# ---------------------------------------------------------------------------


def _setting_key(setting: DataExchangeSetting) -> tuple:
    """What a recorded pass depends on besides its input: the dependencies."""
    return (setting.st_tgds, setting.egds)


def _buckets(instance: ConcreteInstance) -> dict[str, frozenset[ConcreteFact]]:
    """A frozen per-relation snapshot of *instance* (the diff basis)."""
    return {
        relation: instance.facts_of(relation)
        for relation in instance.relation_names()
    }


def _bucket_diff(
    before: dict[str, frozenset[ConcreteFact]],
    after: dict[str, frozenset[ConcreteFact]],
) -> tuple[dict[str, frozenset[ConcreteFact]], dict[str, frozenset[ConcreteFact]]]:
    """``(removed, added)`` per relation, relations without change omitted."""
    removed: dict[str, frozenset[ConcreteFact]] = {}
    added: dict[str, frozenset[ConcreteFact]] = {}
    empty: frozenset[ConcreteFact] = frozenset()
    for relation in before.keys() | after.keys():
        old = before.get(relation, empty)
        new = after.get(relation, empty)
        if old is new:
            continue
        gone = old - new
        if gone:
            removed[relation] = gone
        fresh = new - old
        if fresh:
            added[relation] = fresh
    return removed, added


class _Firing(_FiringRecord):
    """A recorded c-chase firing: the shared firing record plus the null
    counter it minted from — a replay at the same counter (and prefix)
    re-mints exactly the recorded names, so the renaming ρ is the
    identity there and the recorded objects are reused."""

    __slots__ = ("counter",)

    def __init__(
        self,
        record: TgdStepRecord,
        facts: tuple[ConcreteFact, ...],
        null_fact_indices: tuple[int, ...],
        added_indices: tuple[int, ...],
        counter: int,
    ) -> None:
        super().__init__(record, facts, null_fact_indices, added_indices)  # type: ignore[arg-type]
        self.counter = counter


class _TgdLog:
    """One run's s-t tgd pass: per-task match streams with their
    fire/skip decisions, rhs facts and null counters, keyed by the
    normalized-source facts they matched (lifted)."""

    __slots__ = (
        "setting",
        "variant",
        "prefix",
        "source",
        "source_nulls",
        "task_logs",
        "outer_choices",
    )

    def __init__(
        self,
        setting: tuple,
        variant: str,
        prefix: str,
        source: dict[str, frozenset[ConcreteFact]],
        source_nulls: int,
    ) -> None:
        self.setting = setting
        self.variant = variant
        self.prefix = prefix
        self.source = source
        # Normalized-source facts carrying a null: while there are none,
        # every target null is minted, which the egd replay relies on.
        self.source_nulls = source_nulls
        self.task_logs: list[list[_MatchEntry]] = []
        self.outer_choices: list[int | None] = []


#: Exact extension checks answered by scanning a relation before the
#: replayed tgd pass seeds its projection probes instead.  Seeding reads
#: the whole target and then feeds the probes on every later add; on the
#: perfbench ``revise`` workload a revision makes a median of 2 exact
#: checks and at most 8 in 92 of 96 (seeds 3 and 5), and the scans cut
#: its ``update_p50_ms`` by about a tenth against seeding at the first.
_SCAN_LIMIT = 8


class _LiftedSourceView:
    """The two lookups the pair-stream patcher makes on the lifted
    normalized source, answered from the concrete buckets: a replayed
    pass never builds the source's lifted view, only one hash index per
    (relation, bound positions) the patcher actually probes."""

    __slots__ = ("instance", "_indexes")

    def __init__(self, instance: ConcreteInstance) -> None:
        self.instance = instance
        self._indexes: dict[tuple, dict[tuple, list[Fact]]] = {}

    def candidate_count(self, relation: str, bindings) -> int:
        # Only the outer-choice rule asks, with no bindings.
        return len(self.instance.facts_of(relation))

    def lookup_ordered(self, relation: str, bindings) -> list[Fact]:
        positions = tuple(bindings)
        index = self._indexes.get((relation, positions))
        if index is None:
            index = {}
            for item in self.instance.iter_facts_of(relation):
                args = item.lifted().args
                if len(args) > max(positions, default=-1):
                    key = tuple([args[position] for position in positions])
                    index.setdefault(key, []).append(item.lifted())
            self._indexes[(relation, positions)] = index
        return sorted(
            index.get(tuple(bindings.values()), ()), key=Fact.sort_key
        )


class _ReplayDomain(_ConcreteDomain, StreamPatcher):
    """The tgd side of a recording c-chase: replays *previous* and records.

    Streams come from :meth:`StreamPatcher.patch_stream` over the diff
    of the normalized sources (live enumeration for a task without a
    usable recording).  Up to the first deviation of the processed
    matches from the recorded ones, the target is the recorded target's
    image under the renaming ρ, so every recorded fire/skip decision and
    dedup outcome is forced and copied.  Past it, recorded firings
    consult only what live firings added, recorded skips stand until
    recorded content is dropped, and the rest is checked exactly
    against the current target.  A replayed firing re-mints its nulls through
    :meth:`NullFactory.reissue` — ρ — unless the counter stands where
    the recorded one did, in which case the recorded facts and step are
    reused as objects, as are those of every null-free firing.
    """

    def __init__(
        self,
        target: ConcreteInstance,
        source: ConcreteInstance,
        nulls: NullFactory,
        variant: TgdVariant,
        tasks: list[_ConcreteTgdTask],
        log: _TgdLog,
        previous: _TgdLog | None,
    ) -> None:
        _ConcreteDomain.__init__(
            self, target, source=source, nulls=nulls, variant=variant
        )
        StreamPatcher.__init__(self)
        self._deviated = self._dropped = previous is None
        self.tasks = tasks
        self.log = log
        self.previous = previous
        self._probes_ready = False
        self._scans = 0
        # Per-task projections of the facts live firings added.
        self._minis = [
            RhsProbe(probe.relation, probe.arity, probe.slots)
            if (probe := task.rhs_probe) is not None
            else None
            for task in tasks
        ]
        self._task_index = -1
        self._entries: list[_MatchEntry] = []
        self.renaming = _Renaming()
        self._same_prefix = previous is not None and previous.prefix == nulls.prefix
        if previous is not None:
            removed, added = _bucket_diff(previous.source, log.source)
            self._removed = frozenset(
                item.lifted() for facts in removed.values() for item in facts
            )
            self._added = [
                item.lifted() for facts in added.values() for item in facts
            ]
            self._diff_relations = set(removed) | set(added)
            self._view = _LiftedSourceView(source)

    def iter_tgd_matches(self, task: _ConcreteTgdTask):
        self._task_index += 1
        self._entries = []
        self.log.task_logs.append(self._entries)
        shape = stream_shape(_lift_atoms(task.lifted_lhs))
        previous = self.previous
        if previous is None or shape is None:
            self._deviated = self._dropped = True
            assert self.source is not None
            view = self.source.lifted()
            self.log.outer_choices.append(
                shape.outer_choice(view) if isinstance(shape, _PairShape) else None
            )
            return self._live_stream(task, view)
        stream, choice, _reused = self.patch_stream(
            shape,
            previous.task_logs[self._task_index],
            previous.outer_choices[self._task_index],
            self._view,  # type: ignore[arg-type]
            self._added,
            self._removed,
            self._diff_relations,
        )
        self.log.outer_choices.append(choice)
        return stream

    @staticmethod
    def _live_stream(task: _ConcreteTgdTask, view):
        for assignment, images in find_homomorphisms_with_images(
            _lift_atoms(task.lifted_lhs), view, copy=False
        ):
            yield images, dict(assignment), None

    def fire_tgd(self, task: _ConcreteTgdTask, match) -> TgdStepRecord | None:
        images, assignment, entry = match
        if entry is not None:
            recorded = entry.firing
            if not self._deviated:
                # Forced: the recorded decision and dedup outcome stand.
                if recorded is None:
                    self._entries.append(entry)
                    return None
                return self._replay(entry, recorded, True)
            if recorded is not None:
                mini = self._minis[self._task_index]
                if mini is not None and self.variant == "standard":
                    # The recorded content of the target before this
                    # entry is the ρ-image of a subset of what the
                    # recorded run had there, where the extension was
                    # absent — but for entries of this task a re-sorted
                    # stream now puts first, and those cannot supply it
                    # either (one rhs atom: an entry whose fact matched
                    # this pattern would have skipped in the recorded
                    # run).  So only a fact a live firing added, which
                    # the mini probe watches, can supply it now.
                    if not (mini.projection and mini.check(assignment)):
                        return self._replay(entry, recorded, False)
                    self._dropped = True
                    self._entries.append(_MatchEntry(images, assignment, None))
                    return None
        else:
            recorded = None
        if self.variant == "standard" and self._extension_exists(
            task, assignment, entry is not None and recorded is None
        ):
            self._entries.append(
                entry
                if entry is not None and recorded is None
                else _MatchEntry(images, assignment, None)
            )
            return None
        if recorded is not None:
            return self._replay(entry, recorded, False)  # type: ignore[arg-type]
        counter = self.nulls.state()  # type: ignore[union-attr]
        facts, fresh = self.instantiate(task, assignment)
        added_indices = self._insert(facts, None)
        for index in added_indices:
            lifted_fact = facts[index].lifted()
            for mini in self._minis:
                if mini is not None:
                    mini.observe(lifted_fact)
        record = TgdStepRecord(
            dependency=task.label,
            assignment=assignment,
            added_facts=tuple(facts[index].lifted() for index in added_indices),
            fresh_nulls=fresh,
        )
        fresh_set = set(fresh)
        null_fact_indices = tuple(
            index
            for index, item in enumerate(facts)
            if not fresh_set.isdisjoint(item.data)
        )
        for index in null_fact_indices:
            # A live null may reuse a recorded name for another unknown:
            # its facts must never pass for recorded ones.
            self.renaming.back[facts[index]] = (facts[index],)
        self._entries.append(
            _MatchEntry(
                images,
                assignment,
                _Firing(record, facts, null_fact_indices, added_indices, counter),
            )
        )
        return record

    def _extension_exists(
        self, task: _ConcreteTgdTask, assignment, recorded_skip: bool
    ) -> bool:
        """The standard check past the first deviation.

        A recorded skip stays forced while no recorded content was
        dropped or re-sorted (its extension is still there); every
        other match is checked exactly.
        """
        if recorded_skip and not self._dropped:
            return True
        probe = task.rhs_probe
        if probe is None or self._probes_ready:
            return self.extension_exists(task, assignment)
        if self._scans < _SCAN_LIMIT:
            # A few exact scans of one relation are cheaper than seeding
            # the projection probes and maintaining them on every add.
            self._scans += 1
            arity = probe.arity - 1  # data arity: the stamp is lifted last
            wanted = []
            stamp = None
            for position, value, variable in probe.slots:
                if variable is not None:
                    value = assignment[variable]
                if position < arity:
                    wanted.append((position, value))
                else:
                    stamp = value.value
            if len(wanted) == arity and stamp is not None:
                # Every position bound: the extension is one fact.
                return (
                    ConcreteFact.make(
                        probe.relation,
                        tuple([value for _position, value in wanted]),
                        stamp,
                    )
                    in self.target
                )
            for item in self.target.iter_facts_of(probe.relation):
                data = item.data
                if (
                    len(data) == arity
                    and (stamp is None or item.interval == stamp)
                    and all(data[position] == value for position, value in wanted)
                ):
                    return True
            return False
        self.attach_probes(self.tasks)
        self._probes_ready = True
        return self.extension_exists(task, assignment)

    def _insert(
        self, facts: tuple[ConcreteFact, ...], forced: tuple[int, ...] | None
    ) -> tuple[int, ...]:
        """Insert rhs *facts*: the *forced* indices (a dedup outcome known
        to stand) or else every new one; returns the inserted indices."""
        if forced is not None:
            for index in forced:
                self.add_fact(facts[index])
            return forced
        return tuple(index for index, item in enumerate(facts) if self.add_fact(item))

    def _replay(
        self, entry: _MatchEntry, recorded: _Firing, forced: bool
    ) -> TgdStepRecord:
        """Fire a recorded firing again; *forced* copies its dedup outcome."""
        record = recorded.record
        transcript = record.fresh_nulls
        nulls = self.nulls
        assert nulls is not None
        counter = nulls.state()
        if not transcript:
            facts = recorded.facts
            same = True
        elif self._same_prefix and counter == recorded.counter:
            nulls.advance(len(transcript))
            facts = recorded.facts
            same = True
        else:
            rename = nulls.reissue(transcript)
            renaming = self.renaming
            for old, new in rename.items():
                renaming.terms[new] = old
            fact_list = list(recorded.facts)
            for index in recorded.null_fact_indices:
                item = fact_list[index]
                renamed = ConcreteFact.make(
                    item.relation,
                    tuple([rename.get(value, value) for value in item.data]),
                    item.interval,
                )
                fact_list[index] = renamed
                renaming.back[renamed] = item
                renaming.forth[item] = renamed
            facts = tuple(fact_list)
            transcript = tuple(rename.values())
            same = False
        added_indices = self._insert(
            facts, recorded.added_indices if forced else None  # type: ignore[arg-type]
        )
        if (
            same
            and added_indices == recorded.added_indices
            and entry.assignment is record.assignment
        ):
            self._entries.append(entry)
            return record
        new_record = TgdStepRecord(
            dependency=record.dependency,
            assignment=entry.assignment,
            added_facts=tuple(facts[index].lifted() for index in added_indices),
            fresh_nulls=transcript,
        )
        self._entries.append(
            _MatchEntry(
                entry.images,
                entry.assignment,
                _Firing(
                    new_record,
                    facts,  # type: ignore[arg-type]
                    recorded.null_fact_indices,
                    added_indices,
                    counter,
                ),
            )
        )
        return new_record


class _Renaming:
    """This run's renaming ρ, as the target normalization needs it.

    ``back`` maps each tgd-pass fact whose nulls ρ renamed to its
    recorded fact, and each fact carrying a live-minted null to a
    stand-in no recorded fact equals; ``forth`` is the inverse on the
    renamed facts and ``terms`` maps renamed nulls back.  Every other
    fact is its own recorded fact.
    """

    __slots__ = ("back", "forth", "terms")

    def __init__(self) -> None:
        self.back: dict[ConcreteFact, object] = {}
        self.forth: dict[ConcreteFact, ConcreteFact] = {}
        self.terms: dict[GroundTerm, GroundTerm] = {}


class _RenamedLedger:
    """A recorded normalization ledger recalled under ρ.

    A group or component replays when its members, mapped back through
    ρ, are exactly the recorded members — the signature stays invariant
    under the renaming — and its payload is mapped forward again.
    """

    __slots__ = ("ledger", "renaming")

    def __init__(self, ledger: ReplayLedger, renaming: _Renaming) -> None:
        self.ledger = ledger
        self.renaming = renaming

    def recall(self, key: object, signature: frozenset) -> object | None:
        back = self.renaming.back
        if back.keys().isdisjoint(signature):
            return self.ledger.recall(key, signature)
        recorded = frozenset([back.get(item, item) for item in signature])
        payload = self.ledger.recall(self._key(key, recorded), recorded)
        return None if payload is None else self._forward(payload)

    def _key(self, key, recorded: frozenset):
        raise NotImplementedError

    def _forward(self, payload):
        raise NotImplementedError


class _RenamedGroups(_RenamedLedger):
    __slots__ = ()

    def _key(self, key, recorded: frozenset):
        conj_index, join_key = key
        terms = self.renaming.terms
        return conj_index, tuple([terms.get(term, term) for term in join_key])

    def _forward(self, payload):
        chains, sets, pairs = payload
        forth = self.renaming.forth
        return (
            tuple(tuple([forth.get(item, item) for item in chain]) for chain in chains),
            sets,
            pairs,
        )


class _RenamedComponents(_RenamedLedger):
    __slots__ = ()

    def _key(self, key, recorded: frozenset):
        return recorded

    def _forward(self, payload):
        plan_items, fragmented, created = payload
        forth = self.renaming.forth
        items = []
        for item, fragments in plan_items:
            renamed = forth.get(item)
            if renamed is None:
                items.append((item, fragments))
            else:
                items.append(
                    (
                        renamed,
                        tuple(
                            renamed.with_interval(fragment.interval)
                            for fragment in fragments
                        ),
                    )
                )
        return tuple(items), fragmented, created


class _RenamedLog:
    """A :class:`NormalizationLog` replayed through :class:`_Renaming`."""

    __slots__ = ("conjunctions", "groups", "components")

    def __init__(self, log: NormalizationLog, renaming: _Renaming) -> None:
        self.conjunctions = log.conjunctions
        self.groups = _RenamedGroups(log.groups, renaming)
        self.components = _RenamedComponents(log.components, renaming)


def _tgd_tasks(setting: DataExchangeSetting) -> list[_ConcreteTgdTask]:
    return [
        _ConcreteTgdTask(tgd.name or f"σ{index}+", tgd)
        for index, tgd in enumerate(setting.st_tgds, start=1)
    ]


class _KeyEgd:
    """A lifted egd of the key shape ``R(x̄, y, z̄, t) ∧ R(x̄, y′, z̄, t) →
    y = y′``: two atoms over one relation, all variables, distinct within
    each atom, equal everywhere but at one data *position* — there the
    equated pair.  Every other position (the stamp included) is the join
    key, so the atom's matches pair up exactly the facts of one *group*:
    equal but for the value at *position*."""

    __slots__ = ("label", "relation", "arity", "position")

    def __init__(self, label: str, relation: str, arity: int, position: int) -> None:
        self.label = label
        self.relation = relation
        self.arity = arity  # data arity
        self.position = position

    def group_key(self, item: ConcreteFact) -> tuple:
        data = item.data
        position = self.position
        return (data[:position], data[position + 1 :], item.interval)


def _key_egd(task: EgdTask) -> _KeyEgd | None:
    if len(task.atoms) != 2:
        return None
    first, second = task.atoms
    if first.relation != second.relation or first.arity != second.arity:
        return None
    for atom in (first, second):
        if len(set(atom.args)) != atom.arity or not all(
            isinstance(arg, Variable) for arg in atom.args
        ):
            return None
    differing = [
        position
        for position in range(first.arity)
        if first.args[position] != second.args[position]
    ]
    if len(differing) != 1 or differing[0] == first.arity - 1:
        return None
    position = differing[0]
    if {first.args[position], second.args[position]} != {
        task.left_variable,
        task.right_variable,
    }:
        return None
    return _KeyEgd(task.label, first.relation, first.arity - 1, position)


def _key_egds(setting: DataExchangeSetting) -> tuple[_KeyEgd, ...] | None:
    """The setting's egds as key egds, or ``None`` if the group replay
    does not apply.

    It applies when every egd has the key shape and every existential
    variable of every s-t tgd occurs once in its rhs.  Then (given a
    null-free source) each target null occurs exactly once, in one fact
    — so the egd classes of round 0 are the groups themselves: a group's
    values merge into its least one under ``term_sort_key`` (a constant
    whenever there is one, which makes two constants a clash), each
    merge rewrites one fact into the group's least fact, which exists,
    and the fixpoint ends with that round.
    """
    cached = getattr(setting, "_concrete_key_egds", None)
    if cached is not None:
        return cached or None
    found: tuple[_KeyEgd, ...] | None = None
    singly = all(
        sum(
            arg == variable for atom in tgd.rhs.atoms for arg in atom.args
        )
        == 1
        for tgd in setting.st_tgds
        for variable in tgd.existential_variables
    )
    if singly:
        shapes = tuple(_key_egd(task) for task in _egd_tasks(setting))
        if all(shape is not None for shape in shapes):
            found = shapes  # type: ignore[assignment]
    try:
        object.__setattr__(setting, "_concrete_key_egds", found or ())
    except AttributeError:
        pass
    return found


class _EgdLog:
    """One run's egd classes, per key egd: every group of the pre-egd
    target (key → members in match order and the steps that merged
    them), the step order of the groups with steps, and the facts the
    merges rewrote away."""

    __slots__ = ("setting", "variant", "pre", "dead", "groups", "orders")

    def __init__(
        self,
        setting: tuple,
        variant: str,
        pre: dict[str, frozenset[ConcreteFact]],
        dead: dict[str, frozenset[ConcreteFact]],
        groups: list[dict[tuple, tuple]],
        orders: list[list[tuple[tuple, tuple]]],
    ) -> None:
        self.setting = setting
        self.variant = variant
        self.pre = pre
        self.dead = dead
        self.groups = groups
        self.orders = orders


def _lifted_sort_key(item: ConcreteFact) -> tuple:
    return item.lifted().sort_key()


def _resolve_group(egd: _KeyEgd, members: list[ConcreteFact]) -> tuple | None:
    """``(members, steps)`` of one group in the live round-0 order, or
    ``None`` on a constant clash.

    The live enumeration meets a group at its least fact (lifted sort
    order) and equates its value with every member's in that order; each
    member's value is still its own class (nulls occur once), so each
    meeting records one step onto the least value.
    """
    members.sort(key=_lifted_sort_key)
    position = egd.position
    winner = members[0].data[position]
    steps = []
    if len(members) > 1:
        winner_is_constant = isinstance(winner, Constant)
        for item in members[1:]:
            value = item.data[position]
            if winner_is_constant and isinstance(value, Constant):
                return None
            steps.append(EgdStepRecord(egd.label, value, winner))
    return tuple(members), tuple(steps)


class _EgdReplayDomain(_ConcreteDomain):
    """The egd side of a recording c-chase.

    :meth:`replay_egd_fixpoint` resolves a key-egd fixpoint from the
    groups: those of the previous run the pre-egd target diff leaves
    untouched keep their recorded steps, and only the touched ones are
    re-resolved — under the current names, so a group whose nulls ρ
    renamed re-elects its representative.  The final target is the
    pre-egd target minus the rewritten facts.  Anything else (no key
    shape, a clash) declines, and the live rounds run on a copy of the
    pre-egd target made on first use.
    """

    def __init__(
        self,
        pre: ConcreteInstance,
        key_egds: tuple[_KeyEgd, ...] | None,
        setting: tuple,
        variant: str,
        previous: _EgdLog | None,
        renaming: _Renaming,
    ) -> None:
        super().__init__(None)  # type: ignore[arg-type]
        self.pre = pre
        self.renaming = renaming
        self.key_egds = key_egds
        self.setting = setting
        self.variant = variant
        self.previous = previous
        self.log: _EgdLog | None = None

    def match_view(self):
        if self.target is None:
            self.target = self.pre.copy(preserve_caches=True)
        return self.target.lifted()

    def _renamed_tail(
        self,
        egd: _KeyEgd,
        old_members: tuple[ConcreteFact, ...],
        added: list[ConcreteFact],
        gone: frozenset[ConcreteFact],
    ) -> ConcreteFact | None:
        """The ρ-image of *old_members*' last member when that is the
        group's whole change and every member before it holds a constant
        (so the renamed null keeps its place), else ``None``."""
        if len(added) != 1:
            return None
        last = old_members[-1]
        if last not in gone or self.renaming.forth.get(last) is not added[0]:
            return None
        position = egd.position
        for item in old_members[:-1]:
            if item in gone or not isinstance(item.data[position], Constant):
                return None
        return added[0]

    def replay_egd_fixpoint(self, tasks, trace: ChaseTrace) -> bool:
        """The hook :func:`run_egd_fixpoint` calls first: ``True`` when
        the key-egd groups resolved the fixpoint (steps recorded on
        *trace*, the result in ``self.target``), ``False`` to run live."""
        key_egds = self.key_egds
        if key_egds is None:
            return False
        pre = _buckets(self.pre)
        previous = self.previous
        empty: frozenset[ConcreteFact] = frozenset()
        if previous is not None:
            removed, added = _bucket_diff(previous.pre, pre)
        else:
            removed, added = {}, pre
        revived: dict[str, set[ConcreteFact]] = {}
        buried: dict[str, set[ConcreteFact]] = {}
        all_groups: list[dict[tuple, tuple]] = []
        orders: list[list[tuple[tuple, tuple]]] = []
        steps: list[EgdStepRecord] = []
        for index, egd in enumerate(key_egds):
            relation, arity, group_key = egd.relation, egd.arity, egd.group_key
            old_groups = previous.groups[index] if previous is not None else {}
            groups = dict(old_groups)
            touched: dict[tuple, list[ConcreteFact]] = {}
            gone = removed.get(relation, empty)
            for item in gone:
                if item.arity == arity:
                    touched.setdefault(group_key(item), [])
            for item in added.get(relation, empty):
                if item.arity == arity:
                    touched.setdefault(group_key(item), []).append(item)
            revive = revived.setdefault(relation, set())
            bury = buried.setdefault(relation, set())
            fresh_order: list[tuple[tuple, tuple]] = []
            rebuilt: set[tuple] = set()
            for key, members in touched.items():
                old = old_groups.get(key)
                if old is not None:
                    old_members, old_steps = old
                    renamed = self._renamed_tail(egd, old_members, members, gone)
                    if renamed is not None:
                        # Only ρ touched the group, and only its last
                        # member, whose null still sorts after the
                        # constants before it: same order, same winner.
                        groups[key] = (
                            old_members[:-1] + (renamed,),
                            old_steps[:-1]
                            + (
                                EgdStepRecord(
                                    egd.label,
                                    renamed.data[egd.position],
                                    old_steps[-1].replacement,
                                ),
                            )
                            if old_steps
                            else (),
                        )
                        if old_steps:
                            revive.add(old_members[-1])
                            bury.add(renamed)
                        continue
                    revive.update(old_members[1:])
                    members.extend(item for item in old_members if item not in gone)
                rebuilt.add(key)
                if not members:
                    del groups[key]
                    continue
                resolved = _resolve_group(egd, members)
                if resolved is None:
                    return False
                groups[key] = resolved
                if resolved[1]:
                    bury.update(resolved[0][1:])
                    fresh_order.append((_lifted_sort_key(resolved[0][0]), key))
            if previous is not None and rebuilt:
                order = [
                    entry
                    for entry in previous.orders[index]
                    if entry[1] not in rebuilt
                ]
                order.extend(fresh_order)
                order.sort(key=itemgetter(0))
            elif previous is not None:
                order = previous.orders[index]
            else:
                fresh_order.sort(key=itemgetter(0))
                order = fresh_order
            for _order_key, key in order:
                steps.extend(groups[key][1])
            all_groups.append(groups)
            orders.append(order)
        dead: dict[str, frozenset[ConcreteFact]] = {}
        for relation in revived.keys() | (previous.dead.keys() if previous else set()):
            kept = previous.dead.get(relation, empty) if previous else empty
            now = (kept - revived.get(relation, empty)) | buried.get(relation, empty)
            if now:
                dead[relation] = now
        final = ConcreteInstance.from_buckets(
            {
                relation: facts - dead[relation] if relation in dead else facts
                for relation, facts in pre.items()
            }
        )
        # Hand the target over as the live rounds do: lifted view built,
        # the egd relations' buckets sorted (query evaluation reads both).
        view = final.lifted()
        for egd in key_egds:
            view.lookup_ordered(egd.relation, {})
        self.target = final
        trace.steps.extend(steps)
        self.log = _EgdLog(self.setting, self.variant, pre, dead, all_groups, orders)
        return True


def _run_st_phase(
    source: ConcreteInstance,
    target: ConcreteInstance,
    setting: DataExchangeSetting,
    nulls: NullFactory,
    variant: TgdVariant,
    trace: ChaseTrace,
) -> None:
    domain = _ConcreteDomain(target, source=source, nulls=nulls, variant=variant)
    tasks = _tgd_tasks(setting)
    domain.attach_probes(tasks)
    run_tgd_pass(domain, tasks, trace)


def _replay_st_phase(
    source: ConcreteInstance,
    target: ConcreteInstance,
    setting: DataExchangeSetting,
    nulls: NullFactory,
    variant: TgdVariant,
    trace: ChaseTrace,
    previous: _TgdLog | None,
) -> tuple[_TgdLog, _Renaming]:
    """The recording tgd pass, replaying *previous* where it applies.

    Returns the new log and the renaming ρ the replay applied.
    """
    key = _setting_key(setting)
    if previous is not None and (
        previous.setting != key or previous.variant != variant
    ):
        previous = None
    snapshot = _buckets(source)
    if previous is None:
        source_nulls = sum(
            1 for facts in snapshot.values() for item in facts if item.has_nulls()
        )
    else:
        removed, added = _bucket_diff(previous.source, snapshot)
        source_nulls = (
            previous.source_nulls
            - sum(1 for facts in removed.values() for item in facts if item.has_nulls())
            + sum(1 for facts in added.values() for item in facts if item.has_nulls())
        )
    log = _TgdLog(key, variant, nulls.prefix, snapshot, source_nulls)
    if source_nulls:
        # Source nulls may share names with minted ones, which the
        # renaming ρ would then tell apart where the chase does not.
        previous = None
    tasks = _tgd_tasks(setting)
    domain = _ReplayDomain(target, source, nulls, variant, tasks, log, previous)
    run_tgd_pass(domain, tasks, trace)
    return log, domain.renaming


def _egd_tasks(setting: DataExchangeSetting) -> tuple[EgdTask, ...]:
    # Cached on the setting: tasks are immutable and shared across runs.
    cached = getattr(setting, "_concrete_egd_tasks", None)
    if cached is None:
        cached = tuple(
            EgdTask(
                egd.name or f"ε{index}+",
                _lift_atoms(egd.lift_lhs()),
                egd.left_variable,
                egd.right_variable,
            )
            for index, egd in enumerate(setting.egds, start=1)
        )
        try:
            object.__setattr__(setting, "_concrete_egd_tasks", cached)
        except AttributeError:
            # The setting grew __slots__: just rebuild per call.
            pass
    return cached


def _run_egd_phase(
    target: ConcreteInstance,
    setting: DataExchangeSetting,
    trace: ChaseTrace,
) -> tuple[ConcreteInstance, FailureRecord | None]:
    """Resolve the egds in batched semi-naive rounds (module docstring).

    A thin wrapper over :func:`repro.chase.engine.run_egd_fixpoint` with
    the concrete domain; the instance is mutated in place and returned.
    """
    domain = _ConcreteDomain(target)
    failure = run_egd_fixpoint(domain, _egd_tasks(setting), trace)
    return target, failure


def _replay_egd_phase(
    pre_egd_target: ConcreteInstance,
    setting: DataExchangeSetting,
    variant: TgdVariant,
    trace: ChaseTrace,
    tgd_log: _TgdLog,
    renaming: _Renaming,
    previous: _EgdLog | None,
) -> tuple[ConcreteInstance, FailureRecord | None, _EgdLog | None]:
    """The recording egd phase: group replay where it applies, else live.

    *pre_egd_target* is left untouched either way.
    """
    key = _setting_key(setting)
    if previous is not None and (
        previous.setting != key or previous.variant != variant
    ):
        previous = None
    key_egds = _key_egds(setting) if tgd_log.source_nulls == 0 else None
    domain = _EgdReplayDomain(
        pre_egd_target, key_egds, key, variant, previous, renaming
    )
    failure = run_egd_fixpoint(domain, _egd_tasks(setting), trace)
    return domain.target, failure, domain.log


def c_chase(
    source: ConcreteInstance,
    setting: DataExchangeSetting,
    null_factory: NullFactory | None = None,
    variant: TgdVariant = "standard",
    coalesce_result: bool = False,
    incremental: "CChaseResult | CChaseReplayState | bool | None" = None,
) -> CChaseResult:
    """Run the c-chase of Definition 16 on a concrete source instance.

    Parameters
    ----------
    source:
        The concrete source instance (assumed coalesced, per the paper).
    setting:
        The data exchange setting ``M``; its lifting ``M+`` is derived.
    null_factory:
        Source of fresh annotated nulls (deterministic default).
    variant:
        ``"standard"`` checks for an existing rhs extension before firing
        a tgd; ``"oblivious"`` always fires.
    coalesce_result:
        When ``True``, value-equivalent adjacent fragments of the solution
        are merged before returning (the semantics is unchanged).
    incremental:
        Replay across successive runs.  ``True`` records this run's
        :class:`CChaseReplayState` (on ``result.replay_state``) without
        replaying anything; a previous run's :class:`CChaseResult` or
        :class:`CChaseReplayState` replays its normalization groups, its
        tgd match streams and its egd classes wherever this run's input
        leaves them unchanged, *and* records the new state.  Outputs are
        byte-identical to a from-scratch run; a replayed run that fails
        is re-run without replay.  ``None``/``False`` (default) records
        nothing.  Any other value raises :class:`TypeError`.
    """
    if incremental is not None and not isinstance(
        incremental, (bool, CChaseResult, CChaseReplayState)
    ):
        raise TypeError(
            "incremental= takes a bool, None, a CChaseResult or a "
            f"CChaseReplayState, not {type(incremental).__name__}"
        )
    nulls = null_factory if null_factory is not None else NullFactory()
    start = nulls.state()
    trace = ChaseTrace()

    record = incremental is not None and incremental is not False
    state: CChaseReplayState | None = None
    if isinstance(incremental, CChaseResult):
        state = incremental.replay_state
    elif isinstance(incremental, CChaseReplayState):
        state = incremental

    normalized_source, source_report = normalize_with_report(
        source,
        setting.lifted_st_lhs_conjunctions(),
        previous=state.source if state is not None else None,
        record=record,
    )
    target = ConcreteInstance()
    tgd_log: _TgdLog | None = None
    target_previous = state.target if state is not None else None
    if record:
        tgd_log, renaming = _replay_st_phase(
            normalized_source,
            target,
            setting,
            nulls,
            variant,
            trace,
            state.tgd if state is not None else None,
        )
        if target_previous is not None and renaming.back:
            target_previous = _RenamedLog(target_previous, renaming)  # type: ignore[assignment]
    else:
        _run_st_phase(normalized_source, target, setting, nulls, variant, trace)
    pre_egd_target, target_report = normalize_with_report(
        target,
        setting.lifted_egd_lhs_conjunctions(),
        previous=target_previous,
        record=record,
    )
    egd_log: _EgdLog | None = None
    if tgd_log is not None:
        final, failure, egd_log = _replay_egd_phase(
            pre_egd_target,
            setting,
            variant,
            trace,
            tgd_log,
            renaming,
            state.egd if state is not None else None,
        )
    else:
        final, failure = _run_egd_phase(
            pre_egd_target.copy(preserve_caches=True), setting, trace
        )
    if failure is not None and state is not None:
        # A replay-assisted chase that fails is re-run without replay,
        # so its failure record and partial target are the cold run's
        # by construction.
        nulls.restore(start)
        return c_chase(
            source,
            setting,
            null_factory=nulls,
            variant=variant,
            coalesce_result=coalesce_result,
            incremental=True,
        )
    if failure is None and coalesce_result:
        final = final.coalesce()
    return CChaseResult(
        target=final,
        failed=failure is not None,
        failure=failure,
        trace=trace,
        normalized_source=normalized_source,
        pre_egd_target=pre_egd_target,
        normalization_reports=(source_report, target_report),
        replay_state=(
            CChaseReplayState(
                source=source_report.log,
                target=target_report.log,
                tgd=tgd_log,
                egd=egd_log,
            )
            if record
            else None
        ),
    )
