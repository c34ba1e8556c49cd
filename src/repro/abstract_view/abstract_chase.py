"""The abstract chase: classical chase applied snapshot-wise (Section 3).

With non-temporal s-t tgds and egds every snapshot is chased
independently::

    chase(Ia, M) = ⟨chase(db0, M), chase(db1, M), …⟩

and the fresh nulls of one snapshot are distinct from every other
snapshot's.  On the finite representation this collapses to chasing one
*representative* snapshot per constancy region: within a region all
snapshots are equal (abstract source instances are complete), so their
chase results are equal up to the per-snapshot renaming of fresh nulls —
which is exactly what an interval-annotated null family over the region
denotes.

Because regions are chased independently, they also **shard**: the
region scheduler partitions the region list into contiguous blocks, runs
each block with its own namespaced
:class:`~repro.chase.nulls.NullFactory` (shard *i* issues ``Ns<i>_1,
Ns<i>_2, …`` — collision-free across shards by construction), and merges
the per-region results back in timeline order.  The blocks run one
after another in a plain loop.  ``shards=1`` with the default factory is
byte-identical to the historical sequential chase (one shared counter
across all regions).

Within each shard the regions are, by default, chased **incrementally**:
adjacent region snapshots differ by few facts, so each region replays the
previous region's recorded tgd firing sequence wherever the snapshot
diff left it intact, and falls through to live decisions only where the
streams deviate; the egd fixpoint runs the live semi-naive engine either
way (see :mod:`repro.chase.incremental`).  The incremental schedule is
byte-identical to the from-scratch one — null numbering, traces and
failures included — so it is safe as the default;
``incremental=False`` restores the from-scratch reference schedule.

Proposition 4: a successful abstract chase yields a universal solution;
a failure on any snapshot means no solution exists.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ChaseFailureError, InstanceError, ShardExecutionError
from repro.abstract_view.abstract_instance import AbstractInstance, TemplateFact
from repro.chase.incremental import IncrementalRegionChaser, RegionReuseStats
from repro.chase.nulls import NullFactory
from repro.chase.standard import ChaseVariant, SnapshotChaseResult, chase_snapshot
from repro.chase.trace import FailureRecord
from repro.dependencies.mapping import DataExchangeSetting
from repro.relational.terms import AnnotatedNull, LabeledNull
from repro.temporal.interval import Interval

__all__ = [
    "AbstractChaseResult",
    "RegionReuseStats",
    "ShardReport",
    "abstract_chase",
]


@dataclass(frozen=True, slots=True)
class ShardReport:
    """Per-shard execution accounting of one scheduled abstract chase."""

    shard: int
    regions: int
    seconds: float
    nulls_issued: int
    # Aggregated cross-region reuse of the shard's incremental chain;
    # None when the from-scratch schedule ran (incremental=False).
    reuse: RegionReuseStats | None = None


@dataclass
class AbstractChaseResult:
    """Outcome of the snapshot-wise chase over the whole timeline."""

    target: AbstractInstance
    failed: bool = False
    failure: FailureRecord | None = None
    failed_region: Interval | None = None
    failed_shard: int | None = None
    error: ShardExecutionError | None = None
    region_results: dict[Interval, SnapshotChaseResult] = field(default_factory=dict)
    region_reuse: dict[Interval, RegionReuseStats] = field(default_factory=dict)
    shard_reports: tuple[ShardReport, ...] = ()

    @property
    def succeeded(self) -> bool:
        return not self.failed

    def reuse_totals(self) -> RegionReuseStats:
        """Cross-region reuse summed over every chased region."""
        totals = RegionReuseStats()
        for stats in self.region_reuse.values():
            totals.add(stats)
        return totals

    def unwrap(self) -> AbstractInstance:
        """The universal solution, raising on failure.

        A chase *failure* raises :class:`ChaseFailureError` with the
        failing shard and region interval in its message; an unexpected
        exception inside a shard re-raises as
        :class:`ShardExecutionError` (original exception chained).
        """
        if self.error is not None:
            raise self.error
        if self.failed:
            assert self.failure is not None
            context = f"snapshots {self.failed_region}"
            if self.failed_shard is not None:
                context = f"shard {self.failed_shard}, {context}"
            raise ChaseFailureError(
                self.failure.dependency,
                self.failure.left,
                self.failure.right,
                context=context,
            )
        return self.target


def _partition(
    regions: tuple[Interval, ...], shards: int
) -> list[tuple[Interval, ...]]:
    """Split the ascending region list into ≤ *shards* contiguous blocks.

    Blocks are balanced to within one region and preserve timeline order,
    so every shard's subsequence is ascending (what the sweep of
    :meth:`AbstractInstance.iter_region_snapshots` requires) and the
    merge is a plain concatenation in region order.
    """
    count = min(shards, len(regions))
    if count <= 0:
        return []
    size, extra = divmod(len(regions), count)
    blocks: list[tuple[Interval, ...]] = []
    start = 0
    for shard in range(count):
        width = size + (1 if shard < extra else 0)
        blocks.append(regions[start : start + width])
        start += width
    return blocks


def _chase_regions(
    source: AbstractInstance,
    regions: tuple[Interval, ...],
    setting: DataExchangeSetting,
    nulls: NullFactory,
    variant: ChaseVariant,
    incremental: bool,
    shard: int,
) -> tuple[
    list[tuple[Interval, SnapshotChaseResult]],
    dict[Interval, RegionReuseStats],
    ShardExecutionError | None,
]:
    """Chase one block of regions; stops at the block's first failure.

    An exception raised while chasing a region is captured as a
    :class:`ShardExecutionError` carrying this shard's index and the
    region interval, so the scheduler can surface it without dropping
    the other shards' reports.  An exception raised by the sweep
    *between* regions is attributed to no region (the advance, not the
    previous region's chase, is at fault).
    """
    results: list[tuple[Interval, SnapshotChaseResult]] = []
    region_stats: dict[Interval, RegionReuseStats] = {}
    region: Interval | None = None
    chaser = (
        IncrementalRegionChaser(setting, nulls, variant)
        if incremental
        else None
    )
    sweep = iter(
        source.iter_region_deltas(regions)
        if incremental
        else source.iter_region_snapshots(regions)
    )
    while True:
        region = None
        try:
            item = next(sweep)
        except StopIteration:
            break
        except Exception as exc:  # noqa: BLE001 — surfaced with shard context
            return results, region_stats, ShardExecutionError(
                shard, None, exc
            )
        region = item[0]
        try:
            if chaser is not None:
                _region, snapshot, added, removed = item
                result, stats = chaser.chase(snapshot, added, removed)
                region_stats[region] = stats
            else:
                _region, snapshot = item
                result = chase_snapshot(
                    snapshot,
                    setting,
                    null_factory=nulls,
                    variant=variant,
                )
        except Exception as exc:  # noqa: BLE001 — surfaced with shard context
            return results, region_stats, ShardExecutionError(
                shard, region, exc
            )
        results.append((region, result))
        if result.failed:
            break
    return results, region_stats, None


@dataclass
class _BlockOutcome:
    """One shard's finished block, as the merge consumes it."""

    results: list[tuple[Interval, SnapshotChaseResult]]
    region_reuse: dict[Interval, RegionReuseStats]
    error: ShardExecutionError | None
    report: ShardReport


def _region_templates(
    region: Interval, result: SnapshotChaseResult
) -> list[TemplateFact]:
    """One successful region's contribution to the merged target.

    Every fresh null is re-annotated with the region (a labeled null of
    the representative snapshot denotes one unknown *per* covered
    snapshot), constants pass through, and the facts become templates
    stamped with the region.  Set iteration order is fine here — the
    merged instance is a set, and forcing ``sort_key`` order would
    compute tens of thousands of sort keys the chase never needed
    (measured at ~20% of the whole serial run).
    """
    templates: list[TemplateFact] = []
    for item in result.target.facts():
        args = tuple(
            AnnotatedNull(value.name, region)
            if isinstance(value, LabeledNull)
            else value
            for value in item.args
        )
        # Trusted: fresh nulls were re-annotated with the region just
        # above, and factory null names never contain '@'.
        templates.append(TemplateFact.make(item.relation, args, region))
    return templates


class _LazyRegionTemplates:
    """One region's merged-target contribution, computed on first read.

    Re-iterable so the deferred :class:`AbstractInstance` can hold it as
    a piece; until something walks the merged template set, the region's
    chase result never has to materialize its target (which, for a
    fully-replayed region, is itself a lazy view over the firing log).
    """

    __slots__ = ("_region", "_result")

    def __init__(self, region: Interval, result: SnapshotChaseResult):
        self._region = region
        self._result = result

    def __iter__(self):
        return iter(_region_templates(self._region, self._result))


def _execute_block(
    source: AbstractInstance,
    block: tuple[Interval, ...],
    setting: DataExchangeSetting,
    factory: NullFactory,
    variant: ChaseVariant,
    incremental: bool,
    shard: int,
) -> _BlockOutcome:
    """Chase one shard's region block and account for it."""
    started = time.perf_counter()
    block_results, region_stats, error = _chase_regions(
        source,
        block,
        setting,
        factory,
        variant,
        incremental,
        shard,
    )
    reuse: RegionReuseStats | None = None
    if incremental:
        reuse = RegionReuseStats()
        for stats in region_stats.values():
            reuse.add(stats)
    report = ShardReport(
        shard=shard,
        regions=len(block_results),
        seconds=time.perf_counter() - started,
        nulls_issued=factory.issued,
        reuse=reuse,
    )
    return _BlockOutcome(
        results=block_results,
        region_reuse=region_stats,
        error=error,
        report=report,
    )


def abstract_chase(
    source: AbstractInstance,
    setting: DataExchangeSetting,
    null_factory: NullFactory | None = None,
    variant: ChaseVariant = "standard",
    shards: int = 1,
    incremental: bool = True,
) -> AbstractChaseResult:
    """``chase(Ia, M)`` on the finite representation.

    The source must be complete (constants only), as the paper assumes
    for source instances.  With ``shards=1`` one shared null factory
    keeps fresh null names globally distinct across regions, mirroring
    the paper's requirement that nulls of different snapshots never
    coincide — and the output is byte-identical to the historical
    sequential implementation.  With ``shards > 1`` the regions are
    partitioned into contiguous blocks, each block chases under its own
    namespaced factory (``Ns<i>_…``, see
    :meth:`NullFactory.for_shard`), the blocks run one after another,
    and the per-region results merge deterministically in timeline
    order.  Fresh-null *names* then differ from the unsharded run, but
    the result is the same solution up to that renaming.  An exception
    raised while chasing a region surfaces as a
    :class:`ShardExecutionError` carrying the shard index and region.

    *incremental* (default on) makes each shard's chain of regions reuse
    the previous region's recorded chase wherever the snapshot diff
    permits; the output is byte-identical either way, so the flag only
    trades CPU for bookkeeping.  Sharding composes with it: every block
    is its own incremental chain.
    """
    if not source.is_complete:
        raise InstanceError(
            "abstract source instances must be complete (constants only)"
        )
    if shards < 1:
        raise InstanceError(f"shards must be >= 1, got {shards}")
    regions = source.regions()
    base_factory = null_factory if null_factory is not None else NullFactory()

    if shards == 1:
        blocks = [regions]
        factories = [base_factory]
    else:
        blocks = _partition(regions, shards)
        generation = base_factory.new_generation()
        factories = [
            base_factory.for_shard(index, generation)
            for index in range(len(blocks))
        ]

    return _merge(
        [
            _execute_block(
                source,
                block,
                setting,
                factory,
                variant,
                incremental,
                index,
            )
            for index, (block, factory) in enumerate(
                zip(blocks, factories, strict=True)
            )
        ]
    )


def _merge(outcomes: list[_BlockOutcome]) -> AbstractChaseResult:
    """Fold per-shard outcomes (in timeline order) into one result.

    Contiguous partitioning keeps the concatenated block results in
    region order, so the first failed region (or shard error)
    encountered is the globally first one; regions a failing shard
    skipped lie strictly after it and are simply absent, exactly as in
    the sequential early-exit.  Every shard's report is retained either
    way.
    """
    reports = tuple(outcome.report for outcome in outcomes)
    # Pieces, not facts: each region's contribution stays a lazy view
    # until someone reads the merged instance's template set.
    pieces: list[Iterable[TemplateFact]] = []
    region_results: dict[Interval, SnapshotChaseResult] = {}
    region_reuse: dict[Interval, RegionReuseStats] = {}
    for outcome in outcomes:
        region_reuse.update(outcome.region_reuse)
        failed: tuple[Interval, SnapshotChaseResult] | None = None
        for region, result in outcome.results:
            region_results[region] = result
            if result.failed:
                # _chase_regions stops at the block's first failure, so
                # nothing follows this region in the results list.
                failed = (region, result)
        for region, result in outcome.results:
            if result.failed:
                break
            pieces.append(_LazyRegionTemplates(region, result))
        if failed is not None:
            region, result = failed
            return AbstractChaseResult(
                target=AbstractInstance.deferred(tuple(pieces)),
                failed=True,
                failure=result.failure,
                failed_region=region,
                failed_shard=outcome.report.shard,
                region_results=region_results,
                region_reuse=region_reuse,
                shard_reports=reports,
            )
        if outcome.error is not None:
            return AbstractChaseResult(
                target=AbstractInstance.deferred(tuple(pieces)),
                failed=True,
                failed_region=outcome.error.region,
                failed_shard=outcome.report.shard,
                error=outcome.error,
                region_results=region_results,
                region_reuse=region_reuse,
                shard_reports=reports,
            )

    return AbstractChaseResult(
        target=AbstractInstance.deferred(tuple(pieces)),
        region_results=region_results,
        region_reuse=region_reuse,
        shard_reports=reports,
    )
