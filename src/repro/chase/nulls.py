"""Deterministic factories for fresh nulls.

Chase runs must be reproducible: the figures in the paper (and our tests
that regenerate them byte-for-byte) name nulls ``N``, ``N'``, ``M`` …;
we name them ``N1, N2, …`` in generation order.  A factory is scoped to
one chase run so that parallel runs never share counters.

For the sharded abstract chase each shard derives its own factory with
:meth:`NullFactory.for_shard`: shard *i* issues names under the
namespace ``<prefix>s<i>_`` (e.g. ``Ns0_1``), so fresh nulls of
different shards can never collide no matter how the shards interleave —
the sharded analogue of "nulls of different snapshots never coincide".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.relational.terms import AnnotatedNull, GroundTerm, LabeledNull
from repro.temporal.interval import Interval

__all__ = ["NullFactory"]


@dataclass
class NullFactory:
    """Issues fresh labeled / interval-annotated nulls with sequential names."""

    prefix: str = "N"
    _counter: int = field(default=0, repr=False)
    # How many sharded generations have been derived from this factory
    # (each sharded abstract chase claims one via new_generation()).
    _generations: int = field(default=0, repr=False)

    def fresh_name(self) -> str:
        self._counter += 1
        return f"{self.prefix}{self._counter}"

    def fresh(self) -> LabeledNull:
        """A fresh snapshot-level labeled null."""
        return LabeledNull(self.fresh_name())

    def fresh_annotated(self, annotation: Interval) -> AnnotatedNull:
        """A fresh interval-annotated null ``N^annotation``.

        Used by s-t tgd c-chase steps (Definition 16): each existential
        variable is assigned a fresh null annotated with ``h(t)``.
        """
        return AnnotatedNull(self.fresh_name(), annotation)

    def new_generation(self) -> int:
        """Claim the next sharded-generation number of this factory.

        The sharded abstract chase claims one generation per run, so two
        sharded runs that *share* one base factory — the documented way
        to keep nulls globally distinct across runs — derive disjoint
        shard namespaces instead of silently repeating names.
        """
        generation = self._generations
        self._generations = generation + 1
        return generation

    def for_shard(self, shard: int, generation: int = 0) -> "NullFactory":
        """A fresh factory whose names live in shard *shard*'s namespace.

        ``N`` becomes ``Ns0_1, Ns0_2, …`` for shard 0, ``Ns1_1, …`` for
        shard 1, and so on; generation ``g > 0`` (see
        :meth:`new_generation`) prepends a ``g<g>`` tag —
        ``Ng1s0_1, …`` — so repeated sharded runs off one base factory
        stay disjoint too.  All such namespaces are pairwise disjoint
        and disjoint from the unsharded ``N1, N2, …`` names, so a
        partitioned run can allocate nulls concurrently without any
        coordination and still never collide.
        """
        tag = f"s{shard}_" if generation == 0 else f"g{generation}s{shard}_"
        return NullFactory(prefix=f"{self.prefix}{tag}")

    # -- replay (incremental cross-region chase) ------------------------------
    def state(self) -> int:
        """The counter position, for later :meth:`restore`.

        The incremental abstract chase snapshots the factory before each
        region so an abandoned replay attempt can rewind and re-issue the
        very same names a from-scratch chase of that region would.
        """
        return self._counter

    def restore(self, state: int) -> None:
        """Rewind the counter to a position captured by :meth:`state`.

        Rewinding is only sound when every null issued past *state* is
        being discarded by the caller (the incremental chase's fallback
        re-runs the whole region, so nothing issued after the snapshot
        survives).
        """
        if state < 0 or state > self._counter:
            raise ValueError(
                f"cannot restore factory counter to {state} "
                f"(currently at {self._counter})"
            )
        self._counter = state

    def advance(self, count: int) -> None:
        """Issue *count* names without materializing any of them.

        Names are a pure function of ``(prefix, counter)``, so a caller
        that defers building its nulls (the incremental chase's
        copy-on-write replay of a fully-reused region) can reserve the
        counter range up front and mint the identical names later from a
        :meth:`spawn_at` clone.
        """
        if count < 0:
            raise ValueError(f"cannot advance factory counter by {count}")
        self._counter += count

    def spawn_at(self, state: int) -> "NullFactory":
        """An independent factory positioned at *state*.

        Issues exactly the names this factory would have issued from
        that position, without touching this factory's counter — the
        deferred half of :meth:`advance`.
        """
        return NullFactory(prefix=self.prefix, _counter=state)

    # -- pickling --------------------------------------------------------------
    def __getstate__(self):
        """Explicit state: prefix and counters, nothing else.

        A restored factory must issue exactly the names the original
        would (the null-name transcript is part of the byte-identical
        output contract).
        """
        return (self.prefix, self._counter, self._generations)

    def __setstate__(self, state) -> None:
        self.prefix, self._counter, self._generations = state

    def reissue(
        self, transcript: Sequence[LabeledNull | AnnotatedNull]
    ) -> dict[GroundTerm, GroundTerm]:
        """Replay a recorded issuance *transcript* with fresh names.

        For a firing replayed from a previous region's log, the fresh
        chase would mint exactly as many nulls, in the same order, under
        the *current* counter.  ``reissue`` performs that minting and
        returns the renaming ``recorded null ↦ fresh null`` (in issuance
        order), which is how replayed firings reuse the recorded null
        structure while keeping names byte-identical to a from-scratch
        run.  An interval-annotated null is reissued with its annotation
        (the c-chase replay: the renamed firing keeps its stamp).
        """
        return {
            old: (
                self.fresh_annotated(old.annotation)
                if isinstance(old, AnnotatedNull)
                else self.fresh()
            )
            for old in transcript
        }

    @property
    def issued(self) -> int:
        """How many nulls this factory has produced so far."""
        return self._counter
