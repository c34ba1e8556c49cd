"""c-chase replay ≡ cold c-chase, byte for byte, over revision chains.

``c_chase(..., incremental=previous)`` replays the previous run's
normalization groups, its tgd match streams (re-minting nulls under the
renaming ρ) and its egd classes.  Everything observable must equal a
cold chase of the same source: the target, the normalized source, the
pre-egd target, every trace line (``str`` and ``repr``, so assignments
and fresh null names count) and the failure.  Hypothesis drives chains
of revisions — value changes, interval shifts, adds and removes — over
the employment mapping, a clash-prone key-egd mapping with two egds, and
a non-key egd mapping that takes the live egd rounds.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase.nulls import NullFactory
from repro.concrete import ConcreteInstance, concrete_fact
from repro.concrete.cchase import CChaseReplayState, c_chase
from repro.concrete.concrete_fact import ConcreteFact
from repro.chase.incremental import StreamPatcher
from repro.dependencies import DataExchangeSetting
from repro.relational import AnnotatedNull, Constant, Schema
from repro.temporal import INFINITY, Interval
from repro.workloads import employment_setting

EMPLOYMENT = employment_setting()

# Two key egds over two target relations.  Offices share names with
# companies, so σ3's nulls meet σ1's in one Emp group (null-null merges,
# where the representative depends on the names) and Desk groups merge a
# null into an office; salary clashes whenever a person's S facts
# overlap.  σ6 mints two nulls per firing into a relation no egd reads.
KEYED = DataExchangeSetting.create(
    Schema.of(E=("Name", "Company"), S=("Name", "Salary"), O=("Name", "Office")),
    Schema.of(
        Emp=("Name", "Company", "Salary"),
        Desk=("Name", "Office", "Floor"),
        Seat=("Name", "Company", "Row", "Col"),
    ),
    st_tgds=[
        "E(n, c) -> EXISTS s . Emp(n, c, s)",
        "E(n, c) & S(n, s) -> Emp(n, c, s)",
        "O(n, o) -> EXISTS s . Emp(n, o, s)",
        "E(n, c) -> EXISTS f . Desk(n, c, f)",
        "O(n, o) -> Desk(n, o, o)",
        "E(n, c) -> EXISTS r, k . Seat(n, c, r, k)",
    ],
    egds=[
        "Emp(n, c, s) & Emp(n, c, s2) -> s = s2",
        "Desk(n, o, f) & Desk(n, o, f2) -> f = f2",
    ],
)

# Not a key egd (two positions differ): the egd phase runs live rounds.
CROSS = DataExchangeSetting.create(
    Schema.of(E=("Name", "Company"), S=("Name", "Salary")),
    Schema.of(Emp=("Name", "Company", "Salary")),
    st_tgds=[
        "E(n, c) -> EXISTS s . Emp(n, c, s)",
        "E(n, c) & S(n, s) -> Emp(n, c, s)",
    ],
    egds=["Emp(n, c, s) & Emp(n2, c, s2) -> s = s2"],
)

# A join tgd whose rhs drops lhs variables: matches sharing a person and
# stamp skip after the first (standard variant), revisions that tip the
# E/S balance flip the join orientation, and R's key egd merges nulls
# into nulls, so representatives follow the names.
PROJECTING = DataExchangeSetting.create(
    Schema.of(E=("Name", "Company"), S=("Name", "Salary")),
    Schema.of(R=("Name", "Badge"), Emp=("Name", "Company", "Salary")),
    st_tgds=[
        "E(n, c) & S(n, s) -> EXISTS x . R(n, x)",
        "S(n, s) -> EXISTS c . Emp(n, c, s)",
    ],
    egds=["R(n, x) & R(n, x2) -> x = x2"],
)

SETTINGS = {
    "employment": EMPLOYMENT,
    "keyed": KEYED,
    "cross": CROSS,
    "projecting": PROJECTING,
}

NAMES = ("a0", "a1", "b2", "b3", "c4")
VALUES = {
    "E": ("co1", "co2", "co3"),
    "S": ("10k", "20k", "30k"),
    "O": ("co1", "o2"),
}


def _stamp(start: int, length: int | None) -> Interval:
    return Interval(start, INFINITY) if length is None else Interval(start, start + length)


# A small pool of starts and lengths: facts of relations no lhs joins
# often carry equal stamps (so one tgd's firing can decide another's
# standard check), and two-digit starts make the lifted sort order —
# stamps compared as strings — differ from the numeric one.
stamps = st.builds(
    _stamp,
    st.sampled_from((0, 2, 4, 9, 11)),
    st.sampled_from((None, 2, 5, 7)),
)


@st.composite
def fresh_facts(draw, relations=("E", "S", "O")):
    relation = draw(st.sampled_from(relations))
    return concrete_fact(
        relation,
        draw(st.sampled_from(NAMES)),
        draw(st.sampled_from(VALUES[relation])),
        interval=draw(stamps),
    )


@st.composite
def bases(draw, min_facts: int = 4, max_facts: int = 14):
    facts = draw(st.lists(fresh_facts(), min_size=min_facts, max_size=max_facts))
    return ConcreteInstance(facts)


#: (kind, selector, value index, shift) — resolved against the current source.
revisions = st.tuples(
    st.sampled_from(("value", "shift", "add", "remove")),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=2),
    st.sampled_from((-2, -1, 1, 2)),
)


def revise(source: ConcreteInstance, revision, extra: ConcreteFact) -> ConcreteInstance:
    kind, selector, value_index, shift = revision
    facts = sorted(source, key=ConcreteFact.sort_key)
    if kind == "add" or not facts:
        return ConcreteInstance([*facts, extra])
    old = facts[selector % len(facts)]
    rest = [item for item in facts if item != old]
    if kind == "remove":
        return ConcreteInstance(rest)
    if kind == "value":
        values = VALUES[old.relation]
        new = ConcreteFact(
            old.relation,
            (old.data[0], Constant(values[value_index % len(values)])),
            old.interval,
        )
    else:
        start = max(0, old.interval.start + shift)
        end = old.interval.end
        if not old.interval.is_unbounded:
            end = max(start + 1, end + shift)
        new = ConcreteFact(old.relation, old.data, Interval(start, end))
    return ConcreteInstance([*rest, new])


def assert_same(incremental, cold) -> None:
    assert tuple(incremental.target) == tuple(cold.target)
    assert tuple(incremental.normalized_source) == tuple(cold.normalized_source)
    assert tuple(incremental.pre_egd_target) == tuple(cold.pre_egd_target)
    assert [str(step) for step in incremental.trace.steps] == [
        str(step) for step in cold.trace.steps
    ]
    assert [repr(step) for step in incremental.trace.steps] == [
        repr(step) for step in cold.trace.steps
    ]
    assert incremental.failed == cold.failed
    assert repr(incremental.failure) == repr(cold.failure)


def run_chain(setting, base, steps, variant="standard") -> None:
    previous = c_chase(base, setting, variant=variant, incremental=True)
    assert_same(previous, c_chase(base, setting, variant=variant))
    source = base
    for revision, extra in steps:
        source = revise(source, revision, extra)
        incremental = c_chase(source, setting, variant=variant, incremental=previous)
        assert_same(incremental, c_chase(source, setting, variant=variant))
        assert incremental.replay_state is not None
        previous = incremental


chains = st.lists(st.tuples(revisions, fresh_facts()), min_size=1, max_size=6)


class TestRevisionChains:
    @pytest.mark.parametrize("name", sorted(SETTINGS))
    @settings(max_examples=40, deadline=None)
    @given(base=bases(), steps=chains)
    def test_chain_equals_cold(self, name, base, steps):
        run_chain(SETTINGS[name], base, steps)

    @settings(max_examples=20, deadline=None)
    @given(base=bases(), steps=chains)
    def test_oblivious_chain_equals_cold(self, base, steps):
        run_chain(EMPLOYMENT, base, steps, variant="oblivious")

    @settings(max_examples=20, deadline=None)
    @given(base=bases(), steps=chains)
    def test_replay_from_the_state_alone(self, base, steps):
        """A ``CChaseReplayState`` replays like the result carrying it."""
        previous = c_chase(base, KEYED, incremental=True).replay_state
        source = base
        for revision, extra in steps:
            source = revise(source, revision, extra)
            result = c_chase(source, KEYED, incremental=previous)
            assert_same(result, c_chase(source, KEYED))
            previous = result.replay_state

    def test_null_numbering_crosses_digit_boundaries(self):
        """Adds and removes at the front of the σ1 stream shift every
        later null by one, across ``N9``→``N10`` and ``N99``→``N100``;
        the representatives re-elected under the new names must match
        the cold run (``N10`` sorts before ``N9``)."""
        facts = [
            concrete_fact("E", f"p{index:02d}", "co1", interval=Interval(0, 4))
            for index in range(1, 60)
        ] + [
            concrete_fact("E", f"p{index:02d}", "co2", interval=Interval(4, 9))
            for index in range(1, 60)
        ] + [
            concrete_fact("S", f"p{index:02d}", "10k", interval=Interval(2, 6))
            for index in range(1, 60, 3)
        ]
        early = concrete_fact("E", "p00", "co1", interval=Interval(0, 9))
        sources = [ConcreteInstance(facts)]
        sources.append(ConcreteInstance([*facts, early]))
        sources.append(ConcreteInstance(facts))
        sources.append(ConcreteInstance([*facts, early, concrete_fact(
            "E", "p00", "co3", interval=Interval(9, 12))]))
        for setting in (EMPLOYMENT, KEYED, CROSS):
            previous = c_chase(sources[0], setting, incremental=True)
            for source in sources[1:]:
                result = c_chase(source, setting, incremental=previous)
                assert_same(result, c_chase(source, setting))
                previous = result
            assert any(
                "N100" in str(step) for step in previous.trace.steps
            )


class TestStateBoundaries:
    @settings(max_examples=30, deadline=None)
    @given(first=bases(), second=bases())
    def test_state_of_an_unrelated_source(self, first, second):
        """The daemon keeps a session's state across cache hits, so a
        state may meet any source at all."""
        for setting in (EMPLOYMENT, KEYED):
            state = c_chase(first, setting, incremental=True)
            assert_same(
                c_chase(second, setting, incremental=state), c_chase(second, setting)
            )

    @settings(max_examples=20, deadline=None)
    @given(base=bases(), steps=chains)
    def test_pickled_state(self, base, steps):
        state = c_chase(base, KEYED, incremental=True).replay_state
        source = base
        for revision, extra in steps:
            source = revise(source, revision, extra)
            state = pickle.loads(pickle.dumps(state))
            result = c_chase(source, KEYED, incremental=state)
            assert_same(result, c_chase(source, KEYED))
            state = result.replay_state

    @pytest.mark.parametrize(
        ("recorded", "replayed"),
        [
            ((EMPLOYMENT, "standard"), (KEYED, "standard")),
            ((KEYED, "standard"), (EMPLOYMENT, "standard")),
            ((EMPLOYMENT, "oblivious"), (EMPLOYMENT, "standard")),
            ((EMPLOYMENT, "standard"), (EMPLOYMENT, "oblivious")),
        ],
    )
    def test_other_setting_or_variant_replays_nothing(
        self, recorded, replayed, monkeypatch
    ):
        source = ConcreteInstance(
            [
                concrete_fact("E", "a0", "co1", interval=Interval(0, 8)),
                concrete_fact("E", "b2", "co2", interval=Interval(3, 9)),
                concrete_fact("S", "a0", "10k", interval=Interval(2, 6)),
                concrete_fact("O", "b2", "o1", interval=Interval(0, 4)),
            ]
        )
        state = c_chase(
            source, recorded[0], variant=recorded[1], incremental=True
        ).replay_state
        patched = []
        original = StreamPatcher.patch_stream

        def spy(self, *args, **kwargs):
            patched.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(StreamPatcher, "patch_stream", spy)
        result = c_chase(source, replayed[0], variant=replayed[1], incremental=state)
        assert_same(result, c_chase(source, replayed[0], variant=replayed[1]))
        assert patched == []
        # Same setting and variant: the identical source replays.
        again = c_chase(
            source, replayed[0], variant=replayed[1], incremental=result
        )
        assert_same(again, result)
        assert patched

    def test_foreign_null_factory(self):
        """A factory with another prefix or counter re-mints every null."""
        source = ConcreteInstance(
            [
                concrete_fact("E", name, "co1", interval=Interval(0, 5))
                for name in NAMES
            ]
        )
        state = c_chase(source, EMPLOYMENT, incremental=True)
        for prefix, counter in (("M", 0), ("N", 7)):
            result = c_chase(
                source,
                EMPLOYMENT,
                null_factory=NullFactory(prefix, counter),
                incremental=state,
            )
            cold = c_chase(
                source, EMPLOYMENT, null_factory=NullFactory(prefix, counter)
            )
            assert_same(result, cold)

    def test_recorded_firing_skipped_by_a_new_fact(self):
        """σ1 fires live for the added E fact before σ3 is replayed, so
        σ3's recorded firing now finds its extension and skips."""
        office = concrete_fact("O", "a0", "co1", interval=Interval(0, 4))
        job = concrete_fact("E", "a0", "co1", interval=Interval(0, 4))
        previous = c_chase(ConcreteInstance([office]), KEYED, incremental=True)
        source = ConcreteInstance([office, job])
        result = c_chase(source, KEYED, incremental=previous)
        assert_same(result, c_chase(source, KEYED))

    def test_recorded_skip_revived_by_a_removal(self):
        """σ3's recorded skip leaned on σ1's firing for the removed E
        fact: with that fact gone, σ3 fires."""
        office = concrete_fact("O", "a0", "co1", interval=Interval(0, 4))
        job = concrete_fact("E", "a0", "co1", interval=Interval(0, 4))
        other = concrete_fact("E", "b2", "co2", interval=Interval(0, 9))
        previous = c_chase(
            ConcreteInstance([office, job, other]), KEYED, incremental=True
        )
        source = ConcreteInstance([office, other])
        result = c_chase(source, KEYED, incremental=previous)
        assert_same(result, c_chase(source, KEYED))

    def test_source_nulls_named_like_minted_ones(self):
        """Source nulls may carry names the chase also mints (``N1``…);
        the replay must not tell apart what the chase does not."""
        stamp = Interval(0, 5)
        with_nulls = ConcreteInstance(
            [
                ConcreteFact("E", (Constant("a0"), AnnotatedNull("N2", stamp)), stamp),
                ConcreteFact("S", (Constant("a0"), AnnotatedNull("N1", stamp)), stamp),
                concrete_fact("E", "b2", "co1", interval=Interval(0, 9)),
                concrete_fact("S", "b2", "10k", interval=Interval(3, 9)),
            ]
        )
        revisions = [
            ConcreteInstance([*with_nulls, concrete_fact("E", "a0", "co1", interval=Interval(2, 4))]),
            with_nulls,
            ConcreteInstance(list(with_nulls)[1:]),
        ]
        for setting in (EMPLOYMENT, KEYED):
            previous = c_chase(with_nulls, setting, incremental=True)
            assert_same(previous, c_chase(with_nulls, setting))
            for source in revisions:
                result = c_chase(source, setting, incremental=previous)
                assert_same(result, c_chase(source, setting))
                previous = result

    def test_source_null_meets_a_renamed_null(self):
        """σ2 copies a source null into the position where σ1 mints one.
        Adding ``a``'s job renames ``b``'s minted ``N1`` to ``N2`` — the
        source null's name — so the cold chase finds σ2's extension and
        skips.  Replaying the recorded σ2 firing would not see it, which
        is why a source with nulls does not replay the tgd pass."""
        setting = DataExchangeSetting.create(
            Schema.of(E=("Name", "Company"), S=("Name", "Badge")),
            Schema.of(R=("Name", "Badge")),
            st_tgds=["E(n, c) -> EXISTS s . R(n, s)", "S(n, s) -> R(n, s)"],
        )
        stamp = Interval(0, 5)
        base = ConcreteInstance(
            [
                concrete_fact("E", "b", "co1", interval=stamp),
                ConcreteFact("S", (Constant("b"), AnnotatedNull("N2", stamp)), stamp),
            ]
        )
        revised = ConcreteInstance(
            [*base, concrete_fact("E", "a", "co1", interval=Interval(6, 9))]
        )
        previous = c_chase(base, setting, incremental=True)
        cold = c_chase(revised, setting)
        assert len(cold.trace.tgd_steps) == 2  # σ2 skipped
        assert_same(c_chase(revised, setting, incremental=previous), cold)

    def test_live_null_named_like_a_renamed_one(self):
        """The added job of ``a`` fires live ahead of ``b``'s recorded
        firing at the same stamp and mints ``b``'s recorded name ``N1``;
        ``b``'s firing is re-minted as ``N2``.  The live ``R(N1)`` equals
        a recorded fact, yet the R group holds one more fact than was
        recorded, so the target normalization must not replay it."""
        setting = DataExchangeSetting.create(
            Schema.of(E=("Name", "Company")),
            Schema.of(R=("Badge",), S=("Name", "Badge")),
            st_tgds=["E(n, c) -> EXISTS x . R(x) & S(n, x)"],
            egds=["R(x) & R(x2) -> x = x2"],
        )
        stamp = Interval(0, 5)
        base = ConcreteInstance(
            [
                concrete_fact("E", "b", "co1", interval=stamp),
                concrete_fact("E", "c", "co1", interval=Interval(2, 9)),
            ]
        )
        revised = ConcreteInstance(
            [*base, concrete_fact("E", "a", "co1", interval=stamp)]
        )
        previous = c_chase(base, setting, incremental=True)
        cold = c_chase(revised, setting)
        result = c_chase(revised, setting, incremental=previous)
        assert_same(result, cold)
        assert str(cold.trace.tgd_steps[0].fresh_nulls[0]).startswith("N1")

    def test_failure_then_recovery(self):
        """A replayed chase that fails is the cold failure, and the chain
        replays on from the failed run's state."""
        ok = ConcreteInstance(
            [
                concrete_fact("E", "a0", "co1", interval=Interval(0, 8)),
                concrete_fact("S", "a0", "10k", interval=Interval(0, 4)),
            ]
        )
        clash = ConcreteInstance(
            [*ok, concrete_fact("S", "a0", "20k", interval=Interval(2, 6))]
        )
        previous = c_chase(ok, EMPLOYMENT, incremental=True)
        for source in (clash, clash, ok):
            result = c_chase(source, EMPLOYMENT, incremental=previous)
            assert_same(result, c_chase(source, EMPLOYMENT))
            previous = result
        assert not previous.failed


class TestOldStateShape:
    def test_state_without_tgd_and_egd_logs(self):
        """States written before the tgd/egd logs existed (``--norm-log``
        files, session snapshots) carry only the two normalization logs;
        they load, chase byte-identically, and the chase records the
        missing logs."""
        source = ConcreteInstance(
            [
                concrete_fact("E", "a0", "co1", interval=Interval(0, 8)),
                concrete_fact("E", "b2", "co2", interval=Interval(3, 9)),
                concrete_fact("S", "a0", "10k", interval=Interval(2, 6)),
            ]
        )
        recorded = c_chase(source, EMPLOYMENT, incremental=True).replay_state
        old = object.__new__(CChaseReplayState)
        old.__dict__.update(source=recorded.source, target=recorded.target)
        loaded = pickle.loads(pickle.dumps(old))
        assert "tgd" not in loaded.__dict__
        assert loaded.tgd is None and loaded.egd is None
        revised = ConcreteInstance(
            [*source, concrete_fact("S", "b2", "20k", interval=Interval(3, 5))]
        )
        result = c_chase(revised, EMPLOYMENT, incremental=loaded)
        assert_same(result, c_chase(revised, EMPLOYMENT))
        assert result.replay_state.tgd is not None
        assert result.replay_state.egd is not None
