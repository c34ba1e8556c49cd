"""Delta-driven chase ≡ full-rescan chase, on generated scenarios.

The semi-naive chase enumerates each egd round only against the facts
the previous substitution pass actually added; the reference in
:mod:`repro.oracle` re-enumerates the whole instance every round.
The two must agree on everything observable: success/failure, the final
instance, the recorded failure, and (because round batching is
unchanged) the set of egd merges.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.chase import chase_snapshot
from repro.concrete import c_chase
from repro.dependencies import DataExchangeSetting
from repro.oracle import rescan_c_chase, rescan_chase_snapshot
from repro.relational import Schema

from .strategies import employment_instances

JOIN_SETTING = DataExchangeSetting.create(
    Schema.of(E=("Name", "Company"), S=("Name", "Salary")),
    Schema.of(Emp=("Name", "Company", "Salary")),
    st_tgds=[
        "E(n, c) -> EXISTS s . Emp(n, c, s)",
        "E(n, c) & S(n, s) -> Emp(n, c, s)",
    ],
    egds=["Emp(n, c, s) & Emp(n, c2, s2) -> s = s2"],
)


def _trace_summary(trace):
    return (
        [(s.dependency, str(s.replaced), str(s.replacement)) for s in trace.egd_steps],
        len(trace.tgd_steps),
    )


class TestCChaseEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(source=employment_instances())
    def test_delta_equals_rescan(self, source):
        delta = c_chase(source, JOIN_SETTING)
        rescan = rescan_c_chase(source, JOIN_SETTING)
        assert delta.failed == rescan.failed
        assert delta.target == rescan.target
        assert delta.normalized_source == rescan.normalized_source
        assert delta.pre_egd_target == rescan.pre_egd_target
        if delta.failed:
            assert delta.failure is not None and rescan.failure is not None
            assert (
                delta.failure.dependency,
                str(delta.failure.left),
                str(delta.failure.right),
            ) == (
                rescan.failure.dependency,
                str(rescan.failure.left),
                str(rescan.failure.right),
            )
        assert _trace_summary(delta.trace) == _trace_summary(rescan.trace)

    @settings(max_examples=60, deadline=None)
    @given(source=employment_instances())
    def test_snapshot_chase_delta_equals_rescan(self, source):
        for point in sorted({0, *source.breakpoints()})[:4]:
            snapshot = source.snapshot(point)
            delta = chase_snapshot(snapshot, JOIN_SETTING)
            rescan = rescan_chase_snapshot(snapshot, JOIN_SETTING)
            assert delta.failed == rescan.failed
            assert delta.target == rescan.target
            assert _trace_summary(delta.trace) == _trace_summary(rescan.trace)
