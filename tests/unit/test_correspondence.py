"""Unit tests for the correspondence module (Figure 10 machinery)."""

from repro.concrete import ConcreteInstance, c_chase, concrete_fact
from repro.correspondence import (
    CorrespondenceReport,
    concrete_is_solution,
    verify_correspondence,
)
from repro.dependencies import DataExchangeSetting
from repro.relational import Schema
from repro.temporal import Interval


class TestConcreteIsSolution:
    def test_chase_output_accepted(self, setting, source):
        solution = c_chase(source, setting).unwrap()
        assert concrete_is_solution(source, solution, setting)

    def test_empty_target_rejected(self, setting, source):
        assert not concrete_is_solution(source, ConcreteInstance(), setting)

    def test_temporally_truncated_target_rejected(self, setting, source):
        solution = c_chase(source, setting).unwrap()
        truncated = ConcreteInstance(
            item.with_interval(Interval(item.interval.start, 2016))
            if item.interval.is_unbounded
            else item
            for item in solution.facts()
        )
        # Facts that held forever now stop at 2016: σ1 is violated later.
        assert not concrete_is_solution(source, truncated, setting)

    def test_superset_target_accepted(self, setting, source):
        solution = c_chase(source, setting).unwrap()
        bigger = solution.copy()
        bigger.add(
            concrete_fact("Emp", "Zoe", "SUN", "50k", interval=Interval(0, 5))
        )
        assert concrete_is_solution(source, bigger, setting)

    def test_egd_violating_target_rejected(self, setting, source):
        solution = c_chase(source, setting).unwrap()
        bad = solution.copy()
        bad.add(
            concrete_fact(
                "Emp", "Ada", "IBM", "99k", interval=Interval(2013, 2014)
            )
        )
        assert not concrete_is_solution(source, bad, setting)


class TestCorrespondenceReport:
    def test_success_report_fields(self, setting, source):
        report = verify_correspondence(source, setting)
        assert isinstance(report, CorrespondenceReport)
        assert report.holds and report.equivalent and not report.both_failed
        assert report.concrete_semantics is not None
        assert report.concrete_result.succeeded
        assert report.abstract_result.succeeded

    def test_failure_report_fields(self):
        setting = DataExchangeSetting.create(
            Schema.of(P=("X", "Y")),
            Schema.of(T=("X", "Y")),
            st_tgds=["P(x, y) -> T(x, y)"],
            egds=["T(x, y) & T(x, y2) -> y = y2"],
        )
        source = ConcreteInstance(
            [
                concrete_fact("P", "a", "1", interval=Interval(0, 6)),
                concrete_fact("P", "a", "2", interval=Interval(4, 9)),
            ]
        )
        report = verify_correspondence(source, setting)
        assert report.holds and report.both_failed and not report.equivalent
        assert report.concrete_semantics is None

    def test_empty_source_trivial_square(self, setting):
        report = verify_correspondence(ConcreteInstance(), setting)
        assert report.holds and report.equivalent

    def test_naive_normalization_route(self, setting, source):
        from repro.oracle import naive_verify_correspondence

        report = naive_verify_correspondence(source, setting)
        assert report.holds
