"""Figure 10 / Theorem 19 / Corollary 20: the commuting square.

``⟦c-chase(Ic)⟧ ∼ chase(⟦Ic⟧)`` — the semantics of the concrete chase
result is homomorphically equivalent to the abstract chase result, and
failures coincide (Theorem 19(2): a failing chase means no solution).
"""

import pytest

from repro.abstract_view import (
    abstract_chase,
    homomorphically_equivalent,
    is_solution,
    is_universal_solution,
    semantics,
)
from repro.concrete import ConcreteInstance, c_chase, concrete_fact
from repro.correspondence import verify_correspondence
from repro.dependencies import DataExchangeSetting
from repro.oracle import naive_verify_correspondence
from repro.relational import Schema
from repro.temporal import Interval
from repro.workloads import (
    medical_conflicting_scenario,
    medical_scenario,
    random_employment_history,
    scheduling_scenario,
)


class TestRunningExample:
    def test_square_commutes(self, setting, source):
        report = verify_correspondence(source, setting)
        assert report.holds
        assert not report.both_failed
        assert report.equivalent

    def test_equivalence_direct(self, setting, source):
        concrete_solution = c_chase(source, setting).unwrap()
        abstract_solution = abstract_chase(semantics(source), setting).unwrap()
        assert homomorphically_equivalent(
            semantics(concrete_solution), abstract_solution
        )

    def test_theorem19_concrete_semantics_is_solution(self, setting, source):
        concrete_solution = c_chase(source, setting).unwrap()
        assert is_solution(
            semantics(source), semantics(concrete_solution), setting
        )

    def test_theorem19_universality_against_abstract_chase(
        self, setting, source
    ):
        # The abstract chase result is itself a solution; ⟦Jc⟧ must map
        # into it (and vice versa) — universality both ways.
        concrete_solution = c_chase(source, setting).unwrap()
        abstract_solution = abstract_chase(semantics(source), setting).unwrap()
        assert is_universal_solution(
            semantics(source),
            semantics(concrete_solution),
            setting,
            [abstract_solution],
        )


class TestScenarios:
    @pytest.mark.parametrize(
        "scenario_builder", [medical_scenario, scheduling_scenario]
    )
    def test_square_commutes(self, scenario_builder):
        scenario = scenario_builder()
        assert verify_correspondence(scenario.source, scenario.setting).holds


class TestFailureCorrespondence:
    def test_both_chases_fail_together(self):
        scenario = medical_conflicting_scenario()
        report = verify_correspondence(scenario.source, scenario.setting)
        assert report.holds
        assert report.both_failed
        assert report.concrete_result.failed
        assert report.abstract_result.failed

    def test_theorem19_part2_no_solution_exists(self):
        # When the c-chase fails, even hand-crafted targets cannot satisfy
        # the setting — probe with the empty and a trivial full target.
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
        assert c_chase(source, setting).failed
        candidate = ConcreteInstance(
            [
                concrete_fact("T", "a", "1", interval=Interval(0, 6)),
                concrete_fact("T", "a", "2", interval=Interval(4, 9)),
            ]
        )
        assert not is_solution(semantics(source), semantics(candidate), setting)


class TestGeneratedWorkloads:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_square_commutes_on_random_histories(self, seed):
        from repro.workloads import exchange_setting_join

        workload = random_employment_history(
            people=3, timeline=15, seed=seed
        )
        assert verify_correspondence(
            workload.instance, exchange_setting_join()
        ).holds

    @pytest.mark.parametrize(
        "verify", [verify_correspondence, naive_verify_correspondence],
        ids=["conjunction", "naive"],
    )
    def test_square_commutes_under_both_normalizations(
        self, setting, source, verify
    ):
        assert verify(source, setting).holds
