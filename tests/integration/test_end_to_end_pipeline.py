"""End-to-end integration: source → normalize → chase → query → serialize."""

from repro import (
    ConjunctiveQuery,
    c_chase,
    certain_answers_abstract,
    certain_answers_concrete,
    naive_evaluate_concrete,
    semantics,
    verify_evaluation_correspondence,
)
from repro.correspondence import concrete_is_solution, verify_correspondence
from repro.oracle import naive_c_chase
from repro.serialize import (
    instance_from_csv_dict,
    instance_to_csv_dict,
    loads,
    dumps,
)
from repro.workloads import exchange_setting_join, random_employment_history


class TestFullPipeline:
    def test_employment_pipeline(self, setting, source):
        # Exchange.
        result = c_chase(source, setting)
        assert result.succeeded
        solution = result.target
        assert concrete_is_solution(source, solution, setting)

        # Query (two routes must agree — Corollary 22).
        query = ConjunctiveQuery.parse("q(n, c, s) :- Emp(n, c, s)")
        concrete_route = certain_answers_concrete(query, source, setting)
        abstract_route = certain_answers_abstract(
            query, semantics(source), setting
        )
        assert concrete_route == abstract_route

        # Serialize the solution and query the restored copy.
        restored = loads(dumps(solution))
        assert naive_evaluate_concrete(query, restored) == naive_evaluate_concrete(
            query, solution
        )

    def test_pipeline_on_generated_data(self):
        setting = exchange_setting_join()
        workload = random_employment_history(people=5, timeline=25, seed=11)
        result = c_chase(workload.instance, setting)
        assert result.succeeded
        assert concrete_is_solution(workload.instance, result.target, setting)

        query = ConjunctiveQuery.parse("q(n, s) :- Emp(n, c, s)")
        assert verify_evaluation_correspondence(query, result.target)

        tables = instance_to_csv_dict(result.target)
        assert instance_from_csv_dict(tables) == result.target

    def test_correspondence_on_larger_history(self):
        setting = exchange_setting_join()
        workload = random_employment_history(people=6, timeline=30, seed=23)
        assert verify_correspondence(workload.instance, setting).holds

    def test_chase_idempotence_through_views(self, setting, source):
        # Chasing the (already solved) semantics again must not change
        # certain answers: the solution is stable.
        query = ConjunctiveQuery.parse("q(n, c) :- Emp(n, c, s)")
        first = certain_answers_concrete(query, source, setting)
        second = certain_answers_concrete(query, source, setting)
        assert first == second


class TestNormalizationInteroperability:
    def test_naive_and_smart_chases_agree_semantically(self):
        from repro.abstract_view import homomorphically_equivalent

        setting = exchange_setting_join()
        workload = random_employment_history(people=4, timeline=18, seed=5)
        smart = c_chase(workload.instance, setting)
        naive = naive_c_chase(workload.instance, setting)
        assert smart.succeeded and naive.succeeded
        assert homomorphically_equivalent(
            semantics(smart.target), semantics(naive.target)
        )

    def test_certain_answers_invariant_under_normalization_choice(
        self, setting, source
    ):
        query = ConjunctiveQuery.parse("q(n, s) :- Emp(n, c, s)")
        smart_solution = c_chase(source, setting).unwrap()
        naive_solution = naive_c_chase(source, setting).unwrap()
        assert (
            naive_evaluate_concrete(query, smart_solution).to_temporal()
            == naive_evaluate_concrete(query, naive_solution).to_temporal()
        )
