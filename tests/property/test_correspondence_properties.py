"""Property-based verification of the paper's main theorems.

Corollary 20 (the Figure 10 square), Theorem 19 (solutions), Theorem 21
(query correspondence) and Corollary 22 (certain answers) are checked on
randomized employment-shaped instances — including uncoalesced and
conflicting ones, so both the success and failure paths are exercised.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstract_view import semantics
from repro.concrete import c_chase
from repro.correspondence import concrete_is_solution, verify_correspondence
from repro.oracle import naive_verify_correspondence
from repro.query import (
    ConjunctiveQuery,
    certain_answers_abstract,
    certain_answers_concrete,
    naive_evaluate_concrete,
    verify_evaluation_correspondence,
)
from repro.workloads import exchange_setting_join

from .strategies import employment_instances

SETTING = exchange_setting_join()
QUERIES = [
    ConjunctiveQuery.parse("q(n, s) :- Emp(n, c, s)"),
    ConjunctiveQuery.parse("q(n) :- Emp(n, c, s)"),
    ConjunctiveQuery.parse("q(n, c) :- Emp(n, c, s)"),
]


class TestCorollary20:
    @settings(max_examples=30, deadline=None)
    @given(employment_instances())
    def test_square_commutes(self, instance):
        report = verify_correspondence(instance, SETTING)
        assert report.holds

    @settings(max_examples=20, deadline=None)
    @given(employment_instances(max_facts=5))
    def test_square_commutes_under_naive_normalization(self, instance):
        assert naive_verify_correspondence(instance, SETTING).holds


class TestTheorem19:
    @settings(max_examples=30, deadline=None)
    @given(employment_instances())
    def test_successful_chase_yields_solution(self, instance):
        result = c_chase(instance, SETTING)
        if result.succeeded:
            assert concrete_is_solution(instance, result.target, SETTING)

    @settings(max_examples=30, deadline=None)
    @given(employment_instances())
    def test_failed_chase_has_no_abstract_chase_solution(self, instance):
        from repro.abstract_view import abstract_chase

        result = c_chase(instance, SETTING)
        if result.failed:
            assert abstract_chase(semantics(instance), SETTING).failed


class TestTheorem21AndCorollary22:
    @settings(max_examples=25, deadline=None)
    @given(employment_instances(), st.sampled_from(QUERIES))
    def test_naive_evaluation_correspondence(self, instance, query):
        result = c_chase(instance, SETTING)
        if result.succeeded:
            assert verify_evaluation_correspondence(query, result.target)

    @settings(max_examples=25, deadline=None)
    @given(employment_instances(), st.sampled_from(QUERIES))
    def test_certain_answers_agree_across_views(self, instance, query):
        result = c_chase(instance, SETTING)
        if result.succeeded:
            assert certain_answers_concrete(
                query, instance, SETTING
            ) == certain_answers_abstract(query, semantics(instance), SETTING)

    @settings(max_examples=25, deadline=None)
    @given(employment_instances(), st.sampled_from(QUERIES))
    def test_certain_answers_sound_for_the_solution_itself(
        self, instance, query
    ):
        # certain(q) ⊆ naive answers on the universal solution (they are
        # equal by definition here, so containment is a weak but cheap
        # sanity floor that would catch egregious bugs in either side).
        result = c_chase(instance, SETTING)
        if result.succeeded:
            certain = certain_answers_concrete(query, instance, SETTING)
            on_solution = naive_evaluate_concrete(
                query, result.target
            ).to_temporal()
            assert certain.is_subset_of(on_solution)
