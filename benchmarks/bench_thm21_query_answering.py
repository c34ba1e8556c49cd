"""THM-21 / COR-22: naive evaluation and certain answers, timed.

Asserts Theorem 21 (⟦q+(Jc)↓⟧ = q(⟦Jc⟧)↓) and Corollary 22 (certain
answers agree across views) on the running example and a generated
history, and times both evaluation routes.
"""

import pytest

from repro.abstract_view import semantics
from repro.concrete import c_chase
from repro.query import (
    ConjunctiveQuery,
    QueryLog,
    UnionQuery,
    certain_answers_abstract,
    certain_answers_concrete,
    naive_evaluate_abstract,
    naive_evaluate_concrete,
)
from repro.workloads import exchange_setting_join, random_employment_history

from conftest import emit, record_twin

QUERY = ConjunctiveQuery.parse("q(n, s) :- Emp(n, c, s)")
UNION = UnionQuery.of(
    "q(n) :- Emp(n, 'IBM', s)",
    "q(n) :- Emp(n, 'Google', s)",
)
JOIN_QUERY = ConjunctiveQuery.parse("q(n, m) :- Emp(n, c, s) & Emp(m, c, s)")

# Scaled variants: chased targets large enough that evaluation cost —
# not fixture noise — is what the timer sees.  The chase runs once per
# size (module cache); only evaluation is inside the timed lambda.
SCALED_SIZES = (24, 96, 192)
_SCALED_CACHE: dict = {}


def _scaled_workload(people):
    cached = _SCALED_CACHE.get(people)
    if cached is None:
        setting = exchange_setting_join()
        history = random_employment_history(people=people, timeline=120, seed=9)
        solution = c_chase(history.instance, setting).unwrap()
        cached = _SCALED_CACHE[people] = (solution, semantics(solution))
    return cached


def test_thm21_concrete_route(benchmark, source, setting):
    solution = c_chase(source, setting).unwrap()
    answers = benchmark(
        lambda: naive_evaluate_concrete(QUERY, solution).to_temporal()
    )
    assert answers == naive_evaluate_abstract(QUERY, semantics(solution))
    rows = "\n".join(
        f"  ({', '.join(map(str, item))})  @ {support}" for item, support in answers
    )
    emit("THM-21: q+(Jc)↓ — certain salary history", rows)


def test_thm21_abstract_route(benchmark, source, setting):
    solution = semantics(c_chase(source, setting).unwrap())
    answers = benchmark(lambda: naive_evaluate_abstract(QUERY, solution))
    assert len(answers) == 2  # (Ada, 18k) and (Bob, 13k)


def test_cor22_certain_answers_agree(benchmark, source, setting):
    def both_routes():
        concrete = certain_answers_concrete(QUERY, source, setting)
        abstract = certain_answers_abstract(QUERY, semantics(source), setting)
        return concrete, abstract

    concrete, abstract = benchmark(both_routes)
    assert concrete == abstract


def test_cor22_union_query_on_generated_history(benchmark):
    setting = exchange_setting_join()
    workload = random_employment_history(people=4, timeline=20, seed=9)
    solution = c_chase(workload.instance, setting).unwrap()

    answers = benchmark(
        lambda: naive_evaluate_concrete(UNION, solution).to_temporal()
    )
    assert answers == naive_evaluate_abstract(UNION, semantics(solution))


@pytest.mark.parametrize("people", SCALED_SIZES)
def test_thm21_scaled_abstract_route(benchmark, people):
    solution, abstract = _scaled_workload(people)
    answers = benchmark(lambda: naive_evaluate_abstract(QUERY, abstract))
    # Theorem 21 at scale: the region-wise answers match the four-step route.
    assert answers == naive_evaluate_concrete(QUERY, solution).to_temporal()


@pytest.mark.parametrize("people", SCALED_SIZES)
def test_thm21_scaled_concrete_route(benchmark, people):
    solution, _ = _scaled_workload(people)
    answers = benchmark(
        lambda: naive_evaluate_concrete(QUERY, solution).to_temporal()
    )
    assert len(answers) > people  # every person has some certain history


@pytest.mark.parametrize("people", SCALED_SIZES)
def test_thm21_scaled_join_query(benchmark, people):
    solution, abstract = _scaled_workload(people)
    answers = benchmark(
        lambda: naive_evaluate_concrete(JOIN_QUERY, solution).to_temporal()
    )
    assert answers == naive_evaluate_abstract(JOIN_QUERY, abstract)


def test_query_log_replayed_join(benchmark):
    # The incremental path: a warm QueryLog turns re-asking the join
    # query on an unchanged solution into a signature check + lookup.
    # (New benchmark — informational, exempt from the baseline gate.)
    solution, _ = _scaled_workload(192)
    log = QueryLog()
    cold = naive_evaluate_concrete(JOIN_QUERY, solution, log=log)
    answers = benchmark(
        lambda: naive_evaluate_concrete(JOIN_QUERY, solution, log=log)
    )
    assert answers.rows == cold.rows
    assert log.hits > 0 and log.misses == 1
    record_twin(
        benchmark,
        lambda: naive_evaluate_concrete(JOIN_QUERY, solution, log=log),
        lambda: naive_evaluate_concrete(JOIN_QUERY, solution),
    )
