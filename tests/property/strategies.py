"""Hypothesis strategies for the library's value types."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.concrete import ConcreteInstance, concrete_fact
from repro.relational import AnnotatedNull, Constant, Fact, Instance, LabeledNull
from repro.temporal import INFINITY, Interval


@st.composite
def intervals(draw, max_start: int = 30, max_length: int = 12, allow_unbounded: bool = True):
    """Random half-open intervals with small integer endpoints."""
    start = draw(st.integers(min_value=0, max_value=max_start))
    if allow_unbounded and draw(st.booleans()) and draw(st.booleans()):
        return Interval(start, INFINITY)
    length = draw(st.integers(min_value=1, max_value=max_length))
    return Interval(start, start + length)


@st.composite
def interval_lists(draw, max_size: int = 8, **kwargs):
    return draw(st.lists(intervals(**kwargs), min_size=0, max_size=max_size))


@st.composite
def concrete_instances(
    draw,
    relations: tuple[tuple[str, int], ...] = (("R", 1), ("S", 1)),
    max_facts: int = 8,
    domain: tuple[str, ...] = ("a", "b", "c"),
    **interval_kwargs,
):
    """Random concrete instances over small unary/binary relations."""
    count = draw(st.integers(min_value=0, max_value=max_facts))
    instance = ConcreteInstance()
    for _ in range(count):
        relation, arity = draw(st.sampled_from(relations))
        values = [draw(st.sampled_from(domain)) for _ in range(arity)]
        stamp = draw(intervals(**interval_kwargs))
        instance.add(concrete_fact(relation, *values, interval=stamp))
    return instance


@st.composite
def employment_instances(draw, max_facts: int = 6):
    """Random E+/S+ instances for the join mapping (possibly uncoalesced)."""
    count = draw(st.integers(min_value=0, max_value=max_facts))
    names = ("ada", "bob")
    companies = ("ibm", "hp")
    salaries = ("10k", "20k")
    instance = ConcreteInstance()
    for _ in range(count):
        stamp = draw(intervals(max_start=12, max_length=6))
        if draw(st.booleans()):
            instance.add(
                concrete_fact(
                    "E",
                    draw(st.sampled_from(names)),
                    draw(st.sampled_from(companies)),
                    interval=stamp,
                )
            )
        else:
            instance.add(
                concrete_fact(
                    "S",
                    draw(st.sampled_from(names)),
                    draw(st.sampled_from(salaries)),
                    interval=stamp,
                )
            )
    return instance


@st.composite
def ground_terms(draw):
    """Constants of several Python types, both null kinds, interval values."""
    kind = draw(st.integers(min_value=0, max_value=3))
    if kind == 0:
        return Constant(
            draw(
                st.one_of(
                    st.text(min_size=0, max_size=6),
                    st.integers(min_value=-(2**70), max_value=2**70),
                    st.booleans(),
                    st.none(),
                )
            )
        )
    if kind == 1:
        return LabeledNull(draw(st.sampled_from(("N1", "N2", "M3"))))
    if kind == 2:
        return AnnotatedNull(
            draw(st.sampled_from(("N1", "N2"))),
            draw(intervals(allow_unbounded=True)),
        )
    return Constant(draw(intervals(allow_unbounded=True)))


@st.composite
def relational_instances(draw, max_facts: int = 10):
    """Small snapshot instances over R/S/T with mixed arities and terms."""
    count = draw(st.integers(min_value=0, max_value=max_facts))
    instance = Instance()
    for _ in range(count):
        relation = draw(st.sampled_from(("R", "S", "T")))
        arity = draw(st.integers(min_value=1, max_value=3))
        instance.add(
            Fact(relation, tuple(draw(ground_terms()) for _ in range(arity)))
        )
    return instance
